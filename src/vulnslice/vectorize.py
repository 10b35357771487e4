"""Fixed-length vector encoding of SeVC symbol streams, and the vector store.

Encoding concatenates one embedding per symbol (symbolization is in
``symbols``) and fits the result to a fixed length of ``theta``
numbers (``theta = L * d``). Shorter streams are zero-padded at the
end. Longer streams keep the anchor-centred window of
``symbols.truncation_window``; if the anchor span cannot survive it,
encoding fails rather than silently cutting the anchor.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from .artifacts import atomic_open
from .embeddings import EmbeddingTable
from .symbols import (  # noqa: F401  re-exported
    BUILTIN_NAMES,
    STRING_SYMBOL,
    EncodingError,
    SymbolicSeVC,
    symbolize,
    truncation_window,
)


@dataclass
class SampleVector:
    """Fixed-length numeric encoding of one SeVC."""

    values: np.ndarray
    theta: int
    dimension: int
    syvc_id: int
    kept_symbols: int
    anchor_lo: int
    anchor_hi: int
    program: str = ""
    kind: str = ""

    @property
    def capacity(self) -> int:
        return self.theta // self.dimension

    def matrix(self) -> np.ndarray:
        return self.values.reshape(self.capacity, self.dimension)


def encode(sym: SymbolicSeVC, table: EmbeddingTable, theta: int) -> SampleVector:
    """Encode a symbol stream into exactly ``theta`` numbers."""
    d = table.dimension
    if theta % d != 0:
        raise EncodingError(f"theta={theta} is not divisible by dimension={d}")
    capacity = theta // d
    n = len(sym.symbols)
    lo, hi = truncation_window(n, sym.anchor_lo, sym.anchor_hi, capacity)
    kept = sym.symbols[lo:hi]
    values = np.zeros(theta, dtype=np.float64)
    for i, symbol in enumerate(kept):
        values[i * d : (i + 1) * d] = table.lookup(symbol)
    return SampleVector(
        values=values,
        theta=theta,
        dimension=d,
        syvc_id=sym.syvc_id,
        kept_symbols=len(kept),
        anchor_lo=sym.anchor_lo - lo,
        anchor_hi=sym.anchor_hi - lo,
        program=sym.program,
        kind=sym.kind,
    )


# --------------------------------------------------------------------------
# vector store
# --------------------------------------------------------------------------

_MAGIC = b"SVEC"
_VERSION = 1
# the per-sample fields of the .idx sidecar, one json line per row; the
# rest (values, theta, dimension) live in the binary store and its header
_INDEX_FIELDS = tuple(
    f.name
    for f in fields(SampleVector)
    if f.name not in ("values", "theta", "dimension")
)


def save_vectors(path: str, samples: list[SampleVector], seed: int) -> None:
    """Binary store: fixed header, float32 records, json sidecar index."""
    if not samples:
        raise EncodingError("refusing to write an empty vector store")
    theta = samples[0].theta
    d = samples[0].dimension
    for s in samples:
        if s.theta != theta or s.dimension != d:
            raise EncodingError("mixed theta/dimension in one vector store")
    # streamed record by record: the store is never held in memory twice
    with atomic_open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<IIIQQ", _VERSION, theta, d, len(samples), seed))
        for s in samples:
            handle.write(s.values.astype("<f4").tobytes())
    index = [
        {"row": i, **{name: getattr(s, name) for name in _INDEX_FIELDS}}
        for i, s in enumerate(samples)
    ]
    # the same bytes as json.dumps(..., sort_keys=True), with one encoder
    encode = json.JSONEncoder(sort_keys=True).encode
    with atomic_open(path + ".idx", "w") as handle:
        for record in index:
            handle.write(encode(record))
            handle.write("\n")


def _corrupt(path: str, problem: str) -> EncodingError:
    return EncodingError(f"{path}: {problem}; re-run the 'vectorize' stage")


def load_vectors(path: str) -> tuple[list[SampleVector], int]:
    """Load a vector store; returns (samples, seed)."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != _MAGIC:
            raise _corrupt(path, f"not a vector store (bad magic {magic!r})")
        header = handle.read(28)
        if len(header) != 28:
            raise _corrupt(path, "truncated vector store header")
        version, theta, d, count, seed = struct.unpack("<IIIQQ", header)
        if version != _VERSION:
            raise _corrupt(path, f"unsupported vector store version {version}")
        raw = np.frombuffer(handle.read(count * theta * 4), dtype="<f4")
        if raw.size != count * theta:
            raise _corrupt(path, "truncated vector store")
        if handle.read(1):
            raise _corrupt(path, "bytes after the last record")
    try:
        with open(path + ".idx", "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise _corrupt(path, "index sidecar .idx is missing") from None
    except UnicodeDecodeError:
        raise _corrupt(path, "index sidecar .idx is not text") from None
    if len(lines) != count:
        raise _corrupt(path, "index rows do not match header count")
    matrix = raw.reshape(count, theta).astype(np.float64)
    samples: list[SampleVector] = []
    for row, line in enumerate(lines):
        try:
            rec = json.loads(line)
            in_order = rec["row"] == row
            index_fields = {name: rec[name] for name in _INDEX_FIELDS}
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise _corrupt(path, f"bad index line {row + 1} ({exc!r})") from None
        if not in_order:
            raise _corrupt(path, f"index line {row + 1} is for row {rec['row']!r}")
        samples.append(
            SampleVector(values=matrix[row], theta=theta, dimension=d, **index_fields)
        )
    return samples, seed
