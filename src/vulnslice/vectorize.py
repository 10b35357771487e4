"""Fixed-length vector encoding of SeVC symbol streams, and the vector store.

Encoding concatenates one embedding per symbol (symbolization is in
``symbols``) and fits the result to a fixed length of ``theta``
numbers (``theta = L * d``). Shorter streams are zero-padded at the
end. Longer streams keep the anchor-centred window of
``symbols.truncation_window``; if the anchor span cannot survive it,
encoding fails rather than silently cutting the anchor.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import atomic_open
from .symbols import (  # noqa: F401  re-exported
    EncodingError,
    SymbolicSeVC,
    symbolize,
    truncation_window,
)

if TYPE_CHECKING:  # train and detect read vectors and never load embeddings
    from .embeddings import EmbeddingTable


@dataclass
class SampleVector:
    """Fixed-length numeric encoding of one SeVC.

    ``values`` is float64 as ``encode`` makes it, and float32 as the
    store holds it (see ``save_vectors``)."""

    values: np.ndarray
    theta: int
    dimension: int
    syvc_id: int
    kept_symbols: int
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
        program=sym.program,
        kind=sym.kind,
    )


# --------------------------------------------------------------------------
# vector store
# --------------------------------------------------------------------------

_MAGIC = b"SVEC"
_VERSION = 1
# after the magic: version, theta, dimension, record count, seed
_HEADER = "<IIIQQ"
_COUNT_OFFSET = len(_MAGIC) + struct.calcsize("<III")
# the per-sample fields of the .idx sidecar, one json line per row; the
# rest (values, theta, dimension) live in the binary store and its header
_INDEX_FIELDS = tuple(
    f.name
    for f in fields(SampleVector)
    if f.name not in ("values", "theta", "dimension")
)


def save_vectors(path: str, samples: Iterable[SampleVector], seed: int) -> None:
    """Write the binary store and its json sidecar index.

    The store is a fixed header, then one float32 record per sample;
    the sidecar holds each sample's other fields, one json line per row.
    Each sample is written as the iterable yields it, so only one is in
    memory at a time, and the header's count is filled in at the end.
    An empty iterable writes nothing and raises ``EncodingError``.
    """
    samples = iter(samples)
    first = next(samples, None)
    if first is None:
        raise EncodingError("refusing to write an empty vector store")
    theta, d = first.theta, first.dimension
    # the same bytes as json.dumps(..., sort_keys=True), with one encoder
    encode = json.JSONEncoder(sort_keys=True).encode
    count = 0
    with atomic_open(path, "wb") as store, atomic_open(path + ".idx", "w") as index:
        store.write(_MAGIC)
        store.write(struct.pack(_HEADER, _VERSION, theta, d, 0, seed))
        for s in itertools.chain([first], samples):
            if s.theta != theta or s.dimension != d:
                raise EncodingError("mixed theta/dimension in one vector store")
            store.write(s.values.astype("<f4").tobytes())
            row = {name: getattr(s, name) for name in _INDEX_FIELDS}
            index.write(encode({"row": count, **row}))
            index.write("\n")
            count += 1
        store.seek(_COUNT_OFFSET)
        store.write(struct.pack("<Q", count))


def _corrupt(path: str, problem: str) -> EncodingError:
    return EncodingError(f"{path}: {problem}; re-run the 'vectorize' stage")


def load_vectors(path: str) -> tuple[list[SampleVector], int]:
    """Load a vector store; returns (samples, seed), with the errors of
    ``iter_vectors``. Each sample's values are float32, as stored."""
    samples, seed = iter_vectors(path)
    return list(samples), seed


def iter_vectors(path: str) -> tuple[Iterator[SampleVector], int]:
    """A vector store's samples, read one record at a time, and its seed.

    The header, the file size and the index's row count are checked
    here; an index line that does not parse, or whose ``kept_symbols``
    is not 1 to the store's capacity, raises when the iterator reaches
    it. Each sample's values are a read-only float32 array of
    its own, so a caller that drops each sample holds one at a time.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise _corrupt(path, f"not a vector store (bad magic {magic!r})")
        header = handle.read(struct.calcsize(_HEADER))
        if len(header) != struct.calcsize(_HEADER):
            raise _corrupt(path, "truncated vector store header")
        version, theta, d, count, seed = struct.unpack(_HEADER, header)
        if version != _VERSION:
            raise _corrupt(path, f"unsupported vector store version {version}")
        if d == 0 or theta % d != 0:
            raise _corrupt(path, f"theta {theta} is not a multiple of dimension {d}")
        if count == 0:
            raise _corrupt(path, "empty vector store")
        size = os.fstat(handle.fileno()).st_size - handle.tell()
    if size < count * theta * 4:
        raise _corrupt(path, "truncated vector store")
    if size > count * theta * 4:
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
    return _samples(path, theta, d, lines), seed


def _samples(path: str, theta: int, d: int, lines: list[str]) -> Iterator[SampleVector]:
    capacity = theta // d
    with open(path, "rb") as handle:
        handle.seek(len(_MAGIC) + struct.calcsize(_HEADER))
        for row, line in enumerate(lines):
            try:
                rec = json.loads(line)
                in_order = rec["row"] == row
                index_fields = {name: rec[name] for name in _INDEX_FIELDS}
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise _corrupt(path, f"bad index line {row + 1} ({exc!r})") from None
            if not in_order:
                raise _corrupt(path, f"index line {row + 1} is for row {rec['row']!r}")
            kept = index_fields["kept_symbols"]
            if not (type(kept) is int and 1 <= kept <= capacity):
                raise _corrupt(path, f"index line {row + 1} keeps {kept!r} of {capacity} symbols")
            values = np.frombuffer(handle.read(theta * 4), dtype="<f4")
            yield SampleVector(values=values, theta=theta, dimension=d, **index_fields)
