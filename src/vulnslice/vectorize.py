"""SeVC symbolization and fixed-length vector encoding.

Symbolization renames user variables to V1, V2, ... and user-defined
function names to F1, F2, ... in first-appearance order, one-to-one
within each SeVC. Keywords, operators, constants, type names, struct
fields, well-known builtins (NULL and friends), library calls, and
every name on the FC call list keep their spelling. String literal
contents collapse to the single symbol ``"STR"`` so the vocabulary
stays bounded; character literals survive verbatim.

Encoding concatenates one embedding per symbol and fits the result to
a fixed length of ``theta`` numbers (``theta = L * d``). Shorter
streams are zero-padded at the end. Longer streams are truncated at
whole-symbol granularity around the anchor statement's symbols:

1. forward region shorter than L/2  -> drop leftmost symbols;
2. backward region shorter than L/2 -> drop rightmost symbols;
3. otherwise drop ceil(e/2) leftmost and floor(e/2) rightmost, where
   e is the excess.

The anchor span must survive whichever branch applies; if it cannot,
encoding fails rather than silently cutting the anchor.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from .artifacts import atomic_open
from .candidates import CharacteristicSet
from .embeddings import EmbeddingTable
from .frontend import (
    IDENTIFIER,
    ROLE_CALLEE,
    ROLE_FIELD,
    ROLE_FUNCTION,
    ROLE_TYPE,
    STRING,
)
from .slicing import SeVC

STRING_SYMBOL = '"STR"'

# Identifiers that read like variables but are language furniture.
BUILTIN_NAMES = frozenset(
    "NULL EOF stdin stdout stderr errno true false".split()
)


class EncodingError(Exception):
    pass


@dataclass
class SymbolicSeVC:
    """Renamed symbol stream with anchor span positions.

    ``anchor_lo``/``anchor_hi`` delimit the anchor statement's symbols;
    everything before is the backward region, everything after the
    forward region (positions, not tags, drive truncation).
    """

    syvc_id: int
    symbols: list[str]
    anchor_lo: int
    anchor_hi: int
    kind: str = ""
    program: str = ""


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
    label: int | None = None
    needs_review: bool = False
    program: str = ""
    kind: str = ""

    @property
    def capacity(self) -> int:
        return self.theta // self.dimension

    def matrix(self) -> np.ndarray:
        return self.values.reshape(self.capacity, self.dimension)


def symbolize(sevc: SeVC, cset: CharacteristicSet) -> SymbolicSeVC:
    """Rename one SeVC into its symbolic representation.

    The same variable maps to the same symbol everywhere in the SeVC;
    distinct SeVCs may well produce identical streams.
    """
    var_names: dict[str, str] = {}
    fn_names: dict[str, str] = {}
    symbols: list[str] = []
    anchor_lo = anchor_hi = None
    for st in sevc.statements:
        if st.statement_id == sevc.anchor_statement:
            anchor_lo = len(symbols)
        for tok in st.tokens:
            symbols.append(_symbol_for(tok, sevc, cset, var_names, fn_names))
        if st.statement_id == sevc.anchor_statement:
            anchor_hi = len(symbols)
    if anchor_lo is None or anchor_hi is None:
        raise EncodingError(
            f"SeVC {sevc.syvc_id} does not contain its anchor statement"
        )
    return SymbolicSeVC(
        syvc_id=sevc.syvc_id,
        symbols=symbols,
        anchor_lo=anchor_lo,
        anchor_hi=anchor_hi,
        kind=sevc.kind,
        program=sevc.program,
    )


def _symbol_for(tok, sevc: SeVC, cset: CharacteristicSet, var_names, fn_names) -> str:
    if tok.kind == STRING:
        return STRING_SYMBOL
    if tok.kind != IDENTIFIER:
        return tok.text
    if tok.text in cset.fc_calls or tok.text in BUILTIN_NAMES:
        return tok.text
    if tok.role in (ROLE_TYPE, ROLE_FIELD):
        return tok.text
    if tok.role in (ROLE_CALLEE, ROLE_FUNCTION):
        if tok.text in sevc.user_functions:
            if tok.text not in fn_names:
                fn_names[tok.text] = f"F{len(fn_names) + 1}"
            return fn_names[tok.text]
        return tok.text  # library call, kept verbatim
    if tok.text not in var_names:
        var_names[tok.text] = f"V{len(var_names) + 1}"
    return var_names[tok.text]


def truncation_window(
    n: int, anchor_lo: int, anchor_hi: int, capacity: int
) -> tuple[int, int]:
    """Kept-symbol window [lo, hi) for a stream of n symbols.

    Implements the three truncation branches at symbol granularity and
    raises EncodingError when the anchor span cannot survive.
    """
    if n <= capacity:
        return 0, n
    forward = n - anchor_hi
    backward = anchor_lo
    if 2 * forward < capacity:
        lo, hi = n - capacity, n
        branch = "forward-short"
    elif 2 * backward < capacity:
        lo, hi = 0, capacity
        branch = "backward-short"
    else:
        excess = n - capacity
        drop_left = (excess + 1) // 2
        drop_right = excess // 2
        lo, hi = drop_left, n - drop_right
        branch = "split"
    if lo > anchor_lo or hi < anchor_hi:
        raise EncodingError(
            f"anchor span [{anchor_lo},{anchor_hi}) cannot survive "
            f"{branch} truncation to {capacity} symbols "
            f"(stream has {n}); increase the symbol capacity"
        )
    return lo, hi


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
    with atomic_open(path + ".idx", "w") as handle:
        for record in index:
            handle.write(json.dumps(record, sort_keys=True))
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
