"""SeVC symbol streams and the critical tokens of a verdict, without numpy.

Symbolization renames user variables to V1, V2, ... and user-defined
function names to F1, F2, ... in first-appearance order, one-to-one
within each SeVC. Keywords, operators, constants, type names, struct
fields, well-known builtins (NULL and friends), library calls, and
every name on the FC call list keep their spelling. String literal
contents collapse to the single symbol ``"STR"`` so the vocabulary
stays bounded; character literals survive verbatim.

A stream longer than the model's L symbols is truncated at
whole-symbol granularity around the anchor statement's symbols:

1. forward region shorter than L/2  -> drop leftmost symbols;
2. backward region shorter than L/2 -> drop rightmost symbols;
3. otherwise drop ceil(e/2) leftmost and floor(e/2) rightmost, where
   e is the excess.

The anchor span must survive whichever branch applies; if it cannot,
truncation fails rather than silently cutting the anchor.
``SymbolicSeVC.kept`` applies it wherever a stream is fitted.

A verdict is explained by the BGRU's activation output at each kept
symbol: where it jumps by at least delta, the symbol is critical. Its
``CriticalToken`` holds the jump rounded to 6 places, as explain.jsonl
records it.

``vectorize`` (encoding) and ``bgru`` (the model) re-export these
names; they live here so that the ``explain`` stage, which works from
``detect``'s recorded activations, runs without numpy.

``SeVC`` and ``SevcStatement`` are the sevc.jsonl record, which
``slicing`` assembles and re-exports. They live here, beside
``symbolize``, which consumes them, so that the stages that decode
sevc.jsonl (vectorize, label, explain) load neither the PDG builder
nor the slicer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .lexicon import (
    IDENTIFIER,
    ROLE_CALLEE,
    ROLE_FIELD,
    ROLE_FUNCTION,
    ROLE_TYPE,
    STRING,
)
from .presets import ModelError

if TYPE_CHECKING:
    from .candidates import CharacteristicSet
    from .frontend import ProgramModel

STRING_SYMBOL = '"STR"'

# Identifiers that read like variables but are language furniture.
BUILTIN_NAMES = frozenset(
    "NULL EOF stdin stdout stderr errno true false".split()
)


class EncodingError(Exception):
    pass


@dataclass
class SevcStatement:
    file: str
    function: str
    statement_id: int
    line: int
    text: str
    region: str


@dataclass
class SeVC:
    """Ordered statements semantically tied to one SyVC: its sevc.jsonl record."""

    syvc_id: int
    kind: str
    anchor_statement: int
    statements: list[SevcStatement] = field(metadata={"record": SevcStatement})
    program: str = ""

    @classmethod
    def from_record(cls, record: dict) -> SeVC:
        """The SeVC of a sevc.jsonl record."""
        statements = [SevcStatement(**s) for s in record["statements"]]
        return cls(**{**record, "statements": statements})


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

    def kept(self, capacity: int) -> list[str]:
        """The symbols a model of ``capacity`` symbols keeps: those of
        ``truncation_window``, which raises ``EncodingError`` when the
        anchor span cannot survive it."""
        lo, hi = truncation_window(len(self.symbols), self.anchor_lo, self.anchor_hi, capacity)
        return self.symbols[lo:hi]


def symbolize(sevc: SeVC, program: ProgramModel, cset: CharacteristicSet) -> SymbolicSeVC:
    """Rename one SeVC into its symbolic representation, with each
    statement's tokens from ``program.statement_index()`` and the user
    functions from ``program.functions``, of the parse it was sliced from.
    The same variable maps to the same symbol everywhere in the SeVC;
    distinct SeVCs may well produce identical streams.
    """
    index = program.statement_index()
    user_functions = {fn.name for fn in program.functions}
    var_names: dict[str, str] = {}
    fn_names: dict[str, str] = {}
    symbols: list[str] = []
    anchor_lo = anchor_hi = None
    for st in sevc.statements:
        if st.statement_id == sevc.anchor_statement:
            anchor_lo = len(symbols)
        for tok in index[st.statement_id].tokens:
            symbols.append(_symbol_for(tok, user_functions, cset, var_names, fn_names))
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


def _symbol_for(tok, user_functions, cset: CharacteristicSet, var_names, fn_names) -> str:
    if tok.kind == STRING:
        return STRING_SYMBOL
    if tok.kind != IDENTIFIER:
        return tok.text
    if tok.text in cset.fc_calls or tok.text in BUILTIN_NAMES:
        return tok.text
    if tok.role in (ROLE_TYPE, ROLE_FIELD):
        return tok.text
    if tok.role in (ROLE_CALLEE, ROLE_FUNCTION):
        if tok.text in user_functions:
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


@dataclass
class ActivationTrace:
    """Per-timestep activation outputs; the final one is the verdict."""

    # shape (T,), each in (0, 1): a numpy array from bgru.forward_batch,
    # a list of floats as read back from detect.jsonl
    outputs: Sequence[float]

    @property
    def final(self) -> float:
        return float(self.outputs[-1])


@dataclass(frozen=True)
class CriticalToken:
    position: int  # timestep (0-based) of the critical token
    symbol: str
    direction: str  # "vulnerable" | "not-vulnerable"
    delta: float  # the activation jump, rounded to 6 places


def explain(
    trace: ActivationTrace, symbols: list[str], delta: float = 0.6
) -> list[CriticalToken]:
    """Tokens whose activation jump crosses +-delta between timesteps.

    A rise of at least delta marks the right-hand token as critical
    toward vulnerable; a fall of at least delta marks it critical
    toward not vulnerable. delta is compared with the unrounded jump.
    """
    outputs = trace.outputs
    if len(symbols) != len(outputs):
        raise ModelError(
            f"{len(symbols)} symbols vs {len(outputs)} trace steps; "
            "pass the kept (non-padding) symbol window"
        )
    report: list[CriticalToken] = []
    for t in range(len(outputs) - 1):
        jump = float(outputs[t + 1] - outputs[t])
        if abs(jump) >= delta:
            direction = "vulnerable" if jump >= delta else "not-vulnerable"
            report.append(CriticalToken(t + 1, symbols[t + 1], direction, round(jump, 6)))
    return report
