"""Syntax-based vulnerability candidate (SyVC) extraction.

A SyVC is a code element (one token or a run of consecutive tokens
inside a statement) that matches one of four syntax characteristics:

- FC  library/API function call: a Callee node whose name is on the
      configured call list.
- AU  array usage: an Identifier node declared in a declaration
      statement whose token text contains both ``[`` and ``]``.
- PU  pointer usage: an Identifier node declared in a declaration
      statement whose token text contains ``*``.
- AE  arithmetic expression: an ExpressionStatement node containing
      ``=`` with at least one identifier strictly right of the first ``=``.

Each characteristic tests one node kind (``NODE_KINDS``), so extraction
tests a node only against the enabled kinds its node kind can match.

AU/PU deliberately test the whole declaration's token text, so every
name in ``char *p, q;`` is a PU candidate. Compound assignments
(``+=`` and the like) are not AE. Candidates may nest (an FC callee
sits inside an AE statement); containment is never deduplicated.

Each statement's nodes come from the parser: extraction walks its
``Statement.roots``, and spans are rebased by its ``Statement.start``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from importlib import resources

from .frontend import (
    IDENTIFIER,
    OPERATOR,
    ROLE_DECLARED,
    ST_DECLARATION,
    AstNode,
    FunctionDecl,
    ProgramModel,
)
from .presets import ALL_KINDS, KIND_AE, KIND_AU, KIND_FC, KIND_PU


# the one AST node kind each characteristic tests
NODE_KINDS = {
    KIND_FC: "Callee",
    KIND_AU: "Identifier",
    KIND_PU: "Identifier",
    KIND_AE: "ExpressionStatement",
}


class CharacteristicConfigError(Exception):
    pass


def default_fc_calls() -> frozenset[str]:
    text = resources.files("vulnslice.data").joinpath("fc_calls.txt").read_text()
    return _parse_fc_list(text)


def load_fc_calls(path: str) -> frozenset[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return _parse_fc_list(handle.read())


def _parse_fc_list(text: str) -> frozenset[str]:
    names = set()
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            names.add(line)
    return frozenset(names)


@dataclass(frozen=True)
class CharacteristicSet:
    """Which characteristics are enabled, and the FC call list."""

    fc_calls: frozenset[str] = field(default_factory=default_fc_calls)
    enabled: tuple[str, ...] = ALL_KINDS

    def __post_init__(self):
        for kind in self.enabled:
            if kind not in ALL_KINDS:
                raise CharacteristicConfigError(f"unknown SyVC kind {kind!r}")
        if KIND_FC in self.enabled and not self.fc_calls:
            raise CharacteristicConfigError(
                "FC characteristic enabled but the call list is empty"
            )


@dataclass(frozen=True)
class SyVC:
    """A matched code element: its kind, statement, and token span.

    ``span`` indexes into the owning statement's token list;
    ``anchor_text`` is the space-joined text of the spanned tokens.
    """

    id: int
    kind: str
    statement_id: int
    function_index: int
    file: str
    function: str
    line: int
    span: tuple[int, int]
    anchor_text: str

    @classmethod
    def from_record(cls, record: dict) -> SyVC:
        """The candidate of a ``syvc_record``; other keys are ignored."""
        values = {f.name: record[f.name] for f in fields(cls)}
        values["span"] = tuple(values["span"])
        return cls(**values)


def match_characteristic(
    node: AstNode,
    kind: str,
    cset: CharacteristicSet,
    fn: FunctionDecl,
) -> bool:
    """Does one AST node of ``fn`` match the given characteristic?"""
    if kind not in ALL_KINDS:
        raise CharacteristicConfigError(f"unknown SyVC kind {kind!r}")
    if node.kind != NODE_KINDS[kind]:
        return False
    if kind == KIND_FC:
        lo, hi = node.span
        return hi - lo == 1 and fn.tokens[lo].text in cset.fc_calls
    if kind in (KIND_AU, KIND_PU):
        tok = fn.tokens[node.span[0]]
        if tok.role != ROLE_DECLARED:
            return False
        st = fn.statement(node.statement_id)
        if st.kind != ST_DECLARATION:
            return False
        texts = {t.text for t in st.tokens}
        if kind == KIND_AU:
            return "[" in texts and "]" in texts
        return "*" in texts
    # AE
    lo, hi = node.span
    for i in range(lo, hi):
        tok = fn.tokens[i]
        if tok.kind == OPERATOR and tok.text == "=":
            return any(fn.tokens[j].kind == IDENTIFIER for j in range(i + 1, hi))
    return False


def extract_syvcs(program: ProgramModel, cset: CharacteristicSet) -> list[SyVC]:
    """All (element, kind) matches over every function's AST.

    Deterministic order: (function, statement, span, kind). An element
    matching several enabled kinds yields one SyVC per kind.
    """
    # the enabled kinds each node kind can match, in enabled order
    kinds_of: dict[str, list[str]] = {}
    for kind in cset.enabled:
        kinds_of.setdefault(NODE_KINDS[kind], []).append(kind)
    found: list[SyVC] = []
    for fn in program.functions:
        for st in fn.all_statements():
            for node in (n for root in st.roots for n in root.walk()):
                for kind in kinds_of.get(node.kind, ()):
                    if not match_characteristic(node, kind, cset, fn):
                        continue
                    # AE reports the expression itself, without the ';'
                    span_node = node.children[0] if kind == KIND_AE else node
                    lo, hi = span_node.span
                    span = (lo - st.start, hi - st.start)
                    text = " ".join(t.text for t in st.tokens[span[0] : span[1]])
                    found.append(
                        SyVC(
                            id=-1,  # numbered once sorted
                            kind=kind,
                            statement_id=st.id,
                            function_index=fn.index,
                            file=fn.file_path,
                            function=fn.name,
                            line=st.line_first,
                            span=span,
                            anchor_text=text,
                        )
                    )
    found.sort(
        key=lambda s: (
            s.function_index, s.statement_id, s.span, ALL_KINDS.index(s.kind)
        )
    )
    return [replace(syvc, id=i) for i, syvc in enumerate(found)]


def syvc_record(syvc: SyVC) -> dict:
    """The syvc.jsonl record for one candidate: every field, span as a list."""
    record = {f.name: getattr(syvc, f.name) for f in fields(syvc)}
    record["span"] = list(syvc.span)
    return record
