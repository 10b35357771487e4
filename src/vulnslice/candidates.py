"""Syntax-based vulnerability candidate (SyVC) extraction.

A SyVC is a code element (one token or a run of consecutive tokens
inside a statement) that matches one of four syntax characteristics:

- FC  library/API function call: a Callee node whose name is on the
      configured call list.
- AU  array usage: an identifier declared in a declaration statement
      whose token text contains both ``[`` and ``]``.
- PU  pointer usage: an identifier declared in a declaration statement
      whose token text contains ``*``.
- AE  arithmetic expression: an expression statement containing ``=``
      with at least one identifier strictly right of the first ``=``.

AU/PU deliberately test the whole declaration's token text, so every
name in ``char *p, q;`` is a PU candidate. Candidates may nest (an FC
callee sits inside an AE statement); containment is never deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import resources

from .frontend import (
    IDENTIFIER,
    OPERATOR,
    ROLE_DECLARED,
    AstNode,
    FunctionDecl,
    ProgramModel,
)
from .presets import ALL_KINDS, KIND_AE, KIND_AU, KIND_FC, KIND_PU


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
    include_compound_assign: bool = False

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


def _statement_node(
    node: AstNode, node_index: dict[int, AstNode]
) -> AstNode | None:
    """Outermost node sharing ``node``'s statement id (the statement node)."""
    if node.statement_id is None:
        return None
    current = node
    while current.parent_id is not None:
        parent = node_index[current.parent_id]
        if parent.statement_id != node.statement_id:
            break
        current = parent
    return current


def match_characteristic(
    node: AstNode,
    kind: str,
    cset: CharacteristicSet,
    fn: FunctionDecl,
    _node_index: dict[int, AstNode] | None = None,
) -> bool:
    """Does one AST node of ``fn`` match the given characteristic?"""
    if kind not in ALL_KINDS:
        raise CharacteristicConfigError(f"unknown SyVC kind {kind!r}")
    if kind == KIND_FC:
        if node.kind != "Callee":
            return False
        lo, hi = node.span
        return hi - lo == 1 and fn.tokens[lo].text in cset.fc_calls
    if kind in (KIND_AU, KIND_PU):
        if node.kind != "Identifier":
            return False
        tok = fn.tokens[node.span[0]]
        if tok.role != ROLE_DECLARED:
            return False
        index = _node_index or {n.id: n for n in fn.ast.walk()}
        stmt_node = _statement_node(node, index)
        if stmt_node is None or stmt_node.kind != "IdentifierDeclStatement":
            return False
        texts = {fn.tokens[i].text for i in range(*stmt_node.span)}
        if kind == KIND_AU:
            return "[" in texts and "]" in texts
        return "*" in texts
    # AE
    if node.kind != "ExpressionStatement":
        return False
    assign_ops = {"="}
    if cset.include_compound_assign:
        assign_ops |= {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
    lo, hi = node.span
    first_eq = None
    for i in range(lo, hi):
        tok = fn.tokens[i]
        if tok.kind == OPERATOR and tok.text in assign_ops:
            first_eq = i
            break
    if first_eq is None:
        return False
    return any(fn.tokens[i].kind == IDENTIFIER for i in range(first_eq + 1, hi))


def extract_syvcs(program: ProgramModel, cset: CharacteristicSet) -> list[SyVC]:
    """All (element, kind) matches over every function's AST.

    Deterministic order: (function, statement, span, kind). An element
    matching several enabled kinds yields one SyVC per kind.
    """
    found: list[tuple] = []
    stmt_index = program.statement_index()
    for fn in program.functions:
        stmt_token_start = _statement_token_starts(fn)
        node_index = {n.id: n for n in fn.ast.walk()}
        for node in fn.ast.walk():
            for kind in cset.enabled:
                if not match_characteristic(node, kind, cset, fn, node_index):
                    continue
                span_node = node
                if kind == KIND_AE:
                    # Report the expression itself, without the ';'.
                    for child in node.children:
                        if child.kind not in ("Punct",):
                            span_node = child
                            break
                sid = node.statement_id
                assert sid is not None
                st = stmt_index[sid]
                base = stmt_token_start[sid]
                lo, hi = span_node.span
                span = (lo - base, hi - base)
                text = " ".join(t.text for t in st.tokens[span[0] : span[1]])
                found.append(
                    (
                        fn.index,
                        sid,
                        span,
                        kind,
                        st.line_first,
                        fn.file_path,
                        fn.name,
                        text,
                    )
                )
    found.sort(key=lambda rec: (rec[0], rec[1], rec[2], ALL_KINDS.index(rec[3])))
    return [
        SyVC(
            id=i,
            kind=kind,
            statement_id=sid,
            function_index=fidx,
            file=file,
            function=fname,
            line=line,
            span=span,
            anchor_text=text,
        )
        for i, (fidx, sid, span, kind, line, file, fname, text) in enumerate(found)
    ]


def _statement_token_starts(fn: FunctionDecl) -> dict[int, int]:
    """First function-token index of each statement (for span rebasing)."""
    starts: dict[int, int] = {}
    for node in fn.ast.walk():
        sid = node.statement_id
        if sid is None:
            continue
        lo = node.span[0]
        if sid not in starts or lo < starts[sid]:
            starts[sid] = lo
    return starts


def syvc_record(syvc: SyVC) -> dict:
    """The syvc.jsonl record for one candidate: every field, span as a list."""
    record = {f.name: getattr(syvc, f.name) for f in fields(syvc)}
    record["span"] = list(syvc.span)
    return record
