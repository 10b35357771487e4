"""Differential test: SyVC extraction against the loop it replaced.

``extract_syvcs`` used to test every enabled kind on every AST node of a
statement, and ``match_characteristic`` checked each kind's node kind
itself, and it numbered the sorted SyVCs with ``dataclasses.replace``.
Extraction now tests a node only against the enabled kinds its node kind
can match (``candidates.NODE_KINDS``), sorts the matches, and makes each
SyVC once with its id. Both old functions are kept here as the
reference, unchanged but for naming each SyVC's program, which the CLI
used to add to its record: every bundled C file, the mini-corpus
templates and random mutants of both must give the same SyVC list from
both, ids included, for each kind set below. Each SyVC's syvc.jsonl line, as
``artifacts.encode_record`` writes it, must hold exactly its fields and
read back as itself through ``SyVC.from_record``.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

from hypothesis import given, settings

from vulnslice.artifacts import encode_record
from vulnslice.candidates import (
    CharacteristicConfigError,
    CharacteristicSet,
    SyVC,
    default_fc_calls,
    extract_syvcs,
)
from vulnslice.frontend import (
    IDENTIFIER,
    OPERATOR,
    ROLE_DECLARED,
    ST_DECLARATION,
    AstNode,
    FunctionDecl,
    LexError,
    ProgramModel,
    parse_source,
)
from vulnslice.presets import ALL_KINDS, KIND_AE, KIND_AU, KIND_FC, KIND_PU

from test_frontend_reference import BUNDLED, TEMPLATE_PROGRAMS, mutants

KIND_SETS = [ALL_KINDS, ("FC",), ("AU", "PU"), ("AE",), ("PU", "AE")]
FC_CALLS = default_fc_calls()
# call-list names read as values: only the call is an FC candidate, so
# FC must test the Callee node, not the Identifier under it
VALUE_USES = """
void take(char *dst)
{
    char *copy = strcpy;
    use(strcpy, gets);
    strcpy(dst, copy);
}
"""


def reference_match_characteristic(
    node: AstNode,
    kind: str,
    cset: CharacteristicSet,
    fn: FunctionDecl,
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
        st = fn.statement(node.statement_id)
        if st.kind != ST_DECLARATION:
            return False
        texts = {t.text for t in st.tokens}
        if kind == KIND_AU:
            return "[" in texts and "]" in texts
        return "*" in texts
    # AE
    if node.kind != "ExpressionStatement":
        return False
    lo, hi = node.span
    for i in range(lo, hi):
        tok = fn.tokens[i]
        if tok.kind == OPERATOR and tok.text == "=":
            return any(fn.tokens[j].kind == IDENTIFIER for j in range(i + 1, hi))
    return False


def reference_extract_syvcs(program: ProgramModel, cset: CharacteristicSet) -> list[SyVC]:
    """All (element, kind) matches over every function's AST.

    Deterministic order: (function, statement, span, kind). An element
    matching several enabled kinds yields one SyVC per kind.
    """
    found: list[SyVC] = []
    for fn in program.functions:
        for st in fn.all_statements():
            for node in (n for root in st.roots for n in root.walk()):
                for kind in cset.enabled:
                    if not reference_match_characteristic(node, kind, cset, fn):
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
                            program=program.name,
                        )
                    )
    found.sort(
        key=lambda s: (
            s.function_index, s.statement_id, s.span, ALL_KINDS.index(s.kind)
        )
    )
    return [replace(syvc, id=i) for i, syvc in enumerate(found)]


def assert_extracts_as_reference(source: str) -> dict[tuple[str, ...], int]:
    """Extract from ``source`` under every kind set, both ways; return
    how many SyVCs each kind set found."""
    try:
        model = parse_source(source)
    except LexError:  # load_program skips the file
        return {}
    found = {}
    for kinds in KIND_SETS:
        cset = CharacteristicSet(fc_calls=FC_CALLS, enabled=kinds)
        syvcs = extract_syvcs(model, cset)
        assert syvcs == reference_extract_syvcs(model, cset), kinds
        assert [s.id for s in syvcs] == list(range(len(syvcs)))
        for syvc in syvcs:
            record = json.loads(encode_record(syvc))
            assert list(record) == sorted(f.name for f in fields(SyVC))
            assert SyVC.from_record(record) == syvc
        found[kinds] = len(syvcs)
    return found


def test_unmutated_sources_extract_as_the_reference():
    totals = dict.fromkeys(KIND_SETS, 0)
    for source in sorted(BUNDLED.values()) + TEMPLATE_PROGRAMS + [VALUE_USES]:
        for kinds, count in assert_extracts_as_reference(source).items():
            totals[kinds] += count
    # every kind set finds candidates, so each comparison compares something
    assert all(totals.values()), totals


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutants())
def test_mutants_extract_as_the_reference(source):
    assert_extracts_as_reference(source)
