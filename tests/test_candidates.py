"""Candidate matching rules and extraction order/completeness."""

import pytest

from vulnslice.candidates import (
    ALL_KINDS,
    CharacteristicConfigError,
    CharacteristicSet,
    default_fc_calls,
    extract_syvcs,
    match_characteristic,
)
from vulnslice.frontend import parse_source


def full_set(**kwargs):
    return CharacteristicSet(**kwargs)


def find_node(fn, kind, text=None):
    for node in fn.ast.walk():
        if node.kind != kind:
            continue
        if text is None:
            return node
        lo, hi = node.span
        joined = " ".join(t.text for t in fn.tokens[lo:hi])
        if joined == text:
            return node
    raise AssertionError(f"no {kind} node matching {text!r}")


def test_fc_matches_listed_callee():
    model = parse_source("void f(char *p){memset(p, 0, 4);}")
    fn = model.functions[0]
    callee = find_node(fn, "Callee")
    assert match_characteristic(callee, "FC", full_set(), fn)


def test_fc_rejects_unlisted_callee():
    model = parse_source("void f(char *p){scrub(p);}")
    fn = model.functions[0]
    callee = find_node(fn, "Callee")
    assert not match_characteristic(callee, "FC", full_set(), fn)


def test_au_matches_declared_array_identifier():
    model = parse_source("void f(){char source[100];}")
    fn = model.functions[0]
    ident = find_node(fn, "Identifier", "source")
    assert match_characteristic(ident, "AU", full_set(), fn)
    assert not match_characteristic(ident, "PU", full_set(), fn)


def test_pu_matches_declared_pointer_identifier():
    model = parse_source("void f(){char *data;}")
    fn = model.functions[0]
    ident = find_node(fn, "Identifier", "data")
    assert match_characteristic(ident, "PU", full_set(), fn)
    assert not match_characteristic(ident, "AU", full_set(), fn)


def test_plain_declaration_matches_nothing():
    model = parse_source("void f(){int a;}")
    fn = model.functions[0]
    ident = find_node(fn, "Identifier", "a")
    for kind in ALL_KINDS:
        assert not match_characteristic(ident, kind, full_set(), fn)


def test_au_pu_use_whole_declaration_text():
    # one declaration declaring both: the star/bracket marks every name
    model = parse_source("void f(){char *p, q[4];}")
    fn = model.functions[0]
    for name in ("p", "q"):
        ident = find_node(fn, "Identifier", name)
        assert match_characteristic(ident, "PU", full_set(), fn)
        assert match_characteristic(ident, "AU", full_set(), fn)


def test_ae_requires_identifier_right_of_first_assign():
    model = parse_source("void f(int v){int o; o = v; o = 5;}")
    fn = model.functions[0]
    with_ident = [
        n
        for n in fn.ast.walk()
        if n.kind == "ExpressionStatement"
    ]
    cset = full_set()
    results = [match_characteristic(n, "AE", cset, fn) for n in with_ident]
    assert results == [True, False]


def test_ae_ignores_use_in_declaration():
    model = parse_source("void f(int v){int o = v;}")
    fn = model.functions[0]
    decl = find_node(fn, "IdentifierDeclStatement")
    assert not match_characteristic(decl, "AE", full_set(), fn)


def test_ae_excludes_compound_assignment():
    model = parse_source("void f(int v){int o; o = 0; o += v;}")
    fn = model.functions[0]
    stmts = [n for n in fn.ast.walk() if n.kind == "ExpressionStatement"]
    compound = stmts[1]
    assert not match_characteristic(compound, "AE", full_set(), fn)


def test_unknown_kind_raises():
    model = parse_source("void f(){int a;}")
    fn = model.functions[0]
    node = find_node(fn, "Identifier", "a")
    with pytest.raises(CharacteristicConfigError):
        match_characteristic(node, "XX", full_set(), fn)


def test_empty_fc_list_with_fc_enabled_raises():
    with pytest.raises(CharacteristicConfigError):
        CharacteristicSet(fc_calls=frozenset(), enabled=("FC",))


def test_extract_empty_program():
    model = parse_source("")
    assert extract_syvcs(model, full_set()) == []


def test_extract_orders_and_nests():
    # one statement carrying three candidates: AE plus two FC callees
    model = parse_source(
        "void f(char *a, char *b, int n){int r; r = strcmp(a, b) + strncmp(a, b, n);}"
    )
    syvcs = extract_syvcs(model, full_set())
    line2 = [s for s in syvcs if s.anchor_text.startswith("r =") or s.kind == "FC"]
    assert len(line2) == 3
    kinds = sorted(s.kind for s in line2)
    assert kinds == ["AE", "FC", "FC"]
    ae = [s for s in line2 if s.kind == "AE"][0]
    assert ae.anchor_text == "r = strcmp ( a , b ) + strncmp ( a , b , n )"
    # FC spans nest inside the AE span: containment is allowed
    for fc in (s for s in line2 if s.kind == "FC"):
        assert ae.span[0] <= fc.span[0] and fc.span[1] <= ae.span[1]
    # deterministic global order
    again = extract_syvcs(model, full_set())
    assert [(s.kind, s.statement_id, s.span) for s in syvcs] == [
        (s.kind, s.statement_id, s.span) for s in again
    ]


def test_extract_monotone_in_enabled_kinds():
    source = """
    void f(char *src)
    {
        char buf[8];
        char *p = buf;
        strcpy(p, src);
        p[0] = src[0];
    }
    """
    model = parse_source(source)
    seen = set()
    for upto in range(1, len(ALL_KINDS) + 1):
        cset = full_set(enabled=ALL_KINDS[:upto])
        found = {
            (s.kind, s.statement_id, s.span)
            for s in extract_syvcs(model, cset)
        }
        assert seen <= found
        seen = found


def test_every_syvc_satisfies_its_rule():
    source = """
    void g(char *t)
    {
        char room[32];
        char *walk = room;
        memcpy(walk, t, 31);
        walk = walk + 1;
    }
    """
    model = parse_source(source)
    fn = model.functions[0]
    cset = full_set()
    node_by_span = {}
    for node in fn.ast.walk():
        node_by_span.setdefault((node.statement_id, node.kind), []).append(node)
    for syvc in extract_syvcs(model, cset):
        # every reported candidate has a node that matches its kind
        kind_nodes = {
            "FC": "Callee",
            "AU": "Identifier",
            "PU": "Identifier",
            "AE": "ExpressionStatement",
        }
        nodes = node_by_span.get((syvc.statement_id, kind_nodes[syvc.kind]), [])
        assert any(
            match_characteristic(n, syvc.kind, cset, fn) for n in nodes
        ), syvc


def test_default_fc_list_contents():
    calls = default_fc_calls()
    assert {"memcpy", "strcpy", "malloc", "gets"} <= calls
    assert len(calls) >= 60
