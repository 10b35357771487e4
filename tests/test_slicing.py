"""Slice reachability, interprocedural stitching, SeVC assembly."""

from dataclasses import replace

import numpy as np
import pytest

from vulnslice.candidates import CharacteristicSet, extract_syvcs
from vulnslice.cli import load_manifest
from vulnslice.data import mini_corpus_manifest
from vulnslice.frontend import load_program, parse_source
from vulnslice.graphs import EXIT, GraphError, build_call_graph, build_pdgs
from vulnslice.slicing import (
    SliceConsistencyError,
    assemble_sevc,
    backward_slice,
    forward_slice,
    interprocedural_slices,
)

from oracles import (
    oracle_backward_slice,
    oracle_forward_slice,
    random_pdg,
    random_structured_source,
)
from test_frontend_reference import BUNDLED

RUNNING_EXAMPLE = """void printLine(char *line)
{
    if (line != NULL)
        printf("%s\\n", line);
}

void func()
{
    char dataBuffer[100];
    char *data = dataBuffer;
    memset(data, 'A', 100 - 1);
    data[100 - 1] = '\\0';
    printLine(data);
}
"""


def pipeline_for(source, name="prog"):
    model = parse_source(source)
    model.name = name
    syvcs = extract_syvcs(model, CharacteristicSet())
    pdgs = build_pdgs(model)
    call_graph = build_call_graph(model)
    return model, syvcs, pdgs, call_graph


def sevc_for(source, pick, name="prog"):
    model, syvcs, pdgs, call_graph = pipeline_for(source, name)
    chosen = [s for s in syvcs if pick(s)]
    assert len(chosen) == 1, [f"{s.kind}:{s.anchor_text}" for s in syvcs]
    syvc = chosen[0]
    slice_ = interprocedural_slices(model, call_graph, pdgs, syvc)
    return model, syvc, slice_, assemble_sevc(model, slice_, syvc, call_graph)


def test_forward_slice_isolated_anchor():
    model, syvcs, pdgs, _ = pipeline_for("void f(){char *p; other();}")
    syvc = [s for s in syvcs if s.kind == "PU"][0]
    pdg = pdgs[syvc.function_index]
    assert forward_slice(pdg, syvc.statement_id) == [syvc.statement_id]


def test_forward_slice_follows_data_chain():
    model, syvcs, pdgs, _ = pipeline_for(
        "void f(){char *a = q; b = a; c = b;}"
    )
    syvc = [s for s in syvcs if s.kind == "PU"][0]
    pdg = pdgs[0]
    stmts = model.functions[0].body
    got = forward_slice(pdg, syvc.statement_id)
    assert got == [stmts[0].id, stmts[1].id, stmts[2].id]


def test_backward_slice_includes_control_parent():
    source = "void f(int p){if (p > 0) { int *q = 0; }}"
    model, syvcs, pdgs, _ = pipeline_for(source)
    syvc = [s for s in syvcs if s.kind == "PU"][0]
    pdg = pdgs[0]
    fn = model.functions[0]
    pred = [st for st in fn.body if st.kind == "control-predicate"][0]
    got = backward_slice(pdg, syvc.statement_id)
    assert pred.id in got and syvc.statement_id in got
    assert fn.signature.id in got  # p flows into the predicate


def test_slice_missing_anchor_raises():
    model, syvcs, pdgs, _ = pipeline_for("void f(){char *p;}")
    with pytest.raises(SliceConsistencyError):
        forward_slice(pdgs[0], 99999)
    with pytest.raises(SliceConsistencyError):
        backward_slice(pdgs[0], 99999)


def test_slices_match_transitive_closure_on_random_pdgs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        pdg = random_pdg(rng, max_nodes=12)
        anchor = int(rng.choice([n for n in pdg.nodes if n != pdg.exit]))
        got_f = set(forward_slice(pdg, anchor))
        got_b = set(backward_slice(pdg, anchor))
        assert got_f == oracle_forward_slice(pdg, anchor)
        assert got_b == oracle_backward_slice(pdg, anchor)
        # anchor is a member of both sides
        assert anchor in got_f and anchor in got_b


def test_call_free_function_slices_unchanged():
    source = "void f(int n){char *p = 0; p = p + n; use_none(p);}"
    model, syvcs, pdgs, call_graph = pipeline_for(source)
    syvc = [s for s in syvcs if s.kind == "PU"][0]
    plain_f = forward_slice(pdgs[0], syvc.statement_id)
    plain_b = backward_slice(pdgs[0], syvc.statement_id)
    inter = interprocedural_slices(model, call_graph, pdgs, syvc)
    assert inter.forward_nodes == plain_f
    assert inter.backward_nodes == plain_b
    assert any("use_none" in d for d in inter.diagnostics)


def test_running_example_sevc_order_and_members():
    model, syvc, slice_, sevc = sevc_for(
        RUNNING_EXAMPLE, lambda s: s.kind == "PU" and s.anchor_text == "data"
    )
    rows = [(s.function, s.line, s.region) for s in sevc.statements]
    # all func statements precede all printLine statements
    functions = [f for f, _, _ in rows]
    assert functions == ["func"] * 5 + ["printLine"] * 3
    assert [line for f, line, _ in rows if f == "printLine"] == [1, 3, 4]
    assert [line for f, line, _ in rows if f == "func"] == [9, 10, 11, 12, 13]
    regions = {(f, line): r for f, line, r in rows}
    assert regions[("func", 10)] == "anchor"
    assert regions[("func", 9)] == "backward"
    assert all(
        r == "forward" for (f, line), r in regions.items()
        if (f, line) not in {("func", 9), ("func", 10)}
    )


def test_single_statement_slice():
    model, syvc, slice_, sevc = sevc_for(
        "void f(){int *p;}", lambda s: s.kind == "PU"
    )
    assert [s.region for s in sevc.statements] == ["anchor"]


def test_no_duplicate_statements_in_sevc():
    model, syvc, slice_, sevc = sevc_for(
        RUNNING_EXAMPLE, lambda s: s.kind == "AU"
    )
    ids = [s.statement_id for s in sevc.statements]
    assert len(ids) == len(set(ids))


def test_sevc_statements_in_source_order_within_function():
    model, syvc, slice_, sevc = sevc_for(
        RUNNING_EXAMPLE, lambda s: s.kind == "PU" and s.anchor_text == "data"
    )
    per_function: dict[str, list[int]] = {}
    for s in sevc.statements:
        per_function.setdefault(s.function, []).append(s.line)
    for lines in per_function.values():
        assert lines == sorted(lines)


def test_caller_side_backward_expansion():
    source = """
    void scale(int n, int k)
    {
        int r = 0;
        r = n * k;
        printf("%d", r);
    }
    void driver()
    {
        int a = 2;
        int b = 21;
        scale(a, b);
    }
    """
    model, syvc, slice_, sevc = sevc_for(
        source, lambda s: s.kind == "AE" and "n * k" in s.anchor_text
    )
    rows = [(s.function, s.line) for s in sevc.statements]
    # caller statements come first, then the callee's
    assert rows == [
        ("driver", 10),
        ("driver", 11),
        ("driver", 12),
        ("scale", 2),
        ("scale", 5),
        ("scale", 6),
    ]


def test_return_value_backward_descent():
    source = """
    int pickSize(int flag)
    {
        int sz = 16;
        if (flag > 0)
            sz = 64;
        return sz;
    }
    void build(int flag)
    {
        int cap = pickSize(flag);
        char *buf = malloc(cap);
        buf[0] = 'A';
    }
    """
    model, syvc, slice_, sevc = sevc_for(
        source, lambda s: s.kind == "FC" and s.anchor_text == "malloc"
    )
    rows = [(s.function, s.line) for s in sevc.statements]
    assert rows == [
        ("build", 9),
        ("build", 11),
        ("build", 12),
        ("build", 13),
        ("pickSize", 2),
        ("pickSize", 4),
        ("pickSize", 5),
        ("pickSize", 6),
        ("pickSize", 7),
    ]
    regions = {(s.function, s.line): s.region for s in sevc.statements}
    assert regions[("build", 12)] == "anchor"
    assert regions[("pickSize", 4)] == "backward"
    assert regions[("build", 13)] == "forward"


def test_recursive_calls_cut_by_visited_set():
    source = """
    void ping(int n)
    {
        int m = n - 1;
        pong(m);
    }
    void pong(int k)
    {
        int j = k - 1;
        ping(j);
    }
    """
    model, syvcs, pdgs, call_graph = pipeline_for(source)
    ae = [s for s in syvcs if s.kind == "AE"]
    # no AE here; use the declaration-with-initializer path via PU? none.
    # Slice from a synthetic anchor instead: first statement of ping.
    from vulnslice.candidates import SyVC

    anchor = model.functions[0].body[0]
    syvc = SyVC(
        id=0,
        kind="AE",
        statement_id=anchor.id,
        function_index=0,
        file=model.functions[0].file_path,
        function="ping",
        line=anchor.line_first,
        span=(0, 1),
        anchor_text="m",
    )
    slice_ = interprocedural_slices(model, call_graph, pdgs, syvc)
    # terminates, and covers both functions at most once each
    sevc = assemble_sevc(model, slice_, syvc, call_graph)
    assert len(sevc.statements) == len({s.statement_id for s in sevc.statements})


def test_determinism_of_sevc_serialization():
    from vulnslice.artifacts import encode_record

    a = sevc_for(RUNNING_EXAMPLE, lambda s: s.kind == "PU")[3]
    b = sevc_for(RUNNING_EXAMPLE, lambda s: s.kind == "PU")[3]
    assert encode_record(a) == encode_record(b)


def test_slice_monotone_under_added_edges():
    # adding a dependence edge never removes a node from either slice
    from vulnslice.graphs import DependenceEdge, Pdg

    rng = np.random.default_rng(12)
    for _ in range(30):
        pdg = random_pdg(rng, max_nodes=10)
        real_nodes = [n for n in pdg.nodes if n != pdg.exit]
        anchor = int(rng.choice(real_nodes))
        base_f = set(forward_slice(pdg, anchor))
        base_b = set(backward_slice(pdg, anchor))
        a = int(rng.choice(real_nodes))
        b = int(rng.choice(real_nodes))
        kind = "data" if rng.random() < 0.5 or a == b else "control"
        if kind == "control" and a == b:
            continue
        grown = Pdg(
            function_index=pdg.function_index,
            nodes=pdg.nodes,
            edges=pdg.edges + [DependenceEdge(a, b, kind, "w" if kind == "data" else None)],
            entry=pdg.entry,
        )
        assert base_f <= set(forward_slice(grown, anchor))
        assert base_b <= set(backward_slice(grown, anchor))


def _corpus_programs():
    """The mini corpus, the bundled sources and seeded random programs."""
    for prog in load_manifest(mini_corpus_manifest()):
        yield load_program(prog.source_paths, name=prog.path)
    for name, source in BUNDLED.items():
        yield parse_source(source, name)
    rng = np.random.default_rng(2424)
    for _ in range(60):
        yield parse_source(random_structured_source(rng, max_nodes=10))


def test_no_slice_holds_the_exit_node():
    """assemble_sevc keeps every member of a slice: the synthetic EXIT node
    has no def/use facts and no outgoing edge, so no walk reaches it,
    under data-and-control or data-only PDGs."""
    sliced = 0
    for model in _corpus_programs():
        try:
            ddcd = build_pdgs(model)
        except GraphError:
            continue
        call_graph = build_call_graph(model)
        dd = {
            idx: replace(p, edges=[e for e in p.edges if e.kind == "data"])
            for idx, p in ddcd.items()
        }
        for pdgs in (ddcd, dd):
            assert all(EXIT in pdg.all_predecessors for pdg in pdgs.values())
            for syvc in extract_syvcs(model, CharacteristicSet()):
                try:
                    slice_ = interprocedural_slices(model, call_graph, pdgs, syvc)
                except SliceConsistencyError:
                    continue
                assert EXIT not in slice_.forward_nodes, (model.name, syvc)
                assert EXIT not in slice_.backward_nodes, (model.name, syvc)
                sliced += 1
    assert sliced == 2 * (117 + 165 + 154)
