"""CFG shapes, def/use facts, dependence edges, and the path oracles."""

import time

import numpy as np
import pytest

from vulnslice.frontend import parse_source
from vulnslice.graphs import (
    EXIT,
    Cfg,
    GraphError,
    build_call_graph,
    build_cfg,
    build_pdg,
    build_pdgs,
    compute_control_deps,
    compute_data_deps,
    extract_def_use,
    immediate_post_dominators,
)

from oracles import (
    long_function_source,
    oracle_control_deps,
    oracle_data_deps,
    oracle_post_dominates,
    random_jump_source,
    random_structured_source,
)


def cfg_of(source):
    model = parse_source(source)
    fn = model.functions[0]
    return fn, build_cfg(fn)


def stmt_ids_by_line(fn):
    return {st.line_first: st.id for st in fn.all_statements()}


def test_linear_chain():
    fn, cfg = cfg_of("void f(){int a; a = 1;}")
    sig, s1, s2 = (st.id for st in fn.all_statements())
    assert set(cfg.edges) == {(sig, s1), (s1, s2), (s2, EXIT)}


def test_if_diamond():
    fn, cfg = cfg_of(
        "void f(int p){if (p) { one(); } else { two(); } after();}"
    )
    sig, pred, s1, s2, s3 = (st.id for st in fn.all_statements())
    assert set(cfg.edges) == {
        (sig, pred),
        (pred, s1),
        (pred, s2),
        (s1, s3),
        (s2, s3),
        (s3, EXIT),
    }


def test_if_without_else_joins():
    fn, cfg = cfg_of("void f(int p){if (p) { one(); } after();}")
    sig, pred, s1, s2 = (st.id for st in fn.all_statements())
    assert set(cfg.edges) == {
        (sig, pred),
        (pred, s1),
        (pred, s2),
        (s1, s2),
        (s2, EXIT),
    }


def test_while_loop_shape():
    fn, cfg = cfg_of("void f(int p){while (p) { body(); } after();}")
    sig, pred, s1, s2 = (st.id for st in fn.all_statements())
    assert set(cfg.edges) == {
        (sig, pred),
        (pred, s1),
        (s1, pred),
        (pred, s2),
        (s2, EXIT),
    }


def test_for_desugars_to_while():
    fn, cfg = cfg_of("void f(int n){for (i = 0; i < n; i++) { body(); } after();}")
    sig, init, pred, step, body, after = (st.id for st in fn.all_statements())
    assert set(cfg.edges) == {
        (sig, init),
        (init, pred),
        (pred, body),
        (body, step),
        (step, pred),
        (pred, after),
        (after, EXIT),
    }


def test_continue_in_for_goes_to_the_step():
    fn, cfg = cfg_of(
        "void f(int n){for (i = 0; i < n; i++) { if (i) { continue; } body(); }}"
    )
    sig, init, pred, step, ipred, cont, body = (st.id for st in fn.all_statements())
    assert cfg.edges == [
        (sig, init),
        (init, pred),
        (pred, ipred),
        (ipred, cont),
        (cont, step),
        (ipred, body),
        (body, step),
        (step, pred),
        (pred, EXIT),
    ]


def test_for_with_only_a_condition_is_a_while():
    fn, cfg = cfg_of("void f(int c){for (; c;) { body(); } after();}")
    sig, pred, body, after = (st.id for st in fn.all_statements())
    assert cfg.edges == [
        (sig, pred),
        (pred, body),
        (body, pred),
        (pred, after),
        (after, EXIT),
    ]


def test_for_with_a_declaration_as_its_init():
    fn, cfg = cfg_of("void f(int n){for (int i = 0; i < n; i++) { body(i); }}")
    sig, init, pred, step, body = (st.id for st in fn.all_statements())
    assert fn.statement(init).kind == "declaration"
    assert cfg.edges == [
        (sig, init),
        (init, pred),
        (pred, body),
        (body, step),
        (step, pred),
        (pred, EXIT),
    ]


def test_for_without_a_condition_loops_to_the_body_entry_and_exits_by_break():
    fn, cfg = cfg_of(
        "void f(int n){for (;;) { if (n) continue; if (n) break; body(); } after();}"
    )
    sig, p1, cont, p2, brk, body, after = (st.id for st in fn.all_statements())
    assert set(cfg.edges) == {
        (sig, p1),
        (p1, cont),
        (cont, p1),
        (p1, p2),
        (p2, brk),
        (p2, body),
        (body, p1),
        (brk, after),
        (after, EXIT),
    }
    assert cfg.nodes == [sig, p1, cont, p2, brk, body, after, EXIT]


def test_for_with_a_step_but_no_condition_continues_at_the_step():
    fn, cfg = cfg_of(
        "void f(int n){for (i = 0; ; i++) { if (i) continue; if (n) break; body(); } after();}"
    )
    sig, init, step, p1, cont, p2, brk, body, after = (
        st.id for st in fn.all_statements()
    )
    assert set(cfg.edges) == {
        (sig, init),
        (init, p1),
        (p1, cont),
        (cont, step),
        (p1, p2),
        (p2, brk),
        (p2, body),
        (body, step),
        (step, p1),
        (brk, after),
        (after, EXIT),
    }


def test_nested_fors_without_a_condition_exit_by_their_own_breaks():
    fn, cfg = cfg_of("void f(int n){for (;;) { for (;;) { break; } break; } after();}")
    sig, inner, outer, after = (st.id for st in fn.all_statements())
    assert set(cfg.edges) == {(sig, inner), (inner, outer), (outer, after), (after, EXIT)}


@pytest.mark.parametrize("loop", ["for (;;) { a = 1; }", "for (i = 0; ; i++) { }"])
def test_for_without_a_condition_or_break_has_no_path_to_exit(loop):
    fn = parse_source(f"void f(int a){{{loop} after();}}").functions[0]
    cfg = build_cfg(fn)
    assert EXIT not in {b for _, b in cfg.edges}
    with pytest.raises(GraphError, match="have no path to exit"):
        build_pdg(fn)


def test_code_after_if_else_that_both_return_is_pruned():
    fn, cfg = cfg_of("void f(int p){if (p) { return; } else { return; } after();}")
    sig, pred, one, two, after = (st.id for st in fn.all_statements())
    assert cfg.nodes == [sig, pred, one, two, EXIT]
    assert cfg.edges == [(sig, pred), (pred, one), (one, EXIT), (pred, two), (two, EXIT)]
    assert cfg.diagnostics == [f"unreachable statements pruned from CFG: [{after}]"]


@pytest.mark.parametrize(
    "body, message",
    [
        ("break;", r"^'break' outside a loop at statement 1 \(<memory>:f\)$"),
        ("a = 1; continue;", r"^'continue' outside a loop at statement 2 \(<memory>:f\)$"),
    ],
    ids=["break", "continue"],
)
def test_jumps_outside_a_loop_raise(body, message):
    fn = parse_source(f"void f(int a){{{body}}}").functions[0]
    with pytest.raises(GraphError, match=message):
        build_cfg(fn)


def test_return_edges_to_exit_and_prunes_dead_code():
    fn, cfg = cfg_of("void f(int p){return; after();}")
    sig, ret, after = (st.id for st in fn.all_statements())
    assert (ret, EXIT) in cfg.edges
    assert after not in cfg.nodes
    assert any("unreachable" in d for d in cfg.diagnostics)


def test_break_exits_loop():
    fn, cfg = cfg_of(
        "void f(int p){while (p) { if (p) { break; } body(); } after();}"
    )
    by_line = {st.line_first: st.id for st in fn.all_statements()}
    ids = [st.id for st in fn.all_statements()]
    sig, wpred, ipred, brk, body, after = ids
    assert (brk, after) in cfg.edges
    assert (brk, wpred) not in cfg.edges


def test_immediate_post_dominator_tree_of_if():
    fn, cfg = cfg_of("void f(int p){if (p) { one(); } two();}")
    sig, pred, one, two = (st.id for st in fn.all_statements())
    assert immediate_post_dominators(cfg) == {
        sig: pred,
        pred: two,
        one: two,
        two: EXIT,
    }


def test_node_with_no_path_to_exit_is_a_graph_error():
    # the parser cannot produce this CFG: node 1 loops on itself forever
    cfg = Cfg(
        function_index=0,
        nodes=[0, 1, EXIT],
        edges=[(0, 1), (1, 1), (0, EXIT)],
        entry=0,
    )
    with pytest.raises(GraphError, match=r"nodes \[1\] of function 0 have no path"):
        compute_control_deps(cfg)


def test_control_dep_canonical_if():
    fn, cfg = cfg_of("void f(int p){if (p) { one(); }}")
    sig, pred, s1 = (st.id for st in fn.all_statements())
    edges = {(e.src, e.dst) for e in compute_control_deps(cfg)}
    assert edges == {(pred, s1)}


def test_control_dep_linear_chain_empty():
    fn, cfg = cfg_of("void f(){one(); two(); three();}")
    assert compute_control_deps(cfg) == []


def test_control_dep_loop_body_on_predicate():
    fn, cfg = cfg_of("void f(int p){while (p) { body(); } after();}")
    sig, pred, body, after = (st.id for st in fn.all_statements())
    edges = {(e.src, e.dst) for e in compute_control_deps(cfg)}
    assert (pred, body) in edges
    assert (pred, after) not in edges  # after runs regardless


def test_def_use_facts():
    model = parse_source(
        """
        void f(int n)
        {
            int a = n;
            a = a + 1;
            buf[a] = n;
            g(&a, n);
            a += n;
        }
        """
    )
    fn = model.functions[0]
    facts = extract_def_use(fn)
    sig, decl, plain, weak, addr, compound = (st.id for st in fn.all_statements())
    assert facts[sig].strong_defs == {"n"}
    assert facts[decl].strong_defs == {"a"} and facts[decl].uses == {"n"}
    assert facts[plain].strong_defs == {"a"} and facts[plain].uses == {"a"}
    assert facts[weak].weak_defs == {"buf"}
    assert facts[weak].uses == {"buf", "a", "n"}
    assert facts[addr].weak_defs == {"a"} and facts[addr].uses == {"a", "n"}
    assert facts[compound].strong_defs == {"a"}
    assert facts[compound].uses == {"a", "n"}


def test_data_dep_single_def_use():
    fn, cfg = cfg_of("void f(){a = 1; b = a;}")
    facts = extract_def_use(fn)
    sig, s1, s2 = (st.id for st in fn.all_statements())
    edges = {(e.src, e.dst, e.variable) for e in compute_data_deps(cfg, facts)}
    assert edges == {(s1, s2, "a")}


def test_data_dep_kill():
    fn, cfg = cfg_of("void f(){a = 1; a = 2; b = a;}")
    facts = extract_def_use(fn)
    sig, s1, s2, s3 = (st.id for st in fn.all_statements())
    edges = {(e.src, e.dst, e.variable) for e in compute_data_deps(cfg, facts)}
    assert edges == {(s2, s3, "a")}


def test_data_dep_both_branches_reach_join():
    fn, cfg = cfg_of(
        "void f(int p){if (p) { v = 1; } else { v = 2; } use(v);}"
    )
    facts = extract_def_use(fn)
    sig, pred, s1, s2, s3 = (st.id for st in fn.all_statements())
    edges = {(e.src, e.dst, e.variable) for e in compute_data_deps(cfg, facts)}
    assert (s1, s3, "v") in edges and (s2, s3, "v") in edges


def test_weak_write_does_not_kill():
    fn, cfg = cfg_of("void f(char *p){p = q; p[0] = 'x'; use(p);}")
    facts = extract_def_use(fn)
    sig, s1, s2, s3 = (st.id for st in fn.all_statements())
    edges = {(e.src, e.dst, e.variable) for e in compute_data_deps(cfg, facts)}
    assert (s1, s3, "p") in edges  # survives the element write
    assert (s2, s3, "p") in edges  # which also generates


def test_pdg_nodes_equal_cfg_nodes():
    model = parse_source("void f(int p){if (p) { a = p; } b = a;}")
    fn = model.functions[0]
    cfg = build_cfg(fn)
    pdg = build_pdg(fn, cfg)
    assert set(pdg.nodes) == set(cfg.nodes)


def test_call_graph_resolution_and_sites():
    model = parse_source(
        """
        void callee(int x) { use(x); }
        void caller(int v) { callee(v); callee(v + 1); missing(v); }
        """
    )
    graph = build_call_graph(model)
    resolved = [(s.callee_name, s.statement_id) for s in graph.edges]
    assert len(resolved) == 2 and {name for name, _ in resolved} == {"callee"}
    assert len({sid for _, sid in resolved}) == 2  # distinct call sites
    assert [s.callee_name for s in graph.unresolved] == ["use", "missing"]


def test_call_graph_value_consumed():
    model = parse_source(
        """
        int get(void) { return 4; }
        void a(void) { get(); }
        void b(void) { int v = get(); }
        void c(void) { if (get() > 1) { x = 1; } }
        """
    )
    graph = build_call_graph(model)
    consumed = {
        (s.caller_index, s.value_consumed) for s in graph.edges
    }
    assert (1, False) in consumed
    assert (2, True) in consumed
    assert (3, True) in consumed


def test_function_with_no_calls_has_no_edges():
    model = parse_source("void f(int v){v = v + 1;}")
    graph = build_call_graph(model)
    assert graph.edges == [] and graph.unresolved == []


# --------------------------------------------------------------------------
# randomized oracle comparisons (small scale; the acceptance suite scales up)
# --------------------------------------------------------------------------


def test_dependences_match_path_oracles_sampled():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        source = random_structured_source(rng, max_nodes=6)
        model = parse_source(source)
        fn = model.functions[0]
        cfg = build_cfg(fn)
        facts = extract_def_use(fn)
        got_control = {(e.src, e.dst) for e in compute_control_deps(cfg)}
        want_control = oracle_control_deps(cfg)
        assert got_control == want_control, source
        got_data = {
            (e.src, e.dst, e.variable) for e in compute_data_deps(cfg, facts)
        }
        want_data = oracle_data_deps(cfg, facts)
        assert got_data == want_data, source


def test_post_dominator_tree_matches_path_oracle_sampled():
    rng = np.random.default_rng(515)
    for generate in (random_structured_source, random_jump_source):
        for _ in range(40):
            source = generate(rng, max_nodes=8)
            cfg = build_cfg(parse_source(source).functions[0])
            ipdom = immediate_post_dominators(cfg)
            for node in cfg.nodes:
                ancestors = set()
                x = node
                while x != EXIT:
                    x = ipdom[x]
                    ancestors.add(x)
                want = {
                    j
                    for j in cfg.nodes
                    if j != node and oracle_post_dominates(cfg, j, node)
                }
                assert ancestors == want, (source, node)


def test_dependences_match_path_oracles_with_jumps_sampled():
    rng = np.random.default_rng(616)
    checked = 0
    while checked < 60:
        source = random_jump_source(rng, max_nodes=8)
        fn = parse_source(source).functions[0]
        cfg = build_cfg(fn)
        if len(cfg.nodes) > 8 + 2:  # statements + entry/exit budget
            continue
        checked += 1
        facts = extract_def_use(fn)
        got_control = {(e.src, e.dst) for e in compute_control_deps(cfg)}
        assert got_control == oracle_control_deps(cfg), source
        got_data = {
            (e.src, e.dst, e.variable) for e in compute_data_deps(cfg, facts)
        }
        assert got_data == oracle_data_deps(cfg, facts), source


def test_build_pdgs_scales_to_a_1200_statement_function():
    model = parse_source(long_function_source(1200))
    assert len(model.functions[0].body) == 1200
    start = time.perf_counter()
    pdgs = build_pdgs(model)
    elapsed = time.perf_counter() - start
    assert len(pdgs[0].nodes) == 1200 + 2
    assert elapsed < 10.0, f"build_pdgs took {elapsed:.1f}s"
