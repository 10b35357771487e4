"""Differential tests: interprocedural slicing against the code it replaced.

Slicing used to walk each PDG with its own copy of a stack loop
(``forward_slice``, ``backward_slice``, ``_forward_from`` and
``_backward_from``), rebuilt both adjacency maps and every call-site
grouping on each call, and found a function's callers with a linear scan
(``CallGraph.calls_to``). Those functions are kept here, unchanged apart
from the adjacency maps and ``calls_to`` becoming local functions and
each statement's line coming from the program, not the PDG, as the
reference. Every SyVC of the mini corpus, of the bundled C files, of the
mini-corpus templates and of seeded random programs must give the same
forward and backward node order and the same diagnostics from both,
under data+control PDGs and under data-only PDGs, or fail the same way.
Each SeVC assembled from those slices must also come back equal from its
sevc.jsonl line (``artifacts.encode_record``) through ``SeVC.from_record``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from vulnslice.artifacts import encode_record
from vulnslice.candidates import CharacteristicSet, SyVC, extract_syvcs
from vulnslice.cli import load_manifest
from vulnslice.data import mini_corpus_manifest
from vulnslice.frontend import ST_RETURN, ProgramModel, load_program, parse_source
from vulnslice.graphs import (
    CallGraph,
    CallSite,
    GraphError,
    Pdg,
    build_call_graph,
    build_pdgs,
)
from vulnslice.slicing import (
    ProgramSlice,
    SeVC,
    SliceConsistencyError,
    assemble_sevc,
    interprocedural_slices,
)

from oracles import random_structured_source
from test_frontend_reference import BUNDLED, TEMPLATE_PROGRAMS

# --- the replaced code ----------------------------------------------------


def _data_successors(pdg: Pdg) -> dict[int, list[int]]:
    succ: dict[int, list[int]] = {n: [] for n in pdg.nodes}
    for e in pdg.edges:
        if e.kind == "data":
            succ[e.src].append(e.dst)
    return succ


def _all_predecessors(pdg: Pdg) -> dict[int, list[int]]:
    pred: dict[int, list[int]] = {n: [] for n in pdg.nodes}
    for e in pdg.edges:
        pred[e.dst].append(e.src)
    return pred


def _calls_to(call_graph: CallGraph, function_index: int) -> list[CallSite]:
    return [e for e in call_graph.edges if e.callee_index == function_index]


def _ordered(lines: dict[int, int], nodes: set[int]) -> list[int]:
    return sorted(nodes, key=lambda n: (lines.get(n, 0), n))


def reference_forward_slice(
    pdg: Pdg, anchor_statement: int, lines: dict[int, int]
) -> list[int]:
    if anchor_statement not in set(pdg.nodes):
        raise SliceConsistencyError(
            f"anchor statement {anchor_statement} not in PDG of function "
            f"{pdg.function_index}"
        )
    succ = _data_successors(pdg)
    seen = {anchor_statement}
    stack = [anchor_statement]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return _ordered(lines, seen)


def reference_backward_slice(
    pdg: Pdg, anchor_statement: int, lines: dict[int, int]
) -> list[int]:
    if anchor_statement not in set(pdg.nodes):
        raise SliceConsistencyError(
            f"anchor statement {anchor_statement} not in PDG of function "
            f"{pdg.function_index}"
        )
    pred = _all_predecessors(pdg)
    seen = {anchor_statement}
    stack = [anchor_statement]
    while stack:
        for nxt in pred[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return _ordered(lines, seen)


def _forward_from(pdg: Pdg, starts: set[int]) -> set[int]:
    succ = _data_successors(pdg)
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _backward_from(pdg: Pdg, starts: set[int]) -> set[int]:
    pred = _all_predecessors(pdg)
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in pred[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _bound_parameters(site: CallSite, program: ProgramModel) -> list[str]:
    assert site.callee_index is not None
    callee = program.functions[site.callee_index]
    bound = []
    for position, param in enumerate(callee.parameters):
        if position < len(site.arg_identifiers) and site.arg_identifiers[position]:
            bound.append(param)
    return bound


def reference_interprocedural_slices(
    program: ProgramModel,
    call_graph: CallGraph,
    pdgs: dict[int, Pdg],
    syvc: SyVC,
) -> ProgramSlice:
    home = syvc.function_index
    pdg = pdgs[home]
    diagnostics: list[str] = []
    # each statement's first line, which orders the nodes of a slice
    lines = {sid: st.line_first for sid, st in program.statement_index().items()}

    sites_by_function: dict[int, list[CallSite]] = {}
    for site in call_graph.edges:
        sites_by_function.setdefault(site.caller_index, []).append(site)
    unresolved_by_stmt: dict[int, list[CallSite]] = {}
    for site in call_graph.unresolved:
        unresolved_by_stmt.setdefault(site.statement_id, []).append(site)

    fs_nodes = reference_forward_slice(pdg, syvc.statement_id, lines)
    bs_nodes = reference_backward_slice(pdg, syvc.statement_id, lines)
    forward: list[int] = list(fs_nodes)
    backward: list[int] = list(bs_nodes)
    forward_set = set(forward)
    backward_set = set(backward)

    def note_unresolved(stmts: set[int]) -> None:
        for sid in sorted(stmts):
            for site in unresolved_by_stmt.get(sid, []):
                diagnostics.append(
                    f"call to unresolved function {site.callee_name!r} at "
                    f"statement {sid} skipped"
                )

    visited_fwd = {home}
    queue: list[tuple[int, set[int]]] = [(home, set(fs_nodes))]
    while queue:
        func, added = queue.pop(0)
        note_unresolved(added)
        for site in sites_by_function.get(func, []):
            if site.statement_id not in added:
                continue
            callee_idx = site.callee_index
            assert callee_idx is not None
            if callee_idx in visited_fwd:
                continue
            params = _bound_parameters(site, program)
            if not params:
                continue
            callee_pdg = pdgs[callee_idx]
            starts = {
                e.dst
                for e in callee_pdg.edges
                if e.kind == "data"
                and e.src == callee_pdg.entry
                and e.variable in params
            }
            if not starts:
                continue
            visited_fwd.add(callee_idx)
            sub = _forward_from(callee_pdg, starts)
            sub.add(callee_pdg.entry)
            fresh = sub - forward_set
            for n in sorted(fresh, key=lambda x: (lines.get(x, 0), x)):
                forward.append(n)
            forward_set |= fresh
            queue.append((callee_idx, sub))

    return_stmts: dict[int, list[int]] = {}
    for fn in program.functions:
        return_stmts[fn.index] = [
            st.id for st in fn.body if st.kind == ST_RETURN
        ]

    visited_ret: set[int] = set()
    visited_up = {home}
    bqueue: list[tuple[int, set[int], bool]] = [(home, set(bs_nodes), True)]
    while bqueue:
        func, added, allow_up = bqueue.pop(0)
        note_unresolved(added)
        for site in sites_by_function.get(func, []):
            if site.statement_id not in added or not site.value_consumed:
                continue
            callee_idx = site.callee_index
            assert callee_idx is not None
            if callee_idx in visited_ret or callee_idx == home:
                continue
            rets = return_stmts.get(callee_idx, [])
            callee_pdg = pdgs[callee_idx]
            starts = {r for r in rets if r in set(callee_pdg.nodes)}
            if not starts:
                continue
            visited_ret.add(callee_idx)
            sub = _backward_from(callee_pdg, starts)
            fresh = sub - backward_set
            for n in sorted(fresh, key=lambda x: (lines.get(x, 0), x)):
                backward.append(n)
            backward_set |= fresh
            bqueue.append((callee_idx, sub, False))
        entry = pdgs[func].entry
        if allow_up and entry in added | backward_set:
            for site in _calls_to(call_graph, func):
                caller = site.caller_index
                if caller in visited_up:
                    continue
                visited_up.add(caller)
                caller_pdg = pdgs[caller]
                if site.statement_id not in set(caller_pdg.nodes):
                    continue
                sub = set(reference_backward_slice(caller_pdg, site.statement_id, lines))
                fresh = sub - backward_set
                for n in sorted(fresh, key=lambda x: (lines.get(x, 0), x)):
                    backward.append(n)
                backward_set |= fresh
                bqueue.append((caller, sub, True))

    return ProgramSlice(
        syvc_id=syvc.id,
        anchor_statement=syvc.statement_id,
        forward_nodes=forward,
        backward_nodes=backward,
        diagnostics=diagnostics,
    )


# --- comparison -----------------------------------------------------------


def outcome(slicer, model, call_graph, pdgs, syvc):
    try:
        got = slicer(model, call_graph, pdgs, syvc)
    except SliceConsistencyError as exc:
        return "SliceConsistencyError", str(exc)
    return got.forward_nodes, got.backward_nodes, got.diagnostics


def data_only(pdgs: dict[int, Pdg]) -> dict[int, Pdg]:
    return {
        idx: dataclasses.replace(p, edges=[e for e in p.edges if e.kind == "data"])
        for idx, p in pdgs.items()
    }


def assert_record_round_trips(model: ProgramModel, call_graph, pdgs, syvc) -> None:
    """The SeVC read back from its sevc.jsonl line equals the SeVC written."""
    slice_ = interprocedural_slices(model, call_graph, pdgs, syvc)
    sevc = assemble_sevc(model, slice_, syvc, call_graph)
    assert SeVC.from_record(json.loads(encode_record(sevc))) == sevc


def assert_same_as_reference(model: ProgramModel) -> int:
    """Compare every SyVC's slices; returns how many SyVCs were sliced."""
    syvcs = extract_syvcs(model, CharacteristicSet())
    try:
        ddcd = build_pdgs(model)
    except GraphError:
        return 0
    call_graph = build_call_graph(model)
    for pdgs in (ddcd, data_only(ddcd)):
        for syvc in syvcs:
            new = outcome(interprocedural_slices, model, call_graph, pdgs, syvc)
            old = outcome(reference_interprocedural_slices, model, call_graph, pdgs, syvc)
            assert new == old, (model.name, syvc)
            if new[0] != "SliceConsistencyError":
                assert_record_round_trips(model, call_graph, pdgs, syvc)
    return len(syvcs)


def random_program(rng: np.random.Generator) -> str:
    """Value-returning random functions that call one another, cycles
    included, and a driver that calls each of them."""
    count = int(rng.integers(1, 4))

    def call() -> str:
        # some calls pass only constants, so the call site's slice misses
        # the caller's parameters
        pool = list("0" if rng.random() < 0.2 else "abcde0")
        args = ", ".join(rng.choice(pool, size=5))
        callee = f"g{int(rng.integers(0, count))}({args});"
        if rng.random() < 0.3:
            return "    " + callee
        return f"    {'abcde'[int(rng.integers(0, 5))]} = {callee}"

    functions = []
    for i in range(count):
        lines = random_structured_source(rng, max_nodes=6).splitlines()
        body = lines[2:-1]
        for _ in range(int(rng.integers(0, 3))):
            # before a top-level statement, or at the end
            slots = [k for k, line in enumerate(body) if line[4] not in " {}e"]
            body.insert(int(rng.choice(slots + [len(body)])), call())
        header = lines[0].replace("void generated", f"int g{i}")
        functions.append("\n".join([header, "{", *body, "    return a;", "}"]))
    calls = [call() for _ in range(count)]
    driver = ["void driver(int a, int b, int c, int d, int e)", "{", *calls, "    b = a + c;", "}"]
    return "\n\n".join(functions + ["\n".join(driver)]) + "\n"


def test_mini_corpus_matches_reference():
    sliced = sum(
        assert_same_as_reference(load_program(p.source_paths, name=p.path))
        for p in load_manifest(mini_corpus_manifest())
    )
    assert sliced == 117


def test_bundled_sources_match_reference():
    sliced = 0
    for name, source in BUNDLED.items():
        model = parse_source(source, name)
        model.name = name
        sliced += assert_same_as_reference(model)
    assert sliced == 165


def test_template_programs_match_reference():
    sliced = sum(
        assert_same_as_reference(parse_source(source)) for source in TEMPLATE_PROGRAMS
    )
    assert sliced == 195


def test_random_programs_match_reference():
    rng = np.random.default_rng(2024)
    sliced = sum(
        assert_same_as_reference(parse_source(random_program(rng))) for _ in range(150)
    )
    assert sliced == 1145


def test_anchor_in_unreachable_code_fails_like_reference():
    model = parse_source("void f(char *s){ char buf[8]; return; strcpy(buf, s); }")
    assert assert_same_as_reference(model) == 2
    syvc = next(s for s in extract_syvcs(model, CharacteristicSet()) if s.kind == "FC")
    with pytest.raises(SliceConsistencyError, match="not in PDG"):
        interprocedural_slices(model, build_call_graph(model), build_pdgs(model), syvc)


def test_data_only_pdgs_are_the_data_edges_of_the_full_ones():
    """build_pdgs for "dd" gives, edge for edge, the data edges of the
    data+control PDGs (the filter the slice stage once applied itself),
    and where the full build raises GraphError it raises the same one:
    it still derives the control dependences."""
    models = [
        load_program(p.source_paths, name=p.path)
        for p in load_manifest(mini_corpus_manifest())
    ]
    rng = np.random.default_rng(2024)
    models += [parse_source(random_program(rng)) for _ in range(150)]
    # the post-dominator pass refuses a loop with no path to exit
    models.append(parse_source("void f(int a){for (;;) { a = 1; } after();}"))
    refused = 0
    for model in models:
        try:
            expected = data_only(build_pdgs(model))
        except GraphError as exc:
            with pytest.raises(GraphError) as raised:
                build_pdgs(model, "dd")
            assert str(raised.value) == str(exc)
            refused += 1
            continue
        assert build_pdgs(model, "dd") == expected, model.name
    assert (refused, len(models)) == (1, 40 + 150 + 1)
