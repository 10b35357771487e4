"""Program slicing: SyVC -> interprocedural slice -> SeVC.

Forward slices follow data edges only; backward slices follow data and
control edges in reverse. Interprocedural slices stitch per-function
slices together:

- forward: at each call site already in the slice, enter the callee at
  the parameters bound to arguments that mention at least one variable,
  and keep following data edges (the callee's signature joins the
  slice);
- backward, callee side: at each call site in the slice whose return
  value is consumed, pull the callee's backward slice from its return
  statements;
- backward, caller side: when the sliced function's own parameters end
  up in the slice, pull each caller's backward slice from the call
  site. Only the caller chain recurses upward; a return-entered callee
  already has its arguments covered at the call site.

Call-graph cycles are cut with visited-function sets. Every slice,
intra- or interprocedural, is ``graphs.reachable`` over one of a PDG's
two kept adjacency maps: data successors forward, data and control
predecessors backward.

Slices and SeVCs list a function's statements in statement-id order,
which the parser makes source order (``FunctionDecl.statement``). The
assembled SeVC orders functions caller-before-callee, depth-first along
call sites, mirroring the order in which the program would reach them.

A SeVC holds its sevc.jsonl record and no tokens: ``symbols.symbolize``
reads them, and the user functions, from the parsed program. ``SeVC``
and ``SevcStatement`` are defined in ``symbols`` and importable from
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .frontend import ProgramModel, ST_RETURN
from .graphs import CallGraph, CallSite, Pdg, reachable
from .candidates import SyVC
from .symbols import SeVC, SevcStatement

REGION_BACKWARD = "backward"
REGION_ANCHOR = "anchor"
REGION_FORWARD = "forward"


class SliceConsistencyError(Exception):
    pass


@dataclass
class ProgramSlice:
    """Interprocedural forward/backward node sets for one SyVC."""

    syvc_id: int
    anchor_statement: int
    forward_nodes: list[int]
    backward_nodes: list[int]
    diagnostics: list[str] = field(default_factory=list)


_STATEMENT_FIELDS = tuple(f.name for f in fields(SevcStatement))
_SEVC_FIELDS = tuple(f.name for f in fields(SeVC) if f.name != "statements")


def _slice(pdg: Pdg, anchor_statement: int, adj: dict[int, list[int]]) -> list[int]:
    if anchor_statement not in adj:  # the map has a key for every PDG node
        raise SliceConsistencyError(
            f"anchor statement {anchor_statement} not in PDG of function "
            f"{pdg.function_index}"
        )
    return sorted(reachable(adj, [anchor_statement]))


def forward_slice(pdg: Pdg, anchor_statement: int) -> list[int]:
    """Nodes reachable from the anchor via data edges, anchor included."""
    return _slice(pdg, anchor_statement, pdg.data_successors)


def backward_slice(pdg: Pdg, anchor_statement: int) -> list[int]:
    """Nodes that reach the anchor via data or control edges."""
    return _slice(pdg, anchor_statement, pdg.all_predecessors)


def _append_fresh(order: list[int], members: set[int], nodes: set[int]) -> None:
    """Append the nodes not yet in ``members`` to ``order``, in id order."""
    fresh = nodes - members
    order.extend(sorted(fresh))
    members |= fresh


def _bound_parameters(site: CallSite, program: ProgramModel) -> list[str]:
    """Callee parameters bound to arguments that mention a variable."""
    assert site.callee_index is not None
    callee = program.functions[site.callee_index]
    return [p for p, names in zip(callee.parameters, site.arg_identifiers) if names]


def interprocedural_slices(
    program: ProgramModel,
    call_graph: CallGraph,
    pdgs: dict[int, Pdg],
    syvc: SyVC,
) -> ProgramSlice:
    """Build the merged interprocedural slice for one SyVC."""
    home = syvc.function_index
    pdg = pdgs[home]
    diagnostics: list[str] = []

    forward = forward_slice(pdg, syvc.statement_id)
    backward = backward_slice(pdg, syvc.statement_id)
    backward_set = set(backward)

    def note_unresolved(stmts: set[int]) -> None:
        for sid in sorted(stmts):
            for site in call_graph.unresolved_by_statement.get(sid, []):
                diagnostics.append(
                    f"call to unresolved function {site.callee_name!r} at "
                    f"statement {sid} skipped"
                )

    # --- forward: descend into callees via bound parameters ------------
    visited_fwd = {home}
    queue: list[tuple[int, set[int]]] = [(home, set(forward))]
    while queue:
        func, added = queue.pop(0)
        note_unresolved(added)
        for site in call_graph.sites_by_caller.get(func, []):
            callee_idx = site.callee_index
            if site.statement_id not in added or callee_idx in visited_fwd:
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
            sub = reachable(callee_pdg.data_successors, starts)
            sub.add(callee_pdg.entry)  # the callee signature joins the slice
            # each callee is entered once, never the home function: all fresh
            forward.extend(sorted(sub))
            queue.append((callee_idx, sub))

    # --- backward: callee returns and caller chains ---------------------
    visited_ret: set[int] = set()
    visited_up = {home}
    bqueue: list[tuple[int, set[int], bool]] = [(home, set(backward), True)]
    while bqueue:
        func, added, allow_up = bqueue.pop(0)
        note_unresolved(added)
        # (a) descend into callees whose return value feeds the slice
        for site in call_graph.sites_by_caller.get(func, []):
            if site.statement_id not in added or not site.value_consumed:
                continue
            callee_idx = site.callee_index
            if callee_idx in visited_ret or callee_idx == home:
                continue
            callee_pdg = pdgs[callee_idx]
            starts = {
                st.id
                for st in program.functions[callee_idx].body
                if st.kind == ST_RETURN and st.id in callee_pdg.all_predecessors
            }
            if not starts:
                continue
            visited_ret.add(callee_idx)
            sub = reachable(callee_pdg.all_predecessors, starts)
            _append_fresh(backward, backward_set, sub)
            bqueue.append((callee_idx, sub, False))
        # (b) ascend to callers when this function's parameters matter
        entry = pdgs[func].entry
        if allow_up and entry in backward_set:
            for site in call_graph.sites_by_callee.get(func, []):
                caller = site.caller_index
                if caller in visited_up:
                    continue
                visited_up.add(caller)
                caller_pdg = pdgs[caller]
                if site.statement_id not in caller_pdg.all_predecessors:
                    continue
                sub = reachable(caller_pdg.all_predecessors, [site.statement_id])
                _append_fresh(backward, backward_set, sub)
                bqueue.append((caller, sub, True))

    return ProgramSlice(
        syvc_id=syvc.id,
        anchor_statement=syvc.statement_id,
        forward_nodes=forward,
        backward_nodes=backward,
        diagnostics=diagnostics,
    )


def assemble_sevc(
    program: ProgramModel,
    slice_: ProgramSlice,
    syvc: SyVC,
    call_graph: CallGraph,
) -> SeVC:
    """Order the slice into a SeVC and tag statement regions.

    Statements inside each function are in statement-id order, which the
    parser makes source order; functions are ordered caller-before-callee,
    depth-first along call sites. A non-anchor statement present on both
    sides is tagged backward.
    """
    stmt_index = program.statement_index()
    member_ids = set(slice_.backward_nodes) | set(slice_.forward_nodes)

    functions_of: dict[int, list[int]] = {}
    for sid in sorted(member_ids):
        st = stmt_index.get(sid)
        if st is None:
            raise SliceConsistencyError(f"slice statement {sid} has no source")
        functions_of.setdefault(st.function_index, []).append(sid)

    # caller -> callee relation restricted to sliced call sites
    callees: dict[int, list[tuple[int, int]]] = {}
    for site in call_graph.edges:
        if (
            site.statement_id in member_ids
            and site.caller_index in functions_of
            and site.callee_index in functions_of
            and site.callee_index != site.caller_index
        ):
            callees.setdefault(site.caller_index, []).append(
                (site.statement_id, site.callee_index)
            )
    for pairs in callees.values():
        pairs.sort()
    # the sliced functions that no sliced call site calls
    called = {callee for pairs in callees.values() for _, callee in pairs}
    roots = sorted(functions_of.keys() - called)
    anchor_func = stmt_index[slice_.anchor_statement].function_index
    if anchor_func in roots:
        # make the anchor's own chain lead when several roots exist
        roots = [anchor_func] + [f for f in roots if f != anchor_func]

    # depth-first pre-order from the roots, then from every function left;
    # an explicit stack, because a recursive closure is a reference cycle
    # that only the cyclic collector frees
    order: list[int] = []
    emitted: set[int] = set()
    stack = (roots + sorted(functions_of))[::-1]
    while stack:
        func = stack.pop()
        if func in emitted:
            continue
        emitted.add(func)
        order.append(func)
        stack.extend(callee for _, callee in reversed(callees.get(func, [])))

    backward_set = set(slice_.backward_nodes)
    statements: list[SevcStatement] = []
    for func in order:
        fn = program.functions[func]
        for sid in functions_of[func]:
            st = stmt_index[sid]
            if sid == slice_.anchor_statement:
                region = REGION_ANCHOR
            elif sid in backward_set:
                region = REGION_BACKWARD
            else:
                region = REGION_FORWARD
            statements.append(
                SevcStatement(
                    file=fn.file_path,
                    function=fn.name,
                    statement_id=sid,
                    line=st.line_first,
                    text=st.text,
                    region=region,
                )
            )
    return SeVC(
        syvc_id=slice_.syvc_id,
        kind=syvc.kind,
        anchor_statement=slice_.anchor_statement,
        statements=statements,
        program=program.name,
    )


def sevc_record(sevc: SeVC) -> dict:
    """The sevc.jsonl record for one SeVC: its fields, with each
    statement's as a dict."""
    record = {name: getattr(sevc, name) for name in _SEVC_FIELDS}
    record["statements"] = [
        {name: getattr(s, name) for name in _STATEMENT_FIELDS}
        for s in sevc.statements
    ]
    return record
