"""Brute-force oracles and random generators backing the test suite.

Everything here re-derives results from first principles (path
enumeration, transitive closure) so the production algorithms are
checked against an independent formulation, not against themselves.
"""

from __future__ import annotations

import numpy as np

from vulnslice.frontend import tokenize
from vulnslice.graphs import Cfg, DependenceEdge, Pdg, StatementFacts


# --------------------------------------------------------------------------
# path enumeration
# --------------------------------------------------------------------------


def simple_paths(succ: dict[int, list[int]], start: int, end: int):
    """All simple paths start..end (start==end yields the trivial path)."""
    paths = []

    def walk(node: int, seen: tuple[int, ...]):
        if node == end:
            paths.append(seen)
            return
        for nxt in succ.get(node, []):
            if nxt not in seen:
                walk(nxt, seen + (nxt,))

    walk(start, (start,))
    return paths


def oracle_post_dominates(cfg: Cfg, j: int, l: int) -> bool:
    """j post-dominates l iff every path l -> exit passes through j.

    Trimming cycles from any path yields a simple path over a subset of
    its nodes, so checking simple paths suffices.
    """
    succ = cfg.successors()
    paths = simple_paths(succ, l, cfg.exit)
    if not paths:
        return False  # no way to the exit: post-dominance is vacuous here
    return all(j in path for path in paths)


def oracle_control_deps(cfg: Cfg) -> set[tuple[int, int]]:
    """Definition-level control dependence via exhaustive path checks.

    j depends on l iff some l->j path exists where j post-dominates
    every interior node, and j does not post-dominate l (j != l).
    """
    succ = cfg.successors()
    nodes = [n for n in cfg.nodes if n != cfg.exit]
    pdom: dict[tuple[int, int], bool] = {}

    def pdoms(j: int, l: int) -> bool:
        key = (j, l)
        if key not in pdom:
            pdom[key] = oracle_post_dominates(cfg, j, l)
        return pdom[key]

    edges = set()
    for l in nodes:
        for j in nodes:
            if j == l or pdoms(j, l):
                continue
            for path in simple_paths(succ, l, j):
                interior = path[1:-1]
                if all(pdoms(j, node) for node in interior):
                    edges.add((l, j))
                    break
    return edges


def oracle_data_deps(
    cfg: Cfg, facts: dict[int, StatementFacts]
) -> set[tuple[int, int, str]]:
    """Reaching definitions by path enumeration.

    (l -> j, v) iff l defines v, j uses v, and some l->j path has no
    interior strong redefinition of v. Simple paths suffice: removing a
    cycle removes interior nodes, never adds redefinitions.
    """
    succ = cfg.successors()
    edges = set()
    nodes = [n for n in cfg.nodes if n != cfg.exit]
    for l in nodes:
        f_l = facts.get(l)
        if f_l is None:
            continue
        for v in f_l.defs:
            for j in nodes:
                f_j = facts.get(j)
                if f_j is None or v not in f_j.uses:
                    continue
                if l == j:
                    # needs a real cycle through a successor
                    found = False
                    for s in succ.get(l, []):
                        if s == l:
                            found = True
                            break
                        for path in simple_paths(succ, s, j):
                            if l in path[:-1]:
                                continue
                            if all(
                                v not in facts.get(n, StatementFacts()).strong_defs
                                for n in path[:-1]
                            ):
                                found = True
                                break
                        if found:
                            break
                    if found:
                        edges.add((l, j, v))
                    continue
                for path in simple_paths(succ, l, j):
                    interior = path[1:-1]
                    if all(
                        v not in facts.get(n, StatementFacts()).strong_defs
                        for n in interior
                    ):
                        edges.add((l, j, v))
                        break
    return edges


# --------------------------------------------------------------------------
# slice oracles
# --------------------------------------------------------------------------


def transitive_closure(edges: set[tuple[int, int]], starts: set[int]) -> set[int]:
    out: dict[int, set[int]] = {}
    for a, b in edges:
        out.setdefault(a, set()).add(b)
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in out.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def oracle_forward_slice(pdg: Pdg, anchor: int) -> set[int]:
    data = {(e.src, e.dst) for e in pdg.edges if e.kind == "data"}
    return transitive_closure(data, {anchor})


def oracle_backward_slice(pdg: Pdg, anchor: int) -> set[int]:
    reversed_edges = {(e.dst, e.src) for e in pdg.edges}
    return transitive_closure(reversed_edges, {anchor})


# --------------------------------------------------------------------------
# random structured programs and PDGs
# --------------------------------------------------------------------------

_VARS = ["a", "b", "c", "d", "e"]


def random_structured_source(rng: np.random.Generator, max_nodes: int) -> str:
    """Random function over nested if/while with <= max_nodes statements.

    Parameters act as initial definitions, so the generated bodies are
    assignments and predicates only.
    """
    budget = [int(rng.integers(1, max_nodes + 1))]
    lines: list[str] = []

    def rand_var() -> str:
        return _VARS[int(rng.integers(0, len(_VARS)))]

    def rand_expr() -> str:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return rand_var()
        if kind == 1:
            return f"{rand_var()} + {rand_var()}"
        return f"{rand_var()} - {int(rng.integers(0, 10))}"

    def emit_block(indent: int, depth: int) -> None:
        pad = "    " * indent
        items = int(rng.integers(1, 4))
        for _ in range(items):
            if budget[0] <= 0:
                return
            roll = rng.random()
            if depth < 2 and roll < 0.25 and budget[0] >= 2:
                budget[0] -= 1  # predicate
                lines.append(f"{pad}if ({rand_var()} < {rand_var()})")
                lines.append(pad + "{")
                emit_block(indent + 1, depth + 1)
                lines.append(pad + "}")
                if rng.random() < 0.4 and budget[0] > 0:
                    lines.append(pad + "else")
                    lines.append(pad + "{")
                    emit_block(indent + 1, depth + 1)
                    lines.append(pad + "}")
            elif depth < 2 and roll < 0.45 and budget[0] >= 2:
                budget[0] -= 1
                lines.append(f"{pad}while ({rand_var()} > {int(rng.integers(0, 5))})")
                lines.append(pad + "{")
                emit_block(indent + 1, depth + 1)
                lines.append(pad + "}")
            else:
                budget[0] -= 1
                lines.append(f"{pad}{rand_var()} = {rand_expr()};")

    emit_block(1, 0)
    if not lines:
        lines = ["    a = b;"]
    params = ", ".join(f"int {v}" for v in _VARS)
    return "\n".join([f"void generated({params})", "{"] + lines + ["}"])


def random_jump_source(rng: np.random.Generator, max_nodes: int) -> str:
    """Random function with the flow ``random_structured_source`` lacks.

    Adds ``break`` and ``continue`` (inside loops only), ``for`` with a
    step, ``while (1)``, early ``return`` with dead code after it, and
    the weak definitions ``*p = ...`` and ``g(&v)``. ``max_nodes``
    bounds the statements, a ``for`` counting as three.
    """
    budget = [int(rng.integers(1, max_nodes + 1))]
    lines: list[str] = []

    def rand_var() -> str:
        return _VARS[int(rng.integers(0, len(_VARS)))]

    def emit_simple(pad: str) -> None:
        roll = rng.random()
        if roll < 0.15:
            lines.append(f"{pad}*p = {rand_var()};")
        elif roll < 0.3:
            lines.append(f"{pad}g(&{rand_var()});")
        else:
            lines.append(f"{pad}{rand_var()} = {rand_var()} + {rand_var()};")

    def emit_body(header: str, indent: int, depth: int, in_loop: bool) -> None:
        pad = "    " * indent
        lines.append(pad + header)
        lines.append(pad + "{")
        emit_block(indent + 1, depth + 1, in_loop)
        lines.append(pad + "}")

    def emit_block(indent: int, depth: int, in_loop: bool) -> None:
        pad = "    " * indent
        for _ in range(int(rng.integers(1, 4))):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            roll = rng.random()
            nest = depth < 2 and budget[0] >= 1
            if nest and roll < 0.2:
                emit_body(f"if ({rand_var()} < {rand_var()})", indent, depth, in_loop)
                if rng.random() < 0.4 and budget[0] > 0:
                    emit_body("else", indent, depth, in_loop)
            elif nest and roll < 0.32:
                cond = "1" if rng.random() < 0.4 else f"{rand_var()} > 2"
                emit_body(f"while ({cond})", indent, depth, True)
            elif nest and roll < 0.42 and budget[0] >= 3:
                budget[0] -= 2  # init and step
                v = rand_var()
                header = f"for ({v} = 0; {v} < {rand_var()}; {v}++)"
                emit_body(header, indent, depth, True)
            elif in_loop and roll < 0.58:
                lines.append(pad + ("break;" if rng.random() < 0.5 else "continue;"))
            elif roll < 0.66:
                lines.append(pad + "return;")
            else:
                emit_simple(pad)

    emit_block(1, 0, False)
    params = ", ".join(f"int {v}" for v in _VARS)
    return "\n".join([f"void generated({params}, int *p)", "{"] + lines + ["}"])


def long_function_source(statements: int) -> str:
    """One function of ``statements`` statements, rounded up to a multiple
    of four: a straight line of assignments with an ``if`` every fourth
    statement, its body one more assignment."""
    params = ", ".join(f"int v{i}" for i in range(8))
    lines = [f"void long_function({params})", "{"]
    for k in range(0, statements, 4):
        a, b, c = (f"v{(k + j) % 8}" for j in range(3))
        lines += [
            f"    {a} = {b} + {k};",
            f"    {b} = {c} - {a};",
            f"    if ({c} > {k})",
            "    {",
            f"        {c} = {a} + {b};",
            "    }",
        ]
    return "\n".join(lines + ["}"])


def token_prefixes(source: str):
    """``source`` cut after each of its tokens, in order: every way a file
    can end at a token boundary."""
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    for t in tokenize(source):
        yield source[: line_starts[t.line - 1] + t.column - 1 + len(t.text)]


def random_pdg(rng: np.random.Generator, max_nodes: int) -> Pdg:
    """Random dependence graph over 2..max_nodes statement nodes."""
    n = int(rng.integers(2, max_nodes + 1))
    nodes = list(range(1, n + 1))
    edges: list[DependenceEdge] = []
    seen: set[tuple[int, int, str]] = set()
    for _ in range(int(rng.integers(1, 2 * n + 1))):
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        kind = "data" if rng.random() < 0.6 else "control"
        if kind == "control" and a == b:
            continue
        key = (a, b, kind)
        if key in seen:
            continue
        seen.add(key)
        edges.append(
            DependenceEdge(a, b, kind, "v" if kind == "data" else None)
        )
    return Pdg(
        function_index=0,
        nodes=nodes + [-1],
        edges=edges,
        entry=nodes[0],
    )
