"""Per-function control-flow and dependence graphs, plus the call graph.

CFG nodes are statement ids (the function signature acts as the entry
node, where parameters are defined) plus one synthetic exit. Data
dependence edges come from classic reaching definitions over token-level
def/use facts; control dependence edges come from the post-dominator
tree (Ferrante-style). The PDG is their union over the CFG node set.

Def/use extraction is token-based, no alias analysis:

- strong definitions (generate and kill): declarator names, parameter
  names, bare-identifier assignment and ``++``/``--`` targets;
- weak definitions (generate only): writes through ``*p``, ``p[i]``,
  ``p.f``/``p->f`` (the base identifier), and ``&v`` call arguments;
- uses: every other variable mention, including the base of a weak
  write and the old value of compound assignments and ``++``/``--``.

Assignment targets and ``++``/``--`` operands share one write rule
(``_write``): a bare name, parenthesized or not, is a strong def;
any other lvalue is a weak def of its base, whose mentions are uses.

Uninitialized declarators count as definitions so declaration-anchored
slices connect to later uses of the variable.

Every graph walk here and in ``slicing`` is ``reachable`` over a map
built by ``adjacency``: unreachable-code pruning, reaching definitions,
and the forward and backward slices. The one other walk is the
postorder DFS that numbers the post-dominator tree, which needs the
order nodes finish in, not just the set. On the AST side, def/use
facts and call sites are read from the subtrees under each statement's
``Statement.roots``, as the parser recorded them. The CFG is wired by
one recursive walk down the function's body (``_CfgBuilder.wire``);
``while`` and ``for`` share one loop path, a ``for`` being
``init; while (cond) { body; step }``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

from .frontend import (
    IDENTIFIER,
    ROLE_DECLARED,
    ROLE_PLAIN,
    AstNode,
    FunctionDecl,
    ProgramModel,
    ST_PREDICATE,
    ST_RETURN,
)

EXIT = -1  # synthetic exit node id, local to each function's graphs


class GraphError(Exception):
    pass


def adjacency(nodes, pairs) -> dict[int, list[int]]:
    """``a -> [b, ...]`` in pair order, with an entry for every node."""
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in pairs:
        adj[a].append(b)
    return adj


def reachable(adj: dict[int, list[int]], starts) -> set[int]:
    """The nodes reachable from ``starts`` along ``adj``, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True)
class DependenceEdge:
    src: int
    dst: int
    kind: str  # "data" | "control"
    variable: str | None = None


@dataclass
class Cfg:
    """Control flow graph of one function."""

    function_index: int
    nodes: list[int]
    edges: list[tuple[int, int]]
    entry: int
    exit: int = EXIT
    diagnostics: list[str] = field(default_factory=list)

    def successors(self) -> dict[int, list[int]]:
        return adjacency(self.nodes, self.edges)

    def predecessors(self) -> dict[int, list[int]]:
        return adjacency(self.nodes, ((b, a) for a, b in self.edges))


@dataclass
class Pdg:
    """Program dependence graph: CFG nodes + data/control edges.

    The adjacency maps are built once, on first use: derive a changed
    PDG with ``dataclasses.replace`` rather than editing one in place.
    """

    function_index: int
    nodes: list[int]
    edges: list[DependenceEdge]
    entry: int
    exit: int = EXIT
    # the CFG's diagnostics, e.g. statements pruned as unreachable
    diagnostics: list[str] = field(default_factory=list)

    @cached_property
    def data_successors(self) -> dict[int, list[int]]:
        return adjacency(
            self.nodes, ((e.src, e.dst) for e in self.edges if e.kind == "data")
        )

    @cached_property
    def all_predecessors(self) -> dict[int, list[int]]:
        return adjacency(self.nodes, ((e.dst, e.src) for e in self.edges))


@dataclass(frozen=True)
class CallSite:
    caller_index: int
    callee_name: str
    statement_id: int
    arg_identifiers: tuple[tuple[str, ...], ...]
    value_consumed: bool
    callee_index: int | None


@dataclass
class CallGraph:
    """Resolved call sites, grouped on first use; unresolved ones apart."""

    edges: list[CallSite] = field(default_factory=list)
    unresolved: list[CallSite] = field(default_factory=list)

    @cached_property
    def sites_by_caller(self) -> dict[int, list[CallSite]]:
        return _group(self.edges, "caller_index")

    @cached_property
    def sites_by_callee(self) -> dict[int, list[CallSite]]:
        return _group(self.edges, "callee_index")

    @cached_property
    def unresolved_by_statement(self) -> dict[int, list[CallSite]]:
        return _group(self.unresolved, "statement_id")


def _group(sites: list[CallSite], key: str) -> dict[int, list[CallSite]]:
    """Sites by the value of one field, each group in list order."""
    groups: dict[int, list[CallSite]] = {}
    for site in sites:
        groups.setdefault(getattr(site, key), []).append(site)
    return groups


# --------------------------------------------------------------------------
# CFG construction
# --------------------------------------------------------------------------


_JUMPS = ("ReturnStatement", "BreakStatement", "ContinueStatement")


class _CfgBuilder:
    """Wires one function's CFG from its AST, top down.

    ``loops`` holds the enclosing loops, innermost last: each one's
    continue target and the list its breaks collect in. A block stops
    after a jump statement, whose own edges already lead out. Code after
    an ``if``/``else`` whose branches both jump is still wired, with no
    predecessors, and pruned afterwards.
    """

    def __init__(self, fn: FunctionDecl):
        self.fn = fn
        # a dict keeps the first insertion order and drops repeated edges
        self.edges: dict[tuple[int, int], None] = {}
        self.loops: list[tuple[int, list[int]]] = []

    def edge(self, a: int, b: int) -> None:
        self.edges[a, b] = None

    def build(self) -> Cfg:
        fn = self.fn
        entry = fn.signature.id
        for e in self.wire(fn.ast.children[-1], [entry]):
            self.edge(e, EXIT)
        nodes = [entry] + [s.id for s in fn.body] + [EXIT]
        cfg = Cfg(
            function_index=fn.index,
            nodes=nodes,
            edges=list(self.edges),
            entry=entry,
        )
        _prune_unreachable(cfg)
        return cfg

    def wire(self, node: AstNode, preds: list[int]) -> list[int]:
        """Wire one AST item after the open exits ``preds``; return its own."""
        kind = node.kind
        if kind == "Block":
            for child in node.children:
                preds = self.wire(child, preds)
                if child.kind in _JUMPS:
                    break
            return preds
        if kind == "IfStatement":
            cond, then, *rest = node.children
            head = self.wire(cond, preds)
            # rest is empty, or the else keyword and the else branch
            return self.wire(then, head) + (self.wire(rest[1], head) if rest else head)
        if kind in ("WhileStatement", "ForStatement"):
            return self.wire_loop(node, preds)
        sid = node.statement_id
        if sid is None:  # EmptyStatement, braces
            return preds
        for p in preds:
            self.edge(p, sid)
        if kind not in _JUMPS:
            return [sid]
        if kind == "ReturnStatement":
            self.edge(sid, EXIT)
        elif not self.loops:
            word = kind.removesuffix("Statement").lower()
            raise GraphError(
                f"{word!r} outside a loop at statement {sid} "
                f"({self.fn.file_path}:{self.fn.name})"
            )
        elif kind == "BreakStatement":
            self.loops[-1][1].append(sid)
        else:
            self.edge(sid, self.loops[-1][0])
        return []

    def wire_loop(self, node: AstNode, preds: list[int]) -> list[int]:
        """``while (c) body``; ``for (init; c; step) body`` is wired as
        ``init; while (c) { body; step }``, and continues go to the step.

        A ``for`` without a condition loops through a stand-in condition
        that is always true, which is then contracted away: the body (or
        the step) loops back to the body's entry, a continue without a
        step goes there too, and the breaks are the only exits.
        """
        *header, body = node.children
        # a for's step, if any, is the clause right before its ")"
        step = [c for c in header[-2:-1] if c.statement_id is not None]
        clauses = [c for c in header if c.statement_id is not None]
        clauses = clauses[: len(clauses) - len(step)]
        cond = clauses.pop() if clauses and clauses[-1].kind == "Condition" else None
        for init in clauses:
            preds = self.wire(init, preds)
        if cond is None:
            # below EXIT, and unique among the loops open around it
            head = [EXIT - 1 - len(self.loops)]
            for p in preds:
                self.edge(p, head[0])
        else:
            head = self.wire(cond, preds)
        breaks: list[int] = []
        self.loops.append((step[0].statement_id if step else head[0], breaks))
        exits = self.wire(body, head)
        self.loops.pop()
        for clause in step:
            exits = self.wire(clause, exits)
        for e in exits:
            self.edge(e, head[0])
        if cond is not None:
            return head + breaks
        self.contract(head[0])
        return breaks

    def contract(self, node: int) -> None:
        """Replace ``node`` by an edge from each predecessor to each successor."""
        ins = [a for a, b in self.edges if b == node and a != node]
        outs = [b for a, b in self.edges if a == node and b != node]
        self.edges = {e: None for e in self.edges if node not in e}
        for a in ins:
            for b in outs:
                self.edge(a, b)


def _prune_unreachable(cfg: Cfg) -> None:
    """Drop nodes with no path from entry (e.g. code after return)."""
    seen = reachable(cfg.successors(), [cfg.entry])
    seen.add(cfg.exit)
    dropped = [n for n in cfg.nodes if n not in seen]
    if dropped:
        cfg.diagnostics.append(
            f"unreachable statements pruned from CFG: {sorted(dropped)}"
        )
        cfg.nodes = [n for n in cfg.nodes if n in seen]
        cfg.edges = [(a, b) for a, b in cfg.edges if a in seen and b in seen]


def build_cfg(fn: FunctionDecl) -> Cfg:
    return _CfgBuilder(fn).build()


# --------------------------------------------------------------------------
# def/use facts
# --------------------------------------------------------------------------


@dataclass
class StatementFacts:
    strong_defs: set[str] = field(default_factory=set)
    weak_defs: set[str] = field(default_factory=set)
    uses: set[str] = field(default_factory=set)

    @property
    def defs(self) -> set[str]:
        return self.strong_defs | self.weak_defs


def _base_identifier(node: AstNode, fn: FunctionDecl) -> str | None:
    """Leftmost variable identifier of an lvalue expression."""
    current = node
    while True:
        if current.kind == "Identifier":
            tok = fn.tokens[current.span[0]]
            if tok.role in (ROLE_PLAIN, ROLE_DECLARED):
                return tok.text
            return None
        if current.kind in ("IndexExpr", "MemberExpr"):
            current = current.children[0]
            continue
        if current.kind == "ParenExpr":
            current = current.children[1]
            continue
        if current.kind == "UnaryExpr":
            # *p or (*p) style: descend past the operator
            inner = [c for c in current.children if c.kind not in ("Operator",)]
            if not inner:
                return None
            current = inner[0]
            continue
        if current.kind == "CastExpr":
            current = current.children[-1]
            continue
        return None


def _write(target: AstNode, fn: FunctionDecl, facts: StatementFacts) -> str | None:
    """Record a write to ``target``: a strong def of a bare variable name,
    which is returned, or else a weak def of the lvalue's base plus the
    uses inside it."""
    bare = target
    while bare.kind == "ParenExpr":
        bare = bare.children[1]
    if bare.kind == "Identifier":
        tok = fn.tokens[bare.span[0]]
        if tok.role in (ROLE_PLAIN, ROLE_DECLARED):
            facts.strong_defs.add(tok.text)
            return tok.text
    base = _base_identifier(target, fn)
    if base is not None:
        facts.weak_defs.add(base)
    _collect(target, fn, facts)
    return None


def _collect(node: AstNode, fn: FunctionDecl, facts: StatementFacts) -> None:
    kind = node.kind
    if kind == "AssignExpr":
        lhs, op, rhs = node.children
        name = _write(lhs, fn, facts)
        if name is not None and fn.tokens[op.span[0]].text != "=":
            facts.uses.add(name)  # a compound assignment reads the old value
        _collect(rhs, fn, facts)
        return
    if kind == "UnaryExpr":
        op_texts = [
            fn.tokens[c.span[0]].text for c in node.children if c.kind == "Operator"
        ]
        operand = next(
            (c for c in node.children if c.kind != "Operator"), None
        )
        if operand is not None and any(t in ("++", "--") for t in op_texts):
            name = _write(operand, fn, facts)
            if name is not None:
                facts.uses.add(name)
            return
        for child in node.children:
            _collect(child, fn, facts)
        return
    if kind == "CallExpression":
        for child in node.children:
            if child.kind == "Callee":
                continue  # callee names are not variable uses
            if _is_address_of_identifier(child, fn):
                name = _base_identifier(child.children[1], fn)
                if name is not None:
                    facts.weak_defs.add(name)
                    facts.uses.add(name)
                continue
            _collect(child, fn, facts)
        return
    if kind == "Identifier":
        tok = fn.tokens[node.span[0]]
        if tok.role == ROLE_PLAIN:
            facts.uses.add(tok.text)
        elif tok.role == ROLE_DECLARED:
            facts.strong_defs.add(tok.text)
        return
    for child in node.children:
        _collect(child, fn, facts)


def _is_address_of_identifier(node: AstNode, fn: FunctionDecl) -> bool:
    if node.kind != "UnaryExpr" or len(node.children) != 2:
        return False
    op, operand = node.children
    if op.kind != "Operator" or fn.tokens[op.span[0]].text != "&":
        return False
    return _base_identifier(operand, fn) is not None


def extract_def_use(fn: FunctionDecl) -> dict[int, StatementFacts]:
    """Token-level def/use facts for every statement, signature included."""
    facts: dict[int, StatementFacts] = {
        st.id: StatementFacts() for st in fn.all_statements()
    }
    for st in fn.all_statements():
        for root in st.roots:
            _collect(root, fn, facts[st.id])
    return facts


# --------------------------------------------------------------------------
# data dependences: reaching definitions
# --------------------------------------------------------------------------


def compute_data_deps(
    cfg: Cfg, facts: dict[int, StatementFacts]
) -> list[DependenceEdge]:
    """Edges (def site -> use site, variable) from reaching definitions.

    A definition of v at m reaches every node that a path from m gets to
    without passing a strong definition of v; weak defs only generate.
    A use at the defining node reads the incoming state, so self-loops
    only arise through actual cycles.
    """
    sites: dict[str, list[int]] = {}
    for n in cfg.nodes:
        if n in facts:
            for v in facts[n].defs:
                sites.setdefault(v, []).append(n)
    succ = cfg.successors()
    edges: list[DependenceEdge] = []
    for v, defining in sites.items():
        # edges leave only the nodes that do not strongly define v
        passing = adjacency(
            cfg.nodes,
            (
                (a, b)
                for a, b in cfg.edges
                if a not in facts or v not in facts[a].strong_defs
            ),
        )
        for m in defining:
            for n in reachable(passing, succ[m]):
                if n in facts and v in facts[n].uses:
                    edges.append(DependenceEdge(m, n, "data", v))
    edges.sort(key=lambda e: (e.src, e.dst, e.variable or ""))
    return edges


# --------------------------------------------------------------------------
# control dependences: post-dominator tree
# --------------------------------------------------------------------------


def immediate_post_dominators(cfg: Cfg) -> dict[int, int]:
    """ipdom(n), the closest strict post-dominator, of every node but the exit.

    This is the Cooper-Harvey-Kennedy dominator tree ("A Simple, Fast
    Dominance Algorithm", 2001) of the reversed CFG: number the nodes
    by a postorder DFS from the exit along predecessor edges, then meet
    each node's successors with two fingers until nothing changes. A
    node the DFS does not reach has no path to the exit: ``GraphError``.
    """
    preds = cfg.predecessors()
    order: list[int] = []  # postorder: the exit comes last
    seen = {cfg.exit}
    stack = [(cfg.exit, iter(preds[cfg.exit]))]
    while stack:
        node, pending = stack[-1]
        nxt = next((p for p in pending if p not in seen), None)
        if nxt is None:
            stack.pop()
            order.append(node)
        else:
            seen.add(nxt)
            stack.append((nxt, iter(preds[nxt])))
    stranded = [n for n in cfg.nodes if n not in seen]
    if stranded:
        raise GraphError(
            f"CFG nodes {stranded} of function {cfg.function_index} "
            "have no path to exit"
        )
    rank = {n: i for i, n in enumerate(order)}
    ipdom = {cfg.exit: cfg.exit}

    def meet(a: int, b: int) -> int:
        while a != b:
            while rank[a] < rank[b]:
                a = ipdom[a]
            while rank[b] < rank[a]:
                b = ipdom[b]
        return a

    succ = cfg.successors()
    changed = True
    while changed:
        changed = False
        for n in reversed(order[:-1]):
            new = reduce(meet, (s for s in succ[n] if s in ipdom))
            if ipdom.get(n) != new:
                ipdom[n] = new
                changed = True
    del ipdom[cfg.exit]
    return ipdom


def compute_control_deps(cfg: Cfg) -> list[DependenceEdge]:
    """Edges (predicate -> dependent node) per the post-dominance rule.

    For each CFG edge a -> b, walk b up the post-dominator tree. The
    least common ancestor of a and b is either ipdom(a) or a itself
    (loop case); every node strictly below it is control-dependent on
    a. An edge to ipdom(a) induces nothing.
    """
    ipdom = immediate_post_dominators(cfg)
    edges: set[tuple[int, int]] = set()
    for a, b in cfg.edges:
        stop = ipdom[a]
        x = b
        while x != stop and x != a:
            edges.add((a, x))
            x = ipdom[x]
    out = [DependenceEdge(a, b, "control") for (a, b) in edges]
    out.sort(key=lambda e: (e.src, e.dst))
    return out


# --------------------------------------------------------------------------
# PDG and call graph
# --------------------------------------------------------------------------


def build_pdg(fn: FunctionDecl, cfg: Cfg | None = None) -> Pdg:
    cfg = cfg if cfg is not None else build_cfg(fn)
    facts = extract_def_use(fn)
    data = compute_data_deps(cfg, facts)
    try:
        control = compute_control_deps(cfg)
    except GraphError as exc:  # name the function, as the CFG builder's errors do
        raise GraphError(f"{exc} ({fn.file_path}:{fn.name})") from None
    edges = data + control
    return Pdg(
        function_index=fn.index,
        nodes=list(cfg.nodes),
        edges=edges,
        entry=cfg.entry,
        diagnostics=list(cfg.diagnostics),
    )


def build_pdgs(program: ProgramModel) -> dict[int, Pdg]:
    return {fn.index: build_pdg(fn) for fn in program.functions}


def build_call_graph(program: ProgramModel) -> CallGraph:
    """One edge per resolved call site; unresolved names kept separately."""
    by_name: dict[str, int] = {}
    for fn in program.functions:
        by_name.setdefault(fn.name, fn.index)
    graph = CallGraph()
    for fn in program.functions:
        for st in fn.all_statements():
            for root in st.roots:
                # only a bare call statement discards the call's value
                discarded = (
                    root.children[0] if root.kind == "ExpressionStatement" else None
                )
                for node in root.walk():
                    if node.kind != "CallExpression":
                        continue
                    inner = node.children[0].children[0]
                    if inner.kind != "Identifier":
                        continue  # member/function-pointer calls are out of scope
                    name = fn.tokens[inner.span[0]].text
                    args = [c for c in node.children[1:] if c.kind != "Punct"]
                    site = CallSite(
                        caller_index=fn.index,
                        callee_name=name,
                        statement_id=st.id,
                        arg_identifiers=tuple(
                            _argument_identifiers(a, fn) for a in args
                        ),
                        value_consumed=node is not discarded,
                        callee_index=by_name.get(name),
                    )
                    if site.callee_index is None:
                        graph.unresolved.append(site)
                    else:
                        graph.edges.append(site)
    graph.edges.sort(key=lambda s: (s.caller_index, s.statement_id))
    graph.unresolved.sort(key=lambda s: (s.caller_index, s.statement_id))
    return graph


def _argument_identifiers(node: AstNode, fn: FunctionDecl) -> tuple[str, ...]:
    names: list[str] = []
    for n in node.walk():
        if n.kind == "Identifier":
            tok = fn.tokens[n.span[0]]
            if tok.role in (ROLE_PLAIN, ROLE_DECLARED) and tok.text not in names:
                names.append(tok.text)
    return tuple(names)
