"""Differential tests: CFG wiring against the builder it replaced.

The CFG used to be wired by five methods (``wire_block``, ``wire_item``,
``wire_if``, ``wire_while`` and ``wire_for``) that passed the stack of
enclosing loops as an argument, returned a ``terminated`` flag beside
every exit list, and found a ``for`` loop's init and step by comparing
token spans. That builder is kept here, unchanged, as the reference.
Every function of the bundled C files, of the mini corpus, of the
mini-corpus templates, of seeded random programs and of the edge cases
below must give an equal ``Cfg`` from both (nodes, edges in insertion
order, diagnostics), or raise ``GraphError`` with the same message.
The one exception is a ``for`` without a condition: the reference
refused it, and the builder now wires it as always true.
"""

from __future__ import annotations

import numpy as np

from vulnslice.cli import load_manifest
from vulnslice.data import mini_corpus_manifest
from vulnslice.frontend import AstNode, FunctionDecl, ProgramModel, load_program, parse_source
from vulnslice.graphs import EXIT, Cfg, GraphError, _prune_unreachable, build_cfg

from oracles import long_function_source, random_jump_source, random_structured_source
from test_frontend_reference import BUNDLED, TEMPLATE_PROGRAMS
from test_slicing_reference import random_program

# --- the replaced code ----------------------------------------------------


class _CfgBuilder:
    def __init__(self, fn: FunctionDecl):
        self.fn = fn
        # a dict keeps the first insertion order and drops repeated edges
        self.edges: dict[tuple[int, int], None] = {}

    def edge(self, a: int, b: int) -> None:
        self.edges[a, b] = None

    def build(self) -> Cfg:
        fn = self.fn
        entry = fn.signature.id
        # loop context: (continue_target, break_collector)
        exits = self.wire_block(fn.ast, [entry], [])
        for e in exits:
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

    def wire_block(
        self, block: AstNode, dangling: list[int], loops: list[tuple[int, list[int]]]
    ) -> list[int]:
        """Wire a Block/FunctionDef's statements; return open exits."""
        for child in block.children:
            dangling, terminated = self.wire_item(child, dangling, loops)
            if terminated and not dangling:
                break
        return dangling

    def connect(self, dangling: list[int], target: int) -> None:
        for d in dangling:
            self.edge(d, target)

    def wire_item(
        self,
        node: AstNode,
        dangling: list[int],
        loops: list[tuple[int, list[int]]],
    ) -> tuple[list[int], bool]:
        """Wire one AST item. Returns (new dangling exits, terminated)."""
        kind = node.kind
        if kind in ("Block", "FunctionDef"):
            return self.wire_block(node, dangling, loops), False
        if kind in (
            "IdentifierDeclStatement",
            "ExpressionStatement",
        ):
            sid = node.statement_id
            assert sid is not None
            self.connect(dangling, sid)
            return [sid], False
        if kind == "ReturnStatement":
            sid = node.statement_id
            assert sid is not None
            self.connect(dangling, sid)
            self.edge(sid, EXIT)
            return [], True
        if kind == "BreakStatement":
            sid = node.statement_id
            assert sid is not None
            self.connect(dangling, sid)
            if not loops:
                raise GraphError(
                    f"'break' outside a loop at statement {sid} "
                    f"({self.fn.file_path}:{self.fn.name})"
                )
            loops[-1][1].append(sid)
            return [], True
        if kind == "ContinueStatement":
            sid = node.statement_id
            assert sid is not None
            self.connect(dangling, sid)
            if not loops:
                raise GraphError(
                    f"'continue' outside a loop at statement {sid} "
                    f"({self.fn.file_path}:{self.fn.name})"
                )
            self.edge(sid, loops[-1][0])
            return [], True
        if kind == "IfStatement":
            return self.wire_if(node, dangling, loops), False
        if kind == "WhileStatement":
            return self.wire_while(node, dangling, loops), False
        if kind == "ForStatement":
            return self.wire_for(node, dangling, loops), False
        # EmptyStatement, stray leaves (braces): pass through
        return dangling, False

    def wire_if(self, node, dangling, loops) -> list[int]:
        children = node.children
        cond = children[0]
        pred = cond.statement_id
        assert pred is not None
        self.connect(dangling, pred)
        then_exits, _ = self.wire_item(children[1], [pred], loops)
        else_exits: list[int] = []
        has_else = len(children) >= 4
        if has_else:
            else_exits, _ = self.wire_item(children[3], [pred], loops)
            out = then_exits + else_exits
        else:
            out = then_exits + [pred]
        return out

    def wire_while(self, node, dangling, loops) -> list[int]:
        cond, body = node.children[0], node.children[1]
        pred = cond.statement_id
        assert pred is not None
        self.connect(dangling, pred)
        breaks: list[int] = []
        body_exits, _ = self.wire_item(body, [pred], [*loops, (pred, breaks)])
        self.connect(body_exits, pred)
        return [pred] + breaks

    def wire_for(self, node, dangling, loops) -> list[int]:
        """for(init; cond; step) desugars to init; while(cond){body; step}."""
        body = node.children[-1]
        cond = next((c for c in node.children if c.kind == "Condition"), None)
        if cond is None:
            raise GraphError(
                f"'for' without a condition is outside the subset "
                f"({self.fn.file_path}:{self.fn.name})"
            )
        clause_stmts = [
            c
            for c in node.children[:-1]
            if c.statement_id is not None and c is not cond
        ]
        init = next(
            (c for c in clause_stmts if c.span[0] < cond.span[0]), None
        )
        step = next(
            (c for c in clause_stmts if c.span[0] > cond.span[1]), None
        )
        if init is not None:
            sid = init.statement_id
            assert sid is not None
            self.connect(dangling, sid)
            dangling = [sid]
        pred = cond.statement_id
        assert pred is not None
        step_id = step.statement_id if step is not None else None
        breaks: list[int] = []
        self.connect(dangling, pred)
        continue_target = step_id if step_id is not None else pred
        body_exits, _ = self.wire_item(
            body, [pred], [*loops, (continue_target, breaks)]
        )
        if step_id is not None:
            self.connect(body_exits, step_id)
            self.edge(step_id, pred)
        else:
            self.connect(body_exits, pred)
        return [pred] + breaks


def reference_build_cfg(fn: FunctionDecl) -> Cfg:
    return _CfgBuilder(fn).build()


# --- comparison -----------------------------------------------------------


def outcome(build, fn: FunctionDecl):
    try:
        return build(fn)
    except GraphError as exc:
        return "GraphError", str(exc)


NO_CONDITION = "'for' without a condition is outside the subset"


def assert_same_as_reference(model: ProgramModel) -> tuple[int, int]:
    """Compare every function's CFG; returns (raised, not compared).

    The reference refused a ``for`` without a condition, which the
    builder now wires (``test_graphs.py`` lists such CFGs edge by edge).
    A function the reference refused for that is not compared: the
    builder must wire it, or raise for a jump outside a loop.
    """
    raised = unwired = 0
    for fn in model.functions:
        new, old = outcome(build_cfg, fn), outcome(reference_build_cfg, fn)
        if isinstance(old, tuple) and old[1].startswith(NO_CONDITION):
            assert isinstance(new, Cfg) or "outside a loop" in new[1], new
            unwired += 1
            continue
        assert new == old, (model.name, fn.name)
        raised += not isinstance(new, Cfg)
    return raised, unwired


def assert_sources_match(sources) -> tuple[int, int, int]:
    """(functions, functions that raised, functions not compared) over
    ``sources``."""
    functions = raised = unwired = 0
    for source in sources:
        model = parse_source(source)
        functions += len(model.functions)
        counts = assert_same_as_reference(model)
        raised += counts[0]
        unwired += counts[1]
    return functions, raised, unwired


_FLOW = ["a = b;", "f(a);", ";", "return;", "break;", "continue;", "int i = 0;"]


def random_flow_source(rng: np.random.Generator) -> str:
    """A function over every shape the builder wires, jumps anywhere:
    blocks, ``if`` with and without ``else``, ``while``, and ``for`` with
    any of its three clauses left out (a declaration init included).
    ``int i = 0;`` is drawn only as a block item, where C allows it."""

    def statement(depth: int, item: bool = False) -> str:
        roll = int(rng.integers(0, 6 if depth < 3 else 1))
        if roll == 0:
            simple = _FLOW if item else _FLOW[:-1]
            return simple[int(rng.integers(0, len(simple)))]
        if roll == 1:
            items = (statement(depth + 1, True) for _ in range(rng.integers(0, 4)))
            return "{ " + " ".join(items) + " }"
        if roll == 2:
            other = f" else {statement(depth + 1)}" if rng.random() < 0.5 else ""
            return f"if (a) {statement(depth + 1)}{other}"
        if roll == 3:
            return f"while (a) {statement(depth + 1)}"
        init = ["", "i = 0", "int j = 1"][int(rng.integers(0, 3))]
        cond = "i < n" if rng.random() < 0.9 else ""
        step = "i++" if rng.random() < 0.6 else ""
        return f"for ({init}; {cond}; {step}) {statement(depth + 1)}"

    body = " ".join(statement(0, True) for _ in range(rng.integers(1, 5)))
    return f"void flow(int a, int b, int n, int i)\n{{ {body} }}\n"


EDGE_CASES = [
    "void f(int a) { if (a) return; else return; break; }",
    "void f(int a) { if (a) return; else return; a = 1; }",
    "void f(int a) { return; break; }",
    "void f(int a) { return; for (;;) ; }",
    "void f(int a) { while (a) { break; for (;;) { } } }",
    "void f(int a) { while (a) { continue; for (;;) { } } }",
    "void f(int a) { { return; } continue; }",
    "void f(int a) { { return; } a = 1; }",
    "void f(int a) { while (a) { if (a) break; else continue; a = 2; } }",
    "void f(int n) { for (i = 0; i < n; i++) { if (i) continue; f(i); } }",
    "void f(int n) { for (; i < n;) { continue; } }",
    "void f(int n) { for (int i = 0; i < n; i++) ; }",
    "void f(int n) { for (i = 0; ; i++) { break; } }",
    "void f(int n) { for (;;) { } }",
    "void f(int n) { break; }",
    "void f(int n) { continue; }",
    "void f(int n) { while (n) while (n) for (; n;) { break; continue; } }",
    "void f(int n) { ; ; { ; } }",
    "void f(void) { }",
]


def test_bundled_sources_match_reference():
    for name, source in BUNDLED.items():
        model = parse_source(source, name)
        model.name = name
        assert assert_same_as_reference(model) == (0, 0), name


def test_mini_corpus_matches_reference():
    manifest = load_manifest(mini_corpus_manifest())
    functions = 0
    for program in manifest.programs:
        model = load_program(program.source_paths, name=program.path)
        assert assert_same_as_reference(model) == (0, 0)
        functions += len(model.functions)
    assert functions == 48


def test_template_programs_match_reference():
    assert assert_sources_match(TEMPLATE_PROGRAMS) == (80, 0, 0)


def test_random_structured_sources_match_reference():
    rng = np.random.default_rng(1601)
    sources = [random_structured_source(rng, max_nodes=12) for _ in range(400)]
    assert assert_sources_match(sources) == (400, 0, 0)


def test_random_jump_sources_match_reference():
    rng = np.random.default_rng(1602)
    sources = [random_jump_source(rng, max_nodes=12) for _ in range(400)]
    assert assert_sources_match(sources) == (400, 0, 0)


def test_random_cross_function_programs_match_reference():
    rng = np.random.default_rng(1603)
    counts = assert_sources_match(random_program(rng) for _ in range(400))
    assert counts == (1190, 0, 0)


def test_random_flow_sources_match_reference():
    rng = np.random.default_rng(1604)
    counts = assert_sources_match(random_flow_source(rng) for _ in range(400))
    assert counts == (400, 85, 76)


def test_long_function_matches_reference():
    assert assert_sources_match([long_function_source(300)]) == (1, 0, 0)


def test_edge_cases_match_reference():
    assert assert_sources_match(EDGE_CASES) == (len(EDGE_CASES), 4, 2)
