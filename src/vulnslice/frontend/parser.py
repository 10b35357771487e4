"""Recursive-descent parser for the supported C subset.

The subset covers function definitions, parameter lists, local
declarations (pointer and array declarators, initializers), expression
statements, if/else, while, for, return, break/continue, calls, and
unary/binary/member expressions. As in C, a declaration is a block
item or a ``for`` init, never the body of an if, else, while or for.
Templates, classes, argument-taking macros, and goto are out;
preprocessor lines were already blanked by the lexer.

A function parses into three aligned views:

* a flat, source-ordered list of ``Statement`` records (one per
  ``;``-terminated item or control predicate),
* an abstract syntax tree whose leaves cover the function's tokens
  exactly once (so concatenating leaf texts reproduces the token
  stream), and
* the raw token list.

The function signature gets its own Statement (kind "other") so that
dependence graphs have a node where parameters are defined.

Anything outside the subset, or cut off by the end of the file, raises
a parse error naming the line; top-level recovery skips to the next
function boundary and records a diagnostic instead of failing the
whole file. ``load_program`` skips a file that does not lex the same
way, with a diagnostic.

Binary expressions are parsed by precedence climbing over one
``{operator: level}`` table (``_BINARY_PRECEDENCE``, levels 0-9 from
``||`` to ``* / %``, all left-associative): one call per operand
instead of one per level. Nodes are numbered in creation order, so
children come before their parent. Each node gets its function-relative
span and its children their parent id when it is created, so a finished
function needs no further pass over its tree. Statement ownership is
decided where each statement is made: the statement records the
outermost nodes it owns (``Statement.roots``) and the function-relative
index of its first token (``Statement.start``), and every node of those
subtrees is stamped with its id. Consumers start their walks from the
roots, so nothing outside this module follows ``parent_id`` links.

Each token pattern the grammar repeats has one method: ``take`` (the
current token's leaf), ``stars``, ``typedef_name_ahead`` (``size_t n``,
``FILE *fp``), ``parse_declared_name`` (a name and its array
suffixes), ``comma_list`` (parameters, declarators, call arguments),
``parse_condition`` (``if``/``while`` and its parenthesized predicate)
and ``parse_type_name`` (specifiers and stars). ``parse_statement`` has
one branch per statement shape.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .lexer import (
    CONSTANT,
    IDENTIFIER,
    KEYWORD,
    OPERATOR,
    PUNCTUATOR,
    ROLE_CALLEE,
    ROLE_DECLARED,
    ROLE_FIELD,
    ROLE_FUNCTION,
    ROLE_TYPE,
    STRING,
    TYPE_KEYWORDS,
    LexError,
    Token,
    tokenize,
)

# Statement kinds.
ST_DECLARATION = "declaration"
ST_EXPRESSION = "expression"
ST_PREDICATE = "control-predicate"
ST_RETURN = "return"
ST_CALL = "call"
ST_OTHER = "other"

# AST node kinds. Beyond the core vocabulary (FunctionDef,
# IdentifierDeclStatement, ExpressionStatement, CallExpression, Callee,
# Identifier, Condition) we document: ParamList/Param for signatures,
# Declarator for each declared name, Block for braces, control-flow
# wrappers (IfStatement, WhileStatement, ForStatement, ReturnStatement,
# BreakStatement, ContinueStatement, EmptyStatement), expression nodes
# (AssignExpr, CondExpr, BinaryExpr, UnaryExpr, IndexExpr, MemberExpr,
# ParenExpr, InitList), and terminal kinds (Keyword, Constant,
# StringLit, Operator, Punct).

ASSIGN_OPS = frozenset("= += -= *= /= %= &= |= ^= <<= >>=".split())

# Binary operator -> precedence level, loosest (0) to tightest (9).
_BINARY_PRECEDENCE = {
    op: level
    for level, ops in enumerate(
        ["||", "&&", "|", "^", "&", "== !=", "< <= > >=", "<< >>", "+ -", "* / %"]
    )
    for op in ops.split()
}

_UNARY_OPS = frozenset({"!", "~", "+", "-", "*", "&", "++", "--"})

# Jump keyword -> (AST node kind, statement kind).
_JUMPS = {
    "return": ("ReturnStatement", ST_RETURN),
    "break": ("BreakStatement", ST_OTHER),
    "continue": ("ContinueStatement", ST_OTHER),
}

_LEAF_KINDS = {
    KEYWORD: "Keyword",
    IDENTIFIER: "Identifier",
    CONSTANT: "Constant",
    STRING: "StringLit",
    OPERATOR: "Operator",
    PUNCTUATOR: "Punct",
}


class ParseError(Exception):
    def __init__(self, message: str, file: str, line: int):
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line


@dataclass
class Diagnostic:
    file: str
    line: int
    message: str


@dataclass
class Statement:
    """One source statement or control predicate.

    ``start`` is the function-relative index of its first token;
    ``roots`` are the outermost AST nodes it owns, in source order, and
    their spans cover exactly its tokens. Only the signature has more
    than one root.
    """

    id: int
    function_index: int
    kind: str
    line_first: int
    line_last: int
    tokens: list[Token]
    start: int
    roots: list[AstNode] = field(default_factory=list, compare=False, repr=False)

    @cached_property
    def text(self) -> str:
        """The tokens' texts, space-joined: once, on first read."""
        return " ".join(t.text for t in self.tokens)


@dataclass(slots=True)
class AstNode:
    """AST node over a contiguous token span of its function.

    Leaves span exactly one token; an internal node's span is the union
    of its children's spans. ``statement_id`` is set for nodes owned by
    a single statement and absent for FunctionDef and other
    multi-statement structural nodes (blocks, if/for wrappers and their
    glue tokens).
    """

    id: int
    kind: str
    span: tuple[int, int]
    children: list["AstNode"] = field(default_factory=list)
    statement_id: int | None = None
    parent_id: int | None = None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class FunctionDecl:
    """A parsed function: name, parameters, flat statement list, AST."""

    index: int
    name: str
    file_path: str
    parameters: list[str]
    tokens: list[Token]
    signature: Statement
    body: list[Statement]
    ast: AstNode
    line: int

    def all_statements(self) -> list[Statement]:
        return [self.signature] + self.body

    def statement(self, statement_id: int) -> Statement:
        """The statement with this id. A function's statement ids run
        consecutively from its signature's, in source order."""
        offset = statement_id - self.signature.id
        st = self.body[offset - 1] if offset > 0 else self.signature
        assert st.id == statement_id, f"statement {statement_id} not in {self.name}"
        return st


@dataclass
class ProgramModel:
    """All functions parsed from one program's source files."""

    functions: list[FunctionDecl] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    name: str = ""
    _statement_index: dict[int, Statement] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def statement_index(self) -> dict[int, Statement]:
        """Statement id -> statement, built on the first call and kept:
        extract, slice and symbolize share it over every SyVC's SeVC."""
        if self._statement_index is None:
            self._statement_index = {
                st.id: st for fn in self.functions for st in fn.all_statements()
            }
        return self._statement_index


class _FileParser:
    def __init__(
        self,
        tokens: list[Token],
        file_path: str,
        first_statement_id: int,
        first_function_index: int,
    ):
        self.toks = tokens
        self.n_toks = len(tokens)
        self.file = file_path
        self.pos = 0
        self.stmt_id = first_statement_id
        self.fn_index = first_function_index
        self.node_id = 0
        self.diagnostics: list[Diagnostic] = []
        self.functions: list[FunctionDecl] = []
        # per-function state; AST spans count tokens from _fn_start
        self._fn_start = 0
        self._statements: list[Statement] = []
        # live brace depth, so error recovery knows how many blocks to close
        self.block_depth = 0

    # --- token helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.toks[i] if i < self.n_toks else None

    def at(self, text: str, offset: int = 0) -> bool:
        i = self.pos + offset
        return i < self.n_toks and self.toks[i].text == text

    def error(self, message: str) -> ParseError:
        t = self.peek()
        line = t.line if t else (self.toks[-1].line if self.toks else 1)
        return ParseError(message, self.file, line)

    def advance(self) -> int:
        """Consume the current token, returning its index."""
        i = self.pos
        if i >= self.n_toks:
            raise self.error("unexpected end of file")
        self.pos = i + 1
        return i

    def expect(self, text: str) -> int:
        i = self.pos
        if i < self.n_toks and self.toks[i].text == text:
            self.pos = i + 1
            return i
        t = self.peek()
        found = t.text if t else "end of file"
        raise self.error(f"expected {text!r}, found {found!r}")

    def expect_identifier(self) -> int:
        t = self.peek()
        if t is None or t.kind != IDENTIFIER:
            found = t.text if t else "end of file"
            raise self.error(f"expected identifier, found {found!r}")
        return self.advance()

    def typedef_name_ahead(self) -> int:
        """At "NAME *... IDENT", a typedef name and a declarator
        (``size_t n``, ``FILE *fp``): IDENT's offset from the cursor.
        Anywhere else, 0."""
        t = self.peek()
        if t is None or t.kind != IDENTIFIER:
            return 0
        j = 1
        while self.at("*", j):
            j += 1
        nxt = self.peek(j)
        return j if nxt is not None and nxt.kind == IDENTIFIER else 0

    # --- node helpers ---------------------------------------------------

    def leaf(self, index: int) -> AstNode:
        node_id = self.node_id
        self.node_id = node_id + 1
        lo = index - self._fn_start
        return AstNode(node_id, _LEAF_KINDS[self.toks[index].kind], (lo, lo + 1))

    def take(self, text: str | None = None) -> AstNode:
        """The leaf of the current token, consumed; with ``text``, that
        token must be ``text``."""
        return self.leaf(self.advance() if text is None else self.expect(text))

    def stars(self, nodes: list[AstNode]) -> list[AstNode]:
        """Append the leaf of each ``*`` at the cursor to ``nodes``."""
        while self.at("*"):
            nodes.append(self.take())
        return nodes

    def comma_list(self, children: list[AstNode], item: Callable[[], AstNode]) -> list[AstNode]:
        """Append ``item()``, and again after each ``,``, to ``children``:
        parameters, declarators and call arguments."""
        children.append(item())
        while self.at(","):
            children.append(self.take())
            children.append(item())
        return children

    def node(self, kind: str, children: list[AstNode]) -> AstNode:
        assert children, f"internal node {kind} needs children"
        node_id = self.node_id
        self.node_id = node_id + 1
        lo = hi = children[0].span[0]
        for child in children:
            assert child.span[0] == hi, (
                f"non-contiguous children for {kind}: gap at token {hi}"
            )
            hi = child.span[1]
            child.parent_id = node_id
        return AstNode(node_id, kind, (lo, hi), children)

    def stamp(self, node: AstNode, statement_id: int) -> None:
        stack = [node]
        while stack:
            n = stack.pop()
            n.statement_id = statement_id
            stack.extend(n.children)

    def make_statement(self, kind: str, lo: int) -> Statement:
        """The statement over tokens lo up to the current position."""
        toks = self.toks[lo : self.pos]
        st = Statement(
            id=self.stmt_id,
            function_index=self.fn_index,
            kind=kind,
            line_first=toks[0].line,
            line_last=toks[-1].line,
            tokens=toks,
            start=lo - self._fn_start,
        )
        self.stmt_id += 1
        self._statements.append(st)
        return st

    def own(self, node: AstNode, kind: str, lo: int) -> AstNode:
        """Make the statement over tokens lo up to the current position,
        with ``node`` as its one root."""
        st = self.make_statement(kind, lo)
        st.roots.append(node)
        self.stamp(node, st.id)
        return node

    # --- top level -------------------------------------------------------

    def parse_translation_unit(self) -> None:
        while self.peek() is not None:
            if self.at(";"):
                self.advance()
                continue
            start, first_stmt = self.pos, self.stmt_id
            try:
                self.parse_function_def()
            except ParseError as exc:
                self.diagnostics.append(
                    Diagnostic(self.file, exc.line, f"{exc} (function skipped)")
                )
                # the next function's ids must not depend on this one
                self.stmt_id = first_stmt
                self.recover(start)

    def recover(self, start: int) -> None:
        """Skip to the next function boundary after a parse failure.

        ``block_depth`` still holds the depth at the failure point, so
        closing that many braces lands right after the broken function.
        """
        self.pos = max(self.pos, start + 1)
        depth = self.block_depth
        self.block_depth = 0
        seen_brace = depth > 0
        while self.pos < len(self.toks):
            text = self.toks[self.pos].text
            self.pos += 1
            if text == "{":
                depth += 1
                seen_brace = True
            elif text == "}":
                depth -= 1
                if seen_brace and depth <= 0:
                    return
            elif text == ";" and not seen_brace and depth == 0:
                return

    def parse_decl_specifiers(self) -> list[AstNode]:
        """Type keywords/qualifiers plus at most one typedef-ish name."""
        nodes: list[AstNode] = []
        saw_named_type = False
        while True:
            t = self.peek()
            if t is None:
                break
            if t.kind == KEYWORD and t.text in TYPE_KEYWORDS:
                nodes.append(self.take())
                if t.text in ("struct", "union", "enum"):
                    tag = self.peek()
                    if tag is not None and tag.kind == IDENTIFIER:
                        tag.role = ROLE_TYPE
                        nodes.append(self.take())
                        saw_named_type = True
                continue
            if not saw_named_type and self.typedef_name_ahead():
                t.role = ROLE_TYPE
                nodes.append(self.take())
                saw_named_type = True
                continue
            break
        if not nodes:
            raise self.error("expected type specifier")
        return nodes

    def parse_type_name(self) -> list[AstNode]:
        """Specifiers and the stars after them: the type of a function,
        a parameter, a cast or a ``sizeof``."""
        return self.stars(self.parse_decl_specifiers())

    def parse_function_def(self) -> None:
        self._fn_start = self.pos
        self._statements = []
        self.node_id = 0
        head = self.parse_type_name()
        name_idx = self.expect_identifier()
        self.toks[name_idx].role = ROLE_FUNCTION
        head.append(self.leaf(name_idx))
        if not self.at("("):
            raise self.error("expected '(' to start a parameter list")
        params: list[str] = []
        param_list = [self.take()]
        if not self.at(")"):
            self.comma_list(param_list, lambda: self.parse_param(params))
        param_list.append(self.take(")"))
        head.append(self.node("ParamList", param_list))
        signature = self.make_statement(ST_OTHER, self._fn_start)
        if not self.at("{"):
            raise self.error("expected '{' (function body)")
        fn_node = self.node("FunctionDef", head + [self.parse_block()])
        # The signature owns every child but the body (no statement is
        # made inside a signature, so none is stamped yet).
        signature.roots = head
        for child in head:
            self.stamp(child, signature.id)
        fn = FunctionDecl(
            index=self.fn_index,
            name=self.toks[name_idx].text,
            file_path=self.file,
            parameters=params,
            tokens=self.toks[self._fn_start : self.pos],
            signature=signature,
            body=[s for s in self._statements if s.id != signature.id],
            ast=fn_node,
            line=self.toks[name_idx].line,
        )
        self.functions.append(fn)
        self.fn_index += 1

    def parse_param(self, params: list[str]) -> AstNode:
        if self.at("..."):
            return self.take()
        children = self.parse_type_name()
        t = self.peek()
        if t is not None and t.kind == IDENTIFIER:
            params.append(self.parse_declared_name(children))
        return self.node("Param", children)

    def parse_declared_name(self, children: list[AstNode]) -> str:
        """A declared identifier and its array suffixes (``buf[16]``),
        appended to ``children``; returns the identifier."""
        i = self.expect_identifier()
        tok = self.toks[i]
        tok.role = ROLE_DECLARED
        children.append(self.leaf(i))
        while self.at("["):
            children.append(self.take())
            if not self.at("]"):
                children.append(self.parse_expression())
            children.append(self.take("]"))
        return tok.text

    # --- statements -------------------------------------------------------

    def parse_block(self) -> AstNode:
        """``{ ... }``. Only a block item may be a declaration."""
        children = [self.take("{")]
        self.block_depth += 1
        while not self.at("}"):
            if self.peek() is None:
                raise self.error("unexpected end of file inside a block")
            if self.looks_like_declaration():
                children.append(self.parse_declaration())
            else:
                children.append(self.parse_statement())
        children.append(self.take("}"))
        self.block_depth -= 1
        return self.node("Block", children)

    def parse_statement(self) -> AstNode:
        """A statement that is not a declaration: a block item, or the
        body of an ``if``, ``else``, ``while`` or ``for``."""
        t = self.peek()
        if t is None:
            raise self.error("unexpected end of file")
        text = t.text
        if text == "{":
            return self.parse_block()
        if text == ";":
            return self.node("EmptyStatement", [self.take()])
        if text == "if":
            children = [self.parse_condition(), self.parse_statement()]
            if self.at("else"):
                children.append(self.take())
                children.append(self.parse_statement())
            return self.node("IfStatement", children)
        if text == "while":
            cond = self.parse_condition()
            return self.node("WhileStatement", [cond, self.parse_statement()])
        if text == "for":
            return self.parse_for()
        if text in _JUMPS:
            lo = self.pos
            children = [self.take()]
            if text == "return" and not self.at(";"):
                children.append(self.parse_expression())
            children.append(self.take(";"))
            kind, statement_kind = _JUMPS[text]
            return self.own(self.node(kind, children), statement_kind, lo)
        if text in ("do", "switch", "goto", "typedef", "case", "default"):
            raise self.error(f"{text!r} statements are outside the subset")
        if self.looks_like_declaration():
            raise self.error("expected a statement, found a declaration")
        lo = self.pos
        expr = self.parse_expression()
        node = self.node("ExpressionStatement", [expr, self.take(";")])
        kind = ST_CALL if expr.kind == "CallExpression" else ST_EXPRESSION
        return self.own(node, kind, lo)

    def parse_condition(self) -> AstNode:
        """``if`` or ``while`` and its parenthesized expression: the
        Condition node, owned by a control-predicate statement."""
        lo = self.pos
        children = [self.take(), self.take("("), self.parse_expression(), self.take(")")]
        return self.own(self.node("Condition", children), ST_PREDICATE, lo)

    def looks_like_declaration(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        if t.kind == KEYWORD and t.text in TYPE_KEYWORDS:
            return True
        j = self.typedef_name_ahead()
        after = self.peek(j + 1) if j else None
        return after is not None and after.text in (";", "=", ",", "[")

    def parse_declaration(self) -> AstNode:
        lo = self.pos
        children = self.comma_list(self.parse_decl_specifiers(), self.parse_declarator)
        children.append(self.take(";"))
        node = self.node("IdentifierDeclStatement", children)
        return self.own(node, ST_DECLARATION, lo)

    def parse_declarator(self) -> AstNode:
        children = self.stars([])
        self.parse_declared_name(children)
        if self.at("="):
            children.append(self.take())
            children.append(self.parse_initializer())
        return self.node("Declarator", children)

    def parse_initializer(self) -> AstNode:
        if self.at("{"):
            children = [self.take()]
            while not self.at("}"):
                children.append(self.parse_initializer())
                if self.at(","):
                    children.append(self.take())
            children.append(self.take("}"))
            return self.node("InitList", children)
        return self.parse_assignment_expr()

    def parse_for(self) -> AstNode:
        children = [self.take(), self.take("(")]
        # init
        if self.at(";"):
            children.append(self.take())
        elif self.looks_like_declaration():
            children.append(self.parse_declaration())
        else:
            lo = self.pos
            children.append(self.own(self.parse_expression(), ST_EXPRESSION, lo))
            children.append(self.take(";"))
        # condition: its own control-predicate statement (bare expression)
        if not self.at(";"):
            lo = self.pos
            cond = self.node("Condition", [self.parse_expression()])
            children.append(self.own(cond, ST_PREDICATE, lo))
        children.append(self.take(";"))
        # step
        if not self.at(")"):
            lo = self.pos
            children.append(self.own(self.parse_expression(), ST_EXPRESSION, lo))
        children.append(self.take(")"))
        children.append(self.parse_statement())
        return self.node("ForStatement", children)

    # --- expressions --------------------------------------------------

    def parse_expression(self) -> AstNode:
        node = self.parse_assignment_expr()
        while self.at(","):
            comma = self.take()
            rhs = self.parse_assignment_expr()
            node = self.node("BinaryExpr", [node, comma, rhs])
        return node

    def parse_assignment_expr(self) -> AstNode:
        lhs = self.parse_conditional()
        t = self.peek()
        if t is not None and t.text in ASSIGN_OPS:
            op = self.take()
            rhs = self.parse_assignment_expr()
            return self.node("AssignExpr", [lhs, op, rhs])
        return lhs

    def parse_conditional(self) -> AstNode:
        cond = self.parse_binary(0)
        if self.at("?"):
            q = self.take()
            then = self.parse_expression()
            colon = self.take(":")
            other = self.parse_assignment_expr()
            return self.node("CondExpr", [cond, q, then, colon, other])
        return cond

    def parse_binary(self, min_level: int) -> AstNode:
        """Precedence climbing: operators of level >= min_level, left-assoc.

        The right operand binds only tighter operators, so the tree and
        the node creation order are those of one recursive function per
        level.
        """
        node = self.parse_unary()
        while True:
            t = self.peek()
            level = -1 if t is None else _BINARY_PRECEDENCE.get(t.text, -1)
            if level < min_level:
                return node
            op = self.take()
            rhs = self.parse_binary(level + 1)
            node = self.node("BinaryExpr", [node, op, rhs])

    def parse_unary(self) -> AstNode:
        t = self.peek()
        if t is None:
            raise self.error("expected expression")
        if t.text in _UNARY_OPS and t.kind == OPERATOR:
            op = self.take()
            return self.node("UnaryExpr", [op, self.parse_unary()])
        if t.text == "sizeof":
            kw = self.take()
            if not self.at("("):
                return self.node("UnaryExpr", [kw, self.parse_unary()])
            open_paren = self.take()
            t = self.peek()
            if t is not None and t.kind == KEYWORD and t.text in TYPE_KEYWORDS:
                nodes = self.parse_type_name()
                inner = nodes[0] if len(nodes) == 1 else self.node("TypeName", nodes)
            else:
                inner = self.parse_expression()
            paren = self.node("ParenExpr", [open_paren, inner, self.take(")")])
            return self.node("UnaryExpr", [kw, paren])
        if t.text == "(" and self.is_cast_ahead():
            children = [self.take(), *self.parse_type_name(), self.take(")")]
            children.append(self.parse_unary())
            return self.node("CastExpr", children)
        return self.parse_postfix()

    def is_cast_ahead(self) -> bool:
        # "(" type-keyword ... ")" followed by something castable.
        t = self.peek(1)
        if t is None or t.kind != KEYWORD or t.text not in TYPE_KEYWORDS:
            return False
        j = 2
        t = self.peek(j)
        while t is not None and (
            t.kind == IDENTIFIER or t.text == "*" or t.kind == KEYWORD and t.text in TYPE_KEYWORDS
        ):
            j += 1
            t = self.peek(j)
        if t is None or t.text != ")":
            return False
        after = self.peek(j + 1)
        return after is not None and (
            after.kind in (IDENTIFIER, CONSTANT, STRING)
            or after.text in ("(", "*", "&", "-", "+", "!", "~")
        )

    def parse_postfix(self) -> AstNode:
        node = self.parse_primary()
        while True:
            t = self.peek()
            if t is None:
                return node
            if t.text == "(":
                if node.kind == "Identifier":
                    # still the primary's leaf, so its token was the last consumed
                    self.toks[self.pos - 1].role = ROLE_CALLEE
                children = [self.node("Callee", [node]), self.take()]
                if not self.at(")"):
                    self.comma_list(children, self.parse_assignment_expr)
                children.append(self.take(")"))
                node = self.node("CallExpression", children)
            elif t.text == "[":
                children = [node, self.take(), self.parse_expression(), self.take("]")]
                node = self.node("IndexExpr", children)
            elif t.text in (".", "->"):
                op = self.take()
                fld = self.expect_identifier()
                self.toks[fld].role = ROLE_FIELD
                node = self.node("MemberExpr", [node, op, self.leaf(fld)])
            elif t.text in ("++", "--"):
                node = self.node("UnaryExpr", [node, self.take()])
            else:
                return node

    def parse_primary(self) -> AstNode:
        t = self.peek()
        if t is None:
            raise self.error("expected expression")
        if t.text == "(":
            children = [self.take(), self.parse_expression(), self.take(")")]
            return self.node("ParenExpr", children)
        if t.kind in (IDENTIFIER, CONSTANT, STRING):
            return self.take()
        if t.kind == KEYWORD and t.text == "sizeof":
            return self.parse_unary()
        raise self.error(f"unexpected token {t.text!r} in expression")


def parse(tokens: list[Token], file_path: str) -> ProgramModel:
    """Parse one file's tokens into a ProgramModel."""
    parser = _FileParser(tokens, file_path, 0, 0)
    parser.parse_translation_unit()
    return ProgramModel(
        functions=parser.functions,
        files=[file_path],
        diagnostics=parser.diagnostics,
        name=file_path,
    )


def parse_source(source: str, file_path: str = "<memory>") -> ProgramModel:
    return parse(tokenize(source), file_path)


def load_program(
    paths: list[str], name: str = "", names: list[str] | None = None
) -> ProgramModel:
    """Parse several source files into one merged ProgramModel.

    Statement ids and function indices stay unique across files. A file
    that does not lex is skipped with a diagnostic, the way a function
    that does not parse is.

    ``names``, one per path, is what the model calls each file: in
    ``files``, ``FunctionDecl.file_path`` and every diagnostic, message
    included. Without it each file is called by its path.
    """
    model = ProgramModel(name=name or (paths[0] if paths else ""))
    next_stmt = next_fn = 0
    for path, file_name in zip(paths, paths if names is None else names):
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        model.files.append(file_name)
        try:
            tokens = tokenize(text)
        except LexError as exc:
            message = f"{file_name}:{exc.line}: {exc.message} (file skipped)"
            model.diagnostics.append(Diagnostic(file_name, exc.line, message))
            continue
        parser = _FileParser(tokens, file_name, next_stmt, next_fn)
        parser.parse_translation_unit()
        model.functions.extend(parser.functions)
        model.diagnostics.extend(parser.diagnostics)
        next_stmt, next_fn = parser.stmt_id, parser.fn_index
    return model


def dump_ast(model: ProgramModel) -> list[str]:
    """The ``ast.jsonl`` record lines of a program: one JSON object per
    AST node, each function's nodes in ``AstNode.walk`` (pre-order) order.

    A line holds the node's file, function, id, kind, parent id, span and
    statement id, and the program's name, and is byte for byte what
    ``json.JSONEncoder(sort_keys=True).encode`` gives for that record.
    Names and kinds are JSON-encoded once each, not once per node.
    """
    dumps = json.dumps
    program = dumps(model.name)
    kinds: dict[str, str] = {}
    lines: list[str] = []
    append = lines.append
    for fn in model.functions:
        head = f'{{"file": {dumps(fn.file_path)}, "function": {dumps(fn.name)}, "id": '
        stack = [fn.ast]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            kind = kinds.get(node.kind)
            if kind is None:
                kind = kinds[node.kind] = dumps(node.kind)
            parent = node.parent_id
            statement = node.statement_id
            lo, hi = node.span
            append(
                f'{head}{node.id}, "kind": {kind}, "parent_id": '
                f'{"null" if parent is None else parent}, "program": {program}, '
                f'"span": [{lo}, {hi}], "statement_id": '
                f'{"null" if statement is None else statement}}}'
            )
            if node.children:
                extend(reversed(node.children))
    return lines
