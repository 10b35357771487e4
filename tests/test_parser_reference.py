"""Differential tests: the parser against the one it replaced.

The parser used to write each repeated token pattern where it was
needed: five loops over ``*`` tokens, two typedef-name lookaheads, two
copies of the declared-name code, three comma lists, two copies of the
``if``/``while`` condition code, a separate ``sizeof`` operand parse,
and one method per statement shape. ``load_program`` took the next
statement id and function index from a ``max`` over every statement
parsed. That ``_FileParser``, ``parse`` and ``load_program`` are kept
here as the reference, unchanged but for the parser class the two
functions take.

The parser also gained two rules: an end of file where a statement is
due, and a declaration as the body of an ``if``, ``else``, ``while`` or
``for``, are each a ``ParseError``, so the function is skipped. The old
parser raised ``AssertionError`` for the first and accepted the second.
``_WithNewRules`` adds just those two rules to the reference. On every
input below, the parser must give what ``_WithNewRules`` gives: the
tokens with their roles, the statements with their root ids, the
``dump_ast`` lines and the diagnostics, or the same error. Each test
also counts the inputs on which the rules change the reference's own
outcome.
"""

from __future__ import annotations

import functools
import sys

import numpy as np
from hypothesis import given, settings

from vulnslice.cli import load_manifest
from vulnslice.data import mini_corpus_manifest
from vulnslice.frontend import dump_ast, tokenize
from vulnslice.frontend import parser as frontend_parser
from vulnslice.frontend.lexer import (
    CONSTANT,
    IDENTIFIER,
    KEYWORD,
    OPERATOR,
    ROLE_CALLEE,
    ROLE_DECLARED,
    ROLE_FIELD,
    ROLE_FUNCTION,
    ROLE_TYPE,
    STRING,
    TYPE_KEYWORDS,
    LexError,
    Token,
)
from vulnslice.frontend.parser import (
    _BINARY_PRECEDENCE,
    _LEAF_KINDS,
    _UNARY_OPS,
    ASSIGN_OPS,
    ST_CALL,
    ST_DECLARATION,
    ST_EXPRESSION,
    ST_OTHER,
    ST_PREDICATE,
    ST_RETURN,
    AstNode,
    Diagnostic,
    FunctionDecl,
    ParseError,
    ProgramModel,
    Statement,
)

from oracles import (
    long_function_source,
    random_jump_source,
    random_structured_source,
    token_prefixes,
)
from test_frontend_reference import BUNDLED, OPERATOR_PROGRAM, TEMPLATE_PROGRAMS, _token, mutants
from test_graphs_reference import random_flow_source
from test_slicing_reference import random_program

# --- the replaced code ----------------------------------------------------


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

    # --- node helpers ---------------------------------------------------

    def leaf(self, index: int) -> AstNode:
        node_id = self.node_id
        self.node_id = node_id + 1
        lo = index - self._fn_start
        return AstNode(node_id, _LEAF_KINDS[self.toks[index].kind], (lo, lo + 1))

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
                i = self.advance()
                nodes.append(self.leaf(i))
                if t.text in ("struct", "union", "enum"):
                    tag = self.peek()
                    if tag is not None and tag.kind == IDENTIFIER:
                        j = self.advance()
                        self.toks[j].role = ROLE_TYPE
                        nodes.append(self.leaf(j))
                        saw_named_type = True
                continue
            if t.kind == IDENTIFIER and not saw_named_type:
                # A lone identifier can be a typedef name when a
                # declarator follows ("size_t len", "FILE *fp").
                j = 1
                while self.at("*", j):
                    j += 1
                nxt = self.peek(j)
                if nxt is not None and nxt.kind == IDENTIFIER:
                    i = self.advance()
                    self.toks[i].role = ROLE_TYPE
                    nodes.append(self.leaf(i))
                    saw_named_type = True
                    continue
            break
        if not nodes:
            raise self.error("expected type specifier")
        return nodes

    def parse_function_def(self) -> None:
        self._fn_start = self.pos
        self._statements = []
        self.node_id = 0
        spec_nodes = self.parse_decl_specifiers()
        stars: list[AstNode] = []
        while self.at("*"):
            stars.append(self.leaf(self.advance()))
        name_idx = self.expect_identifier()
        self.toks[name_idx].role = ROLE_FUNCTION
        name_node = self.leaf(name_idx)
        if not self.at("("):
            raise self.error("expected '(' to start a parameter list")
        params, param_list_node = self.parse_param_list()
        signature = self.make_statement(ST_OTHER, self._fn_start)
        if not self.at("{"):
            raise self.error("expected '{' (function body)")
        block = self.parse_block()
        fn_node = self.node(
            "FunctionDef",
            spec_nodes + stars + [name_node, param_list_node, block],
        )
        # The signature owns every child but the body (no statement is
        # made inside a signature, so none is stamped yet).
        signature.roots = fn_node.children[:-1]
        for child in signature.roots:
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

    def parse_param_list(self) -> tuple[list[str], AstNode]:
        children = [self.leaf(self.expect("("))]
        params: list[str] = []
        if not self.at(")"):
            while True:
                if self.at("..."):
                    children.append(self.leaf(self.advance()))
                else:
                    children.append(self.parse_param(params))
                if self.at(","):
                    children.append(self.leaf(self.advance()))
                    continue
                break
        children.append(self.leaf(self.expect(")")))
        return params, self.node("ParamList", children)

    def parse_param(self, params: list[str]) -> AstNode:
        children = self.parse_decl_specifiers()
        while self.at("*"):
            children.append(self.leaf(self.advance()))
        t = self.peek()
        if t is not None and t.kind == IDENTIFIER:
            i = self.advance()
            self.toks[i].role = ROLE_DECLARED
            params.append(self.toks[i].text)
            children.append(self.leaf(i))
            while self.at("["):
                children.append(self.leaf(self.advance()))
                if not self.at("]"):
                    children.append(self.parse_expression())
                children.append(self.leaf(self.expect("]")))
        return self.node("Param", children)

    # --- statements -------------------------------------------------------

    def parse_block(self) -> AstNode:
        children = [self.leaf(self.expect("{"))]
        self.block_depth += 1
        while not self.at("}"):
            if self.peek() is None:
                raise self.error("unexpected end of file inside a block")
            children.append(self.parse_statement())
        children.append(self.leaf(self.expect("}")))
        self.block_depth -= 1
        return self.node("Block", children)

    def parse_statement(self) -> AstNode:
        t = self.peek()
        assert t is not None
        if t.text == "{":
            return self.parse_block()
        if t.text == ";":
            node = self.node("EmptyStatement", [self.leaf(self.advance())])
            return node
        if t.text == "if":
            return self.parse_if()
        if t.text == "while":
            return self.parse_while()
        if t.text == "for":
            return self.parse_for()
        if t.text == "return":
            return self.parse_return()
        if t.text in ("break", "continue"):
            kind = "BreakStatement" if t.text == "break" else "ContinueStatement"
            lo = self.advance()
            children = [self.leaf(lo), self.leaf(self.expect(";"))]
            return self.own(self.node(kind, children), ST_OTHER, lo)
        if t.text in ("do", "switch", "goto", "typedef", "case", "default"):
            raise self.error(f"{t.text!r} statements are outside the subset")
        if self.looks_like_declaration():
            return self.parse_declaration()
        return self.parse_expression_statement()

    def looks_like_declaration(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        if t.kind == KEYWORD and t.text in TYPE_KEYWORDS:
            return True
        if t.kind != IDENTIFIER:
            return False
        j = 1
        while self.at("*", j):
            j += 1
        nxt = self.peek(j)
        if nxt is None or nxt.kind != IDENTIFIER:
            return False
        after = self.peek(j + 1)
        return after is not None and after.text in (";", "=", ",", "[")

    def parse_declaration(self) -> AstNode:
        lo = self.pos
        children = self.parse_decl_specifiers()
        while True:
            children.append(self.parse_declarator())
            if self.at(","):
                children.append(self.leaf(self.advance()))
                continue
            break
        children.append(self.leaf(self.expect(";")))
        node = self.node("IdentifierDeclStatement", children)
        return self.own(node, ST_DECLARATION, lo)

    def parse_declarator(self) -> AstNode:
        children: list[AstNode] = []
        while self.at("*"):
            children.append(self.leaf(self.advance()))
        name_idx = self.expect_identifier()
        self.toks[name_idx].role = ROLE_DECLARED
        children.append(self.leaf(name_idx))
        while self.at("["):
            children.append(self.leaf(self.advance()))
            if not self.at("]"):
                children.append(self.parse_expression())
            children.append(self.leaf(self.expect("]")))
        if self.at("="):
            children.append(self.leaf(self.advance()))
            children.append(self.parse_initializer())
        return self.node("Declarator", children)

    def parse_initializer(self) -> AstNode:
        if self.at("{"):
            children = [self.leaf(self.advance())]
            while not self.at("}"):
                children.append(self.parse_initializer())
                if self.at(","):
                    children.append(self.leaf(self.advance()))
            children.append(self.leaf(self.expect("}")))
            return self.node("InitList", children)
        return self.parse_assignment_expr()

    def parse_if(self) -> AstNode:
        lo = self.pos
        kw = self.leaf(self.expect("if"))
        open_paren = self.leaf(self.expect("("))
        cond_expr = self.parse_expression()
        close_paren = self.leaf(self.expect(")"))
        cond = self.node("Condition", [kw, open_paren, cond_expr, close_paren])
        children = [self.own(cond, ST_PREDICATE, lo), self.parse_statement()]
        if self.at("else"):
            children.append(self.leaf(self.advance()))
            children.append(self.parse_statement())
        return self.node("IfStatement", children)

    def parse_while(self) -> AstNode:
        lo = self.pos
        kw = self.leaf(self.expect("while"))
        open_paren = self.leaf(self.expect("("))
        cond_expr = self.parse_expression()
        close_paren = self.leaf(self.expect(")"))
        cond = self.node("Condition", [kw, open_paren, cond_expr, close_paren])
        self.own(cond, ST_PREDICATE, lo)
        return self.node("WhileStatement", [cond, self.parse_statement()])

    def parse_for(self) -> AstNode:
        children = [self.leaf(self.expect("for")), self.leaf(self.expect("("))]
        # init
        if self.at(";"):
            children.append(self.leaf(self.advance()))
        elif self.looks_like_declaration():
            children.append(self.parse_declaration())
        else:
            lo = self.pos
            children.append(self.own(self.parse_expression(), ST_EXPRESSION, lo))
            children.append(self.leaf(self.expect(";")))
        # condition: its own control-predicate statement (bare expression)
        if not self.at(";"):
            lo = self.pos
            cond = self.node("Condition", [self.parse_expression()])
            children.append(self.own(cond, ST_PREDICATE, lo))
        children.append(self.leaf(self.expect(";")))
        # step
        if not self.at(")"):
            lo = self.pos
            children.append(self.own(self.parse_expression(), ST_EXPRESSION, lo))
        children.append(self.leaf(self.expect(")")))
        children.append(self.parse_statement())
        return self.node("ForStatement", children)

    def parse_return(self) -> AstNode:
        lo = self.pos
        children = [self.leaf(self.expect("return"))]
        if not self.at(";"):
            children.append(self.parse_expression())
        children.append(self.leaf(self.expect(";")))
        return self.own(self.node("ReturnStatement", children), ST_RETURN, lo)

    def parse_expression_statement(self) -> AstNode:
        lo = self.pos
        expr = self.parse_expression()
        semi = self.leaf(self.expect(";"))
        node = self.node("ExpressionStatement", [expr, semi])
        kind = ST_CALL if expr.kind == "CallExpression" else ST_EXPRESSION
        return self.own(node, kind, lo)

    # --- expressions --------------------------------------------------

    def parse_expression(self) -> AstNode:
        node = self.parse_assignment_expr()
        while self.at(","):
            comma = self.leaf(self.advance())
            rhs = self.parse_assignment_expr()
            node = self.node("BinaryExpr", [node, comma, rhs])
        return node

    def parse_assignment_expr(self) -> AstNode:
        lhs = self.parse_conditional()
        t = self.peek()
        if t is not None and t.text in ASSIGN_OPS:
            op = self.leaf(self.advance())
            rhs = self.parse_assignment_expr()
            return self.node("AssignExpr", [lhs, op, rhs])
        return lhs

    def parse_conditional(self) -> AstNode:
        cond = self.parse_binary(0)
        if self.at("?"):
            q = self.leaf(self.advance())
            then = self.parse_expression()
            colon = self.leaf(self.expect(":"))
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
            op = self.leaf(self.advance())
            rhs = self.parse_binary(level + 1)
            node = self.node("BinaryExpr", [node, op, rhs])

    def parse_unary(self) -> AstNode:
        t = self.peek()
        if t is None:
            raise self.error("expected expression")
        if t.text in _UNARY_OPS and t.kind == OPERATOR:
            op = self.leaf(self.advance())
            operand = self.parse_unary()
            return self.node("UnaryExpr", [op, operand])
        if t.text == "sizeof":
            kw = self.leaf(self.advance())
            if self.at("("):
                open_paren = self.leaf(self.advance())
                inner = self.parse_sizeof_operand()
                close_paren = self.leaf(self.expect(")"))
                paren = self.node("ParenExpr", [open_paren, inner, close_paren])
                return self.node("UnaryExpr", [kw, paren])
            return self.node("UnaryExpr", [kw, self.parse_unary()])
        if t.text == "(" and self.is_cast_ahead():
            open_paren = self.leaf(self.advance())
            type_nodes = self.parse_decl_specifiers()
            while self.at("*"):
                type_nodes.append(self.leaf(self.advance()))
            close_paren = self.leaf(self.expect(")"))
            operand = self.parse_unary()
            return self.node(
                "CastExpr", [open_paren] + type_nodes + [close_paren, operand]
            )
        return self.parse_postfix()

    def parse_sizeof_operand(self) -> AstNode:
        t = self.peek()
        if t is not None and t.kind == KEYWORD and t.text in TYPE_KEYWORDS:
            nodes = self.parse_decl_specifiers()
            while self.at("*"):
                nodes.append(self.leaf(self.advance()))
            return nodes[0] if len(nodes) == 1 else self.node("TypeName", nodes)
        return self.parse_expression()

    def is_cast_ahead(self) -> bool:
        # "(" type-keyword ... ")" followed by something castable.
        t = self.peek(1)
        if t is None or t.kind != KEYWORD or t.text not in TYPE_KEYWORDS:
            return False
        j = 2
        while True:
            t = self.peek(j)
            if t is None:
                return False
            if t.text == ")":
                after = self.peek(j + 1)
                return after is not None and (
                    after.kind in (IDENTIFIER, CONSTANT, STRING)
                    or after.text in ("(", "*", "&", "-", "+", "!", "~")
                )
            if t.kind == KEYWORD and t.text in TYPE_KEYWORDS or t.text == "*":
                j += 1
                continue
            if t.kind == IDENTIFIER:
                j += 1
                continue
            return False

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
                callee = self.node("Callee", [node])
                children = [callee, self.leaf(self.advance())]
                if not self.at(")"):
                    while True:
                        children.append(self.parse_assignment_expr())
                        if self.at(","):
                            children.append(self.leaf(self.advance()))
                            continue
                        break
                children.append(self.leaf(self.expect(")")))
                node = self.node("CallExpression", children)
            elif t.text == "[":
                children = [node, self.leaf(self.advance()), self.parse_expression()]
                children.append(self.leaf(self.expect("]")))
                node = self.node("IndexExpr", children)
            elif t.text in (".", "->"):
                op = self.leaf(self.advance())
                fld = self.expect_identifier()
                self.toks[fld].role = ROLE_FIELD
                node = self.node("MemberExpr", [node, op, self.leaf(fld)])
            elif t.text in ("++", "--"):
                node = self.node("UnaryExpr", [node, self.leaf(self.advance())])
            else:
                return node

    def parse_primary(self) -> AstNode:
        t = self.peek()
        if t is None:
            raise self.error("expected expression")
        if t.text == "(":
            open_paren = self.leaf(self.advance())
            inner = self.parse_expression()
            close_paren = self.leaf(self.expect(")"))
            return self.node("ParenExpr", [open_paren, inner, close_paren])
        if t.kind in (IDENTIFIER, CONSTANT, STRING):
            return self.leaf(self.advance())
        if t.kind == KEYWORD and t.text == "sizeof":
            return self.parse_unary()
        raise self.error(f"unexpected token {t.text!r} in expression")


def parse(
    tokens: list[Token],
    file_path: str,
    first_statement_id: int = 0,
    first_function_index: int = 0,
    parser_class: type[_FileParser] = _FileParser,
) -> ProgramModel:
    """Parse one file's tokens into a ProgramModel."""
    parser = parser_class(tokens, file_path, first_statement_id, first_function_index)
    parser.parse_translation_unit()
    return ProgramModel(
        functions=parser.functions,
        files=[file_path],
        diagnostics=parser.diagnostics,
        name=file_path,
    )


def load_program(
    paths: list[str], name: str = "", parser_class: type[_FileParser] = _FileParser
) -> ProgramModel:
    """Parse several source files into one merged ProgramModel.

    Statement ids and function indices stay unique across files. A file
    that does not lex is skipped with a diagnostic, the way a function
    that does not parse is.
    """
    model = ProgramModel(name=name or (paths[0] if paths else ""))
    next_stmt = 0
    next_fn = 0
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        model.files.append(path)
        try:
            tokens = tokenize(text)
        except LexError as exc:
            message = f"{path}:{exc.line}: {exc.message} (file skipped)"
            model.diagnostics.append(Diagnostic(path, exc.line, message))
            continue
        part = parse(tokens, path, next_stmt, next_fn, parser_class)
        model.functions.extend(part.functions)
        model.diagnostics.extend(part.diagnostics)
        for fn in part.functions:
            for st in fn.all_statements():
                next_stmt = max(next_stmt, st.id + 1)
            next_fn = max(next_fn, fn.index + 1)
    return model


class _WithNewRules(_FileParser):
    """The reference plus the two rules the parser added."""

    def parse_statement(self) -> AstNode:
        if self.peek() is None:
            raise self.error("unexpected end of file")
        # parse_block asks for block items, which may be declarations;
        # parse_if, parse_while and parse_for ask for bodies, which may not
        if sys._getframe(1).f_code.co_name != "parse_block" and self.looks_like_declaration():
            raise self.error("expected a statement, found a declaration")
        return super().parse_statement()


# --- comparison -----------------------------------------------------------


def model_record(model: ProgramModel) -> dict:
    """Everything a parse decides, as plain data."""
    return {
        "name": model.name,
        "files": model.files,
        "diagnostics": [(d.file, d.line, d.message) for d in model.diagnostics],
        "functions": [
            (fn.index, fn.name, fn.file_path, fn.parameters, fn.line,
             [_token(t) for t in fn.tokens])
            for fn in model.functions
        ],
        "statements": [
            (s.id, s.function_index, s.kind, s.line_first, s.line_last, s.start,
             [_token(t) for t in s.tokens], [root.id for root in s.roots])
            for fn in model.functions
            for s in fn.all_statements()
        ],
        "ast": dump_ast(model),
    }


def source_outcome(parse_tokens, source: str):
    """The file's tokens (with the roles the parse gave them) and its
    model, or the error raised."""
    try:
        tokens = tokenize(source)
        model = parse_tokens(tokens, "<memory>")
    except Exception as exc:  # the type and message are what must agree
        return type(exc).__name__, str(exc)
    return [_token(t) for t in tokens], model_record(model)


def program_outcome(load, paths: list[str], name: str):
    try:
        return model_record(load(paths, name))
    except Exception as exc:
        return type(exc).__name__, str(exc)


ruled_parse = functools.partial(parse, parser_class=_WithNewRules)
ruled_load_program = functools.partial(load_program, parser_class=_WithNewRules)


def assert_source_matches(source: str) -> bool:
    """Whether the two new rules change the reference's outcome."""
    new = source_outcome(frontend_parser.parse, source)
    assert new == source_outcome(ruled_parse, source), source
    return new != source_outcome(parse, source)


def assert_sources_match(sources) -> tuple[int, int]:
    """(sources compared, sources whose outcome the new rules changed)."""
    compared = changed = 0
    for source in sources:
        compared += 1
        changed += assert_source_matches(source)
    return compared, changed


def assert_program_matches(paths: list[str], name: str = "") -> bool:
    new = program_outcome(frontend_parser.load_program, paths, name)
    assert new == program_outcome(ruled_load_program, paths, name), paths
    return new != program_outcome(load_program, paths, name)


# every shape a shared method parses, each also broken
EDGE_CASES = [
    # the typedef-name lookahead, and expressions that start the same way
    "void f(void) { size_t n; FILE *fp; FILE **fpp = 0; a * b; a = b * c; a *b = c; }",
    "void f(void) { struct s *p; struct s t; unsigned long u; const char *s = 0; a b; }",
    "void f(size_t n, FILE *fp, const char *s, struct pair *q, ...) { }",
    "size_t f(void) { }",
    "FILE *open_it(char *name) { }",
    "static int **f(int, char *) { }",
    "size_t *f(void) { }",
    "f(void) { }",
    "void (void) { }",
    "void f void) { }",
    "void f(void) ;",
    # declared names and their array suffixes
    "void f(char buf[], int m[4][n + 1]) { char a[16], *b[2][3], c = 'x'; }",
    "void f(void) { int d[] = {1, 2, {3, 4},}; int e[2] = {}; }",
    "void f(int a[) { }",
    "void f(void) { int a[; }",
    "void f(void) { int a[2; }",
    "void f(void) { int 3; }",
    "void f(void) { int *; }",
    "void f(void) { int x = {1, 2; }",
    # comma lists
    "void f(int a, int b) { g(); g(a); g(a, b + 1, h(c, d)); int x, y = 1, *z; }",
    "void f(int a, char *p, ...) { g(a = 1, b ? c : d); }",
    "void f(int a,) { }",
    "void f(, int a) { }",
    "void f(int a int b) { }",
    "void f(void) { g(a,); }",
    "void f(void) { g(a b); }",
    "void f(void) { int x,; }",
    "void f(void) { int x y; }",
    # conditions
    "void f(int a) { if (a) a = 1; else if (!a) a = 2; else { a = 3; } while (a--) ; }",
    "void f(int a) { if (a, b) while (a = b) if (a) ; else ; }",
    "void f(int a) { if a) ; }",
    "void f(int a) { if (a ; }",
    "void f(int a) { if () ; }",
    "void f(int a) { while () ; }",
    "void f(int a) { while a ; }",
    "void f(int a) { else ; }",
    # casts and sizeof
    "void f(void) { a = (int) b + (char *) c + (unsigned long **) &d + (struct s *) -e; }",
    "void f(void) { a = (int) (b) + (size_t) e + (int *) * p + (char) 'c' + (long) \"s\"; }",
    "void f(void) { a = sizeof(int) + sizeof(char *) + sizeof(struct s) + sizeof(unsigned long); }",
    "void f(void) { a = sizeof(x) + sizeof x + sizeof(x + 1) + sizeof sizeof(int) + sizeof(size_t); }",
    "void f(void) { a = sizeof(int; }",
    "void f(void) { a = sizeof(); }",
    "void f(void) { a = sizeof(int *) x; }",
    "void f(void) { a = (int) ; }",
    "void f(void) { a = (int *; }",
    # statements
    "void f(int a) { return; return a + 1; break; continue; ; { } { ; } }",
    "int f(int a) { return (a), a; return g(a); return; }",
    "void f(int a) { for (int i = 0, j = 1; i < a; i++, j--) { } for (;;) ; for (a = 0; ; ) g(a); }",
    "void f(int a) { for (size_t i = 0; i < a;) for (; a; a--) { int k; } }",
    "void f(int a) { return a }",
    "void f(int a) { break a; }",
    "void f(int a) { continue }",
    "void f(int a) { for (a; a) ; }",
    "void f(int a) { for (int i) ; }",
    "void f(int a) { for ; }",
    "void f(int a) { do { } while (a); }",
    "void f(int a) { goto out; }",
    "void f(int a) { switch (a) { } }",
    "void f(int a) { typedef int t; }",
    "void f(int a) { case 1: ; }",
    "void f(int a) { default: ; }",
    "void f(int a) { a = ; }",
    "void f(int a) { a = b }",
    "void f(int a) { s.x = p->y; s. = 1; }",
    "void f(int a) { int a[] = {1, 2}, b = {3}; }",
    OPERATOR_PROGRAM,
    # declarations as bodies, in braces
    "void f(int a) { if (a) { int i = 0; } else { size_t n; } while (a) { FILE *fp; } }",
    # truncations
    "void f(int a) {",
    "void f(int a) { if (a) {",
    "void f(int a)",
    "void f(",
    "int",
    "",
    ";;",
]

# the inputs on which the two new rules change the reference's outcome
NEW_RULE_CASES = [
    # a declaration as a body
    "void f(int a) { if (a) int i = 0; }",
    "void f(int a) { if (a) ; else size_t n; }",
    "void f(int a) { while (a) FILE *fp; }",
    "void f(int a) { for (;;) char buf[4]; }",
    "void f(int a) { if (a) while (a) for (;;) const int k = 1; }",
    "void f(int a) { if (a) int i; }\nvoid g(void) { h(); }\nvoid k(void) { while (a) int j; }",
    # an end of file where a statement is due
    "void f(int a) { if (a)",
    "void f(int a) { if (a) ; else",
    "void f(int a) { while (a)",
    "void f(int a) { for (;a;)",
    "void g(void) { }\nvoid f(int a) { if (a) if (a) while (a)",
]


def test_bundled_sources_match_reference():
    assert assert_sources_match(BUNDLED.values()) == (len(BUNDLED), 0)


def test_mini_corpus_matches_reference():
    manifest = load_manifest(mini_corpus_manifest())
    changed = [assert_program_matches(p.source_paths, p.path) for p in manifest.programs]
    assert changed == [False] * 40


def test_template_programs_match_reference():
    assert assert_sources_match(TEMPLATE_PROGRAMS) == (8, 0)


def test_random_structured_sources_match_reference():
    rng = np.random.default_rng(1701)
    sources = [random_structured_source(rng, max_nodes=12) for _ in range(400)]
    assert assert_sources_match(sources) == (400, 0)


def test_random_jump_sources_match_reference():
    rng = np.random.default_rng(1702)
    sources = [random_jump_source(rng, max_nodes=12) for _ in range(400)]
    assert assert_sources_match(sources) == (400, 0)


def test_random_cross_function_programs_match_reference():
    rng = np.random.default_rng(1703)
    assert assert_sources_match(random_program(rng) for _ in range(400)) == (400, 0)


def test_random_flow_sources_match_reference():
    rng = np.random.default_rng(1704)
    assert assert_sources_match(random_flow_source(rng) for _ in range(400)) == (400, 0)


def test_long_function_matches_reference():
    assert assert_sources_match([long_function_source(300)]) == (1, 0)


def test_edge_cases_match_reference():
    assert assert_sources_match(EDGE_CASES) == (len(EDGE_CASES), 0)
    assert assert_sources_match(NEW_RULE_CASES) == (len(NEW_RULE_CASES),) * 2


def test_every_token_prefix_matches_reference():
    """Every way the bundled files and the templates can end at a token
    boundary; the reference raised AssertionError on 41 of them."""
    sources = list(BUNDLED.values()) + TEMPLATE_PROGRAMS
    prefixes = [prefix for source in sources for prefix in token_prefixes(source)]
    assert assert_sources_match(prefixes) == (len(prefixes), 41)


def test_multi_file_program_matches_reference(tmp_path):
    """Statement ids and function indices run on across files, past a
    file whose last function is skipped and one whose every function is."""
    files = {
        "a.c": "void ok(int a) { a = 1; }\nvoid bad(int a) { switch (a) { } }\n",
        "b.c": "int g(char *s) { return s[0]; }\nint h(void) { goto x; }\n",
        "c.c": "int h(void) { return g(0); }\n",
        "d.c": "void broken(int a) { while (a) int i; }\n",
        "e.c": "int k(char *s) { if (s) { s[0] = 0; } return h(); }\n",
        "f.c": "void tail(void) { k(0); /* unterminated\n",
        "g.c": "void last(int a) { last(a - 1); }\n",
    }
    paths = []
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    assert not assert_program_matches(paths[:3], "abc")
    assert assert_program_matches(paths, "all")
    model = frontend_parser.load_program(paths, "all")
    assert [fn.name for fn in model.functions] == ["ok", "g", "h", "k", "last"]
    assert [fn.index for fn in model.functions] == [0, 1, 2, 3, 4]
    assert len(model.diagnostics) == 4


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(mutants())
def test_mutants_match_reference(source):
    assert_source_matches(source)
