"""Lexer and parser contracts: token grammar, positions, AST shape."""

import ast
import pathlib

import numpy as np
import pytest

import vulnslice
from vulnslice import cli
from vulnslice.data import mini_corpus_manifest
from vulnslice.frontend import (
    LexError,
    ParseError,
    load_program,
    parse_source,
    tokenize,
)

from oracles import (
    long_function_source,
    random_jump_source,
    random_structured_source,
    token_prefixes,
)
from test_frontend_reference import BUNDLED, TEMPLATE_PROGRAMS, structural_dump


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_tokenize_simple_declaration():
    assert kinds_and_texts("int a;") == [
        ("keyword", "int"),
        ("identifier", "a"),
        ("punctuator", ";"),
    ]


def test_tokenize_strips_comments():
    assert kinds_and_texts("x = y /*c*/ + 1;") == [
        ("identifier", "x"),
        ("operator", "="),
        ("identifier", "y"),
        ("operator", "+"),
        ("constant", "1"),
        ("punctuator", ";"),
    ]


def test_tokenize_pointer_declaration():
    assert kinds_and_texts("char *data;") == [
        ("keyword", "char"),
        ("operator", "*"),
        ("identifier", "data"),
        ("punctuator", ";"),
    ]


def test_tokenize_line_comments_and_preprocessor():
    src = "#include <stdio.h>\nint a; // trailing\n"
    assert kinds_and_texts(src) == [
        ("keyword", "int"),
        ("identifier", "a"),
        ("punctuator", ";"),
    ]


def test_tokenize_preprocessor_continuation():
    src = "#define BIG \\\n  123\nint a;"
    texts = [t.text for t in tokenize(src)]
    assert texts == ["int", "a", ";"]


def test_tokenize_positions_point_into_source():
    src = "int a;\n  x = a + 12;\n"
    lines = src.splitlines()
    for tok in tokenize(src):
        line = lines[tok.line - 1]
        assert line[tok.column - 1 : tok.column - 1 + len(tok.text)] == tok.text


def test_tokenize_drops_non_ascii():
    toks = tokenize("int aéb;")
    assert [t.text for t in toks] == ["int", "a", "b", ";"]


def test_tokenize_unterminated_string_raises_with_line():
    with pytest.raises(LexError) as err:
        tokenize('int a;\nchar *s = "oops;\n')
    assert err.value.line == 2


def test_tokenize_unterminated_comment_raises():
    with pytest.raises(LexError) as err:
        tokenize("int a; /* never closed\nint b;")
    assert err.value.line == 1


def test_tokenize_multichar_operators():
    texts = [t.text for t in tokenize("a->b += c >> 2; p != q && r;")]
    assert "->" in texts and "+=" in texts and ">>" in texts
    assert "!=" in texts and "&&" in texts


def test_parse_minimal_program():
    model = parse_source("void f(){int a;}")
    assert len(model.functions) == 1
    fn = model.functions[0]
    assert fn.name == "f"
    assert len(fn.body) == 1
    assert fn.body[0].kind == "declaration"
    kinds = [n.kind for n in fn.ast.walk()]
    assert "IdentifierDeclStatement" in kinds


def test_parse_expression_statement_node():
    model = parse_source("void f(){a = b - 8;}")
    fn = model.functions[0]
    stmts = fn.body
    assert len(stmts) == 1 and stmts[0].kind == "expression"
    expr_nodes = [n for n in fn.ast.walk() if n.kind == "ExpressionStatement"]
    assert len(expr_nodes) == 1
    lo, hi = expr_nodes[0].span
    assert [t.text for t in fn.tokens[lo:hi]] == ["a", "=", "b", "-", "8", ";"]


def test_parse_statement_kinds():
    model = parse_source(
        """
        int f(int n)
        {
            int i = 0;
            while (i < n)
            {
                i = i + 1;
                g(i);
            }
            if (i > 2)
                return i;
            return 0;
        }
        """
    )
    fn = model.functions[0]
    kinds = [s.kind for s in fn.all_statements()]
    assert kinds == [
        "other",  # signature
        "declaration",
        "control-predicate",
        "expression",
        "call",
        "control-predicate",
        "return",
        "return",
    ]


def test_parse_for_loop_splits_three_statements():
    model = parse_source("void f(){for (i = 0; i < 10; i++) g(i);}")
    fn = model.functions[0]
    kinds = [s.kind for s in fn.body]
    assert kinds == ["expression", "control-predicate", "expression", "call"]


def test_parse_multiple_declarators_one_statement():
    model = parse_source("void f(){int a, b;}")
    fn = model.functions[0]
    assert len(fn.body) == 1
    decls = [n for n in fn.ast.walk() if n.kind == "Declarator"]
    assert len(decls) == 2


def test_roundtrip_leaves_reproduce_tokens():
    src = """
    int helper(char *buf, int n)
    {
        int total = 0;
        for (int i = 0; i < n; i++)
        {
            if (buf[i] == 'x')
                total += i;
            else
                total = total - rec.count;
        }
        return total;
    }
    void other(struct pair *p)
    {
        p->left = p->right;
        work(&p, sizeof(int), "literal");
    }
    """
    model = parse_source(src)
    assert model.diagnostics == []
    assert len(model.functions) == 2
    for fn in model.functions:
        leaves = sorted(n.span[0] for n in fn.ast.walk() if not n.children)
        assert [fn.tokens[i].text for i in leaves] == [t.text for t in fn.tokens]


def test_ast_internal_spans_are_union_of_children():
    model = parse_source("void f(){x = g(a, b) + 1;}")
    for fn in model.functions:
        for node in fn.ast.walk():
            if node.children:
                assert node.span[0] == node.children[0].span[0]
                assert node.span[1] == node.children[-1].span[1]
                running = node.span[0]
                for child in node.children:
                    assert child.span[0] == running
                    running = child.span[1]


def test_parse_determinism():
    src = "void f(int a){if(a) g(a); else h(a);}"
    first = parse_source(src)
    second = parse_source(src)
    a = [(s.id, s.kind, tuple(t.text for t in s.tokens)) for f in first.functions for s in f.all_statements()]
    b = [(s.id, s.kind, tuple(t.text for t in s.tokens)) for f in second.functions for s in f.all_statements()]
    assert a == b


def test_parse_recovery_skips_bad_function():
    src = """
    void good_one(){int a;}
    void bad_one(){int b; switch (x) {case 1: break;}}
    void good_two(){int b;}
    """
    model = parse_source(src)
    names = [fn.name for fn in model.functions]
    assert names == ["good_one", "good_two"]
    assert len(model.diagnostics) == 1
    assert model.diagnostics[0].line >= 3
    # good_two's ids do not depend on the failed function before it
    without_bad = parse_source(src.replace("void bad_one(){int b; switch (x) {case 1: break;}}", ""))
    assert structural_dump(model)["functions"][1] == structural_dump(without_bad)["functions"][1]
    assert [st.id for st in model.functions[1].all_statements()] == [2, 3]


def test_every_token_prefix_parses_or_fails_to_lex():
    """A file cut off anywhere skips the function it cuts, with a
    diagnostic; it never aborts the parse."""
    cut = 0
    for source in list(BUNDLED.values()) + TEMPLATE_PROGRAMS:
        for prefix in token_prefixes(source):
            try:
                model = parse_source(prefix)
            except LexError:
                continue
            cut += any("unexpected end of file" in d.message for d in model.diagnostics)
    assert cut > 0


@pytest.mark.parametrize(
    "head, declaration",
    [("if (a)", "int i = 0;"), ("if (a) ; else", "size_t n;"),
     ("while (a)", "FILE *fp;"), ("for (; a;)", "char buf[4];")],
)
def test_a_declaration_is_only_a_block_item(head, declaration):
    model = parse_source(f"void f(int a)\n{{ {head} {declaration} }}\nvoid g(void) {{ }}\n")
    assert [fn.name for fn in model.functions] == ["g"]
    assert [d.message for d in model.diagnostics] == [
        "<memory>:2: expected a statement, found a declaration (function skipped)"
    ]
    braced = parse_source(f"void f(int a) {{ {head} {{ {declaration} }} }}")
    assert braced.diagnostics == []
    assert braced.functions[0].body[-1].kind == "declaration"


def test_statement_ids_unique_and_resolve():
    model = parse_source("void f(){int a;}\nvoid g(){int b; b = 1;}")
    index = model.statement_index()
    ids = list(index)
    assert len(ids) == len(set(ids))
    for fn in model.functions:
        for st in fn.all_statements():
            assert index[st.id] is st and st.function_index == fn.index


def test_callee_and_declared_roles():
    model = parse_source("void f(){int a = g(b); s.field = 1;}")
    fn = model.functions[0]
    roles = {t.text: t.role for t in fn.tokens}
    assert roles["g"] == "callee"
    assert roles["a"] == "declared"
    assert roles["field"] == "field"
    assert roles["b"] == "plain"


def test_typedef_style_declaration():
    model = parse_source("void f(){size_t len = 0; len = len + 1;}")
    fn = model.functions[0]
    assert fn.body[0].kind == "declaration"
    roles = [t.role for t in fn.body[0].tokens if t.text == "size_t"]
    assert roles == ["type"]


def test_load_program_skips_a_file_that_does_not_lex(tmp_path):
    bad = tmp_path / "a.c"
    bad.write_text("int a; /* never closed\n")
    good = tmp_path / "b.c"
    good.write_text("void f(){int a;}\n")
    model = load_program([str(bad), str(good)])
    assert [fn.name for fn in model.functions] == ["f"]
    assert model.functions[0].signature.id == 0
    assert model.files == [str(bad), str(good)]
    (diag,) = model.diagnostics
    assert (diag.file, diag.line) == (str(bad), 1)
    assert diag.message == f"{bad}:1: unterminated block comment (file skipped)"


def test_tokenize_unexpected_character_names_its_line():
    with pytest.raises(LexError) as err:
        tokenize("int a;\n\n  @ b;")
    assert err.value.line == 3
    assert "'@'" in str(err.value)


def _ownership_programs():
    for name, source in BUNDLED.items():
        yield parse_source(source, name)
    yield from cli._parse_programs(cli.load_manifest(mini_corpus_manifest()))
    rng = np.random.default_rng(2113)
    for generate in (random_structured_source, random_jump_source):
        for _ in range(60):
            yield parse_source(generate(rng, max_nodes=10))
    yield parse_source(long_function_source(300))
    yield parse_source(
        "int f(char buf[], int n)\n{\n    ;\n    for (int i = 0; i < n; i++)\n"
        "    {\n        if (i) continue; else break;\n    }\n    return n;\n}\n"
    )


def test_statement_ids_run_in_source_order():
    """slicing orders statements by id alone: a function's ids run
    consecutively from its signature's, and its statements' first tokens,
    (line_first, start), ascend strictly with them."""
    for model in _ownership_programs():
        for fn in model.functions:
            statements = fn.all_statements()
            first = fn.signature.id
            assert [st.id for st in statements] == list(
                range(first, first + len(statements))
            ), (model.name, fn.name)
            places = [(st.line_first, st.start) for st in statements]
            assert all(a < b for a, b in zip(places, places[1:])), (model.name, fn.name)


def test_statement_roots_and_start_are_the_nodes_it_owns():
    """A statement's roots are its nodes whose parent is not its own, in
    walk order, and cover exactly its tokens; its start is its nodes'
    first token."""
    for model in _ownership_programs():
        for fn in model.functions:
            by_id = {n.id: n for n in fn.ast.walk()}
            roots = {st.id: [] for st in fn.all_statements()}
            starts = {}
            for node in fn.ast.walk():
                sid = node.statement_id
                if sid is None:
                    continue
                starts[sid] = min(starts.get(sid, node.span[0]), node.span[0])
                parent = by_id.get(node.parent_id)
                if parent is None or parent.statement_id != sid:
                    roots[sid].append(node)
            for st in fn.all_statements():
                got = [n.id for n in st.roots]
                assert got == [n.id for n in roots[st.id]], (model.name, st.id)
                assert st.start == starts[st.id], (model.name, st.id)
                covered = [fn.tokens[i] for r in st.roots for i in range(*r.span)]
                assert len(covered) == len(st.tokens)
                assert all(a is b for a, b in zip(covered, st.tokens))
                assert fn.statement(st.id) is st


def test_only_the_parser_reads_parent_links():
    """Every consumer walks down from ``Statement.roots``; ``parent_id``
    is the parser's, for ``ast.jsonl``."""
    package = pathlib.Path(vulnslice.__file__).parent
    parser = package / "frontend" / "parser.py"
    readers = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if path != parser
        and any(
            isinstance(node, ast.Attribute) and node.attr == "parent_id"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == []
