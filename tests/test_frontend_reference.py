"""Differential tests: the frontend against the code it replaced.

The lexer used to scrub with a per-character loop and tokenize with one
``match`` per position plus a binary search for each token's line; the
parser used one recursive function per binary precedence level, built
spans over file token indices, and rebased spans, assigned parents and
stamped statement ids by walking finished trees. Those functions are
kept here, unchanged, as references. Every bundled C file, programs
built from the mini-corpus templates, and random mutants of both must
give the same tokens, statements and AST from both, or fail with the
same exception type on the same line.

The single-pattern tokenizer used to try string, char and number
before identifier; it is kept too (``previous_tokenize``), and the
tokenizer that tries identifiers first must lex every source above, and
the lexemes where the order of the alternatives could matter, as it
did.

``dump_ast`` used to return one dict per AST node, to which the parse
stage added the program name before JSON-encoding it. That builder is
kept too: every line ``dump_ast`` now formats itself must be the
encoding of its record.

The same mutants go on through the slice stage's layers: candidates,
PDGs, the call graph and interprocedural slices. Nothing may raise but
what the stages quarantine, and every SyVC sliced must have, in its
own function, the oracles' forward and backward slices.
"""

import importlib.util
import json
import os
import re

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from vulnslice import cli
from vulnslice.candidates import CharacteristicSet, extract_syvcs
from vulnslice.data import data_path, mini_corpus_manifest
from vulnslice.frontend import parser as frontend_parser
from vulnslice.frontend import dump_ast, parse_source, tokenize
from vulnslice.frontend.lexer import (
    CONSTANT,
    IDENTIFIER,
    KEYWORD,
    KEYWORDS,
    OPERATOR,
    PUNCTUATOR,
    STRING,
    LexError,
    Token,
    scrub,
)
from vulnslice.frontend.parser import AstNode, ProgramModel
from vulnslice.graphs import GraphError, build_call_graph, build_pdgs
from vulnslice.slicing import (
    SliceConsistencyError,
    assemble_sevc,
    backward_slice,
    forward_slice,
    interprocedural_slices,
)

from oracles import oracle_backward_slice, oracle_forward_slice, random_structured_source

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --- reference lexer ------------------------------------------------------


def reference_scrub(text: str) -> str:
    """Blank out comments, preprocessor lines, and non-ASCII bytes.

    The result has exactly the same length and line structure as the
    input: every removed character becomes a space, newlines survive.
    Raises LexError on an unterminated string, character, or block
    comment.
    """
    chars = list(text)
    n = len(chars)
    i = 0
    line = 1
    at_line_start = True  # only whitespace seen on the current line
    while i < n:
        c = chars[i]
        if c == "\n":
            line += 1
            at_line_start = True
            i += 1
            continue
        if ord(c) > 126 or (ord(c) < 32 and c not in "\t\r"):
            chars[i] = " "
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#" and at_line_start:
            # Preprocessor line, skipped verbatim; honor \-continuations.
            last_solid = ""
            while i < n:
                if chars[i] == "\n":
                    continued = last_solid == "\\"
                    last_solid = ""
                    line += 1
                    i += 1
                    if not continued:
                        break
                else:
                    if chars[i] not in " \t\r":
                        last_solid = chars[i]
                    chars[i] = " "
                    i += 1
            at_line_start = True
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and chars[i + 1] == "/":
            while i < n and chars[i] != "\n":
                chars[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and chars[i + 1] == "*":
            start_line = line
            chars[i] = " "
            chars[i + 1] = " "
            i += 2
            closed = False
            while i < n:
                if chars[i] == "*" and i + 1 < n and chars[i + 1] == "/":
                    chars[i] = " "
                    chars[i + 1] = " "
                    i += 2
                    closed = True
                    break
                if chars[i] == "\n":
                    line += 1
                else:
                    chars[i] = " "
                i += 1
            if not closed:
                raise LexError("unterminated block comment", start_line)
            continue
        if c in "\"'":
            quote = c
            start_line = line
            i += 1
            closed = False
            while i < n:
                if chars[i] == "\\" and i + 1 < n and chars[i + 1] != "\n":
                    i += 2
                    continue
                if chars[i] == quote:
                    i += 1
                    closed = True
                    break
                if chars[i] == "\n":
                    break
                if ord(chars[i]) > 126:
                    chars[i] = " "
                i += 1
            if not closed:
                kind = "string" if quote == '"' else "character"
                raise LexError(f"unterminated {kind} literal", start_line)
            continue
        i += 1
    return "".join(chars)


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:[^'\\\n]|\\.)+')
  | (?P<number>
        0[xX][0-9a-fA-F]+[uUlL]*
      | \d+\.\d*(?:[eE][+-]?\d+)?[fFlL]?
      | \.\d+(?:[eE][+-]?\d+)?[fFlL]?
      | \d+(?:[eE][+-]?\d+)[fFlL]?
      | \d+[uUlL]*
    )
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>
        <<=|>>=|\.\.\.
      | ->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
      | \+=|-=|\*=|/=|%=|&=|\|=|\^=
      | [-+*/%=<>!~&|^?:.]
    )
  | (?P<punct>[()\[\]{};,])
    """,
    re.VERBOSE,
)


def reference_tokenize(source: str) -> list[Token]:
    """Lex a source buffer into tokens.

    Comments and preprocessor lines are removed, non-ASCII bytes are
    dropped, and each token carries the (line, column) where its text
    starts in the original buffer.
    """
    text = reference_scrub(source)
    line_starts = [0]
    for m in re.finditer("\n", text):
        line_starts.append(m.end())

    def position(offset: int) -> tuple[int, int]:
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - line_starts[lo] + 1

    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            ln, col = position(pos)
            raise LexError(f"unexpected character {text[pos]!r}", ln)
        pos = m.end()
        group = m.lastgroup
        if group == "ws":
            continue
        lexeme = m.group(0)
        ln, col = position(m.start())
        if group == "ident":
            kind = KEYWORD if lexeme in KEYWORDS else IDENTIFIER
        elif group == "string":
            kind = STRING
        elif group in ("char", "number"):
            kind = CONSTANT
        elif group == "punct":
            kind = PUNCTUATOR
        else:
            kind = PUNCTUATOR if lexeme in _REFERENCE_PUNCT_TEXTS else OPERATOR
        tokens.append(Token(kind, lexeme, ln, col))
    return tokens


_REFERENCE_PUNCT_TEXTS = frozenset("( ) [ ] { } ; ,".split())


# The tokenizer as it was before its alternatives were reordered
# identifier-first: string, char and number were tried before ident.

_PREVIOUS_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)+')
    | (?P<number>
          0[xX][0-9a-fA-F]+[uUlL]*
        | \d+\.\d*(?:[eE][+-]?\d+)?[fFlL]?
        | \.\d+(?:[eE][+-]?\d+)?[fFlL]?
        | \d+(?:[eE][+-]?\d+)[fFlL]?
        | \d+[uUlL]*
      )
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<op>
          <<=|>>=|\.\.\.
        | ->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
        | \+=|-=|\*=|/=|%=|&=|\|=|\^=
        | [-+*/%=<>!~&|^?:.]
      )
    | (?P<punct>[()\[\]{};,])
    )
    """,
    re.VERBOSE,
)
_PREVIOUS_WS_RE = re.compile(r"\s*")
_PREVIOUS_GROUP_KINDS = {
    "string": STRING,
    "char": CONSTANT,
    "number": CONSTANT,
    "op": OPERATOR,
    "punct": PUNCTUATOR,
}


def previous_tokenize(source: str) -> list[Token]:
    text = scrub(source)
    tokens: list[Token] = []
    append = tokens.append
    count = text.count
    line = 1
    line_start = pos = 0
    for m in _PREVIOUS_TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        group = m.lastgroup
        start = m.start(group)
        if start != pos:
            newlines = count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
        pos = m.end()
        lexeme = m[group]
        if group == "ident":
            kind = KEYWORD if lexeme in KEYWORDS else IDENTIFIER
        else:
            kind = _PREVIOUS_GROUP_KINDS[group]
        append(Token(kind, lexeme, line, start - line_start + 1))
    bad = _PREVIOUS_WS_RE.match(text, pos).end()
    if bad < len(text):
        line += count("\n", pos, bad)
        raise LexError(f"unexpected character {text[bad]!r}", line)
    return tokens

# --- reference parser ------------------------------------------------------

_BINARY_LEVELS = [
    frozenset({"||"}),
    frozenset({"&&"}),
    frozenset({"|"}),
    frozenset({"^"}),
    frozenset({"&"}),
    frozenset({"==", "!="}),
    frozenset({"<", "<=", ">", ">="}),
    frozenset({"<<", ">>"}),
    frozenset({"+", "-"}),
    frozenset({"*", "/", "%"}),
]


def _rebase(root: AstNode, offset: int) -> None:
    for n in root.walk():
        n.span = (n.span[0] - offset, n.span[1] - offset)


def _assign_parents(root: AstNode) -> None:
    for n in root.walk():
        for child in n.children:
            child.parent_id = n.id


class ReferenceParser(frontend_parser._FileParser):
    """The parser with its former tree code and binary-expression parsing.

    Leaves span file token indices and nodes get no parent when they are
    made; each finished function is rebased and linked by tree walks.
    ``take`` makes its leaf through ``leaf``, as it did before the live
    parser folded the two into one call.
    """

    def leaf(self, index: int) -> AstNode:
        tok = self.toks[index]
        kind = {
            KEYWORD: "Keyword",
            IDENTIFIER: "Identifier",
            CONSTANT: "Constant",
            STRING: "StringLit",
            OPERATOR: "Operator",
            PUNCTUATOR: "Punct",
        }[tok.kind]
        node = AstNode(self.node_id, kind, (index, index + 1))
        self.node_id += 1
        return node

    def take(self, text: str | None = None) -> AstNode:
        return self.leaf(self.advance() if text is None else self.expect(text))

    def node(self, kind: str, children: list[AstNode]) -> AstNode:
        assert children, f"internal node {kind} needs children"
        lo = children[0].span[0]
        hi = children[0].span[1]
        for child in children[1:]:
            assert child.span[0] == hi, (
                f"non-contiguous children for {kind}: gap at token {hi}"
            )
            hi = child.span[1]
        node = AstNode(self.node_id, kind, (lo, hi), list(children))
        self.node_id += 1
        return node

    def stamp(self, node: AstNode, statement_id: int) -> None:
        for n in node.walk():
            n.statement_id = statement_id

    def parse_binary(self, level: int) -> AstNode:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        node = self.parse_binary(level + 1)
        while True:
            t = self.peek()
            if t is None or t.text not in _BINARY_LEVELS[level]:
                return node
            op = self.leaf(self.advance())
            rhs = self.parse_binary(level + 1)
            node = self.node("BinaryExpr", [node, op, rhs])

    def parse_function_def(self) -> None:
        start = self.pos
        super().parse_function_def()
        root = self.functions[-1].ast
        _rebase(root, start)
        _assign_parents(root)


def reference_parse_source(source: str, file_path: str = "<memory>") -> ProgramModel:
    parser = ReferenceParser(reference_tokenize(source), file_path, 0, 0)
    parser.parse_translation_unit()
    return ProgramModel(
        functions=parser.functions,
        files=[file_path],
        diagnostics=parser.diagnostics,
        name=file_path,
    )


# --- comparison -----------------------------------------------------------


def _token(t: Token) -> tuple:
    return (t.kind, t.text, t.line, t.column, t.role)


def structural_dump(model: ProgramModel) -> dict:
    """Everything the parser decides, as plain data."""
    return {
        "name": model.name,
        "files": list(model.files),
        "diagnostics": [(d.file, d.line, d.message) for d in model.diagnostics],
        "functions": [
            {
                "index": fn.index,
                "name": fn.name,
                "file": fn.file_path,
                "parameters": fn.parameters,
                "line": fn.line,
                "tokens": [_token(t) for t in fn.tokens],
                "statements": [
                    (s.id, s.function_index, s.kind, s.line_first, s.line_last,
                     [_token(t) for t in s.tokens])
                    for s in fn.all_statements()
                ],
                "ast": [
                    (n.id, n.kind, n.span, n.statement_id, n.parent_id,
                     [c.id for c in n.children])
                    for n in fn.ast.walk()
                ],
            }
            for fn in model.functions
        ],
    }


def outcome(parse, source: str):
    try:
        return structural_dump(parse(source))
    except Exception as exc:  # the type and line are what must agree
        return type(exc).__name__, getattr(exc, "line", None)


def assert_same_as_reference(source: str) -> None:
    assert outcome(parse_source, source) == outcome(reference_parse_source, source)
    tokens = lexed(tokenize, source)
    assert tokens == lexed(reference_tokenize, source)
    assert tokens == lexed(previous_tokenize, source)


def lexed(lex, source: str):
    try:
        return [_token(t) for t in lex(source)]
    except LexError as exc:
        return "LexError", exc.line, str(exc)


def _bundled_sources() -> dict[str, str]:
    root = data_path()
    sources = {}
    for base, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".c"):
                path = os.path.join(base, name)
                with open(path, "r", encoding="utf-8") as handle:
                    sources[os.path.relpath(path, root)] = handle.read()
    return sources


def _template_programs() -> list[str]:
    """Every mini-corpus template, flawed and guarded, under every name set."""
    path = os.path.join(REPO_ROOT, "tools", "gen_mini_corpus.py")
    spec = importlib.util.spec_from_file_location("gen_mini_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    programs = []
    for pattern, builders in sorted(module.build_templates().items()):
        functions = []
        for i, names in enumerate(module.NAME_SETS):
            for flawed, build in zip((True, False), builders):
                variables = dict(names, cap=(16, 32, 64)[i % 3])
                variables["fn"] = f"{pattern}_{i}_{'bad' if flawed else 'good'}"
                functions.append("\n".join(build(variables)[0]))
        programs.append("\n\n".join(functions) + "\n")
    return programs


BUNDLED = _bundled_sources()
TEMPLATE_PROGRAMS = _template_programs()

# every binary level, both associativities of a level, and the forms
# that sit between binary operands: unary, cast, sizeof, call, index,
# member, conditional, assignment and comma
OPERATOR_PROGRAM = """
int ops(int a, int b, char *p, struct pair *q)
{
    a = a || b && a | b ^ a & b == a != b < a <= b > a >= b << a >> b + a - b * a / b % a;
    a = a * b + a * b - a / b << a % b < b == a & b ^ a | b && a || b;
    a = a - b - a + b + a;
    b = (a + b) * (a - b) / -a % ~b;
    a = !a && *p || &a != 0 && sizeof(int) + sizeof a - (long) b;
    a += b ? a + 1 : b - 1, b -= a < b ? a : b;
    q->left = p[a + b * 2] + q->right.count++ - --a;
    f(a + b, g(a) * h(b, c), (char *) p);
    return a <= b == b >= a;
}
"""


def test_bundled_sources_match_reference():
    assert len(BUNDLED) >= 40
    for name, source in BUNDLED.items():
        assert outcome(parse_source, source) == outcome(reference_parse_source, source), name


def test_template_programs_match_reference():
    assert len(TEMPLATE_PROGRAMS) == 8
    for source in TEMPLATE_PROGRAMS:
        model = parse_source(source)
        assert model.diagnostics == [] and len(model.functions) == 10
        assert_same_as_reference(source)


def test_every_precedence_level_matches_reference():
    model = parse_source(OPERATOR_PROGRAM)
    assert model.diagnostics == []
    binaries = [n for n in model.functions[0].ast.walk() if n.kind == "BinaryExpr"]
    assert len(binaries) > 40
    assert_same_as_reference(OPERATOR_PROGRAM)


def test_left_associative_levels():
    fn = parse_source("void f(){x = a - b + c;}").functions[0]
    outer = next(n for n in fn.ast.walk() if n.kind == "BinaryExpr")
    # ((a - b) + c): the outer node's left child is the inner expression
    assert [c.kind for c in outer.children] == ["BinaryExpr", "Operator", "Identifier"]
    assert fn.tokens[outer.children[1].span[0]].text == "+"


def test_lexer_errors_match_reference():
    for source in [
        "int a;\n  @ x;",
        "int a;\n\n   $",
        "int a; /* never closed\nint b;",
        'int a;\nchar *s = "oops;\n',
        "char c = '\\\n';",
        "int a; `",
        "/* a\n*/ #define X\n",
        "  \x0c#define X \\ \n  y\nint a;",
        "#define X \\\r\n  y\nint a;",
        'char *s = "\\é é";\x01 é int b;',
    ]:
        assert_same_as_reference(source)


# where the alternatives' order could matter: '.' starts a number and an
# operator, and a letter starts an identifier next to a number or literal
LEXER_BOUNDARIES = {
    ".5": [(CONSTANT, ".5")],
    "a.b": [(IDENTIFIER, "a"), (OPERATOR, "."), (IDENTIFIER, "b")],
    "...": [(OPERATOR, "...")],
    "1e5f": [(CONSTANT, "1e5f")],
    "0x1Fu": [(CONSTANT, "0x1Fu")],
    'L"x"': [(IDENTIFIER, "L"), (STRING, '"x"')],
    "'\\n'": [(CONSTANT, "'\\n'")],
    "x->y": [(IDENTIFIER, "x"), (OPERATOR, "->"), (IDENTIFIER, "y")],
    "_a1": [(IDENTIFIER, "_a1")],
}


def test_lexer_boundaries_match_the_previous_order():
    for text, expected in LEXER_BOUNDARIES.items():
        assert [(t.kind, t.text) for t in tokenize(text)] == expected, text
        for source in (text, f"f({text});", f"x={text}+.5e-3;\n  {text}{text}"):
            assert_same_as_reference(source)


_INSERTS = [
    "int", "char", "*", "&", "(", ")", "{", "}", "[", "]", ";", ",", "=",
    "==", "+", "-", "<<", "&&", "||", "?", ":", ".", "->", "++", "...",
    "if", "else", "while", "for", "return", "sizeof", "struct", "switch",
    "x", "0x1F", "1.5e3", '"s"', "'c'", "'", '"', "/*", "*/", "//",
    "#define X ", "\\", "\n", "\t", "\r", " ", "é", "\x7f", "@",
]
CSET = CharacteristicSet()
_PIECES = re.compile(r"\w+|\s+|.", re.DOTALL)


@st.composite
def mutants(draw):
    """A corpus file with a few characters or tokens deleted, duplicated or inserted."""
    source = draw(st.sampled_from(sorted(BUNDLED.values()) + TEMPLATE_PROGRAMS))
    for _ in range(draw(st.integers(1, 4))):
        pieces = _PIECES.findall(source) if draw(st.booleans()) else list(source)
        if not pieces:
            pieces = [""]
        i = draw(st.integers(0, len(pieces) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if op == "delete":
            del pieces[i]
        elif op == "duplicate":
            pieces.insert(i, pieces[i])
        else:
            pieces.insert(i, draw(st.sampled_from(_INSERTS)))
        source = "".join(pieces)
    return source


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(mutants())
def test_mutants_match_reference(source):
    assert_same_as_reference(source)


def check_slices(source: str) -> int:
    """Run the slice stage's layers over a source as stage_slice calls
    them, and return how many SyVCs were sliced. Nothing may raise but
    what the stages quarantine (a file that does not lex, a program
    without PDGs, a SyVC that cannot be sliced), and each SyVC sliced
    has, in its own function, exactly the oracles' slices."""
    try:
        model = parse_source(source)
    except LexError:  # load_program skips the file
        return 0
    syvcs = extract_syvcs(model, CSET)
    try:
        pdgs = build_pdgs(model)
    except GraphError:  # stage_slice skips the program
        return 0
    call_graph = build_call_graph(model)
    index = model.statement_index()
    sliced = 0
    for syvc in syvcs:
        try:
            slice_ = interprocedural_slices(model, call_graph, pdgs, syvc)
            assemble_sevc(model, slice_, syvc, call_graph)
        except SliceConsistencyError:  # stage_slice skips the SyVC
            continue
        pdg, anchor = pdgs[syvc.function_index], syvc.statement_id
        for intra, nodes, oracle in (
            (forward_slice, slice_.forward_nodes, oracle_forward_slice),
            (backward_slice, slice_.backward_nodes, oracle_backward_slice),
        ):
            expected = oracle(pdg, anchor)
            assert set(intra(pdg, anchor)) == expected
            # the interprocedural slice starts with the function's own,
            # and adds no other statement of that function
            assert nodes[: len(expected)] == sorted(expected)
            home = {n for n in nodes if index[n].function_index == syvc.function_index}
            assert home == expected
        sliced += 1
    return sliced


def test_unmutated_sources_slice_as_the_oracles_do():
    sliced = [check_slices(source) for source in sorted(BUNDLED.values()) + TEMPLATE_PROGRAMS]
    assert sum(sliced) == 360 and sliced.count(0) == 1  # handcrafted/plain.c has no SyVC


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(mutants())
def test_mutants_slice_as_the_oracles_do(source):
    check_slices(source)


# --------------------------------------------------------------------------
# the ast.jsonl dump
# --------------------------------------------------------------------------


def reference_ast_records(model: ProgramModel) -> list[dict]:
    """The old dump_ast records, with the program name parse added."""
    records = []
    for fn in model.functions:
        for node in fn.ast.walk():
            records.append(
                {
                    "file": fn.file_path,
                    "function": fn.name,
                    "id": node.id,
                    "kind": node.kind,
                    "span": [node.span[0], node.span[1]],
                    "parent_id": node.parent_id,
                    "statement_id": node.statement_id,
                }
            )
    for record in records:
        record["program"] = model.name
    return records


def reference_ast_lines(model: ProgramModel) -> list[str]:
    encode = json.JSONEncoder(sort_keys=True).encode
    return [encode(record) for record in reference_ast_records(model)]


def test_ast_dump_of_bundled_files_matches_reference():
    for name, source in BUNDLED.items():
        model = parse_source(source, name)
        assert model.functions, name
        assert dump_ast(model) == reference_ast_lines(model), name


def test_ast_dump_of_mini_corpus_matches_reference():
    manifest = cli.load_manifest(mini_corpus_manifest())
    models = list(cli._parse_programs(manifest))
    assert len(models) == 40
    for model in models:
        assert dump_ast(model) == reference_ast_lines(model), model.name


def test_ast_dump_of_random_programs_matches_reference():
    rng = np.random.default_rng(1207)
    for i in range(60):
        model = parse_source(random_structured_source(rng, 14), f"random_{i}.c")
        assert dump_ast(model) == reference_ast_lines(model)


def test_ast_dump_skips_a_function_that_did_not_parse():
    source = (
        "void good_one(){int a;}\n"
        "void bad_one(){int b; switch (x) {case 1: break;}}\n"
        "void good_two(char *p){if (p) {p[0] = 'x';} return;}\n"
    )
    model = parse_source(source, "recover.c")
    assert [fn.name for fn in model.functions] == ["good_one", "good_two"]
    assert model.diagnostics
    lines = dump_ast(model)
    assert lines == reference_ast_lines(model)
    assert {json.loads(line)["function"] for line in lines} == {"good_one", "good_two"}


def test_ast_dump_escapes_file_and_program_names(tmp_path):
    program = 'odd "name" \\ caf\u00e9'
    os.makedirs(tmp_path / program)
    file_name = 'it\'s "\\ \u00fcber.c'
    (tmp_path / program / file_name).write_text(
        "int first(int a)\n{\n    return a + 1;\n}\n\n"
        "void second(char *s)\n{\n    first(s[0]);\n}\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"programs": [{"path": program, "class": "good"}]}),
        encoding="utf-8",
    )
    [model] = cli._parse_programs(cli.load_manifest(str(manifest)))
    assert model.name == program
    assert model.functions[0].file_path == os.path.join(program, file_name)
    expected = reference_ast_lines(model)
    assert dump_ast(model) == expected
    out = tmp_path / "out"
    assert cli.main(["parse", "--manifest", str(manifest), "--out", str(out)]) == 0
    written = (out / "ast.jsonl").read_text(encoding="utf-8").splitlines()
    assert written[1:] == expected
    assert json.loads(written[1])["program"] == program
