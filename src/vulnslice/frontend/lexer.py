"""Lexer for the supported C subset.

Tokenizing happens in two passes: a scrubbing pass replaces comments,
preprocessor lines, and non-ASCII bytes with spaces (preserving every
line break and column, so token positions always point into the
original source), then a master-regex pass cuts the scrubbed text into
position-tagged tokens.

Both passes are single regex scans. Scrubbing is one ``re.sub`` whose
pattern starts with the set of characters that can begin something to
blank, so the regex engine skips all other text. Tokenizing is one
``finditer`` over a pattern that matches a token together with the
whitespace before it; a running line number and line-start offset give
each token's position, and a character no token matches raises
LexError on its line.

The token pattern tries its alternatives most frequent first:
identifiers (keywords among them), punctuators, numbers, operators,
strings, characters. Each kind starts with characters no other kind
starts with, except '.', which starts a number (".5") as well as an
operator ("." and "..."). So the order decides nothing but how soon
the engine finds the match, as long as number stays before operator:
".5" is one number, not "." then "5".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..lexicon import (  # noqa: F401  re-exported
    CONSTANT,
    IDENTIFIER,
    KEYWORD,
    OPERATOR,
    PUNCTUATOR,
    ROLE_CALLEE,
    ROLE_DECLARED,
    ROLE_FIELD,
    ROLE_FUNCTION,
    ROLE_PLAIN,
    ROLE_TYPE,
    STRING,
)

KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if int long register return short signed sizeof static
    struct switch typedef union unsigned void volatile while
    """.split()
)

TYPE_KEYWORDS = frozenset(
    "char const double enum float int long short signed static struct "
    "union unsigned void volatile".split()
)


@dataclass(slots=True)
class Token:
    """One lexeme with its 1-based source position.

    ``role`` starts as "plain" and is refined by the parser (declared
    name, callee, type word, struct field, function name); the lexer
    itself never assigns roles.
    """

    kind: str
    text: str
    line: int
    column: int
    role: str = ROLE_PLAIN

    def __repr__(self) -> str:  # compact for test failure output
        return f"Token({self.kind}:{self.text!r}@{self.line}:{self.column})"


class LexError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


# What scrub blanks, found from its first character: the pattern starts
# with a character class, which lets the regex engine skip every other
# character, and each branch then tests that character by lookbehind.
# The class is newline, '/', quotes and junk, written as a negated class
# because a range up to U+10FFFF takes milliseconds to compile.
# A preprocessor line is found from the newline before it (scrub puts
# one in front of the text): "#" after nothing but whitespace and junk,
# running on across lines whose last solid character is a backslash.
# Literals are matched whole so that "//" or "/*" inside one is text; a
# quote that starts no closed literal is an error.
_SCRUB_RE = re.compile(
    r"""
    [^\t\r !#-&(-.0-~]
    (?:
      (?<=\n)(?P<pp>[^\n!-~]*\#(?:[^\n]*\\[ \t\r]*\n)*[^\n]*)
    | (?<=/)(?P<line>/[^\n]*)
    | (?<=/)(?P<block>\*.*?(?:\*/|\Z))
    | (?<=")(?P<string>(?:[^"\\\n]|\\[^\n])*")
    | (?<=')(?P<char>(?:[^'\\\n]|\\[^\n])*')
    | (?<=["'])(?P<open>)
    | (?<=[^\n/"'])(?P<junk>)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_JUNK_RE = re.compile(r"[^\t\n\r -~]")
_SOLID_RE = re.compile(r"[^\n]")
# inside a literal, an escaped character is kept and any other non-ASCII one blanked
_LITERAL_JUNK_RE = re.compile(r"\\[^\n]|[^\x00-~]")


def _blank(m: re.Match) -> str:
    text = m.group()  # the first character, then the group's text
    group = m.lastgroup
    if group in ("string", "char"):
        if max(text) <= "~":
            return text
        return _LITERAL_JUNK_RE.sub(
            lambda e: e.group() if e.group()[0] == "\\" else " ", text
        )
    if group == "junk":
        return " "
    if group == "pp":
        hash_at = text.index("#")
        return _JUNK_RE.sub(" ", text[:hash_at]) + _SOLID_RE.sub(" ", text[hash_at:])
    if group == "line":
        return " " * len(text)
    # the newline put in front of the text counts as the line before line 1
    line = m.string.count("\n", 0, m.start())
    if group == "open":
        kind = "string" if text == '"' else "character"
        raise LexError(f"unterminated {kind} literal", line)
    if len(text) < 4 or not text.endswith("*/"):
        raise LexError("unterminated block comment", line)
    return _SOLID_RE.sub(" ", text)


def scrub(text: str) -> str:
    """Blank out comments, preprocessor lines, and non-ASCII bytes.

    The result has exactly the same length and line structure as the
    input: every removed character becomes a space, newlines survive.
    Control characters other than tab and carriage return count as
    junk too, outside literals. Raises LexError on an unterminated
    string, character, or block comment.
    """
    return _SCRUB_RE.sub(_blank, "\n" + text)[1:]


# One token, after any whitespace before it, in the order of the module
# docstring. The named groups are the only capturing groups and none
# nests in another, so a match's lastindex is the number of its group.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<ident>[A-Za-z_]\w*)
    | (?P<punct>[()\[\]{};,])
    | (?P<number>
          0[xX][0-9a-fA-F]+[uUlL]*
        | \d+\.\d*(?:[eE][+-]?\d+)?[fFlL]?
        | \.\d+(?:[eE][+-]?\d+)?[fFlL]?
        | \d+(?:[eE][+-]?\d+)[fFlL]?
        | \d+[uUlL]*
      )
    | (?P<op>
          <<=|>>=|\.\.\.
        | ->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
        | \+=|-=|\*=|/=|%=|&=|\|=|\^=
        | [-+*/%=<>!~&|^?:.]
      )
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)+')
    )
    """,
    re.VERBOSE,
)
_WS_RE = re.compile(r"\s*")
_IDENT = _TOKEN_RE.groupindex["ident"]  # KEYWORDS splits this group's kind
_KIND_OF_GROUP = {
    "ident": IDENTIFIER,
    "punct": PUNCTUATOR,
    "number": CONSTANT,
    "op": OPERATOR,
    "string": STRING,
    "char": CONSTANT,
}
# token kind per master-regex group number
_GROUP_KINDS = (None, *(
    _KIND_OF_GROUP[name]
    for name in sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get)
))


def tokenize(source: str) -> list[Token]:
    """Lex a source buffer into tokens.

    Comments and preprocessor lines are removed, non-ASCII bytes are
    dropped, and each token carries the (line, column) where its text
    starts in the original buffer.
    """
    text = scrub(source)
    tokens: list[Token] = []
    append = tokens.append
    count = text.count
    line = 1
    line_start = pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        group = m.lastindex
        start = m.start(group)
        if start != pos:
            newlines = count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
        pos = m.end()
        lexeme = m[group]
        if group == _IDENT and lexeme in KEYWORDS:
            kind = KEYWORD
        else:
            kind = _GROUP_KINDS[group]
        append(Token(kind, lexeme, line, start - line_start + 1))
    # nothing matched at pos: past any whitespace is the first bad character
    bad = _WS_RE.match(text, pos).end()
    if bad < len(text):
        line += count("\n", pos, bad)
        raise LexError(f"unexpected character {text[bad]!r}", line)
    return tokens
