"""Lexer for MiniC, the C-like source language of this reproduction.

MiniC stands in for the C programs the paper compiles to LLVM bitcode.  The
lexer keeps 1-based line numbers on every token; lines flow through the
compiler into the IR so coredumps and the debugger can report source
positions, like the paper's gdb-based playback.

Tokenizing is one compiled master regex matched in a loop: each match
swallows the blanks before a token, and its named group says what the token
is.  Block comments and quoted literals are finished by hand, because their
errors carry positions the regex cannot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = frozenset(
    {
        "int", "void", "char", "mutex", "cond",
        "if", "else", "while", "for", "return", "break", "continue",
    }
)

# One alternative per token class, tried in order; two-character operators
# come before their one-character prefixes, so maximal munch holds.  Integer
# literals are ASCII digits.  An identifier starts with a letter or ``_`` and
# goes on with letters, digits or ``_`` (``\w`` is exactly ``str.isalnum()``
# or ``_``); ``word`` catches a ``\w`` run that starts outside ASCII, which
# is an identifier when it starts with a letter and a stray digit otherwise.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
      (?P<ident>[A-Za-z_]\w*)
    | (?P<comment>//[^\n]*|/\*)
    | (?P<op><<|>>|<=|>=|==|!=|&&|\|\||[-+*/%<>=!~&|^(){}\[\],;])
    | (?P<newline>\n)
    | (?P<int>[0-9]+)
    | (?P<char>')
    | (?P<string>")
    | (?P<word>\w+)
    | (?P<end>\Z)
    )""",
    re.VERBOSE,
)
_BLANKS = re.compile(r"[ \t\r]*")


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int = 0) -> None:
        where = f"line {line}:{col}" if col else f"line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


@dataclass(slots=True)
class Token:
    kind: str  # 'int', 'char', 'string', 'ident', 'kw', 'op', 'eof'
    text: str
    line: int
    value: int = 0
    col: int = 0  # 1-based column of the token's first character

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    line = 1
    line_start = 0  # index of the first character of the current line
    while True:
        m = match(source, pos)
        if m is None:
            pos = _BLANKS.match(source, pos).end()
            raise LexError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        start, pos = m.span(kind)
        col = start - line_start + 1
        if kind == "ident":
            text = source[start:pos]
            append(Token("kw" if text in KEYWORDS else "ident", text, line, 0, col))
        elif kind == "op":
            append(Token("op", source[start:pos], line, 0, col))
        elif kind == "newline":
            line += 1
            line_start = pos
        elif kind == "int":
            text = source[start:pos]
            append(Token("int", text, line, int(text), col))
        elif kind == "comment":
            if source[start + 1] == "*":
                end = source.find("*/", pos)
                if end < 0:
                    raise LexError("unterminated block comment", line, col)
                line += source.count("\n", start, end)
                newline = source.rfind("\n", start, end + 2)
                if newline >= 0:
                    line_start = newline + 1
                pos = end + 2
        elif kind == "char":
            value, pos = _char_literal(source, start, line, col)
            append(Token("char", source[start:pos], line, value, col))
        elif kind == "string":
            text, pos = _string_literal(source, start, line)
            append(Token("string", text, line, 0, col))
        elif kind == "word":
            if not source[start].isalpha():
                raise LexError(f"non-ASCII digit {source[start]!r}", line, col)
            append(Token("ident", source[start:pos], line, 0, col))
        else:  # end
            append(Token("eof", "", line, 0, col))
            return tokens


def _char_literal(source: str, pos: int, line: int, col: int) -> tuple[int, int]:
    pos += 1  # opening quote
    if pos >= len(source):
        raise LexError("unterminated char literal", line)
    ch = source[pos]
    if ch == "\n":
        raise LexError("newline in char literal", line, col + 1)
    if ch == "\\":
        pos += 1
        if pos >= len(source) or source[pos] not in _ESCAPES:
            raise LexError("bad escape in char literal", line)
        ch = _ESCAPES[source[pos]]
    pos += 1
    if pos >= len(source) or source[pos] != "'":
        raise LexError("unterminated char literal", line)
    return ord(ch), pos + 1


def _string_literal(source: str, pos: int, line: int) -> tuple[str, int]:
    pos += 1  # opening quote
    chars: list[str] = []
    while pos < len(source):
        ch = source[pos]
        if ch == '"':
            return "".join(chars), pos + 1
        if ch == "\n":
            raise LexError("newline in string literal", line)
        if ch == "\\":
            pos += 1
            if pos >= len(source) or source[pos] not in _ESCAPES:
                raise LexError("bad escape in string literal", line)
            ch = _ESCAPES[source[pos]]
        chars.append(ch)
        pos += 1
    raise LexError("unterminated string literal", line)
