"""Tokenizer for the mini-C dialect.

``#pragma`` lines become PRAGMA tokens (with ``\\`` line continuations
folded); ``#include`` lines are skipped. ``//`` and ``/* */`` comments are
stripped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LexError

KEYWORDS = frozenset(
    [
        "int", "char", "float", "double", "long", "short", "unsigned",
        "void", "size_t",
        "if", "else", "while", "for", "return", "break", "continue",
        "sizeof", "const", "struct",
    ]
)

# Longest-first so multi-char operators win.
OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'keyword' | 'int' | 'float' | 'char' | 'string' | 'op' | 'pragma' | 'eof'
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # compact for test failures
        return f"Token({self.kind}, {self.value!r}, L{self.line})"


_NUMBER_RE = re.compile(
    r"""
    (?:0[xX][0-9a-fA-F]+)              # hex int
    | (?:\d+\.\d*(?:[eE][+-]?\d+)?[fF]?)  # 12. / 12.5 / 1.5e3
    | (?:\.\d+(?:[eE][+-]?\d+)?[fF]?)     # .5
    | (?:\d+[eE][+-]?\d+[fF]?)            # 1e9
    | (?:\d+[fF])                          # 3f
    | (?:\d+[uUlL]*)                       # plain int w/ suffixes
    """,
    re.VERBOSE | re.ASCII,  # C digits only: "1٣" is not 13
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def _unescape(body: str, line: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise LexError("dangling escape in literal", line)
            esc = body[i + 1]
            if esc not in _ESCAPES:
                raise LexError(f"unsupported escape \\{esc}", line)
            out.append(_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def tokenize(source: str) -> list[Token]:
    """Tokenize mini-C source into a list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(source)

    def col() -> int:
        return i - line_start + 1

    while i < n:
        ch = source[i]
        # Newlines / whitespace
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        # Comments
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j == -1 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", i, j)
            i = j + 2
            continue
        # Preprocessor lines
        if ch == "#":
            j = i
            # Fold '\'-continued lines into one logical line.
            parts: list[str] = []
            while True:
                eol = source.find("\n", j)
                if eol == -1:
                    eol = n
                segment = source[j:eol]
                stripped = segment.rstrip()
                if stripped.endswith("\\"):
                    parts.append(stripped[:-1])
                    j = eol + 1
                    line += 1
                else:
                    parts.append(segment)
                    break
            logical = " ".join(p.strip() for p in parts).strip()
            if logical.startswith("#pragma"):
                tokens.append(Token("pragma", logical, line, col()))
            elif logical.startswith(("#include", "#define")):
                pass  # headers are modelled by the stdlib; simple defines unsupported
            else:
                raise LexError(f"unsupported preprocessor line: {logical!r}", line)
            i = eol
            continue
        # String literal
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    buf.append(source[j : j + 2])
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string literal", line)
            tokens.append(Token("string", _unescape("".join(buf), line), line, col()))
            i = j + 1
            continue
        # Char literal
        if ch == "'":
            j = source.find("'", i + 1)
            if source[i + 1] == "\\":
                j = source.find("'", i + 3)
            if j == -1:
                raise LexError("unterminated char literal", line)
            body = _unescape(source[i + 1 : j], line)
            if len(body) != 1:
                raise LexError(f"bad char literal {source[i:j+1]!r}", line)
            tokens.append(Token("char", body, line, col()))
            i = j + 1
            continue
        # Numbers
        m = _NUMBER_RE.match(source, i)
        if m and "0" <= ch <= "9" or (ch == "." and m):
            text = m.group(0)
            kind = "float" if any(c in text for c in ".eEfF") and not text.startswith("0x") else "int"
            # hex has no dot/e markers issue
            if text.lower().startswith("0x"):
                kind = "int"
            tokens.append(Token(kind, text, line, col()))
            i = m.end()
            continue
        # Identifiers / keywords
        m = _IDENT_RE.match(source, i)
        if m:
            text = m.group(0)
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col()))
            i = m.end()
            continue
        # Operators
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col()))
                i += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col())

    tokens.append(Token("eof", "", line, col()))
    return tokens
