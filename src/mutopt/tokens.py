"""Byte-exact tokenizer producing the operator sites that mutation rewrites.

Spans are byte offsets into the UTF-8 source so mutants can be written back
losslessly.  The lexer knows operators, strings, comments, identifiers and
numbers; everything else is ``OTHER``.  It never parses.

Lexing is one left-to-right scan of a single compiled regex with one named
group per token class.  The same scan tracks line and column and decides
whether each ``+ - * / %`` is binary from the token before it.  A source
that is not valid UTF-8, or that has an unterminated string or block comment,
raises ``MalformedSource``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto


class Language(str, Enum):
    MINI = "mini"
    C_LIKE = "c-like"


class TokenKind(Enum):
    RELATIONAL = auto()
    SHORTCUT_ASSIGN = auto()
    ARITHMETIC = auto()
    INCREMENT = auto()
    IDENTIFIER = auto()
    LITERAL = auto()
    STRING_LITERAL = auto()
    COMMENT = auto()
    OTHER = auto()


RELATIONAL_LEXEMES = ("<", "<=", ">", ">=", "==", "!=")
SHORTCUT_ASSIGN_LEXEMES = ("+=", "-=", "*=", "/=", "%=")
ARITHMETIC_LEXEMES = ("+", "-", "*", "/", "%")

# Multi-character operators and punctuation, longest first so maximal munch
# falls out of the regex alternation built from this table.
_OPERATOR_TABLE = sorted(
    [
        "<<=", ">>=", "...",
        "<=", ">=", "==", "!=", "+=", "-=", "*=", "/=", "%=",
        "++", "--", "<<", ">>", "&&", "||", "&=", "|=", "^=", "->", "::",
        "<", ">", "=", "!", "+", "-", "*", "/", "%", "&", "|", "^", "~",
        "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":", "#", "@", "\\",
    ],
    key=len,
    reverse=True,
)

_KIND_BY_LEXEME = {lex: TokenKind.RELATIONAL for lex in RELATIONAL_LEXEMES}
_KIND_BY_LEXEME.update({lex: TokenKind.SHORTCUT_ASSIGN for lex in SHORTCUT_ASSIGN_LEXEMES})
_KIND_BY_LEXEME.update({"++": TokenKind.INCREMENT, "--": TokenKind.INCREMENT})

_IDENT_START = rb"A-Za-z_\x80-\xff"  # every non-ASCII byte lexes as identifier

# One alternative per token class, tried in this order at every position.  A
# failed comment or string match falls through to ``unterminated``, which
# then catches its opener before the single-byte operator fallback can.
_TOKEN_RE = re.compile(
    rb"(?P<space>[ \t\r\n\v\f]+)"
    rb"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    rb"|(?P<string>\"(?:[^\"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*')"
    rb"|(?P<unterminated>/\*|[\"'])"
    # C preprocessing number; the parser decides validity.  1e+5 is one token.
    rb"|(?P<number>\.?[0-9](?:[eE][+-]|[0-9.%s])*)"
    rb"|(?P<identifier>[%s][0-9%s]*)"
    rb"|(?P<operator>%s|.)"
    % (_IDENT_START, _IDENT_START, _IDENT_START,
       b"|".join(re.escape(op.encode()) for op in _OPERATOR_TABLE)),
    re.DOTALL,
)
_KIND_BY_GROUP = {"comment": TokenKind.COMMENT, "string": TokenKind.STRING_LITERAL,
                  "number": TokenKind.LITERAL, "identifier": TokenKind.IDENTIFIER}
_MULTILINE_GROUPS = ("space", "comment", "string")


class MalformedSource(Exception):
    """Source that cannot be safely mutated at token level."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, col {col}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    lexeme: str
    start: int  # byte offset, inclusive
    end: int    # byte offset, exclusive
    line: int   # 1-based
    col: int    # 1-based byte column


@dataclass(frozen=True)
class SourceUnit:
    text: bytes
    language: Language
    tokens: tuple[Token, ...]


def tokenize(text: bytes | str, language: Language = Language.C_LIKE) -> SourceUnit:
    """Lex ``text`` into a SourceUnit with one scan of ``_TOKEN_RE``.

    Maximal munch: ``>=`` is one relational token, ``+=`` one shortcut
    assignment, ``++`` one increment token.  ``+ - * / %`` become ARITHMETIC
    only in binary position, that is when the previous non-comment token is
    an identifier, a literal, ``)`` or ``]``; unary occurrences stay OTHER.
    Raises MalformedSource for bytes that are not valid UTF-8 and for
    unterminated strings or block comments, at the offending byte or opener.
    """
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise MalformedSource("invalid UTF-8", data.count(b"\n", 0, exc.start) + 1,
                              exc.start - line_start + 1) from None
    tokens = []
    line, line_start = 1, 0
    binary_position = False  # the previous non-comment token ends an operand
    for m in _TOKEN_RE.finditer(data):
        group, start, end = m.lastgroup, m.start(), m.end()
        token_line, col = line, start - line_start + 1
        if group in _MULTILINE_GROUPS:
            newlines = data.count(b"\n", start, end)
            if newlines:
                line += newlines
                line_start = data.rfind(b"\n", start, end) + 1
            if group == "space":
                continue
        lexeme = m.group().decode("utf-8")
        if group == "operator":
            kind = _KIND_BY_LEXEME.get(lexeme, TokenKind.OTHER)
            if binary_position and lexeme in ARITHMETIC_LEXEMES:
                kind = TokenKind.ARITHMETIC
        elif group == "unterminated":
            what = "block comment" if lexeme == "/*" else "string literal"
            raise MalformedSource(f"unterminated {what}", token_line, col)
        else:
            kind = _KIND_BY_GROUP[group]
        tokens.append(Token(kind, lexeme, start, end, token_line, col))
        if kind is not TokenKind.COMMENT:
            binary_position = (kind in (TokenKind.IDENTIFIER, TokenKind.LITERAL)
                               or lexeme in (")", "]"))
    return SourceUnit(text=data, language=Language(language), tokens=tuple(tokens))
