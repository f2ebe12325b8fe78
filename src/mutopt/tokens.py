"""Byte-exact tokenizer producing the operator sites that mutation rewrites.

Spans are byte offsets into the UTF-8 source so mutants can be written back
losslessly.  The lexer knows operators, strings, comments, identifiers and
numbers; everything else is ``OTHER``.  It never parses.

Lexing is one left-to-right scan of a single compiled regex with one named
group per token class.  The same scan tracks line and column and decides
whether each ``+ - * / %`` is binary from the token before it.  A source
that is not valid UTF-8, or that has an unterminated string or block comment,
raises ``MalformedSource``.  ``relex`` lexes a text that differs from a
tokenized one inside one token again around that token alone.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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
        if group == "unterminated":
            what = "block comment" if lexeme == "/*" else "string literal"
            raise MalformedSource(f"unterminated {what}", token_line, col)
        kind = _kind(group, lexeme, binary_position)
        tokens.append(Token(kind, lexeme, start, end, token_line, col))
        if kind is not TokenKind.COMMENT:
            binary_position = _ends_operand(kind, lexeme)
    return SourceUnit(text=data, language=Language(language), tokens=tuple(tokens))


def _kind(group: str, lexeme: str, binary_position: bool) -> TokenKind:
    if group != "operator":
        return _KIND_BY_GROUP[group]
    if binary_position and lexeme in ARITHMETIC_LEXEMES:
        return TokenKind.ARITHMETIC
    return _KIND_BY_LEXEME.get(lexeme, TokenKind.OTHER)


def _ends_operand(kind: TokenKind, lexeme: str) -> bool:
    """Whether a ``+ - * / %`` right after this non-comment token is binary."""
    return kind in (TokenKind.IDENTIFIER, TokenKind.LITERAL) or lexeme in (")", "]")


def _common_prefix(a: bytes, b: bytes, limit: int) -> int:
    """Length, at most ``limit``, of the longest common prefix of ``a`` and
    ``b``, by bisection over slice comparisons."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def relex(unit: SourceUnit, text: bytes) -> tuple[int, Token] | None:
    """The index of the one token of ``unit`` that ``text`` changes, and that
    token as ``text`` has it, when every other token of ``tokenize(text)`` is
    certain to be the unit's own, moved by the change in length; else None.

    ``text`` must differ from ``unit.text`` only inside one token, neither
    the first nor the last, with no newline in its old or new form.  Lexed
    again in ``text`` from the token before, the changed token and its two
    neighbours must keep their boundaries: ``a+-b`` to ``a--b`` merges two
    tokens, and ``*`` to ``/`` before ``/*c*/`` opens a line comment.  The
    new token must be a comment iff the old one was, and otherwise end an
    operand iff it did, so every later ``+ - * / %`` keeps its kind.
    """
    old_text, tokens = unit.text, unit.tokens
    shorter = min(len(old_text), len(text))
    prefix = _common_prefix(old_text, text, shorter)
    suffix = _common_prefix(old_text[::-1], text[::-1], shorter - prefix)
    end = len(old_text) - suffix
    i = bisect_right(tokens, prefix, key=lambda t: t.start) - 1
    if end == prefix and i > 0 and tokens[i - 1].end == prefix:
        i -= 1  # an insertion between two tokens, as ``<`` to ``<=`` in ``a<b``
    if not 0 < i < len(tokens) - 1 or end > tokens[i].end:
        return None
    left, old, right = tokens[i - 1:i + 2]
    delta = len(text) - len(old_text)
    matches = []
    for m in _TOKEN_RE.finditer(text, left.start):
        if m.lastgroup != "space":
            matches.append(m)
            if len(matches) == 3:
                break
    if ([(m.start(), m.end()) for m in matches]
            != [(left.start, left.end), (old.start, old.end + delta),
                (right.start + delta, right.end + delta)]
            or any(m.lastgroup == "unterminated" for m in matches)):
        return None
    new = matches[1]
    try:
        lexeme = new.group().decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\n" in lexeme or "\n" in old.lexeme:
        return None
    j = i - 1
    while j >= 0 and tokens[j].kind is TokenKind.COMMENT:
        j -= 1
    kind = _kind(new.lastgroup, lexeme,
                 j >= 0 and _ends_operand(tokens[j].kind, tokens[j].lexeme))
    comment = TokenKind.COMMENT
    if (kind is comment) != (old.kind is comment) or (
            kind is not comment
            and _ends_operand(kind, lexeme) != _ends_operand(old.kind, old.lexeme)):
        return None
    return i, Token(kind, lexeme, old.start, old.end + delta, old.line, old.col)
