"""Mutant schemata for C: many one-operator mutants in one program,
switched at run time (Untch, Offutt and Harrold, ISSTA 1993; conditional
mutation, Just, Kapfhammer and Schweiggert, AST 2011).

``schemas`` writes each mutated full expression ``e`` of a schema as
``(__mutopt_k == 1 ? (e1) : __mutopt_k == 2 ? (e2) : (e))``, where ``e1``
and ``e2`` are ``e`` with one mutant's operator swapped.  ``__mutopt_k`` is
read from the environment variable ``SWITCH`` before ``main`` runs; unset,
the schema is the original.

A full expression is the condition of an ``if``, ``while``, ``switch`` or
``do``, a ``for`` clause, an expression statement or a ``return`` value,
inside a function body.  Everything else is left out: preprocessor lines,
file scope, declarations (so array sizes and ``static`` and ``enum``
initializers), ``case`` labels, and any expression that holds a brace, a
preprocessor line or ``__LINE__``.  A mutant whose operator merges with
a neighbour is left out too.  The scan matches brackets and statements on
tokens and never parses C; a body it cannot follow gives no full
expression.  A schema that still does not compile (a ``%`` on a
``double``, say) decides none of its mutants.

Each arm is written on one line, from the expression's tokens without its
comments, and the newlines it spans follow the chain, so every line after
it keeps its number.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Sequence

from .tokens import MalformedSource, SourceUnit, Token, TokenKind, tokenize

SWITCH = "MUTOPT_SCHEMA_K"

# Mutants per schema.  The compiler's peak memory grows with the schema,
# and it is the search's peak: on b2tob10.c, gcc 12 -O2 peaks at 29.0 MB
# for the original and, over its worst schema, 29.9 MB at 8 mutants a
# schema, 30.2 MB at 16, 30.4 MB at 28 and 32.5 MB at all 75.
MUTANTS_PER_SCHEMA = 16

_PRELUDE = (
    "char *getenv(const char *);\n"
    "static int __mutopt_k;\n"
    "__attribute__((constructor)) static void __mutopt_switch(void) {\n"
    f'    const char *s = getenv("{SWITCH}");\n'
    "    while (s && *s >= '0' && *s <= '9') __mutopt_k = 10 * __mutopt_k + (*s++ - '0');\n"
    "}\n"
    "#line 1\n").encode("ascii")

# a statement that starts with one of these is a declaration, or no
# expression; so is one that starts ``T x`` or ``T *x``
_DECLARATION = frozenset((
    "auto", "bool", "char", "const", "double", "enum", "extern", "float", "inline",
    "int", "long", "register", "restrict", "short", "signed", "static", "struct",
    "typedef", "union", "unsigned", "void", "volatile", "_Alignas", "_Atomic",
    "_Bool", "_Complex", "_Noreturn", "_Static_assert", "_Thread_local",
    "static_assert", "asm", "__asm", "__asm__", "__attribute__", "__extension__"))
_OPEN = {"(": ")", "[": "]", "{": "}"}


class _Unfollowed(Exception):
    """A function body the statement scan cannot follow."""


def schemas(unit: SourceUnit, edits: Sequence[tuple[int, str]]
            ) -> list[tuple[bytes, list[int]]]:
    """Schema texts of the C source ``unit`` for its one-operator mutants
    ``edits``, each the start of the token it replaces and the new lexeme:
    one per ``MUTANTS_PER_SCHEMA`` mutants that sit in a full expression,
    in ``edits`` order, each with the indices of its mutants in ``edits``;
    the n-th runs when ``SWITCH`` is n.  Empty when the source already
    names ``__mutopt_*``."""
    if any(t.kind is TokenKind.IDENTIFIER and t.lexeme.startswith("__mutopt")
           for t in unit.tokens):
        return []
    spans = full_expressions(unit)
    starts = [a for a, _ in spans]
    at = {t.start: i for i, t in enumerate(unit.tokens)}
    members = []
    for index, (start, new) in enumerate(edits):
        k = bisect_right(starts, start) - 1
        i = at.get(start)
        if k >= 0 and i is not None and unit.tokens[i].end <= spans[k][1] \
                and _apart(unit, i, new):
            members.append((index, k, unit.tokens[i], new))
    return [_schema(unit, spans, members[i:i + MUTANTS_PER_SCHEMA])
            for i in range(0, len(members), MUTANTS_PER_SCHEMA)]


def _schema(unit: SourceUnit, spans, members) -> tuple[bytes, list[int]]:
    """One schema text for ``members``, (edit index, span, token, new
    lexeme), and their edit indices."""
    arms: dict[int, list[tuple[int, Token, str]]] = {}
    for n, (_, k, token, new) in enumerate(members, 1):
        arms.setdefault(k, []).append((n, token, new))
    text, out, pos = unit.text, [_PRELUDE], 0
    starts = [t.start for t in unit.tokens]
    for k in sorted(arms):
        a, b = spans[k]
        tokens = [t for t in unit.tokens[bisect_left(starts, a):bisect_left(starts, b)]
                  if t.kind is not TokenKind.COMMENT]
        chain = "".join(f"__mutopt_k == {n} ? ({_line(tokens, token, new)}) : "
                        for n, token, new in arms[k])
        out += [text[pos:a], f"({chain}({_line(tokens)}))".encode(),
                b"\n" * text.count(b"\n", a, b)]
        pos = b
    out.append(text[pos:])
    return b"".join(out), [index for index, *_ in members]


def _apart(unit: SourceUnit, i: int, new: str) -> bool:
    """Whether ``new`` in place of token ``i``, which has a token on each
    side, lexes apart from both: ``a+-b`` to ``a--b`` does not."""
    left, old, right = unit.tokens[i - 1:i + 2]
    window = unit.text[left.start:old.start] + new.encode() + unit.text[old.end:right.end]
    try:
        tokens = tokenize(window).tokens
    except MalformedSource:  # ``*`` to ``/`` before ``*`` opens a comment
        return False
    return [t.lexeme for t in tokens] == [left.lexeme, new, right.lexeme]


def _line(tokens: list[Token], swap: Token | None = None, new: str = "") -> str:
    """``tokens`` on one line, with ``new`` in place of ``swap``: apart
    where the source has anything between two of them, else adjacent."""
    out = []
    for i, t in enumerate(tokens):
        if i and tokens[i - 1].end != t.start:
            out.append(" ")
        out.append(new if t is swap else t.lexeme)
    return "".join(out)


def full_expressions(unit: SourceUnit) -> list[tuple[int, int]]:
    """The byte spans of the full expressions of ``unit`` that a schema may
    switch, in order; they never overlap."""
    directives = _directives(unit)
    tokens = [t for t in unit.tokens if t.kind is not TokenKind.COMMENT
              and not _within(directives, t.start)]
    match, stack = {}, []
    for i, t in enumerate(tokens):
        if t.lexeme in _OPEN:
            stack.append(i)
        elif t.lexeme in (")", "]", "}"):
            if not stack or _OPEN[tokens[stack[-1]].lexeme] != t.lexeme:
                return []
            match[stack.pop()] = i
    if stack:
        return []
    spans: list[tuple[int, int]] = []
    i = 0
    while i < len(tokens):
        if tokens[i].lexeme == "{" and i > 0 and tokens[i - 1].lexeme == ")":
            body = _Body(tokens, match, directives)
            try:
                body.block(i)
            except (_Unfollowed, RecursionError):
                pass
            else:
                spans += body.spans
        i = match[i] + 1 if i in match else i + 1
    return spans


def _directives(unit: SourceUnit) -> list[tuple[int, int]]:
    """The byte spans of the preprocessor lines of ``unit``: from a ``#``
    first on its line to the end of the line, with its continuations."""
    text, spans = unit.text, []
    for t in unit.tokens:
        if t.lexeme != "#" or (spans and t.start < spans[-1][1]) \
                or text[text.rfind(b"\n", 0, t.start) + 1:t.start].strip():
            continue
        end = text.find(b"\n", t.start)
        while end > 0 and text[max(end - 2, 0):end].rstrip(b"\r").endswith(b"\\"):
            end = text.find(b"\n", end + 1)
        spans.append((t.start, end if end >= 0 else len(text)))
    return spans


def _within(spans: list[tuple[int, int]], offset: int) -> bool:
    k = bisect_right(spans, offset, key=itemgetter(0)) - 1
    return k >= 0 and offset < spans[k][1]


class _Body:
    """The statements of one function body, read from its tokens."""

    def __init__(self, tokens: list[Token], match: dict[int, int], directives):
        self.tokens, self.match, self.directives = tokens, match, directives
        self.spans: list[tuple[int, int]] = []

    def lexeme(self, i: int) -> str:
        if i >= len(self.tokens):
            raise _Unfollowed
        return self.tokens[i].lexeme

    def group(self, i: int) -> int:
        """The index of the ``)`` that closes the ``(`` at ``i``."""
        if self.lexeme(i) != "(":
            raise _Unfollowed
        return self.match[i]

    def block(self, i: int) -> int:
        end, i = self.match[i], i + 1
        while i < end:
            i = self.statement(i)
        if i != end:
            raise _Unfollowed
        return end + 1

    def expression(self, a: int, b: int):
        """Tokens ``a`` to ``b``, exclusive, as a full expression."""
        if a >= b:
            return
        start, end = self.tokens[a].start, self.tokens[b - 1].end
        if any(t.lexeme in ("{", "}", "__LINE__") for t in self.tokens[a:b]) \
                or any(start < d < end for d, _ in self.directives):
            return
        self.spans.append((start, end))

    def semicolon(self, i: int) -> int:
        """The index of the ``;`` that ends the statement from ``i``."""
        while (lexeme := self.lexeme(i)) != ";":
            if lexeme in (")", "]", "}"):
                raise _Unfollowed
            i = self.match[i] + 1 if lexeme in _OPEN else i + 1
        return i

    def declaration(self, i: int) -> bool:
        first, kind = self.lexeme(i), self.tokens[i].kind
        if first in _DECLARATION:
            return True
        if kind is not TokenKind.IDENTIFIER or i + 2 >= len(self.tokens):
            return False
        second = self.tokens[i + 1]
        return second.kind is TokenKind.IDENTIFIER or (
            second.lexeme == "*" and self.tokens[i + 2].kind is TokenKind.IDENTIFIER)

    def statement(self, i: int) -> int:
        """Record the full expressions of the statement at ``i``; the index
        after it.  A label counts as a statement of its own."""
        lexeme = self.lexeme(i)
        if lexeme == "{":
            return self.block(i)
        if lexeme in ("if", "while", "switch"):
            close = self.group(i + 1)
            self.expression(i + 2, close)
            j = self.statement(close + 1)
            if lexeme == "if" and j < len(self.tokens) and self.tokens[j].lexeme == "else":
                j = self.statement(j + 1)
            return j
        if lexeme == "for":
            close = self.group(i + 1)
            clauses, a, j = [], i + 2, i + 2
            while j < close:
                if self.tokens[j].lexeme == ";":
                    clauses.append((a, j))
                    a = j + 1
                j = self.match[j] + 1 if j in self.match else j + 1
            clauses.append((a, close))
            if len(clauses) != 3:
                raise _Unfollowed
            for k, (a, b) in enumerate(clauses):
                if k or not self.declaration(a):
                    self.expression(a, b)
            return self.statement(close + 1)
        if lexeme == "do":
            j = self.statement(i + 1)
            if self.lexeme(j) != "while":
                raise _Unfollowed
            close = self.group(j + 1)
            self.expression(j + 2, close)
            if self.lexeme(close + 1) != ";":
                raise _Unfollowed
            return close + 2
        if lexeme in ("case", "default"):
            return self.label(i)
        if self.tokens[i].kind is TokenKind.IDENTIFIER and self.lexeme(i + 1) == ":":
            return i + 2
        end = self.semicolon(i)
        if lexeme == "return":
            self.expression(i + 1, end)
        elif lexeme not in ("break", "continue", "goto") and not self.declaration(i):
            self.expression(i, end)
        return end + 1

    def label(self, i: int) -> int:
        """The index after the ``:`` that ends the ``case`` or ``default``
        label at ``i``."""
        while (lexeme := self.lexeme(i)) != ":":
            if lexeme in (";", "{", "}"):
                raise _Unfollowed
            i = self.match[i] + 1 if lexeme in _OPEN else i + 1
        return i + 1
