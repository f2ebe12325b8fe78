"""Mutant schemata for C: many one-operator mutants in one program,
switched at run time (Untch, Offutt and Harrold, ISSTA 1993; conditional
mutation, Just, Kapfhammer and Schweiggert, AST 2011).

``schemas`` writes each mutated full expression ``e`` of a schema as
``(__mutopt_k == 1 ? (e1) : __mutopt_k == 2 ? (e2) : (e))``, where ``e1``
and ``e2`` are ``e`` with one mutant's operator swapped.  ``__mutopt_k`` is
read from the environment variable ``SWITCH`` before ``main`` runs; unset,
the schema is the original, and a single number ``n`` runs the n-th
mutant.

A full expression is the condition of an ``if``, ``while``, ``switch`` or
``do``, a ``for`` clause, an expression statement or a ``return`` value,
inside a function body.  Everything else is left out: preprocessor lines,
file scope, declarations (so array sizes and ``static`` and ``enum``
initializers), ``case`` labels, and any expression that holds a brace, a
preprocessor line or ``__LINE__``.  A mutant whose operator merges with
a neighbour (``tokens.apart``) is left out too.  The scan matches
brackets and statements on tokens and never parses C; a body it cannot
follow gives no full expression.  A schema may still not compile (a ``%`` on a ``double``,
say); ``ExternalBackend.decide`` then splits its mutants in halves and
writes a schema of each.

Each arm is written on one line, from the expression's tokens without its
comments, and the newlines it spans follow the chain, so every line after
it keeps its number.

The prelude is also a fork server (after the AFL fork server, Zalewski,
2014, and split-stream execution, Tokumoto et al., ICST 2016), so that
one process runs many mutants on one input.  Its protocol:

- ``SWITCH`` set to ``B:n1,n2,...``, a budget ``B`` in milliseconds and
  a list of mutants, makes the process a server.  It reads its standard
  input to the end, 1 MiB at most, and in place of ``main`` runs arm 0,
  the original's path, then each listed arm, in that order.
- Each arm is a fork that returns from the prelude into ``main``, in a
  process group of its own.  The input reaches it on a pipe as its
  standard input, and its standard output and error go to pipes; its
  standard error is read and dropped.  An arm ends when it has exited and
  both of its output streams are closed, as a spawned program's run does.
- The cap: arm 0 runs for at most ``B`` of wall time.  Every other arm
  also stops at its cap of CPU time, 4 times arm 0's CPU time plus 2 ms,
  never above ``B``.  CPU time, read from the arm's CPU clock, is what a
  hanging arm burns, and it does not grow while a busy host keeps the arm
  waiting.  An arm that writes more than 1 MiB of output stops too.
- The server kills each arm's process group before it reaps the arm.
  Then it writes one frame for the arm to its own standard output: the
  line ``arm status micros length``, then ``length`` bytes of the arm's
  output.  ``status`` is the arm's wait status (0 for exit 0), or -1 for
  an arm the server stopped or that died of ``SIGKILL``, the server's
  own signal; ``micros`` is its wall time from the fork to its end;
  ``length`` is 0 unless ``status`` is 0.  The server exits 0 after the
  last frame, and 2 when it cannot serve.

The server's calls into libc are declared under ``__mutopt_`` names bound
to the libc symbols with ``__asm__`` labels, so the prelude includes no
header and declares no name a program may use, and its functions are
compiled at ``-O0`` under GCC, which keeps its share of a schema's
compile small.  Its signal numbers and clocks are Linux's.  A source that
names one of those symbols at file scope would have the server call its
own function of that name, so it gets no schema.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Sequence

from .tokens import SourceUnit, Token, TokenKind, apart

SWITCH = "MUTOPT_SCHEMA_K"

# Mutants per schema.  The compiler's peak memory grows with the schema,
# and it is the search's peak: on b2tob10.c, gcc 12 -O2 peaks at 29.0 MB
# for the original and, over its worst schema, 29.9 MB at 8 mutants a
# schema, 30.2 MB at 16, 30.4 MB at 28 and 32.5 MB at all 75.
MUTANTS_PER_SCHEMA = 16

# The fork server (see the module docstring).  Linux's numbers: 1 is
# CLOCK_MONOTONIC, POLLIN; 4 POLLOUT; 9 SIGKILL; 13 SIGPIPE; 17 SIGCHLD.
_SERVER = r"""#if defined(__GNUC__) && !defined(__clang__)
#define __mutopt_O0 __attribute__((optimize("O0")))
#else
#define __mutopt_O0
#endif
struct __mutopt_pollfd { int fd; short events, revents; };
struct __mutopt_timespec { long sec, nsec; };
int __mutopt_fork(void) __asm__("fork");
int __mutopt_pipe(int *) __asm__("pipe");
int __mutopt_dup2(int, int) __asm__("dup2");
int __mutopt_close(int) __asm__("close");
long __mutopt_read(int, void *, unsigned long) __asm__("read");
long __mutopt_write(int, const void *, unsigned long) __asm__("write");
int __mutopt_poll(struct __mutopt_pollfd *, unsigned long, int) __asm__("poll");
int __mutopt_kill(int, int) __asm__("kill");
int __mutopt_waitpid(int, int *, int) __asm__("waitpid");
int __mutopt_setpgid(int, int) __asm__("setpgid");
int __mutopt_clock_gettime(int, struct __mutopt_timespec *) __asm__("clock_gettime");
int __mutopt_cpuclock(int, int *) __asm__("clock_getcpuclockid");
int __mutopt_fflush(void *) __asm__("fflush");
int __mutopt_snprintf(char *, unsigned long, const char *, ...) __asm__("snprintf");
void (*__mutopt_signal(int, void (*)(int)))(int) __asm__("signal");
void __mutopt_exit(int) __asm__("_exit");
enum { __mutopt_limit = 1 << 20 };
static char __mutopt_in[__mutopt_limit], __mutopt_out[__mutopt_limit + 1];
static int __mutopt_chld[2]; /* a byte for each SIGCHLD */
/* microseconds on ``clock``; 0 if it cannot be read */
__mutopt_O0 static long long __mutopt_now(int clock) {
    struct __mutopt_timespec t;
    if (__mutopt_clock_gettime(clock, &t)) return 0;
    return t.sec * 1000000LL + t.nsec / 1000;
}
__mutopt_O0 static void __mutopt_exited(int sig) {
    (void) sig;
    __mutopt_write(__mutopt_chld[1], "", 1);
}
__mutopt_O0 static void __mutopt_put(const char *p, long n) {
    long w;
    for (; n > 0; p += w, n -= w)
        if ((w = __mutopt_write(1, p, n)) <= 0) __mutopt_exit(2);
}
/* Run arm ``arm`` on the input, for at most ``budget`` microseconds and
   ``cap`` of CPU, frame it and set ``*cpu`` to its CPU time; 1 in the arm
   itself, which goes on into main. */
__mutopt_O0 static int __mutopt_arm(int arm, long len, long long budget, long long cap,
                                    long long *cpu) {
    int in[2], out[2], err[2], pid, status = -1, exited = 0, i, n, timer = -1, ws;
    long sent = 0, got = 0, r;
    long long start, left, spare, wall;
    char sink[4096], head[80];
    struct __mutopt_pollfd fds[4], tick;
    tick.fd = __mutopt_chld[0];
    tick.events = 1;
    while (__mutopt_poll(&tick, 1, 0) > 0) __mutopt_read(tick.fd, sink, sizeof sink);
    if (__mutopt_pipe(in) || __mutopt_pipe(out) || __mutopt_pipe(err)) __mutopt_exit(2);
    __mutopt_fflush(0);
    start = __mutopt_now(1);
    if ((pid = __mutopt_fork()) < 0) __mutopt_exit(2);
    if (!pid) {
        __mutopt_setpgid(0, 0);
        __mutopt_signal(13, (void (*)(int)) 0);
        __mutopt_signal(17, (void (*)(int)) 0);
        __mutopt_dup2(in[0], 0);
        __mutopt_dup2(out[1], 1);
        __mutopt_dup2(err[1], 2);
        for (i = 0; i < 2; i++) {
            __mutopt_close(in[i]);
            __mutopt_close(out[i]);
            __mutopt_close(err[i]);
            __mutopt_close(__mutopt_chld[i]);
        }
        __mutopt_k = arm;
        return 1;
    }
    __mutopt_setpgid(pid, pid);
    __mutopt_cpuclock(pid, &timer); /* its CPU clock, or none: -1 */
    __mutopt_close(in[0]);
    __mutopt_close(out[1]);
    __mutopt_close(err[1]);
    in[0] = out[1] = err[1] = -1;
    if (!len) {
        __mutopt_close(in[1]);
        in[1] = -1;
    }
    for (;;) {
        if (out[0] < 0 && err[0] < 0 && exited) {
            status = 0;
            break;
        }
        left = start + budget - __mutopt_now(1);
        if ((spare = cap - __mutopt_now(timer)) < left) left = spare;
        if (left <= 0) break;
        n = 0;
        fds[n].fd = tick.fd, fds[n++].events = 1;
        if (out[0] >= 0) fds[n].fd = out[0], fds[n++].events = 1;
        if (err[0] >= 0) fds[n].fd = err[0], fds[n++].events = 1;
        if (in[1] >= 0) fds[n].fd = in[1], fds[n++].events = 4;
        if (__mutopt_poll(fds, n, (int) ((left + 999) / 1000)) <= 0) continue;
        for (i = 0; i < n; i++) {
            if (!fds[i].revents) continue;
            if (fds[i].fd == tick.fd) {
                __mutopt_read(tick.fd, sink, sizeof sink);
                exited = 1;
            } else if (fds[i].fd == in[1]) {
                r = len - sent < 4096 ? len - sent : 4096;
                if ((r = __mutopt_write(in[1], __mutopt_in + sent, r)) > 0) sent += r;
                if (r <= 0 || sent == len) {
                    __mutopt_close(in[1]);
                    in[1] = -1;
                }
            } else if (fds[i].fd == out[0]) {
                if ((r = __mutopt_read(out[0], __mutopt_out + got, __mutopt_limit + 1 - got)) > 0)
                    got += r;
                else {
                    __mutopt_close(out[0]);
                    out[0] = -1;
                }
            } else if (__mutopt_read(err[0], sink, sizeof sink) <= 0) {
                __mutopt_close(err[0]);
                err[0] = -1;
            }
        }
        if (got > __mutopt_limit) break;
    }
    *cpu = __mutopt_now(timer);
    wall = __mutopt_now(1) - start;
    __mutopt_kill(-pid, 9);
    __mutopt_waitpid(pid, &ws, 0);
    status = !status && (ws & 0x7f) != 9 ? ws : -1;
    for (i = 0; i < 2; i++) {
        if (in[i] >= 0) __mutopt_close(in[i]);
        if (out[i] >= 0) __mutopt_close(out[i]);
        if (err[i] >= 0) __mutopt_close(err[i]);
    }
    got = status ? 0 : got;
    __mutopt_put(head, __mutopt_snprintf(head, sizeof head, "%d %d %lld %ld\n",
                                         arm, status, wall, got));
    __mutopt_put(__mutopt_out, got);
    return 0;
}
/* Serve the arms listed in ``s`` under the budget in __mutopt_k, in
   milliseconds; returns only in an arm. */
__mutopt_O0 static void __mutopt_serve(const char *s) {
    long long budget = 1000LL * __mutopt_k, cap = budget, cpu;
    long len = 0, r;
    int arm = 0;
    while ((r = __mutopt_read(0, __mutopt_in + len, __mutopt_limit - len)) > 0) len += r;
    if (r < 0 || len == __mutopt_limit || __mutopt_pipe(__mutopt_chld)) __mutopt_exit(2);
    __mutopt_signal(13, (void (*)(int)) 1);
    __mutopt_signal(17, __mutopt_exited);
    for (;;) {
        if (__mutopt_arm(arm, len, budget, cap, &cpu)) return;
        if (!arm && (cap = 4 * cpu + 2000) > budget) cap = budget;
        if (!*s) __mutopt_exit(0);
        for (arm = 0; *s >= '0' && *s <= '9'; s++) arm = 10 * arm + (*s - '0');
        if (*s) s++;
    }
}
"""
_PRELUDE = (
    "char *getenv(const char *);\n"
    "static int __mutopt_k;\n"
    + _SERVER +
    "__attribute__((constructor)) static void __mutopt_switch(void) {\n"
    f'    const char *s = getenv("{SWITCH}");\n'
    "    while (s && *s >= '0' && *s <= '9') __mutopt_k = 10 * __mutopt_k + (*s++ - '0');\n"
    "    if (s && *s == ':') __mutopt_serve(s + 1);\n"
    "}\n"
    "#line 1\n").encode("ascii")
# the libc symbols the server calls
_SERVER_CALLS = frozenset(re.findall(r'__asm__\("(\w+)"\)', _SERVER))

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
    names ``__mutopt_*``, or names at file scope, outside preprocessor
    lines, a libc symbol that the fork server calls (``_SERVER_CALLS``)."""
    directives, depth = _directives(unit), 0
    for t in unit.tokens:
        if t.kind is TokenKind.IDENTIFIER and t.lexeme.startswith("__mutopt"):
            return []
        if _within(directives, t.start):
            continue
        depth += (t.lexeme == "{") - (t.lexeme == "}")
        if depth <= 0 and t.kind is TokenKind.IDENTIFIER and t.lexeme in _SERVER_CALLS:
            return []
    spans = full_expressions(unit)
    starts = [a for a, _ in spans]
    at = {t.start: i for i, t in enumerate(unit.tokens)}
    members = []
    for index, (start, new) in enumerate(edits):
        k = bisect_right(starts, start) - 1
        i = at.get(start)
        if k >= 0 and i is not None and unit.tokens[i].end <= spans[k][1] \
                and apart(unit, start, new):
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
