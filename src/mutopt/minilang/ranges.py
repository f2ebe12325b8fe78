"""Interval facts about one top-level MiniImp statement, for code generation.

An abstract interpretation (Cousot and Cousot, POPL 1977) over intervals of
64-bit wrapping integers.  ``analyse`` walks a top-level statement once,
iterating each loop to a fixed point with widening at its head, and
refines the state by each ``while`` and ``if`` condition on its two
branches.  It records two kinds of facts (``Facts``):

  * for each operator evaluation, the exact range of its result before
    wrapping; the code generator drops an overflow check whose side the
    range cannot reach;
  * for each relational operator, the intervals its operands take; a
    relational mutant whose comparison differs from the original's on no
    pair of them is never infected.

Loop counters need one more rule, since widening alone sends them to the
int64 bounds.  A variable that a loop writes only with literals and
literal increments (``x = c``, ``x += c``, ``x -= c``) holds, at the loop's
head, a value within its entry interval and those literals, moved by at
most the largest increment times the increments executed so far, as long
as no increment wrapped.  Each execution costs at least one step, and
every loop head checks the budget, so with ``bound``, the largest budget a
run of the code can have plus the steps a statement can take between two
budget checks, no counter moves more than ``bound`` increments.  When that
range lies inside int64, no increment can wrap, so it holds; otherwise the
counter gets no cap.

Soundness contract: a fact may drop a check only if it holds for every
program that runs that code object.  So each top-level statement is
analysed on its own, from an entry state where every variable may hold any
int64 value, and a program that shares a statement's function with
another (``CompiledMini.with_code``) shares facts that hold whatever ran
before it.  A schema's switched node evaluates to the join of its
operators' results, and a switched relational node refines no state.  A
forked instrumented run flips one comparison in ``blind``, so each of
those refines no state either and may be false or true, whatever its
operands.  Input values are int64, as every caller checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import ast_nodes as ast

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1
TOP = (INT_MIN, INT_MAX)

Interval = tuple[int, int]  # lo <= hi
State = dict  # variable -> Interval, for those known narrower than TOP

# the signs of x - y on which each relational operator holds, and the one
# comparison that holds on each proper subset of the signs
_SIGNS = {"<": {-1}, "<=": {-1, 0}, ">": {1}, ">=": {0, 1}, "==": {0}, "!=": {-1, 1}}
_HOLDS_ON = {frozenset(signs): op for op, signs in _SIGNS.items()}
RELATIONAL = tuple(_SIGNS)
NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}

# statements visited before an analysis gives up: nested loops multiply
# the passes, and a statement past this keeps all its checks
VISITS = 2_000


def wrap(v: int) -> int:
    """``v`` wrapped to int64."""
    return ((v + 9223372036854775808) & 18446744073709551615) - 9223372036854775808


def hull(a: Interval, b: Interval) -> Interval:
    return min(a[0], b[0]), max(a[1], b[1])


def wrapped(lo: int, hi: int) -> Interval:
    """The int64 values that the exact results ``lo..hi`` wrap to."""
    if INT_MIN <= lo and hi <= INT_MAX:
        return lo, hi
    if (lo - INT_MIN) >> 64 == (hi - INT_MIN) >> 64:  # one window of 2^64
        return wrap(lo), wrap(hi)
    return TOP


def _corners(f, a: Interval, b: Interval) -> Interval:
    values = [f(x, y) for x in a for y in b]
    return min(values), max(values)


def _shift_count(b: Interval) -> Interval:
    """The values of ``b & 63``."""
    return b if 0 <= b[0] and b[1] <= 63 else (0, 63)


def _quotient(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _signs(a: Interval) -> list[Interval]:
    """``a`` split into its negative and its non-negative part."""
    parts = []
    if a[0] < 0:
        parts.append((a[0], min(a[1], -1)))
    if a[1] >= 0:
        parts.append((max(a[0], 0), a[1]))
    return parts


def _ones(n: int) -> int:
    """All ones up to the highest bit of non-negative ``n``."""
    return (1 << n.bit_length()) - 1


def _bitwise(op: str, x: Interval, y: Interval) -> Interval:
    """``x op y`` for ``&``, ``|``, ``^`` on intervals of one sign each."""
    xneg, yneg = x[1] < 0, y[1] < 0
    if op == "&":
        if xneg and yneg:
            return INT_MIN, min(x[1], y[1])
        return 0, min(x[1] if not xneg else INT_MAX, y[1] if not yneg else INT_MAX)
    if op == "|":
        if not xneg and not yneg:
            return max(x[0], y[0]), _ones(max(x[1], y[1]))
        return max(x[0] if xneg else INT_MIN, y[0] if yneg else INT_MIN), -1
    if not xneg and not yneg:
        return 0, _ones(max(x[1], y[1]))
    if xneg and yneg:  # x ^ y == ~x ^ ~y
        return 0, _ones(max(-x[0] - 1, -y[0] - 1))
    pos, neg = (x, y) if yneg else (y, x)  # x ^ y == ~(pos ^ ~neg)
    return -_ones(max(pos[1], -neg[0] - 1)) - 1, -1


def _truths(op: str, a: Interval, b: Interval) -> tuple[bool, bool]:
    """Whether ``a op b`` can be false and whether it can be true."""
    if op in RELATIONAL:
        return compare(NEGATION[op], a, b) is not None, compare(op, a, b) is not None
    zero = (a[0] <= 0 <= a[1], b[0] <= 0 <= b[1])
    nonzero = (a != (0, 0), b != (0, 0))
    if op == "&&":
        return zero[0] or zero[1], nonzero[0] and nonzero[1]
    return zero[0] and zero[1], nonzero[0] or nonzero[1]


def exact(op: str, a: Interval, b: Interval) -> Interval | None:
    """The range of ``x op y``, before wrapping to int64, over ``x`` in
    ``a`` and ``y`` in ``b``; None when every pair crashes (``/`` or ``%``
    by zero alone).  ``op`` is a binary operator, or ``neg`` for unary
    minus of ``b``."""
    if op == "+":
        return a[0] + b[0], a[1] + b[1]
    if op == "-":
        return a[0] - b[1], a[1] - b[0]
    if op == "neg":
        return -b[1], -b[0]
    if op == "*":
        return _corners(int.__mul__, a, b)
    if op == "<<":
        return _corners(int.__lshift__, a, _shift_count(b))
    if op == ">>":
        return _corners(int.__rshift__, a, _shift_count(b))
    if op in ("/", "%"):
        parts = [p for p in _signs(b) if p != (0, 0)]
        parts = [(max(p[0], 1), p[1]) if p[0] >= 0 else p for p in parts]
        if not parts:
            return None
        if op == "/":
            ranges = [_corners(_quotient, a, p) for p in parts]
            return min(r[0] for r in ranges), max(r[1] for r in ranges)
        m = max(abs(b[0]), abs(b[1])) - 1  # |x % y| < |y| and <= |x|
        return max(a[0], -m) if a[0] < 0 else 0, min(a[1], m) if a[1] > 0 else 0
    if op in ("&", "|", "^"):
        ranges = [_bitwise(op, x, y) for x in _signs(a) for y in _signs(b)]
        return min(r[0] for r in ranges), max(r[1] for r in ranges)
    can_false, can_true = _truths(op, a, b)
    return (0 if can_false else 1), (1 if can_true else 0)


def compare(op: str, a: Interval, b: Interval) -> tuple[Interval, Interval] | None:
    """``a`` and ``b`` narrowed to the values ``x``, ``y`` for which
    relational ``x op y`` can hold; None when it holds for none."""
    if op in (">", ">="):
        found = compare("<" if op == ">" else "<=", b, a)
        return found and (found[1], found[0])
    if op in ("<", "<="):
        gap = 1 if op == "<" else 0
        a, b = (a[0], min(a[1], b[1] - gap)), (max(b[0], a[0] + gap), b[1])
    elif op == "==":
        a = b = max(a[0], b[0]), min(a[1], b[1])
    elif a[0] == a[1]:  # !=: only a point can narrow the other side
        b = (b[0] + (b[0] == a[0]), b[1] - (b[1] == a[0]))
    elif b[0] == b[1]:
        a = (a[0] + (a[0] == b[0]), a[1] - (a[1] == b[0]))
    if a[0] > a[1] or b[0] > b[1]:
        return None
    return a, b


def differs_on(op: str, new: str) -> str | None:
    """The comparison that holds where relational ``x op y`` and
    ``x new y`` differ; None where they differ on every pair."""
    signs = frozenset(_SIGNS[op] ^ _SIGNS[new])
    return None if len(signs) == 3 else _HOLDS_ON[signs]


def may_differ(op: str, new: str, a: Interval, b: Interval) -> bool:
    """Whether relational ``x op y`` and ``x new y`` differ for some ``x``
    in ``a`` and ``y`` in ``b``."""
    where = differs_on(op, new)
    return where is None or compare(where, a, b) is not None


def join(s: State | None, t: State | None) -> State | None:
    if s is None:
        return t
    if t is None:
        return s
    joined = {}
    for name, a in s.items():
        b = t.get(name)
        if b is not None and (c := hull(a, b)) != TOP:
            joined[name] = c
    return joined


def _includes(s: State | None, t: State | None) -> bool:
    """Whether state ``s`` holds every value of ``t``."""
    if t is None:
        return True
    if s is None:
        return False
    for name, a in s.items():
        b = t.get(name)
        if b is None or b[0] < a[0] or b[1] > a[1]:
            return False
    return True


def _widen(s: State, t: State) -> State:
    """``s`` with every bound that ``t`` passes moved to the int64 bound."""
    widened = {}
    for name, a in s.items():
        b = t.get(name)
        if b is not None:
            c = (a[0] if b[0] >= a[0] else INT_MIN, a[1] if b[1] <= a[1] else INT_MAX)
            if c != TOP:
                widened[name] = c
    return widened


def _set(state: State, name: str, value: Interval) -> State:
    state = dict(state)
    if value == TOP:
        state.pop(name, None)
    else:
        state[name] = value
    return state


def _literal(node: ast.Expr) -> int | None:
    if isinstance(node, ast.IntLit):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.IntLit):
        return -node.operand.value
    return None


def statements(stmts: Sequence[ast.Stmt]):
    """Every statement of ``stmts`` at any depth, in source order: each
    ``if`` or ``while`` is yielded before the statements of its bodies."""
    for stmt in stmts:
        yield stmt
        for name in ("then_body", "else_body", "body"):
            yield from statements(getattr(stmt, name, ()))


@dataclass
class Facts:
    """What ``analyse`` found: by ``(id(node), op)``, the hull of the
    exact results of each evaluation of operator ``op`` at ``node`` (a
    ``BinOp``, ``AugAssign`` or ``UnaryOp``, whose op is ``neg``); by
    ``id(node)``, the hulls of a relational node's operands.  A node the
    analysis found unreachable has neither."""
    results: dict[tuple[int, str], Interval] = field(default_factory=dict)
    operands: dict[int, tuple[Interval, Interval]] = field(default_factory=dict)


class _GiveUp(Exception):
    pass


class _Analysis:
    def __init__(self, bound: int, switch, blind):
        self.bound = bound
        self.switch_node, self.switch_ops = switch or (None, ())
        self.blind = blind
        self.facts = Facts()
        self.jumps: list[tuple[list, list]] = []  # per enclosing loop: breaks, continues
        self.visits = VISITS

    def ops(self, node) -> tuple[str, ...]:
        return self.switch_ops if node is self.switch_node else (node.op,)

    # ---- expressions ----

    def expr(self, node: ast.Expr, state: State) -> Interval:
        if isinstance(node, ast.IntLit):
            return node.value, node.value
        if isinstance(node, ast.Var):
            return state.get(node.name, TOP)
        if isinstance(node, ast.InLen):
            return 0, INT_MAX
        if isinstance(node, ast.ArrayRead):
            self.expr(node.index, state)
            return TOP
        if isinstance(node, ast.UnaryOp):
            return self.apply(node, ("neg",), (0, 0), self.expr(node.operand, state))
        a, b = self.expr(node.left, state), self.expr(node.right, state)
        ops = self.ops(node)
        if ops[0] in RELATIONAL:
            seen = self.facts.operands.get(id(node))
            self.facts.operands[id(node)] = (a, b) if seen is None else (
                hull(seen[0], a), hull(seen[1], b))
            if id(node) in self.blind:  # a forked run may flip its value
                self.facts.results.update(((id(node), op), (0, 1)) for op in ops)
                return 0, 1
        return self.apply(node, ops, a, b)

    def apply(self, node, ops: Sequence[str], a: Interval, b: Interval) -> Interval:
        value = None
        for op in ops:
            found = exact(op, a, b)
            if found is None:
                continue
            key = id(node), op
            seen = self.facts.results.get(key)
            self.facts.results[key] = found if seen is None else hull(seen, found)
            found = wrapped(*found)
            value = found if value is None else hull(value, found)
        return value or TOP

    def refine(self, node: ast.Expr, state: State | None, truth: bool) -> State | None:
        """``state`` narrowed to where ``node`` is ``truth``."""
        if state is None:
            return None
        if isinstance(node, ast.BinOp) and node.op in ("&&", "||"):
            if (node.op == "&&") == truth:  # both operands are ``truth``
                return self.refine(node.right, self.refine(node.left, state, truth), truth)
            return join(self.refine(node.left, state, truth),
                        self.refine(node.right, state, truth))
        if isinstance(node, ast.BinOp) and node.op in RELATIONAL:
            if node is self.switch_node or id(node) in self.blind:
                return state
            op, left, right = node.op if truth else NEGATION[node.op], node.left, node.right
        else:
            op, left, right = "!=" if truth else "==", node, ast.IntLit(0)
        found = compare(op, self.expr(left, state), self.expr(right, state))
        if found is None:
            return None
        for side, value in zip((left, right), found):
            if isinstance(side, ast.Var):
                state = _set(state, side.name, value)
        return state

    # ---- statements ----

    def block(self, stmts: Sequence[ast.Stmt], state: State | None) -> State | None:
        for stmt in stmts:
            if state is None:
                break
            state = self.stmt(stmt, state)
        return state

    def stmt(self, stmt: ast.Stmt, state: State) -> State | None:
        self.visits -= 1
        if self.visits < 0:
            raise _GiveUp
        if isinstance(stmt, ast.Assign):
            return _set(state, stmt.name, self.expr(stmt.value, state))
        if isinstance(stmt, ast.AugAssign):
            b = self.expr(stmt.value, state)
            value = self.apply(stmt, [op[:-1] for op in self.ops(stmt)],
                               state.get(stmt.name, TOP), b)
            return _set(state, stmt.name, value)
        if isinstance(stmt, ast.Print):
            self.expr(stmt.value, state)
            return state
        if isinstance(stmt, ast.If):
            self.expr(stmt.cond, state)
            return join(self.block(stmt.then_body, self.refine(stmt.cond, state, True)),
                        self.block(stmt.else_body, self.refine(stmt.cond, state, False)))
        if isinstance(stmt, ast.While):
            return self.loop(stmt, state)
        self.jumps[-1][isinstance(stmt, ast.Continue)].append(state)
        return None

    def loop(self, loop: ast.While, entry: State) -> State | None:
        caps = self.caps(loop, entry)
        head, passes = entry, 0
        while True:
            self.jumps.append(([], []))
            self.expr(loop.cond, head)
            back = self.block(loop.body, self.refine(loop.cond, head, True))
            breaks, continues = self.jumps.pop()
            for state in continues:
                back = join(back, state)
            found = _meet(join(entry, back), caps)
            if _includes(head, found):
                break
            head = _meet(join(head, found) if passes < 1 else _widen(head, found), caps)
            passes += 1
        out = self.refine(loop.cond, head, False)
        for state in breaks:
            out = join(out, state)
        return out

    def caps(self, loop: ast.While, entry: State) -> State:
        """The interval each counter of ``loop`` keeps at its head."""
        writes: dict[str, list | None] = {}  # name -> [literals, up, down]
        for stmt in statements(loop.body):
            if not isinstance(stmt, (ast.Assign, ast.AugAssign)):
                continue
            seen = writes.setdefault(stmt.name, [[], 0, 0])
            if seen is None:
                continue
            value = _literal(stmt.value)
            if value is None:
                writes[stmt.name] = None
            elif isinstance(stmt, ast.Assign):
                seen[0].append(value)
            elif value >= 0 and set(self.ops(stmt)) <= {"+=", "-="}:
                for op in self.ops(stmt):
                    seen[1 if op == "+=" else 2] = max(seen[1 if op == "+=" else 2], value)
            else:
                writes[stmt.name] = None
        caps = {}
        for name, seen in writes.items():
            if seen is None:
                continue
            lo, hi = entry.get(name, TOP)
            lo = min([lo] + seen[0]) - seen[2] * self.bound
            hi = max([hi] + seen[0]) + seen[1] * self.bound
            # inside int64, no increment wraps; past it, one may, and
            # then the counter can hold any value
            if INT_MIN <= lo and hi <= INT_MAX and (lo, hi) != TOP:
                caps[name] = lo, hi
        return caps


def _meet(state: State | None, caps: State) -> State | None:
    if state is None or not caps:
        return state
    state = dict(state)
    for name, cap in caps.items():
        lo, hi = state.get(name, TOP)
        state[name] = max(lo, cap[0]), min(hi, cap[1])
    return state


def analyse(stmt: ast.Stmt, bound: int, switch=None,
            blind=frozenset()) -> Facts | None:
    """The facts of top-level statement ``stmt``, entered with every
    variable anywhere in int64; None when the analysis gives up.

    ``bound`` bounds the steps of any run of the code (see the module
    docstring).  ``switch``, a node of ``stmt`` and operators, makes that
    node each of the operators; it and the relational nodes whose ids are
    in ``blind`` refine nothing, and those in ``blind`` may take either
    truth value."""
    analysis = _Analysis(bound, switch, blind)
    try:
        analysis.block((stmt,), {})
    except _GiveUp:
        return None
    return analysis.facts
