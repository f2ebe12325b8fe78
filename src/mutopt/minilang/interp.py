"""Execution engine for MiniImp with an exact, deterministic step count.

The AST is translated into plain Python functions and executed with native
integers; 64-bit wrapping is enforced by range checks on the int64 bounds
that a result can pass.  Each top-level statement becomes one function,
which takes the step count and the variables the statement names as
parameters, so they are fast locals, and returns them; a driver calls the statement functions in order.  A
mutant that swaps one operator changes one statement and shares the other
functions and the driver's code with the program it derives from
(``CompiledMini.with_code``).  That statement runs a schema
(``statement_code`` with a switch): its function compiled once for all
the operators of the mutant's site, where only the switched operator tests
``_K``, a parameter whose default is the mutant's operator.

Cost model, counted in ``steps``:

  * every executed statement costs 1 (a ``while`` counts 1 per condition
    evaluation, including the final false one; an ``if`` counts 1 per
    execution),
  * every binary or unary operator evaluation costs 1 (``&&``/``||``
    evaluate both operands, so expression costs are data-independent),
  * every read of ``in[...]`` costs 1.

Arithmetic follows two's-complement int64: ``/`` truncates toward zero,
``%`` takes the dividend's sign, shift counts are masked to 0..63, and
division or modulo by zero and out-of-range array reads raise
MiniRuntimeError.  The step budget is checked at every loop-condition
evaluation and once at program exit.

The generated code keeps the step count in ``_s``, which is exact at every
loop head, at the end of each top-level statement and at exit; a crash
reports no steps.  Costs are added in batches: the simple statements that
end a loop body are paid at the loop's next head, so the first head's share
is taken back before the loop and a ``continue`` pays less.  Per MiniImp
step the code pays only for what the cost model needs:

  * a ``while`` or ``if`` condition is tested in place (``a < b``, or
    ``a != 0 and b != 0`` for ``&&``), with no 0/1 value;
  * an operation checks only the int64 bounds its exact result can pass,
    by the statement's interval facts (``minilang.ranges``): ``aux - 1``
    under ``aux > 0`` and ``count += 1`` from 0 need no check, and
    ``x + c`` with a literal ``c`` checks only the upper bound;
  * the largest subexpressions of a loop condition that have an operator,
    cannot crash (no ``/``, ``%`` or ``in[...]``), have no relational or
    logical operator and read no variable the loop assigns are computed
    once per entry of the loop, before it; their steps are still paid at
    every head;
  * an assignment of a binary operator other than ``/`` and ``%``, and a
    shortcut assignment other than ``/=`` and ``%=``, stores the result in
    its variable and wraps it there.

The facts are sound for every run the code can make.  Each top-level
statement is analysed on its own, from any int64 values, so a mutant that
shares a statement's function shares facts that hold whatever ran before
it; a schema's switched node takes the join of its operators; code with
hooks is analysed with each checked relational node refining nothing and
taking either truth value, since a forked run flips one; the shadow
functions keep every check.  A loop counter's facts (a variable the loop
writes only with literals and literal increments) come from the largest
budget the code may run under, ``CompiledMini``'s ``budget``, which
``run`` enforces; under a budget too large to bound them, they keep their
checks.

A run can also stop early as over budget, with the same result.  The head
of each loop without ``break`` or nested ``while`` checks with Brent's
cycle detection whether the values of the loop's slice (``loop_slice``)
repeat within the current entry of the loop; a repeat proves that the loop
never exits, so the run would have exceeded any budget.  ``arm`` is the
stride of these checks: each entry of such a loop sets its check point
``arm`` steps ahead (never past the budget), and the first head past it
checks and moves it ``arm`` steps on.  So an entry makes at most one check
per ``arm`` steps, and one shorter than ``arm`` steps makes none.  Checking
only some heads keeps the proof: any two heads of one entry with equal
slice values prove it, and since the next check depends only on the state
at the last one, the checked heads of a looping entry repeat too, which the
detector finds.  ``CYCLE_STRIDE`` is the stride the mini backend uses.

The generator takes optional hooks that add code where an operator's
operands are ready and before each assignment or print, without changing
the step count or the output; ``minilang.instrument`` uses them to run the
original once and decide mutants from that run.  Code generated with hooks
reads the budget from its globals, not from a parameter, so a run can
lower it midway.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Sequence

from . import ast_nodes as ast
from . import ranges
from .ast_nodes import MiniProgram
from .parser import CompileError
from .ranges import INT_MAX as _INT_MAX, INT_MIN as _INT_MIN
from .ranges import statements as _statements, wrap as _wrap

# The mini backend's ``arm``: steps between two cycle checks within one
# loop entry.  An entry shorter than this makes no check, and one that never
# ends stops within a few strides.
CYCLE_STRIDE = 512

# Steps into the original's instrumented run before a mutant infected there
# may run on in a forked copy of it (``minilang.instrument``): a fork and
# reap costs about 2.5 ms of CPU, the time of some 10^5 steps.
FORK_STEPS = 1 << 20


class MiniRuntimeError(Exception):
    """Division/modulo by zero or an out-of-bounds array read."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.message = message
        self.line = line


class BudgetExceeded(Exception):
    """The run consumed more steps than its budget, or was proved never to
    end; ``steps`` is the step count where it stopped, None when unknown.
    The message is empty either way, so the two stops compare equal."""

    def __init__(self, steps: int | None = None):
        super().__init__()
        self.steps = steps


@dataclass(frozen=True)
class MiniRunResult:
    output: bytes  # decimal values, one per line, no trailing newline
    steps: int


def _over(steps: int):
    raise BudgetExceeded(steps)


def _cycle(state, key: tuple, steps: int, budget: int, arm: int):
    """One loop-head check, made at the first head past the entry's check
    point.

    Raises BudgetExceeded past the budget or when ``key`` equals the saved
    slice state.  Otherwise returns the detector ``state``, ``[saved key,
    power, lam]`` of Brent's cycle detection (Brent 1980), and the next check
    point, ``arm`` steps on but not past the budget.  ``state`` is None at
    the first check of a loop entry.
    """
    if steps > budget or (state is not None and key == state[0]):
        raise BudgetExceeded(steps)
    point = min(steps + arm, budget)
    if state is None:
        return [key, 1, 0], point
    state[2] += 1
    if state[2] == state[1]:
        state[0] = key
        state[1] *= 2
        state[2] = 0
    return state, point


def _div0(line: int):
    raise MiniRuntimeError("division by zero", line)


def _oob(line: int):
    raise MiniRuntimeError("array read out of bounds", line)


def expr_cost(node: ast.Expr) -> int:
    """Operator evaluations plus array reads in one evaluation of ``node``."""
    if isinstance(node, (ast.IntLit, ast.Var, ast.InLen)):
        return 0
    if isinstance(node, ast.ArrayRead):
        return 1 + expr_cost(node.index)
    if isinstance(node, ast.UnaryOp):
        return 1 + expr_cost(node.operand)
    if isinstance(node, ast.BinOp):
        return 1 + expr_cost(node.left) + expr_cost(node.right)
    raise TypeError(f"unknown expression node {node!r}")


def _variables(node: ast.Expr, names: set[str]) -> set[str]:
    """Add the variables ``node`` reads to ``names`` and return it."""
    if isinstance(node, ast.Var):
        names.add(node.name)
    elif isinstance(node, ast.ArrayRead):
        _variables(node.index, names)
    elif isinstance(node, ast.UnaryOp):
        _variables(node.operand, names)
    elif isinstance(node, ast.BinOp):
        _variables(node.left, names)
        _variables(node.right, names)
    return names


def _reads(stmt: ast.Stmt) -> set[str]:
    """The variables an assignment or print reads: a shortcut assignment
    its target too."""
    names = _variables(stmt.value, set())
    if isinstance(stmt, ast.AugAssign):
        names.add(stmt.name)
    return names


def _can_crash(node: ast.Expr) -> bool:
    if isinstance(node, ast.ArrayRead):
        return True
    if isinstance(node, ast.UnaryOp):
        return _can_crash(node.operand)
    if isinstance(node, ast.BinOp):
        return node.op in ("/", "%") or _can_crash(node.left) or _can_crash(node.right)
    return False


def loop_slice(loop: ast.While) -> tuple[str, ...] | None:
    """The variables that decide whether ``loop`` exits or crashes and that
    its body assigns, sorted; None when the body holds a ``break`` or a
    nested ``while`` at any depth.

    The slice starts from the variables of the loop condition, of every
    ``if`` condition in the body, and of every statement that can crash
    (``/``, ``%``, ``in[...]``, ``/=``, ``%=``).  It is closed under the
    body's assignments: a slice variable's assignment adds the variables of
    its right-hand side, and its own for a shortcut assignment.  Variables
    the body does not assign are constant during the loop and input is
    read-only, so the state at the next loop head is a function of the
    returned variables' values: if those repeat, the loop never exits.
    """
    body = list(_statements(loop.body))
    if any(isinstance(stmt, (ast.Break, ast.While)) for stmt in body):
        return None
    names = _variables(loop.cond, set())
    reads: dict[str, set[str]] = {}  # assigned variable -> what it depends on
    for stmt in body:
        if isinstance(stmt, ast.If):
            _variables(stmt.cond, names)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Print)):
            used = _reads(stmt)
            crash = _can_crash(stmt.value) or (isinstance(stmt, ast.AugAssign)
                                               and stmt.op in ("/=", "%="))
            if not isinstance(stmt, ast.Print):
                reads.setdefault(stmt.name, set()).update(used)
            if crash:
                names |= used
    grown = True
    while grown:
        grown = False
        for name, used in reads.items():
            if name in names and not used <= names:
                names |= used
                grown = True
    return tuple(sorted(names & reads.keys()))


_SIMPLE = (ast.Assign, ast.AugAssign, ast.Print)
_TESTS = ("<", "<=", ">", ">=", "==", "!=", "&&", "||")


def _stmt_cost(stmt: ast.Stmt) -> int:
    """Steps of one execution of a simple statement: 1, its value's
    operators and reads, and a shortcut assignment's combining operator."""
    return (2 if isinstance(stmt, ast.AugAssign) else 1) + expr_cost(stmt.value)


def _tail_cost(body: Sequence[ast.Stmt]) -> int:
    """Summed cost of the simple statements that end ``body``."""
    tail = 0
    for stmt in reversed(body):
        if not isinstance(stmt, _SIMPLE):
            break
        tail += _stmt_cost(stmt)
    return tail


def _test(op: str, a: str, b: str) -> str:
    """The Python boolean expression of a relational or logical operator."""
    if op == "&&":
        return f"{a} != 0 and {b} != 0"
    if op == "||":
        return f"{a} != 0 or {b} != 0"
    return f"{a} {op} {b}"


def _cost_bound(stmt: ast.Stmt) -> int:
    """A bound of the steps a run takes in top-level statement ``stmt``
    past its last budget check: every loop head checks, so at most each of
    its statements and conditions once."""
    return sum(_stmt_cost(s) if isinstance(s, _SIMPLE)
               else 1 + expr_cost(s.cond) if isinstance(s, (ast.If, ast.While)) else 1
               for s in _statements((stmt,)))


class _CodeGen:
    """``hooks``, when set, adds code for instrumentation: its ``site(gen,
    node, a, b)`` emits lines where a binary or shortcut-assignment operator
    ``node`` has its operands in atoms ``a`` and ``b`` and is not yet
    evaluated, and may return a Python boolean expression that the node, a
    relational operator, then takes as its test; its ``statement(gen,
    stmt)`` emits lines before each assignment or print.  A variable in
    ``shadowed`` reads from the dict ``_w``.
    ``switch``, a node and operators, makes a schema: that node evaluates
    whichever of the operators the variable ``_K`` holds.
    ``facts`` (``ranges.Facts``) drops each overflow check whose side the
    exact result cannot reach; without them, or at a node they do not
    cover, every check stays."""

    def __init__(self, hooks=None, shadowed=frozenset(), switch=None, facts=None):
        self.lines: list[str] = []
        self.indent = 1
        self.temp = 0
        self.pending = 0  # batched step cost awaiting a flush
        self.tail = 0  # the innermost loop's tail cost, paid at its next head
        self.hooks = hooks
        self.shadowed = shadowed
        self.switch_node, self.switch_ops = switch or (None, ())
        self.facts = facts
        self.hoisted: dict[int, str] = {}  # id of a loop-invariant node -> its atom

    def emit(self, line: str):
        self.lines.append("    " * self.indent + line)

    def new_temp(self) -> str:
        self.temp += 1
        return f"_t{self.temp}"

    def flush(self):
        if self.pending > 0:
            self.emit(f"_s += {self.pending}")
        elif self.pending < 0:
            self.emit(f"_s -= {-self.pending}")
        self.pending = 0

    # ---- expressions: return a side-effect-free Python atom ----

    def gen_expr(self, node: ast.Expr) -> str:
        if id(node) in self.hoisted:
            return self.hoisted[id(node)]
        if isinstance(node, ast.IntLit):
            return repr(node.value)
        if isinstance(node, ast.Var):
            if node.name in self.shadowed:
                return f"_w[{node.name!r}]"
            return f"v_{node.name}"
        if isinstance(node, ast.InLen):
            return "_in_len"
        if isinstance(node, ast.ArrayRead):
            idx = self.gen_expr(node.index)
            t = self.new_temp()
            self.emit(f"{t} = _in[{idx}] if 0 <= {idx} < _in_len else _oob({node.line})")
            return t
        if isinstance(node, ast.UnaryOp):
            a = self.gen_expr(node.operand)
            t = self.new_temp()
            self.emit(f"{t} = -{a}")
            self.checked(t, node, "neg")
            return t
        if isinstance(node, ast.BinOp):
            a = self.gen_expr(node.left)
            b = self.gen_expr(node.right)
            test = self.probe(node, a, b)
            t = self.new_temp()
            for op in self.branches(node):
                self.gen_binop(node, op, a, b, t, test)
            return t
        raise TypeError(f"unknown expression node {node!r}")

    def gen_cond(self, node: ast.Expr) -> str:
        """A Python boolean expression for a ``while`` or ``if`` condition,
        with its operands generated first as atoms, left then right."""
        if isinstance(node, ast.BinOp) and node.op in _TESTS and node is not self.switch_node:
            a = self.gen_expr(node.left)
            b = self.gen_expr(node.right)
            return self.probe(node, a, b) or _test(node.op, a, b)
        return self.gen_expr(node)

    def probe(self, node: ast.Node, a: str, b: str) -> str | None:
        """Emit the hooks' lines at ``node``; return the test they give it,
        if any."""
        if self.hooks is not None:
            return self.hooks.site(self, node, a, b)
        return None

    def branches(self, node: ast.Node):
        """The operators to emit ``node`` with: its own; at the switched
        node, each of the schema's, each behind its test of ``_K``."""
        if node is not self.switch_node:
            return (node.op,)
        return self._switch()

    def _switch(self):
        *ops, last = self.switch_ops
        for i, op in enumerate(ops):
            self.emit(f"{'el' if i else ''}if _K == {op!r}:")
            self.indent += 1
            yield op
            self.indent -= 1
        if ops:
            self.emit("else:")
            self.indent += 1
        yield last
        if ops:
            self.indent -= 1

    def store(self, var: str, node: ast.Node, op: str, a: str, b: str,
              test: str | None = None):
        """Emit ``var = a op b``: in ``var`` itself, but through a temporary
        for ``/`` and ``%``, whose fix-ups read the operands."""
        if op in ("/", "%"):
            self.emit(f"{var} = {self.gen_binop(node, op, a, b)}")
        else:
            self.gen_binop(node, op, a, b, var, test)

    def gen_binop(self, node: ast.Node, op: str, a: str, b: str,
                  target: str | None = None, test: str | None = None) -> str:
        """Emit ``a op b``, operator ``op`` at ``node``, into ``target``, or
        into a new temporary, and return it.  Only an operator whose fix-ups
        read nothing but the result takes a ``target``: not ``/`` or ``%``.
        A relational or logical operator takes ``test``, when given, as its
        test."""
        t = target or self.new_temp()
        if op in ("+", "-", "*", "&", "|", "^"):
            self.emit(f"{t} = {a} {op} {b}")
        elif op == "/":
            self.emit(f"if {b} == 0: _div0({node.line})")
            self.emit(f"{t} = {a} // {b}")
            self.emit(f"if {t} < 0 and {t} * {b} != {a}: {t} += 1")
        elif op == "%":
            self.emit(f"if {b} == 0: _div0({node.line})")
            self.emit(f"{t} = {a} % {b}")
            self.emit(f"if {t} != 0 and ({t} < 0) != ({a} < 0): {t} -= {b}")
        elif op in ("<<", ">>"):
            self.emit(f"{t} = {a} {op} ({b} & 63)")
        elif op in _TESTS:
            self.emit(f"{t} = 1 if {test or _test(op, a, b)} else 0")
        else:
            raise ValueError(f"unknown operator {op!r}")
        self.checked(t, node, op)
        return t

    def checked(self, t: str, node: ast.Node, op: str):
        """Emit the overflow check of ``t``, the exact result of operator
        ``op`` at ``node`` (``neg``: unary minus): a wrap on each int64
        bound it may pass."""
        found = self.facts and self.facts.results.get((id(node), op))
        if found is not None:
            low, high = found[0] < _INT_MIN, found[1] > _INT_MAX
        else:
            low, high = op in ("+", "-", "*", "<<"), op in ("+", "-", "*", "<<", "/", "neg")
        if low and high:
            self.emit(f"if {t} > {_INT_MAX} or {t} < {_INT_MIN}: {t} = _wrap({t})")
        elif high:
            self.emit(f"if {t} > {_INT_MAX}: {t} = _wrap({t})")
        elif low:
            self.emit(f"if {t} < {_INT_MIN}: {t} = _wrap({t})")

    def hoist(self, loop: ast.While):
        """Emit, before ``loop``, each largest subexpression of its
        condition that has an operator, cannot crash, has no relational or
        logical operator and reads no variable the loop assigns: the
        condition reads it from its atom, computed once per entry."""
        assigned = {stmt.name for stmt in _statements(loop.body)
                    if isinstance(stmt, (ast.Assign, ast.AugAssign))}

        def invariant(node) -> bool:
            if isinstance(node, ast.Var):
                return node.name not in assigned
            if isinstance(node, ast.UnaryOp):
                return invariant(node.operand)
            if isinstance(node, ast.BinOp):
                ops = self.switch_ops if node is self.switch_node else (node.op,)
                return (not any(op in _TESTS or op in ("/", "%") for op in ops)
                        and invariant(node.left) and invariant(node.right))
            return isinstance(node, (ast.IntLit, ast.InLen))

        def walk(node):
            if isinstance(node, (ast.UnaryOp, ast.BinOp)) and invariant(node):
                self.hoisted[id(node)] = self.gen_expr(node)
            else:
                for child in ("left", "right", "operand", "index"):
                    if hasattr(node, child):
                        walk(getattr(node, child))

        walk(loop.cond)

    # ---- statements ----

    def gen_body(self, stmts: Sequence[ast.Stmt]):
        if not stmts:
            self.emit("pass")
            return
        for stmt in stmts:
            self.gen_stmt(stmt)
        self.flush()

    def gen_stmt(self, stmt: ast.Stmt):
        if self.hooks is not None and isinstance(stmt, _SIMPLE):
            self.hooks.statement(self, stmt)
        if isinstance(stmt, ast.Assign):
            self.pending += _stmt_cost(stmt)
            value, var = stmt.value, f"v_{stmt.name}"
            if isinstance(value, ast.BinOp):
                a = self.gen_expr(value.left)
                b = self.gen_expr(value.right)
                test = self.probe(value, a, b)
                for op in self.branches(value):
                    self.store(var, value, op, a, b, test)
            else:
                self.emit(f"{var} = {self.gen_expr(value)}")
        elif isinstance(stmt, ast.AugAssign):
            self.pending += _stmt_cost(stmt)
            atom = self.gen_expr(stmt.value)
            var = f"v_{stmt.name}"
            self.probe(stmt, var, atom)
            for op in self.branches(stmt):
                self.store(var, stmt, op[:-1], var, atom)
        elif isinstance(stmt, ast.Print):
            self.pending += _stmt_cost(stmt)
            self.emit(f"_out_append({self.gen_expr(stmt.value)})")
        elif isinstance(stmt, ast.Continue):
            self.pending += 1 - self.tail  # the next head pays the tail
            self.flush()
            self.emit("continue")
        elif isinstance(stmt, ast.Break):
            self.pending += 1
            self.flush()
            self.emit("break")
        elif isinstance(stmt, ast.If):
            self.pending += 1 + expr_cost(stmt.cond)
            self.flush()
            self.emit(f"if {self.gen_cond(stmt.cond)}:")
            self.indent += 1
            self.gen_body(stmt.then_body)
            self.indent -= 1
            if stmt.else_body:
                self.emit("else:")
                self.indent += 1
                self.gen_body(stmt.else_body)
                self.indent -= 1
        elif isinstance(stmt, ast.While):
            # Each head pays the tail of the iteration before it, so the
            # first head's share is taken back here, the body ends without
            # a flush and a ``continue`` flushes less the tail: ``_s`` is
            # exact at every head and after the loop.
            tail = _tail_cost(stmt.body)
            self.pending -= tail
            self.flush()
            self.hoist(stmt)
            key = loop_slice(stmt)
            if key is None:
                check = "if _s > _budget: _over(_s)"
            else:
                # a fresh detector and check point per loop entry: states of
                # earlier entries prove nothing about this one, and a short
                # entry makes no check at all
                d, p = self.new_temp(), self.new_temp()
                self.emit(f"{d} = None")
                self.emit(f"{p} = _s + _arm")
                self.emit(f"if {p} > _budget: {p} = _budget")
                state = "".join(f"v_{name}, " for name in key)
                check = f"if _s > {p}: {d}, {p} = _cycle({d}, ({state}), _s, _budget, _arm)"
            self.emit("while True:")
            self.indent += 1
            self.emit(f"_s += {1 + expr_cost(stmt.cond) + tail}")
            self.emit(check)
            self.emit(f"if not ({self.gen_cond(stmt.cond)}): break")
            outer, self.tail = self.tail, tail
            for inner in stmt.body:
                self.gen_stmt(inner)
            self.pending = 0  # the tail, paid at the next head
            self.tail = outer
            self.indent -= 1
        else:
            raise TypeError(f"unknown statement node {stmt!r}")


def _names(stmts: Sequence[ast.Stmt], names: set[str]) -> set[str]:
    """Add the variables ``stmts`` assign or read, at any depth, to
    ``names`` and return it."""
    for stmt in _statements(stmts):
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            names.add(stmt.name)
        if isinstance(stmt, (ast.If, ast.While)):
            _variables(stmt.cond, names)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Print)):
            _variables(stmt.value, names)
    return names


def _signature(stmt: ast.Stmt) -> tuple[str, ...]:
    return tuple(sorted(_names((stmt,), set())))


_CONTEXT = "_in, _in_len, _out, _out_append, _budget, _arm"
# with hooks: the budget is a global, which the driver sets
_HOOKED_CONTEXT = "_in, _in_len, _out, _out_append, _arm"


def _state(names: Sequence[str]) -> str:
    return "_s" + "".join(f", v_{name}" for name in names)


def _statement_source(stmt: ast.Stmt, index: int, names: Sequence[str], budget: int,
                      hooks=None, switch=None) -> str:
    """The function of top-level statement ``index``: it takes the run's
    context, the step count and the variables ``names``, and returns the
    last two.  With ``switch`` (see ``_CodeGen``) it also takes ``_K``.
    Its overflow checks are those that ``stmt``'s facts keep, under runs
    of at most ``budget`` steps; instrumented by ``hooks``, its ``blind``
    relational nodes refine nothing and may take either truth value
    (``ranges.analyse``)."""
    facts = ranges.analyse(stmt, budget + _cost_bound(stmt), switch,
                           getattr(hooks, "blind", frozenset()))
    gen = _CodeGen(hooks, switch=switch, facts=facts)
    k = "" if switch is None else ", _K"
    context = _CONTEXT if hooks is None else _HOOKED_CONTEXT
    gen.lines.append(f"def _st{index}({context}, {_state(names)}{k}):")
    gen.gen_stmt(stmt)
    gen.flush()
    gen.emit(f"return {_state(names)}")
    return "\n".join(gen.lines) + "\n"


def generate_source(program: MiniProgram, budget: int, hooks=None) -> str:
    """Python source of the execution function, exposed for inspection.

    Each top-level statement becomes a function that takes and returns the
    step count and the variables the statement names, so they stay fast
    locals; the driver ``_mini`` calls them in order.  ``hooks`` instruments
    the code (see ``_CodeGen``), and then the budget is the global
    ``_budget``, which the driver sets from its argument.  The code is
    only sound under budgets of at most ``budget`` steps.
    """
    signatures = [_signature(stmt) for stmt in program.body]
    parts = [_statement_source(stmt, k, names, budget, hooks)
             for k, (stmt, names) in enumerate(zip(program.body, signatures))]
    context = _CONTEXT if hooks is None else _HOOKED_CONTEXT
    lines = (["def _mini(_in, _budget, _arm):"] if hooks is None else
             ["def _mini(_in, _limit, _arm):", "    global _budget", "    _budget = _limit"])
    lines += ["    _s = 0",
             "    _out = []",
             "    _out_append = _out.append",
             "    _in_len = len(_in)"]
    lines += [f"    v_{name} = 0" for name in program.variables]
    lines += [f"    {_state(names)} = _st{k}({context}, {_state(names)})"
              for k, names in enumerate(signatures)]
    lines += ["    if _s > _budget: _over(_s)",
              "    return _out, _s"]
    parts.append("\n".join(lines) + "\n")
    return "".join(parts)


_FUNCTION = re.compile(r"^(?=def )", re.MULTILINE)


def _exec(source: str, namespace: dict):
    try:
        code = compile(source, "<mini>", "exec")
    except SyntaxError as exc:  # past CPython's static limits: 21 nested loops
        raise CompileError(f"generated code exceeds CPython's limits: {exc.msg}",
                           0, 0) from exc
    exec(code, namespace)


class CompiledMini:
    """A MiniImp program lowered to Python functions; ``hooks`` instruments
    it (see ``_CodeGen``) and adds its ``namespace`` to the functions'
    globals.  ``budget`` is the largest step budget it may run under, which
    lets the code drop the overflow checks of loop counters."""

    def __init__(self, program: MiniProgram, budget: int, hooks=None):
        self.budget = budget
        self._signatures = [_signature(stmt) for stmt in program.body]
        self._namespace = {"_wrap": _wrap, "_over": _over, "_cycle": _cycle,
                           "_div0": _div0, "_oob": _oob}
        if hooks is not None:
            self._namespace.update(hooks.namespace)
        # one function at a time: at its peak, compiling the whole text at
        # once takes several times the memory (3.6 MB for the 53 functions
        # of the benchmark's wide program, against 0.6 MB for its driver)
        for function in _FUNCTION.split(generate_source(program, budget, hooks))[1:]:
            _exec(function, self._namespace)
        self._fn = self._namespace["_mini"]

    def statement_code(self, index: int, stmt: ast.Stmt, switch) -> CodeType:
        """The code of top-level statement ``index``'s schema for ``stmt``,
        which names no variable the old statement does not: ``switch`` is a
        node of ``stmt`` and operators, and the node's operator is the
        function's last argument ``_K``, one of those operators."""
        namespace = {}
        _exec(_statement_source(stmt, index, self._signatures[index], self.budget,
                                switch=switch), namespace)
        return namespace[f"_st{index}"].__code__

    def with_code(self, index: int, code: CodeType, op: str) -> "CompiledMini":
        """This program with the schema ``code`` as top-level statement
        ``index``'s function, ``op`` as its ``_K``, sharing the others and
        the driver's code."""
        clone = object.__new__(CompiledMini)
        clone.budget = self.budget
        clone._signatures = self._signatures
        clone._namespace = dict(self._namespace)
        clone._namespace[f"_st{index}"] = FunctionType(code, clone._namespace, None, (op,))
        clone._fn = FunctionType(self._fn.__code__, clone._namespace)
        return clone

    def run(self, input_values: Sequence[int], step_budget: int,
            arm: int | None = None) -> MiniRunResult:
        """Raises BudgetExceeded past ``step_budget`` steps, or earlier when
        a loop's slice state repeats within one entry of the loop, checked
        once per ``arm`` steps of the entry (0 checks every head).  The
        default stride is the budget, which detects nothing.  Raises
        ValueError for a budget above the one the code was generated for."""
        if step_budget <= 0:
            raise ValueError("step_budget must be positive")
        if step_budget > self.budget:
            raise ValueError(f"step_budget {step_budget} exceeds the {self.budget} "
                             "the program was compiled for")
        values = tuple(int(v) for v in input_values)
        out, steps = self._fn(values, step_budget,
                              step_budget if arm is None else arm)
        output = "\n".join(map(str, out)).encode("ascii")
        return MiniRunResult(output=output, steps=steps)


def compile_program(program: MiniProgram, budget: int) -> CompiledMini:
    """``program`` compiled to run under at most ``budget`` steps."""
    return CompiledMini(program, budget)


def eval_mini(program: MiniProgram, input_values: Sequence[int],
              step_budget: int) -> MiniRunResult:
    """Run ``program`` on one input sequence.

    Deterministic: identical (program, input) pairs produce identical output
    and identical step counts.  Raises BudgetExceeded past the step budget
    and MiniRuntimeError on division by zero or out-of-bounds reads.
    """
    return compile_program(program, step_budget).run(input_values, step_budget)
