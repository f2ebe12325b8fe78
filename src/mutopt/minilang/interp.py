"""Execution engine for MiniImp with an exact, deterministic step count.

The AST is translated once into a plain Python function and executed with
native integers; 64-bit wrapping is enforced by range checks that only pay
for themselves when a value actually leaves the representable range.

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

A run can also stop early as over budget, with the same result: once its
step count passes ``arm``, the head of each loop without ``break`` or
nested ``while`` checks with Brent's cycle detection whether the values of
the loop's slice (``loop_slice``) repeat within the current entry of the
loop.  A repeat proves that the loop never exits, so the run would have
exceeded any budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import ast_nodes as ast
from .ast_nodes import MiniProgram

_INT_MAX = 2**63 - 1
_INT_MIN = -(2**63)


class MiniRuntimeError(Exception):
    """Division/modulo by zero or an out-of-bounds array read."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.message = message
        self.line = line


class BudgetExceeded(Exception):
    """The run consumed more steps than its budget."""


@dataclass(frozen=True)
class MiniRunResult:
    output: bytes  # decimal values, one per line, no trailing newline
    steps: int


def _wrap(v: int) -> int:
    return ((v + 9223372036854775808) & 18446744073709551615) - 9223372036854775808


def _over():
    raise BudgetExceeded()


def _cycle(state, key: tuple, steps: int, budget: int):
    """One armed loop-head check.

    Raises BudgetExceeded past the budget or when ``key`` equals the saved
    slice state; otherwise returns the detector ``state``, ``[saved key,
    power, lam]`` of Brent's cycle detection (Brent 1980), for the next
    iteration.  ``state`` is None at the first check of a loop entry.
    """
    if steps > budget or (state is not None and key == state[0]):
        raise BudgetExceeded()
    if state is None:
        return [key, 1, 0]
    state[2] += 1
    if state[2] == state[1]:
        state[0] = key
        state[1] *= 2
        state[2] = 0
    return state


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


def _statements(stmts: Sequence[ast.Stmt]):
    """Every statement of ``stmts``, including those in ``if`` branches at
    any depth, in source order (a nested ``while`` is yielded, not entered)."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _statements(stmt.then_body)
            yield from _statements(stmt.else_body)


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
            used = _variables(stmt.value, set())
            crash = _can_crash(stmt.value)
            if isinstance(stmt, ast.AugAssign):
                used.add(stmt.name)
                crash = crash or stmt.op in ("/=", "%=")
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


class _CodeGen:
    def __init__(self):
        self.lines: list[str] = []
        self.indent = 1
        self.temp = 0
        self.pending = 0  # batched step cost awaiting a flush

    def emit(self, line: str):
        self.lines.append("    " * self.indent + line)

    def new_temp(self) -> str:
        self.temp += 1
        return f"_t{self.temp}"

    def flush(self):
        if self.pending:
            self.emit(f"_s += {self.pending}")
            self.pending = 0

    # ---- expressions: return a side-effect-free Python atom ----

    def gen_expr(self, node: ast.Expr) -> str:
        if isinstance(node, ast.IntLit):
            return repr(node.value)
        if isinstance(node, ast.Var):
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
            self.emit(f"if {t} > {_INT_MAX}: {t} = _wrap({t})")
            return t
        if isinstance(node, ast.BinOp):
            a = self.gen_expr(node.left)
            b = self.gen_expr(node.right)
            return self.gen_binop(node.op, a, b, node.line)
        raise TypeError(f"unknown expression node {node!r}")

    def gen_binop(self, op: str, a: str, b: str, line: int) -> str:
        t = self.new_temp()
        if op in ("+", "-", "*"):
            self.emit(f"{t} = {a} {op} {b}")
            self.emit(f"if {t} > {_INT_MAX} or {t} < {_INT_MIN}: {t} = _wrap({t})")
        elif op == "/":
            self.emit(f"if {b} == 0: _div0({line})")
            self.emit(f"{t} = {a} // {b}")
            self.emit(f"if {t} < 0 and {t} * {b} != {a}: {t} += 1")
            self.emit(f"if {t} > {_INT_MAX}: {t} = _wrap({t})")
        elif op == "%":
            self.emit(f"if {b} == 0: _div0({line})")
            self.emit(f"{t} = {a} % {b}")
            self.emit(f"if {t} != 0 and ({t} < 0) != ({a} < 0): {t} -= {b}")
        elif op == "<<":
            self.emit(f"{t} = {a} << ({b} & 63)")
            self.emit(f"if {t} > {_INT_MAX} or {t} < {_INT_MIN}: {t} = _wrap({t})")
        elif op == ">>":
            self.emit(f"{t} = {a} >> ({b} & 63)")
        elif op in ("&", "|", "^"):
            self.emit(f"{t} = {a} {op} {b}")
        elif op in ("<", "<=", ">", ">=", "==", "!="):
            self.emit(f"{t} = 1 if {a} {op} {b} else 0")
        elif op == "&&":
            self.emit(f"{t} = 1 if ({a} != 0 and {b} != 0) else 0")
        elif op == "||":
            self.emit(f"{t} = 1 if ({a} != 0 or {b} != 0) else 0")
        else:
            raise ValueError(f"unknown operator {op!r}")
        return t

    # ---- statements ----

    def gen_body(self, stmts: Sequence[ast.Stmt]):
        if not stmts:
            self.emit("pass")
            return
        for stmt in stmts:
            self.gen_stmt(stmt)
        self.flush()

    def gen_stmt(self, stmt: ast.Stmt):
        if isinstance(stmt, ast.Assign):
            self.pending += 1 + expr_cost(stmt.value)
            atom = self.gen_expr(stmt.value)
            self.emit(f"v_{stmt.name} = {atom}")
        elif isinstance(stmt, ast.AugAssign):
            self.pending += 2 + expr_cost(stmt.value)  # statement + combining op
            atom = self.gen_expr(stmt.value)
            result = self.gen_binop(stmt.op[0], f"v_{stmt.name}", atom, stmt.line)
            self.emit(f"v_{stmt.name} = {result}")
        elif isinstance(stmt, ast.Print):
            self.pending += 1 + expr_cost(stmt.value)
            atom = self.gen_expr(stmt.value)
            self.emit(f"_out_append({atom})")
        elif isinstance(stmt, ast.Continue):
            self.pending += 1
            self.flush()
            self.emit("continue")
        elif isinstance(stmt, ast.Break):
            self.pending += 1
            self.flush()
            self.emit("break")
        elif isinstance(stmt, ast.If):
            self.flush()
            self.emit(f"_s += {1 + expr_cost(stmt.cond)}")
            atom = self.gen_expr(stmt.cond)
            self.emit(f"if {atom}:")
            self.indent += 1
            self.gen_body(stmt.then_body)
            self.indent -= 1
            if stmt.else_body:
                self.emit("else:")
                self.indent += 1
                self.gen_body(stmt.else_body)
                self.indent -= 1
        elif isinstance(stmt, ast.While):
            self.flush()
            key = loop_slice(stmt)
            if key is None:
                check = "if _s > _budget: _over()"
            else:
                # a fresh detector per loop entry: states of earlier entries
                # prove nothing about this one
                d = self.new_temp()
                self.emit(f"{d} = None")
                state = "".join(f"v_{name}, " for name in key)
                check = f"if _s > _arm: {d} = _cycle({d}, ({state}), _s, _budget)"
            self.emit("while True:")
            self.indent += 1
            self.emit(f"_s += {1 + expr_cost(stmt.cond)}")
            self.emit(check)
            atom = self.gen_expr(stmt.cond)
            self.emit(f"if not {atom}: break")
            self.gen_body(stmt.body)
            self.indent -= 1
        else:
            raise TypeError(f"unknown statement node {stmt!r}")


def generate_source(program: MiniProgram) -> str:
    """Python source of the execution function, exposed for inspection."""
    gen = _CodeGen()
    gen.lines.append("def _mini(_in, _budget, _arm):")
    gen.emit("_s = 0")
    gen.emit("_out = []")
    gen.emit("_out_append = _out.append")
    gen.emit("_in_len = len(_in)")
    for name in program.variables:
        gen.emit(f"v_{name} = 0")
    gen.gen_body(program.body)
    gen.emit("if _s > _budget: _over()")
    gen.emit("return _out, _s")
    return "\n".join(gen.lines) + "\n"


class CompiledMini:
    """A MiniImp program lowered to a Python function."""

    def __init__(self, program: MiniProgram):
        namespace = {"_wrap": _wrap, "_over": _over, "_cycle": _cycle,
                     "_div0": _div0, "_oob": _oob}
        exec(compile(generate_source(program), "<mini>", "exec"), namespace)
        self._fn = namespace["_mini"]

    def run(self, input_values: Sequence[int], step_budget: int,
            arm: int | None = None) -> MiniRunResult:
        """Raises BudgetExceeded past ``step_budget`` steps, or earlier when
        a loop's slice state repeats after ``arm`` steps; the default arms
        at the budget, which detects nothing."""
        if step_budget <= 0:
            raise ValueError("step_budget must be positive")
        values = tuple(int(v) for v in input_values)
        out, steps = self._fn(values, step_budget,
                              step_budget if arm is None else arm)
        output = "\n".join(map(str, out)).encode("ascii")
        return MiniRunResult(output=output, steps=steps)


def compile_program(program: MiniProgram) -> CompiledMini:
    return CompiledMini(program)


def eval_mini(program: MiniProgram, input_values: Sequence[int],
              step_budget: int) -> MiniRunResult:
    """Run ``program`` on one input sequence.

    Deterministic: identical (program, input) pairs produce identical output
    and identical step counts.  Raises BudgetExceeded past the step budget
    and MiniRuntimeError on division by zero or out-of-bounds reads.
    """
    return compile_program(program).run(input_values, step_budget)
