"""Decide mutants from one instrumented run of the original.

A mutant here is the original with one binary operator (ROR, AOR) or one
shortcut assignment (ASR) replaced by another of the same shape: its
``Site`` is the statement, the path to the operator's node in it and the new
operator.  Every operator costs one step whatever it computes, so a mutant
runs exactly like the original up to the first execution of its site where
the new operator gives another value, or crashes where the original's does
not: it is *infected* there (weak mutation; Just, Ernst and Fraser, ISSTA
2014).  A mutant that is never infected on an input has the original's
output, steps and outcome on it.

Some mutants are decided even when infected.  Take the variables that the
statement holding the site assigns and close that set under assignment
across the whole program, the mutant's *slice*.  When no ``while`` or
``if`` condition reads the slice and the site is not itself in a condition,
the mutant is *data-only*: it takes the original's path, so it takes the
original's steps, and only the slice's values and the statements reading
them can differ.  The run keeps a shadow copy of the slice for each such
mutant and evaluates, next to the original, each statement that assigns or
reads it (the mutant's own version of the changed statement); that gives
the mutant's exact outcome (after AccMut's shared execution, Wang et al.,
ISSTA 2017).  A shadow statement that raises makes the outcome that crash,
even after a differing print, as in a real run.

``Instrumented`` generates the original's code once with these checks and
shadows (``interp._CodeGen`` hooks) and runs it per input, returning a
``Decision`` for each site it decides there.  A site turns its checks off
once all its mutants are infected.  The checks and shadows add no step,
change no variable of the original and print nothing, so each run is the
original's own run, with the same outcome, and the mini backend takes it as
the baseline instead of running the original plain as well.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Sequence

from . import ast_nodes as ast
from .ast_nodes import MiniProgram
from .interp import (CompiledMini, MiniRunResult, MiniRuntimeError, _CodeGen, _exec,
                     _names, _reads, _statements, _variables, _wrap)


# how a mutant's run was decided without running it
DECIDED_INHERITED = "inherited"  # never infected: the original's run
DECIDED_SHADOWED = "shadowed"  # data-only: the original's path, shadowed values


@dataclass(frozen=True)
class Decision:
    """A mutant's outcome on one input, decided without running it, and how
    (``DECIDED_INHERITED`` or ``DECIDED_SHADOWED``): its result, or the
    message of the ``MiniRuntimeError`` it raises.  ``steps`` is the
    original's steps on the input: a run under fewer may stop over budget
    where the original's does, so the decision holds only within them."""
    kind: str
    outcome: MiniRunResult | str
    steps: int


@dataclass(frozen=True)
class Site:
    """The operator at ``path`` in top-level statement ``statement`` becomes
    ``op``.  A path is the field names and tuple indices that lead from the
    statement to the operator's ``BinOp`` or ``AugAssign`` node."""
    statement: int
    path: tuple
    op: str


def operator_paths(stmt: ast.Stmt) -> dict[int, tuple]:
    """The path of every ``BinOp`` and ``AugAssign`` node in ``stmt``, by the
    node's id: equal nodes at two places have two paths."""
    paths = {}

    def walk(node, path):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            paths[id(node)] = path
        for f in fields(node):
            child = getattr(node, f.name)
            if isinstance(child, tuple):
                for i, item in enumerate(child):
                    walk(item, path + (f.name, i))
            elif is_dataclass(child):
                walk(child, path + (f.name,))

    walk(stmt, ())
    return paths


def node_at(node, path: tuple):
    for step in path:
        node = node[step] if isinstance(step, int) else getattr(node, step)
    return node


def with_op(node, path: tuple, op: str):
    """``node`` with the operator at ``path`` replaced by ``op``."""
    if not path:
        return replace(node, op=op)
    child = getattr(node, path[0])
    if isinstance(child, tuple):
        items = list(child)
        items[path[1]] = with_op(items[path[1]], path[2:], op)
        return replace(node, **{path[0]: tuple(items)})
    return replace(node, **{path[0]: with_op(child, path[1:], op)})


# the signs of a - b on which each relational operator holds, and the one
# comparison that holds on each proper subset of the signs
_SIGNS = {"<": {-1}, "<=": {-1, 0}, ">": {1}, ">=": {0, 1}, "==": {0}, "!=": {-1, 1}}
_HOLDS_ON = {frozenset(signs): op for op, signs in _SIGNS.items()}


def _differs(op: str, new: str, a: str, b: str) -> str:
    """A Python condition that holds where relational ``a op b`` and
    ``a new b`` differ."""
    signs = frozenset(_SIGNS[op] ^ _SIGNS[new])
    return "True" if len(signs) == 3 else f"{a} {_HOLDS_ON[signs]} {b}"


def _div(a: int, b: int) -> int | None:
    if b == 0:
        return None
    q = abs(a) // abs(b)
    return _wrap(q if (a < 0) == (b < 0) else -q)


def _mod(a: int, b: int) -> int | None:
    if b == 0:
        return None
    r = abs(a) % abs(b)
    return -r if a < 0 else r


# MiniImp's arithmetic operators on int64 values, None for a crash
_ARITHMETIC = {"+": lambda a, b: _wrap(a + b), "-": lambda a, b: _wrap(a - b),
               "*": lambda a, b: _wrap(a * b), "/": _div, "%": _mod}


def alternatives(op: str) -> tuple[str, ...]:
    """The operators a site may replace operator ``op`` by: the other
    relational operators, arithmetic ones or shortcut assignments."""
    if op.endswith("=") and op[:-1] in _ARITHMETIC:
        return tuple(f"{new}=" for new in _ARITHMETIC if new != op[:-1])
    return next((tuple(new for new in ops if new != op)
                 for ops in (_SIGNS, _ARITHMETIC) if op in ops), ())


class _Shadow:
    """One data-only mutant's slice values, its first crash and the prints
    of its shadow statements, (output line, value), during one run."""

    def __init__(self, names):
        self.env = dict.fromkeys(names, 0)
        self.error: str | None = None  # the message of the first crash
        self.prints: list[tuple[int, int]] = []


def _shade(entries, out, *args):
    """Evaluate one statement for every live shadow that holds it."""
    for shadow, fn in entries:
        if shadow.error is None:
            try:
                value = fn(shadow.env, *args)
            except MiniRuntimeError as exc:
                shadow.error = str(exc)
            else:
                if value is not None:
                    shadow.prints.append((len(out), value))


def _shadow_source(name: str, stmt: ast.Stmt, shadowed: frozenset,
                   params: Sequence[str]) -> str:
    """A function that evaluates ``stmt`` with the variables ``shadowed``
    in the dict ``_w`` and the others in its parameters: it stores an
    assignment in ``_w`` and returns a print's value."""
    gen = _CodeGen(shadowed=shadowed)
    gen.lines.append(f"def {name}(_w, _in, _in_len{''.join(', v_' + p for p in params)}):")
    if isinstance(stmt, ast.Print):
        gen.emit(f"return {gen.gen_expr(stmt.value)}")
    elif isinstance(stmt, ast.Assign):
        gen.emit(f"_w[{stmt.name!r}] = {gen.gen_expr(stmt.value)}")
    else:
        target = f"_w[{stmt.name!r}]"
        atom = gen.gen_expr(stmt.value)
        gen.emit(f"{target} = {gen.gen_binop(stmt.op[0], target, atom, stmt.line)}")
    return "\n".join(gen.lines) + "\n"


class Instrumented:
    """The original ``program`` generated once with the checks and shadows
    that decide each of ``sites``; ``run`` returns the original's run on an
    input and the ``Decision`` of each site there."""

    def __init__(self, program: MiniProgram, sites: Sequence[Site]):
        self.sites = list(sites)
        conditions: set[str] = set()
        simple = []  # (statement, variable it assigns or None, variables it reads)
        for stmt in _statements(program.body):
            if isinstance(stmt, (ast.If, ast.While)):
                _variables(stmt.cond, conditions)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Print)):
                simple.append((stmt, getattr(stmt, "name", None), _reads(stmt)))
        self._site_of: dict[int, int] = {}  # id of a checked node -> site number
        self._checks: list[list[tuple[int, str]]] = []  # per site: (mutant, new op)
        self._ops: list[str] = []  # per site: the original operator
        shadows = self._classify(program, simple, conditions)
        sources = self._plan_shadows(shadows, simple)
        self.program = CompiledMini(program, self)
        self._ns = self.program._namespace
        for source in sources:
            _exec(source, self._ns)
        self._infected: list[bool] = []
        self._live: list[int] = []

    def _classify(self, program, simple, conditions) -> dict[int, tuple]:
        """Give each mutant that is not data-only a check at its site, and
        return the data-only ones: mutant -> its slice, the statement it
        changes and its version of that statement."""
        assigns = [(target, reads) for _, target, reads in simple if target is not None]
        slices: dict[str | None, frozenset] = {}  # by the variable a statement assigns
        by_path: dict[tuple, int] = {}
        shadows = {}
        for j, site in enumerate(self.sites):
            top = program.body[site.statement]
            node = node_at(top, site.path)
            cut = max((i + 1 for i, step in enumerate(site.path) if isinstance(step, int)),
                      default=0)
            stmt = node_at(top, site.path[:cut])
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Print)):
                target = getattr(stmt, "name", None)
                if target not in slices:
                    slices[target] = frozenset(_closure({target} - {None}, assigns))
                if not slices[target] & conditions:
                    shadows[j] = (slices[target], stmt, with_op(stmt, site.path[cut:], site.op))
                    continue
            key = (site.statement, site.path)
            if key not in by_path:
                by_path[key] = len(self._checks)
                self._site_of[id(node)] = by_path[key]
                self._checks.append([])
                self._ops.append(node.op[:-1] if isinstance(node, ast.AugAssign) else node.op)
            new = site.op[:-1] if isinstance(node, ast.AugAssign) else site.op
            self._checks[by_path[key]].append((j, new))
        return shadows

    def _plan_shadows(self, shadows: dict[int, tuple], simple) -> list[str]:
        """Number the statements that assign or read a data-only mutant's
        slice, and give each the functions that evaluate it for those
        mutants: the mutant's own version of the statement it changes, else
        one function per set of variables read from the shadow.  Returns
        the functions' sources."""
        self._statement_of: dict[int, int] = {}  # id of a shadow statement -> number
        self._params: list[tuple[str, ...]] = []  # per number: the variables it names
        self._holders: list[list[tuple[int, str]]] = []  # per number: (mutant, function)
        members: dict[frozenset, list] = {}  # slice -> its statements and their reads
        sources: dict[tuple, tuple[str, str]] = {}  # (number, reads or mutant) -> name, code
        for j, (slice_, changed, version) in shadows.items():
            if slice_ not in members:
                members[slice_] = [(stmt, reads) for stmt, target, reads in simple
                                   if target in slice_ or reads & slice_]
            held = members[slice_]
            if not any(stmt is changed for stmt, _ in held):  # a print that reads no slice
                held = held + [(changed, _reads(changed))]
            for stmt, reads in held:
                if id(stmt) not in self._statement_of:
                    self._statement_of[id(stmt)] = len(self._params)
                    self._params.append(tuple(sorted(_names((stmt,), set()))))
                    self._holders.append([])
                n = self._statement_of[id(stmt)]
                shadowed = frozenset(reads & slice_)
                key = (n, j if stmt is changed else shadowed)
                if key not in sources:
                    name = f"_h{n}_{len(sources)}"
                    own = version if stmt is changed else stmt
                    sources[key] = name, _shadow_source(name, own, shadowed, self._params[n])
                self._holders[n].append((j, sources[key][0]))
        self._slices = {j: slice_ for j, (slice_, _, _) in shadows.items()}
        return [source for _, source in sources.values()]

    # ---- code generation hooks ----

    @property
    def namespace(self) -> dict:
        return {"_hit": self._hit, "_arithmetic": self._arithmetic, "_shade": _shade}

    def site(self, gen: _CodeGen, node, a: str, b: str):
        n = self._site_of.get(id(node))
        if n is None:
            return
        op = self._ops[n]
        if op not in _SIGNS:
            gen.emit(f"if _S{n}: _arithmetic({n}, {a}, {b})")
            return
        # inline, for a hot loop condition whose mutant is never infected
        gen.emit(f"if _S{n}:")
        gen.indent += 1
        for j, new in self._checks[n]:
            gen.emit(f"if _M{j} and {_differs(op, new, a, b)}: _hit({j}, {n})")
        gen.indent -= 1

    def statement(self, gen: _CodeGen, stmt):
        n = self._statement_of.get(id(stmt))
        if n is not None:
            args = "".join(f", v_{p}" for p in self._params[n])
            gen.emit(f"if _Z{n}: _shade(_Z{n}, _out, _in, _in_len{args})")

    def _arithmetic(self, n: int, a: int, b: int):
        """Check the mutants at arithmetic site ``n`` on operands ``a``, ``b``:
        a crash, None, differs from every value."""
        value = _ARITHMETIC[self._ops[n]](a, b)
        for j, new in self._checks[n]:
            if not self._infected[j] and _ARITHMETIC[new](a, b) != value:
                self._hit(j, n)

    def _hit(self, j: int, n: int):
        """Mutant ``j`` is infected at site ``n``."""
        self._infected[j] = True
        self._ns[f"_M{j}"] = False
        self._live[n] -= 1
        if self._live[n] == 0:
            self._ns[f"_S{n}"] = False

    # ---- runs ----

    def run(self, values: Sequence[int], budget: int,
            arm: int | None) -> tuple[MiniRunResult, list[Decision | None]]:
        """The original's run on ``values`` (``CompiledMini.run`` under
        ``budget`` and ``arm``), and each site's ``Decision`` there, or None
        where its mutant must run (it is infected and not data-only).
        Raises what the original's run raises; the checks and shadows add
        no step, so that is what the plain original raises."""
        self._infected = [False] * len(self.sites)
        self._live = [len(checks) for checks in self._checks]
        for n, checks in enumerate(self._checks):
            self._ns[f"_S{n}"] = True
            for j, _ in checks:
                self._ns[f"_M{j}"] = True
        shadows = {j: _Shadow(slice_) for j, slice_ in self._slices.items()}
        for n, holders in enumerate(self._holders):
            self._ns[f"_Z{n}"] = [(shadows[j], self._ns[name]) for j, name in holders]
        result = self.program.run(values, budget, arm)
        inherited = Decision(DECIDED_INHERITED, result, result.steps)
        decisions = []
        for j, infected in enumerate(self._infected):
            shadow = shadows.get(j)
            if shadow is None:
                decisions.append(None if infected else inherited)
            else:
                outcome = (_shadow_result(shadow, result) if shadow.error is None
                           else shadow.error)
                decisions.append(Decision(DECIDED_SHADOWED, outcome, result.steps))
        return result, decisions


def _closure(names: set[str], assigns) -> set[str]:
    """``names`` and every variable assigned from one of them, transitively."""
    grown = True
    while grown:
        grown = False
        for target, reads in assigns:
            if target not in names and reads & names:
                names.add(target)
                grown = True
    return names


def _shadow_result(shadow: _Shadow, reference: MiniRunResult) -> MiniRunResult:
    if not shadow.prints:
        return reference
    lines = reference.output.split(b"\n")
    for pos, value in shadow.prints:
        lines[pos] = str(value).encode("ascii")
    output = b"\n".join(lines)
    return reference if output == reference.output else MiniRunResult(output, reference.steps)
