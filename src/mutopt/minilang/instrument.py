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

A relational mutant of an ``if``'s whole condition (not inside ``&&`` or
``||``) can have a *branch shadow* instead.  Its region is the ``if``'s
arms and, when an arm ends in ``continue``, the rest of the loop body that
holds the ``if``; it must be straight-line: assignments, with no ``print``,
``break``, ``while`` or nested ``if``.  Take the variables the region
assigns that no condition reads and close that set under assignment, the
shadow's slice; no condition may read it either.  The shadow keeps the
slice like a data-only one.  Where the mutant's comparison differs, a
*flip*, it evaluates the mutant's path through the region on the slice,
every other variable being the original's, and skips its statements on the
original's path.  It also evaluates both paths' values of the variables
that the region assigns and a condition reads; where they differ, it gives
up and the mutant runs, or at its first flip, where the mutant's state is
still the original's, the mutant is infected as at a check and may fork.
So at every loop head the mutant holds the original's values of every
variable a condition depends on: outside the region it takes the
original's path and leaves each loop where the original does.  A loop
whose cycle key (``interp.loop_slice``) repeats within an entry never
leaves it, so no cycle check of the mutant's fresh run finds one.  Its steps
are the original's plus, per flip, its path's steps less the original's,
both constants of the cost model.  A crash on its path or in a shadow
statement makes its outcome that crash.  No budget check of its run sees
more than the original's steps plus the most those differences summed to
at any flip, so its ``DECIDED_SHADOWED`` decision, ok or crash, holds
within that.

A mutant infected late in a long run is decided a third way: the run forks
where it is first infected, and the child runs on as the mutant, so the
mutant runs only its suffix (AccMut's fork at first infection, Wang et al.,
ISSTA 2017).  Only a relational site forks: its check line holds exactly
where the original's comparison and the mutant's differ, so the child's
``_hit`` there flips the comparison.  Such a mutant keeps the original's
loop cycle keys, so the child checks the loop heads a fresh run of the
mutant checks.  It must be known alive on every earlier input of the run,
since its evaluation stops at the first one it fails.  The child turns
every other check and shadow off, runs under a lower bound of the mutant's
budget and reports through a pipe; the parent waits for it before it goes
on, so at most one child exists.

``Instrumented`` generates the original's code once with these checks and
shadows (``interp._CodeGen`` hooks) and runs it per input, returning a
``Decision`` for each site it decides there.  Some mutants are decided at
code generation: a relational mutant whose comparison differs from the
original's on no operands the interval facts allow at its site
(``minilang.ranges``) is never infected, so it gets no check and is
inherited on every input.  A site turns its checks off once none of its
mutants is left to check: each is infected or its branch shadow crashed.
The checks and shadows add no step, change no variable of the original and
print nothing, so each run is the original's own run, with the same
outcome, and the mini backend takes it as the baseline instead of running
the original plain as well.  The run also records the original's state on
entry to each top-level statement (``Instrumented.entries``): a mutant
whose site is in statement k runs the original's code on the original's
state up to there, so an executed run of it can start at k.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Sequence

from . import ast_nodes as ast
from . import interp
from .ast_nodes import MiniProgram
from .interp import (BudgetExceeded, CompiledMini, MiniRunResult, MiniRuntimeError, _CodeGen,
                     _exec, _names, _reads, _statements, _stmt_cost, _variables, _wrap)
from .ranges import RELATIONAL, differs_on, may_differ


# how a mutant's run was decided without running it
DECIDED_INHERITED = "inherited"  # never infected: the original's run
DECIDED_SHADOWED = "shadowed"  # data-only or a branch shadow: shadowed values
DECIDED_FORKED = "forked"  # its suffix, run in a fork of the original's run


@dataclass(frozen=True)
class Decision:
    """A mutant's outcome on one input, decided without running it, and how
    (``DECIDED_INHERITED``, ``DECIDED_SHADOWED`` or ``DECIDED_FORKED``): its
    result, the message of the ``MiniRuntimeError`` it raises, or None when
    it was proved never to end.  The decision holds within ``steps`` or
    more: a run under fewer may stop over budget earlier.  That is the
    original's steps on the input; for a branch shadow, those plus the
    most its flips' cost differences summed to at any flip, whether it
    ends ok or crashes; for a forked run, the bound it ran under."""
    kind: str
    outcome: MiniRunResult | str | None
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


def _differs(op: str, new: str, a: str, b: str) -> str:
    """A Python condition that holds where relational ``a op b`` and
    ``a new b`` differ."""
    where = differs_on(op, new)
    return "True" if where is None else f"{a} {where} {b}"


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
                 for ops in (RELATIONAL, _ARITHMETIC) if op in ops), ())


class _Shadow:
    """One mutant's slice values, its first crash and the prints of its
    shadow statements, (output line, value), during one run; for a branch
    shadow also its flips, its steps less the original's, the most those
    were after any flip, and how many of its statements to skip, those on
    the original's path through the region after a flip."""

    def __init__(self, names):
        self.env = dict.fromkeys(names, 0)
        self.error: str | None = None  # the message of the first crash
        self.prints: list[tuple[int, int]] = []
        self.flips = 0
        self.steps = 0
        self.peak = 0
        self.skip = 0


def _shade(entries, out, *args):
    """Evaluate one statement for every live shadow that holds it."""
    for shadow, fn in entries:
        if shadow.error is None:
            if shadow.skip:
                shadow.skip -= 1
                continue
            try:
                value = fn(shadow.env, *args)
            except MiniRuntimeError as exc:
                shadow.error = str(exc)
            else:
                if value is not None:
                    shadow.prints.append((len(out), value))


def _shadow_source(name: str, stmts: Sequence[ast.Stmt], shadowed: frozenset,
                   params: Sequence[str], returns: Sequence[str] | None = None) -> str:
    """A function that evaluates ``stmts`` in order with the variables
    ``shadowed`` in the dict ``_w`` and the others in its parameters: it
    stores an assignment in ``_w`` and returns a print's value, or, given
    ``returns``, stores one to a variable outside ``shadowed`` in its
    parameter and returns the tuple of those parameters' values."""
    gen = _CodeGen(shadowed=shadowed)
    gen.lines.append(f"def {name}(_w, _in, _in_len{''.join(', v_' + p for p in params)}):")
    for stmt in stmts:
        if isinstance(stmt, ast.Print):
            gen.emit(f"return {gen.gen_expr(stmt.value)}")
            continue
        target = (f"_w[{stmt.name!r}]" if returns is None or stmt.name in shadowed
                  else f"v_{stmt.name}")
        if isinstance(stmt, ast.Assign):
            gen.emit(f"{target} = {gen.gen_expr(stmt.value)}")
        else:
            atom = gen.gen_expr(stmt.value)
            gen.emit(f"{target} = {gen.gen_binop(stmt, stmt.op[:-1], target, atom)}")
    if returns is not None:
        gen.emit(f"return ({''.join(f'v_{kept}, ' for kept in returns)})")
    return "\n".join(gen.lines) + "\n"


def _region(top: ast.Stmt, path: tuple, conditions: set[str], assigns):
    """The branch shadow of the operator at ``path`` in ``top``: its slice
    and, by the truth of the condition, the statements of that path through
    the region and its steps; None unless the operator is relational, the
    whole condition of an ``if``, and the region is eligible (see the
    module docstring)."""
    if (not path or path[-1] != "cond" or node_at(top, path).op not in RELATIONAL
            or not isinstance(node_at(top, path[:-1]), ast.If)):
        return None
    where = path[:-1]
    stmt = node_at(top, where)
    arms = {True: stmt.then_body, False: stmt.else_body}
    jumps = {truth: bool(arm) and isinstance(arm[-1], ast.Continue)
             for truth, arm in arms.items()}
    rest = ()
    if any(jumps.values()):  # the rest of the innermost loop body
        loop = node_at(top, where[:-2]) if len(where) >= 2 else None
        if not isinstance(loop, ast.While):
            return None
        rest = loop.body[where[-1] + 1:]
    paths = {truth: arm[:-1] if jumps[truth] else arm + rest for truth, arm in arms.items()}
    if not all(isinstance(s, (ast.Assign, ast.AugAssign)) for s in paths[True] + paths[False]):
        return None
    written = {s.name for s in paths[True] + paths[False]}
    slice_ = frozenset(_closure(written - conditions, assigns))
    if slice_ & conditions:
        return None
    cost = {truth: jumps[truth] + sum(map(_stmt_cost, paths[truth])) for truth in paths}
    return slice_, paths, cost


class Instrumented:
    """The original ``program`` generated once, for runs of at most
    ``budget`` steps, with the checks and shadows that decide each of
    ``sites``; ``run`` returns the original's run on an input and the
    ``Decision`` of each site there."""

    def __init__(self, program: MiniProgram, sites: Sequence[Site], budget: int):
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
        # per branch-shadowed site: slice, statements and steps of each path
        self._regions: dict[int, tuple] = {}
        shadows = self._classify(program, simple, conditions)
        sources = self._plan_shadows(shadows, simple) + self._plan_paths(conditions)
        self.program = CompiledMini(program, budget, self)
        self._ns = self.program._namespace
        for source in sources:
            _exec(source, self._ns)
        self._branched = {j for j, (_, changed, _) in shadows.items() if changed is None}
        self._infected: list[bool] = []
        self._live: list[int] = []
        self._shadows: dict[int, _Shadow] = {}  # this run's, by mutant
        # per mutant: its run matched the original's on every input so far
        self._alive = [True] * len(self.sites)
        self._bound: Callable[[int], int] | None = None  # see ``run``
        self._forked: dict[int, Decision] = {}  # this run's, by mutant
        self._child: tuple[int, int] | None = None  # in a child: its pipe and bound
        # the last run's values printed and, per top-level statement, its
        # state on entry: steps, values printed so far and the variables
        self.printed: list[int] = []
        self.entries: list[tuple[int, int, tuple]] = []

    def _classify(self, program, simple, conditions) -> dict[int, tuple]:
        """Give each mutant that is not data-only a check at its site, and
        return the shadowed ones: mutant -> its slice, and for a data-only
        one the statement it changes and its version of that statement, or
        for a branch shadow None twice."""
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
                n = by_path[key] = len(self._checks)
                self._site_of[id(node)] = n
                self._checks.append([])
                self._ops.append(node.op[:-1] if isinstance(node, ast.AugAssign) else node.op)
                region = _region(top, site.path, conditions, assigns)
                if region is not None:
                    self._regions[n] = region
            n = by_path[key]
            new = site.op[:-1] if isinstance(node, ast.AugAssign) else site.op
            self._checks[n].append((j, new))
            if n in self._regions:
                shadows[j] = (self._regions[n][0], None, None)
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
            if changed is not None and not any(stmt is changed for stmt, _ in held):
                held = held + [(changed, _reads(changed))]  # a print that reads no slice
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
                    sources[key] = name, _shadow_source(name, (own,), shadowed, self._params[n])
                self._holders[n].append((j, sources[key][0]))
        self._slices = {j: slice_ for j, (slice_, _, _) in shadows.items()}
        return [source for _, source in sources.values()]

    def _plan_paths(self, conditions: set[str]) -> list[str]:
        """Give each branch-shadowed site, for each truth of the original's
        condition, a function that evaluates the mutant's other path on the
        shadow and returns the values of the variables that the region
        assigns and a condition reads, and where there are any, one that
        returns the original's; the region's variables outside the slice
        are their parameters (``_region_args``).  Each site's plan, by that
        truth, is the two functions' names, the mutant's steps less the
        original's, and how many shadow statements the original's path
        holds, which the shadow skips.  Returns the sources."""
        self._paths: dict[int, dict[bool, tuple]] = {}
        self._region_args: dict[int, tuple[str, ...]] = {}
        sources = []
        for n, (slice_, paths, cost) in self._regions.items():
            kept = sorted({s.name for s in paths[True] + paths[False]} & conditions)
            params = tuple(sorted(_names(paths[True] + paths[False], set()) - slice_))
            self._region_args[n] = params
            plan = self._paths[n] = {}
            for truth in (True, False):
                mine = f"_p{n}_{int(truth)}"
                sources.append(_shadow_source(mine, paths[not truth], slice_, params, kept))
                theirs = f"_q{n}_{int(truth)}" if kept else None
                if kept:
                    own = [s for s in paths[truth] if s.name in conditions]
                    sources.append(_shadow_source(theirs, own, slice_, params, kept))
                skip = sum(s.name in slice_ or bool(_reads(s) & slice_) for s in paths[truth])
                plan[truth] = mine, theirs, cost[not truth] - cost[truth], skip
        return sources

    # ---- code generation hooks ----

    @property
    def namespace(self) -> dict:
        return {"_hit": self._hit, "_branch": self._branch, "_arithmetic": self._arithmetic,
                "_shade": _shade, "_enter": self._enter}

    @property
    def blind(self) -> frozenset:
        """The ids of the checked relational nodes: a forked run flips one
        of them, so the code's facts hold with all of them refining
        nothing and taking either truth value."""
        return frozenset(node for node, n in self._site_of.items() if self._ops[n] in RELATIONAL)

    def site(self, gen: _CodeGen, node, a: str, b: str) -> str | None:
        n = self._site_of.get(id(node))
        if n is None:
            return None
        op = self._ops[n]
        if op not in RELATIONAL:
            gen.emit(f"if _S{n}: _arithmetic({n}, {a}, {b})")
            return None
        # a mutant whose comparison differs from the original's on no
        # operands the facts allow is never infected: it gets no check
        operands = gen.facts and gen.facts.operands.get(id(node))
        if operands is not None:
            self._checks[n] = [(j, new) for j, new in self._checks[n]
                               if may_differ(op, new, *operands)]
            if not self._checks[n]:
                return None
        # The site's test, with its checks inline, for a hot loop condition
        # whose mutant is never infected: each check calls ``_hit`` where
        # its mutant's comparison differs, and the test flips where one
        # returns True, in a forked child.  As a condition, Python compiles
        # it to jumps alone, so it costs the original's run no more than
        # checks apart from the test would.  At a branch-shadowed site each
        # check calls ``_branch`` instead, with the original's truth and the
        # region's variables outside the slice.
        test = f"{a} {op} {b}"
        if n in self._regions:
            args = "".join(f", v_{p}" for p in self._region_args[n])
            call = f"_branch({{}}, {n}, {test}, _s, _in, _in_len{args})"
        else:
            call = f"_hit({{}}, {n}, _s)"
        checks = " or ".join(f"_M{j} and {_differs(op, new, a, b)} and {call.format(j)}"
                             for j, new in self._checks[n])
        return f"(not ({test}) if _S{n} and ({checks}) else {test})"

    def _enter(self, steps: int, printed: list[int], variables: tuple):
        """The run's state on entry to its next top-level statement."""
        self.entries.append((steps, len(printed), variables))
        self.printed = printed

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
                self._infect(j, n)

    def _infect(self, j: int, n: int):
        """Mutant ``j`` is infected at site ``n``."""
        self._infected[j] = True
        self._off(j, n)

    def _off(self, j: int, n: int):
        """Turn mutant ``j``'s check at site ``n`` off."""
        self._ns[f"_M{j}"] = False
        self._live[n] -= 1
        if self._live[n] == 0:
            self._ns[f"_S{n}"] = False

    def _branch(self, j: int, n: int, taken: bool, steps: int, *args) -> bool:
        """A flip of branch-shadowed mutant ``j`` at site ``n``, ``steps``
        into the run: the original takes the path where the condition is
        ``taken``, the mutant the other one.  ``args`` are ``_in``,
        ``_in_len`` and the region's variables outside the slice.  Returns
        False, or what ``_hit`` returns where the shadow gives up at its
        first flip, since the mutant's state is the original's there."""
        shadow = self._shadows[j]
        if shadow.error is not None:  # a shadow statement crashed: its outcome
            self._off(j, n)
            return False
        mine, theirs, cost, skip = self._paths[n][taken]
        shadow.flips += 1
        try:
            values = self._ns[mine](shadow.env, *args)
        except MiniRuntimeError as exc:
            shadow.error = str(exc)
            self._off(j, n)
            return False
        try:
            same = not values or values == self._ns[theirs](shadow.env, *args)
        except MiniRuntimeError:  # the original's run crashes in the region
            same = False
        if not same:  # a condition's variable differs: the mutant must run
            shadow.error = "gave up"  # stops its shadow statements
            if shadow.flips == 1:
                return self._hit(j, n, steps)
            self._infect(j, n)
            return False
        shadow.steps += cost
        if shadow.steps > shadow.peak:
            shadow.peak = shadow.steps
        shadow.skip = skip
        return False

    def _hit(self, j: int, n: int, steps: int) -> bool:
        """Mutant ``j`` is infected at relational site ``n``, ``steps`` into
        the run; True in a forked child that runs on as the mutant.  A
        relational operator adds no crash seed, so the mutant keeps every
        loop's cycle key (``interp.loop_slice``): the child, which runs the
        original's loop heads, checks the heads its fresh run checks."""
        self._infect(j, n)
        if self._bound is None or steps < interp.FORK_STEPS or not self._alive[j]:
            return False
        # the code holds up to its budget
        return self._fork(j, n, min(self._bound(steps), self.program.budget))

    def _fork(self, j: int, n: int, bound: int) -> bool:
        """Fork: the child runs on as mutant ``j`` under ``bound`` steps and
        returns True; the parent waits for it, keeps its ``Decision``, if it
        made one, and returns False."""
        import pickle  # only a run that forks reads a child's report

        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the mutant runs as usual
            os.close(read)
            os.close(write)
            return False
        if pid == 0:
            os.close(read)
            self._child = write, bound
            for m, checks in enumerate(self._checks):
                self._ns[f"_S{m}"] = m == n
                for k, _ in checks:
                    self._ns[f"_M{k}"] = k == j
            for m in range(len(self._holders)):
                self._ns[f"_Z{m}"] = ()
            self._ns["_hit"] = self._ns["_branch"] = _flip
            self._ns["_budget"] = bound
            return True
        os.close(write)
        try:
            with os.fdopen(read, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
        except BaseException:  # an interrupt: no child may outlive the wait
            _kill(pid)
            raise
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
            try:
                decision = pickle.loads(data)
            except Exception:  # no report, or part of one
                decision = None
            if isinstance(decision, Decision):
                self._forked[j] = decision
        return False

    def _report(self, outcome):
        """In a forked child: write the ``Decision`` of the run's
        ``outcome``, its result or what it raised, or None, to the parent,
        and leave."""
        import pickle

        try:
            write, bound = self._child
            data = pickle.dumps(_forked(outcome, bound))
            while data:
                data = data[os.write(write, data):]
        finally:
            os._exit(0)

    # ---- runs ----

    def run(self, values: Sequence[int], budget: int, arm: int | None,
            bound: Callable[[int], int] | None = None
            ) -> tuple[MiniRunResult, list[Decision | None]]:
        """The original's run on ``values`` (``CompiledMini.run`` under
        ``budget`` and ``arm``), and each site's ``Decision`` there, or None
        where its mutant must run (it is infected and not data-only).
        Raises what the original's run raises; the checks and shadows add
        no step, so that is what the plain original raises.  Its
        ``entries`` are then the original's state on entry to each
        top-level statement it reached, as a plain run has it, and
        ``printed`` the values it printed.

        With ``bound``, a function from the steps so far to a lower bound
        of the mutant's budget, the run forks at the first infection, at
        least ``interp.FORK_STEPS`` steps in, of each relational site's
        mutant that matched the original's output on every earlier input
        of this ``Instrumented``; the child runs the rest under that bound
        and decides the run, unless it stops at the bound.  ``arm`` must be
        the stride a fresh run of the mutant checks its loops at."""
        self._bound = bound
        self._forked = {}
        self._infected = [False] * len(self.sites)
        self._live = [len(checks) for checks in self._checks]
        for n, checks in enumerate(self._checks):
            self._ns[f"_S{n}"] = True
            for j, _ in checks:
                self._ns[f"_M{j}"] = True
        self.entries = []
        shadows = self._shadows = {j: _Shadow(slice_) for j, slice_ in self._slices.items()}
        for n, holders in enumerate(self._holders):
            self._ns[f"_Z{n}"] = [(shadows[j], self._ns[name]) for j, name in holders]
        try:
            result = self.program.run(values, budget, arm)
        except BaseException as exc:
            if self._child is not None:
                self._report(exc)
            raise
        if self._child is not None:
            self._report(result)
        inherited = Decision(DECIDED_INHERITED, result, result.steps)
        decisions = []
        for j, infected in enumerate(self._infected):
            shadow = shadows.get(j)
            if infected:  # a check held, or a branch shadow gave up
                decision = self._forked.get(j)
            elif shadow is None or j in self._branched and not shadow.flips:
                decision = inherited
            else:
                outcome = (_shadow_result(shadow, result) if shadow.error is None
                           else shadow.error)
                decision = Decision(DECIDED_SHADOWED, outcome, result.steps + shadow.peak)
            decisions.append(decision)
            self._alive[j] = self._alive[j] and decision is not None and isinstance(
                decision.outcome, MiniRunResult) and decision.outcome.output == result.output
        return result, decisions


def _kill(pid: int):
    """Kill and reap child ``pid``, if it was not reaped yet."""
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _flip(*_) -> bool:
    """``_hit`` and ``_branch`` in a forked child: the one site left
    checked is its mutant's, and each check that holds there flips the
    original's test."""
    return True


def _forked(outcome, bound: int) -> Decision | None:
    """The ``Decision`` of a forked child's run under ``bound``, its result
    or what it raised: none for a stop at the bound, or for what a run of
    the mutant never raises."""
    if isinstance(outcome, MiniRuntimeError):
        return Decision(DECIDED_FORKED, str(outcome), bound)
    if isinstance(outcome, BudgetExceeded):
        if outcome.steps is None or outcome.steps > bound:
            return None
        outcome = None  # a loop's slice repeated within the bound: it never ends
    elif not isinstance(outcome, MiniRunResult):
        return None
    return Decision(DECIDED_FORKED, outcome, bound)


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
    output, steps = reference.output, reference.steps + shadow.steps
    if shadow.prints:
        lines = output.split(b"\n")
        for pos, value in shadow.prints:
            lines[pos] = str(value).encode("ascii")
        output = b"\n".join(lines)
    if (output, steps) == (reference.output, reference.steps):
        return reference
    return MiniRunResult(output, steps)
