"""Compile-and-run backends.

Two kinds behind one contract: the in-process MiniImp interpreter (costs in
deterministic steps) and an external toolchain driven by command templates
(costs in wall-clock milliseconds, median of repeated runs).  Each
backend's ``compile`` returns the artifact that its ``run`` takes: a
``CompiledMini`` for the interpreter, the binary's ``Path`` for the external
toolchain.  Costs from different backends are never comparable; ``Cost``
carries its unit and adds only within it.

The interpreter backend compiles its first program, the original, in full
and keeps it as the base.  A later text may come with its edit: the start
of the one operator token of the base that it swaps, and the new lexeme.
One whose new operator the parser recorded as keeping the statement's
tree (``MiniProgram.levels``) runs a schema: the function of the
top-level statement that holds the operator, compiled once for all the
operators of that site and switched by a parameter, the mutant's
operator.  Any other text, and every text compiled without an edit,
compiles in full.

The interpreter backend can also decide runs without executing them:
``MiniBackend.decide`` runs an instrumented form of the original once per
input (``minilang.instrument``), which gives the outcome of every mutant
that is never infected on that input (inherited) or that changes only data
no condition reads (shadowed); a mutant first infected late in a long run
runs only its suffix, in a fork of that run (forked).  That run is also
the original's baseline, so the original runs once per input, and it
records the original's state on entry to each top-level statement.  Every
mutant still calls ``compile``, and ``run`` once per run it reports.
``compile`` finds a one-operator mutant's ``Site`` by its edit and attaches
the record of its decisions; ``run`` answers a decided run by the input's
values, within the decision's ``steps``, marked in ``RunResult.decided``.
Only a run that executes builds the site's schema, the first time a run of
one of the site's mutants reaches the statement, and starts at that
statement from the original's state on entry to it; it is still an
executed run.

The external backend evaluates a program in two passes over the inputs
(``overall_time``).  The check pass runs it once per input (``run``) and
stops at the first wrong output, crash or timeout; only a program that
passes every input is timed (``ExternalBackend.timed``: ``warmups``
discarded runs, then the median of ``repetitions`` measured ones).  It
also decides by binary identity (trivial compiler equivalence; Papadakis
et al., ICSE 2015): ``compile`` digests each binary that is an ELF file
(``elf_digest``), and a program whose code equals an earlier program's is
answered from that code's recorded runs on the same input values, without
a spawn, marked ``DECIDED_IDENTICAL``.  That assumes a program's behaviour
does not depend on its own path.

The external backend's ``decide`` runs the original for its baseline, as
the mini one's does; on a C source it then checks the one-operator
mutants in a few schema binaries (``cschema``): each compiles many
mutants once, switched at run time by an environment variable, and runs
as a fork server, one process per input for all the mutants it has left.
A mutant that a schema kills or crashes, compiled with its edit, compiles
no binary of its own; its ``run`` calls are answered from its schema runs,
marked ``DECIDED_SCHEMA``.  Every other mutant, one that passes the
schema or that the server stops at its cap included, compiles and runs
alone, so only such programs are digested and timed.
"""

from __future__ import annotations

import math
import os
import re
import signal
import struct
import subprocess
import time
import weakref
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from pathlib import Path
from types import CodeType, FunctionType
from typing import Sequence, Union

from .minilang import CompileError, MiniRuntimeError, BudgetExceeded, parse_mini
from .minilang import ast_nodes as ast
from .minilang.ast_nodes import MiniProgram
from .minilang.instrument import (Decision, Instrumented, Site, alternatives, node_at,
                                  operator_paths, with_op)
from .minilang.instrument import (DECIDED_FORKED, DECIDED_INHERITED,  # noqa: F401 (re-exported)
                                  DECIDED_SHADOWED)
from .minilang.interp import (CRASH_SEEDS, CYCLE_STRIDE, CompiledMini, compile_program,
                              loop_slice)
from .minilang.parser import LEVELS
from .tokens import Language, SourceUnit, apart, tokenize

VERDICT_OK = "ok"
VERDICT_TIMEOUT = "timeout"
VERDICT_CRASH = "crash"
VERDICT_KILLED = "killed"  # only from overall_time: output differs from the reference

UNIT_STEPS = "steps"
UNIT_MS = "ms"

DECIDED_IDENTICAL = "identical"  # the binary of an earlier program: its run
DECIDED_SCHEMA = "schema"  # the mutant's run in a schema binary (ExternalBackend.decide)

# Caps for the baseline itself, which has no reference cost to scale from.
BASELINE_STEP_LIMIT = 2_000_000_000
BASELINE_TIME_LIMIT = 300.0  # seconds


class ToolchainError(Exception):
    """The toolchain itself is unusable (a compiler or run command that is
    missing or cannot start, a timed-out compiler); aborts the whole run,
    unlike a mutant's compile failure."""


class UnitMismatch(Exception):
    """Costs in different units were combined or compared."""


@dataclass(frozen=True)
class Cost:
    value: Union[int, float]
    unit: str

    def __add__(self, other: "Cost") -> "Cost":
        if self.unit != other.unit:
            raise UnitMismatch(f"cannot add {self.unit} to {other.unit}")
        return Cost(self.value + other.value, self.unit)


@dataclass(frozen=True)
class RunResult:
    output: bytes  # normalized: per-line trailing whitespace and final newline stripped
    cost: Cost | None
    verdict: str
    decided: str | None = None  # DECIDED_* when answered without executing

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_OK


COMPILE_PLACEHOLDERS = ("src", "out")
RUN_PLACEHOLDERS = ("bin", "input")


def check_template(template: str, placeholders: Sequence[str]) -> list[str]:
    """Split a command template into arguments as a POSIX shell would.

    Raises ValueError for unbalanced quotes, a template with no argument, or
    an argument that does not format with ``placeholders`` alone; a literal
    brace is written ``{{`` or ``}}``.
    """
    import shlex  # imported here: a search on the mini backend splits no template

    try:
        args = shlex.split(template)
    except ValueError as exc:  # "No closing quotation"
        raise ValueError(f"malformed template {template!r}: {exc}") from None
    if not args:
        raise ValueError(f"empty command template {template!r}")
    probe = dict.fromkeys(placeholders, "")
    allowed = ", ".join(f"{{{name}}}" for name in placeholders)
    for arg in args:
        try:
            arg.format_map(probe)
        except KeyError as exc:
            raise ValueError(f"unknown placeholder {{{exc.args[0]}}} in "
                             f"{template!r}; allowed: {allowed}") from None
        except (LookupError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed template {template!r}: {exc}; "
                             "write a literal brace as {{ or }}") from None
    return args


TIMEOUT_FACTOR_RULE = "> 1 and give a finite budget"


def usable_timeout_factor(factor: float) -> bool:
    """Whether every budget under ``factor`` is finite: a mutant's on the
    largest baseline, ``BASELINE_STEP_LIMIT`` steps, is the largest."""
    return 1 < factor and BASELINE_STEP_LIMIT * factor < math.inf


@dataclass(frozen=True)
class ExecBackendConfig:
    kind: str = "mini"  # "mini" | "external"
    compile_cmd: str | None = None  # placeholders {src} {out}
    run_cmd: str | None = None      # placeholders {bin} {input}; input fed on stdin
    repetitions: int = 5
    warmups: int = 1
    timeout_factor: float = 10.0  # mutant budget per input, times the baseline cost

    def __post_init__(self):
        if self.kind not in ("mini", "external"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "external":
            if not (self.compile_cmd and self.run_cmd):
                raise ValueError("external backend needs compile_cmd and run_cmd")
            check_template(self.compile_cmd, COMPILE_PLACEHOLDERS)
            check_template(self.run_cmd, RUN_PLACEHOLDERS)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.warmups < 0:
            raise ValueError("warmups must be >= 0")
        if not usable_timeout_factor(self.timeout_factor):
            raise ValueError(f"timeout_factor must be {TIMEOUT_FACTOR_RULE}")


def normalize_output(raw: bytes) -> bytes:
    lines = [line.rstrip() for line in raw.split(b"\n")]
    while lines and lines[-1] == b"":
        lines.pop()
    return b"\n".join(lines)


def _run_group(cmd: list[str], timeout: float, stdin_data: bytes | None = None,
               env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """``subprocess.run`` with captured output, in a new session that is
    killed on timeout (``_kill_session``), so no descendant outlives it;
    ``env``, when given, is the whole environment."""
    stdin = None if stdin_data is None else subprocess.PIPE
    with subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(stdin_data, timeout=timeout)
        except BaseException:  # timeout or interrupt: no process may survive
            _kill_session(proc.pid)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def _kill_session(sid: int) -> None:
    """Kill the session ``sid`` while its leader is unreaped: the leader's
    process group, then, where ``/proc`` lists the processes, the group of
    every other member, such as a fork server's arms, each in a group of
    its own.  A session's id is not reused while it has a member."""
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        pids = [int(name) for name in os.listdir("/proc") if name.isdigit()]
    except OSError:  # no /proc
        return
    for pid in pids:
        try:
            if os.getsid(pid) == sid:
                os.killpg(os.getpgid(pid), signal.SIGKILL)
        except OSError:  # gone
            pass


SHF_ALLOC = 0x2
SHT_NOTE = 7
SHT_NOBITS = 8
# ELF file header from e_type on, and one section header, by EI_CLASS
_ELF_HEADERS = {1: ("16xHHIIIIIHHHHHH", "IIIIIIIIII"),
                2: ("16xHHIQQQIHHHHHH", "IIQQQQIIQQ")}


def elf_digest(data: bytes) -> bytes | None:
    """A digest of the code an ELF file loads, or None when ``data`` is not
    an ELF file whose section table parses.

    It covers the entry point and every allocated section that is not a
    note: its name, type, address, size and, unless it takes no space in
    the file, its contents.  So it leaves out the symbol table, which names
    the source file, and the build-id note, which hashes the whole file.
    """
    if data[:4] != b"\x7fELF" or len(data) < 6 or data[4] not in _ELF_HEADERS \
            or data[5] not in (1, 2):
        return None
    # imported here: it loads OpenSSL, about 3.7 MB of resident memory that
    # a search on the mini backend never needs
    import hashlib

    order = "<" if data[5] == 1 else ">"
    header, section = (struct.Struct(order + f) for f in _ELF_HEADERS[data[4]])

    def contents(offset: int, size: int) -> bytes:
        if offset + size > len(data):
            raise ValueError("section past the end of the file")
        return data[offset:offset + size]

    try:
        (_, _, _, entry, _, shoff, _, _, _, _, shentsize, shnum,
         shstrndx) = header.unpack_from(data)
        if shentsize != section.size or shstrndx >= shnum:
            return None
        sections = [section.unpack_from(data, shoff + i * shentsize) for i in range(shnum)]
        names = contents(*sections[shstrndx][4:6])
        digest = hashlib.sha256(entry.to_bytes(8, "little"))
        for name, kind, flags, address, offset, size, *_ in sections:
            if not flags & SHF_ALLOC or kind == SHT_NOTE:
                continue
            label = names[name:names.index(b"\0", name)]
            digest.update(struct.pack("<IQQQ", kind, address, size, len(label)) + label)
            if kind != SHT_NOBITS:
                digest.update(contents(offset, size))
    except (struct.error, ValueError):  # truncated or inconsistent
        return None
    return digest.digest()


class _Base:
    """The first program a MiniBackend compiles, kept so that a text that
    swaps one of its operators compiles at the cost of one statement, or
    less.

    A text that replaces one operator of it by another and leaves the
    statement's tree otherwise unchanged, as the parser's range of binding
    levels for that operator says, has that ``Site`` as its edit.  It runs
    a schema of the statement (mutant schemata; Untch, Offutt and
    Harrold, ISSTA 1993): the statement's function compiled once for all
    the operators of the site, which switches between them on ``_K``, a
    parameter set to the mutant's operator.  The schema is built when a run
    of the mutant first reaches the statement, so a mutant whose runs are
    all decided builds none.  An operator whose statement gives an
    enclosing loop another cycle key (``/`` and ``%`` add crash seeds) gets
    a schema of its own, so every mutant runs the loop heads of its own
    fresh compile.  Mutation emits the mutants of a site together, so only
    the current site's schemas are kept."""

    def __init__(self, unit: SourceUnit, tree: MiniProgram, program: CompiledMini):
        self.unit = unit
        self.tree = tree
        self.program = program
        self._paths: dict[int, dict[int, tuple]] = {}
        self._current: tuple[int, tuple] | None = None  # the site with schemas
        self._keys: dict[str, tuple] = {}  # its operators' loop keys
        self._schemas: dict[tuple, CodeType] = {}  # its schemas, by loop keys

    def site(self, start: int, new: str) -> Site | None:
        """The ``Site`` where the token at ``start`` becomes ``new``, when
        ``new`` is one of its ``swaps`` and lexes apart from the tokens
        beside it (``tokens.apart``)."""
        if new not in self.swaps(start) or not apart(self.unit, start, new):
            return None
        node = self.tree.operators[start]
        # the top-level statement that holds it: the last to start at or before it
        k = bisect_right(self.tree.spans, start, key=itemgetter(0)) - 1
        if k not in self._paths:
            self._paths[k] = operator_paths(self.tree.body[k])
        return Site(k, self._paths[k][id(node)], new)

    def swaps(self, start: int) -> tuple[str, ...]:
        """The operators that may replace the token at ``start``: none
        unless it is an operator; else those of
        ``instrument.alternatives`` that keep the statement's tree, whose
        binding level is in the parser's range for it
        (``MiniProgram.levels``), or all for a shortcut assignment."""
        node = self.tree.operators.get(start)
        if node is None:
            return ()
        levels = self.tree.levels.get(start)
        return tuple(op for op in alternatives(node.op)
                     if levels is None or LEVELS[op] in levels)

    def derive(self, start: int, new: str) -> tuple[CompiledMini, Site] | None:
        """The mutant of the base whose token at ``start`` becomes ``new``,
        compiled, and its ``Site``: the base, whose site's statement runs
        the schema, built when a run first reaches it; None when that swap
        is no ``site``, and the full compile decides."""
        site = self.site(start, new)
        if site is None:
            return None

        def make(namespace: dict) -> FunctionType:
            try:
                return FunctionType(self._schema(site, start), namespace, None, (site.op,))
            except CompileError:  # past CPython's limits: the mutant's own statement
                stmt = with_op(self.tree.body[site.statement], site.path, site.op)
                return FunctionType(self.program.statement_code(site.statement, stmt, None),
                                    namespace)

        return self.program.with_statement(site.statement, make), site

    def _schema(self, site: Site, start: int) -> CodeType:
        """The code of the schema that runs ``site``'s mutant, the operator
        at ``start``, switched between its ``swaps``."""
        top, path = self.tree.body[site.statement], site.path
        if self._current != (site.statement, path):
            # the loops whose bodies hold the site; its operator changes
            # no other loop's key, and only a crash seed changes theirs
            loops = [path[:i] for i, step in enumerate(path)
                     if step == "body" and isinstance(node_at(top, path[:i]), ast.While)]
            old = node_at(top, path).op
            own = tuple(loop_slice(node_at(top, loop)) for loop in loops)
            self._current = site.statement, path
            self._keys = {op: own if old not in CRASH_SEEDS and op not in CRASH_SEEDS else
                          tuple(loop_slice(node_at(with_op(top, path, op), loop))
                                for loop in loops)
                          for op in self.swaps(start)}
            self._schemas = {}
        key = self._keys[site.op]
        if key not in self._schemas:
            stmt = with_op(top, path, site.op)
            ops = tuple(op for op, other in self._keys.items() if other == key)
            self._schemas[key] = self.program.statement_code(
                site.statement, stmt, (node_at(stmt, path), ops))
        return self._schemas[key]


def _mini_result(run, input_values: Sequence[int], budget: int, *start) -> RunResult:
    """``run(input_values, budget, arm, *start)``, a ``CompiledMini.run``,
    as a ``RunResult``."""
    try:
        # one cycle check per CYCLE_STRIDE steps of a loop entry: a program
        # stuck in a short cycle stops a few strides after entering it
        result = run(input_values, budget, CYCLE_STRIDE, *start)
    except BudgetExceeded:
        return RunResult(b"", None, VERDICT_TIMEOUT)
    except MiniRuntimeError:
        return RunResult(b"", None, VERDICT_CRASH)
    # already normal: one decimal per line, no trailing newline
    return RunResult(result.output, Cost(result.steps, UNIT_STEPS), VERDICT_OK)


class MiniBackend:
    """Compiles MiniImp to Python.  The first program compiled is the base:
    a later text compiled with its edit, which swaps one of the base's
    operators and keeps the statement's tree, runs its site's schema,
    compiled once for all the site's operators when a run of one of them
    first reaches the statement, in place of the statement that holds it,
    sharing the base's other compiled statements (``_Base.derive``).  Any
    other text is compiled in full.

    ``decide`` runs the base once per input, instrumented, for its baseline,
    and settles some runs of its one-operator mutants from that run
    (``minilang.instrument``): ``DECIDED_INHERITED``, ``DECIDED_SHADOWED``
    or, run in a fork of it, ``DECIDED_FORKED``.
    ``compile`` attaches to a mutant's program the record of its decisions,
    found by its ``Site``, and ``run`` answers an input from that record by
    the input's values, without executing, when the decision's ``steps``
    are within the budget.  A record outlives a later ``decide``: each
    decision is a fact about the mutant on those values.

    The same run records the base's state on entry to each top-level
    statement, by input values.  A mutant's site is in some statement k,
    and the statements before k are the base's own, so on those values the
    mutant reaches k in the base's state; an executed run of it starts
    there, when that state's steps are within the budget.  It stops, ends
    or crashes with the same output and steps as a run from the start:
    the base's loops before k exit, so no cycle check there finds a
    repeat, and no budget check there sees more steps than k's entry.

    Every program is generated for the largest budget a run can get, a
    mutant's on the largest baseline (``BASELINE_STEP_LIMIT`` times the
    timeout factor), so its loop counters need no overflow check.
    """

    unit = UNIT_STEPS

    def __init__(self, config: ExecBackendConfig):
        self.config = config
        # the largest budget a run gets: a mutant's, on the largest baseline
        self._budget = math.ceil(BASELINE_STEP_LIMIT * config.timeout_factor)
        self._base: _Base | None = None
        # by site, then by input values
        self._decided: dict[Site, dict[tuple[int, ...], Decision]] = {}
        # compiled mutant -> its site's statement and its record
        self._answers = weakref.WeakKeyDictionary()
        # by input values: the base's values printed and its state on entry
        # to each top-level statement (``Instrumented.entries``)
        self._entries: dict[tuple[int, ...], tuple[list[int], list[tuple]]] = {}

    def compile(self, source: SourceUnit | bytes, name: str = "unit.src",
                edit: tuple[int, str] | None = None) -> CompiledMini:
        """``source`` compiled.  ``edit``, the start of the token it replaces
        and the new lexeme, describes ``source`` against the first program
        this backend compiled: a swap of a ``Site`` runs its schema
        (``_Base.derive``).  Without one, or for any other edit, ``source``
        compiles in full.  ``name`` is accepted for one signature."""
        if edit is not None:
            found = self._base.derive(*edit)
            if found is not None:
                program, site = found
                self._answers[program] = site.statement, self._decided.get(site, {})
                return program
        if not isinstance(source, SourceUnit):
            source = tokenize(source, Language.MINI)
        tree = parse_mini(source)  # raises CompileError
        program = compile_program(tree, self._budget)
        if self._base is None:
            self._base = _Base(source, tree, program)
        return program

    def decide(self, edits: Sequence[tuple[int, str]],
               inputs: Sequence[Sequence[int]]) -> "OverallTime":
        """Run the base once per input, instrumented to decide what runs it
        can of the base's mutants ``edits``, each the start of the token it
        replaces and the new lexeme, and return those runs as the base's
        baseline: ``overall_time`` with no reference, each input under
        ``baseline_budget`` and armed at ``CYCLE_STRIDE``, stopping at the
        first one that is not ok.  A run is decided inherited, shadowed or,
        where ``os.fork`` exists, forked: a mutant first infected late in a
        run that it matched on every earlier input runs its suffix in a
        fork of that run, under ``mutant_budget`` of the steps so far.
        The base must be compiled.  Replaces earlier decisions for later
        compiles (a program compiled before keeps its record, true of the
        values it was decided on); decides nothing, and records no state,
        unless every run is ok."""
        sites = (self._base.site(start, new) for start, new in edits)
        probe = Instrumented(self._base.tree, [site for site in sites if site is not None],
                             self._budget)
        rows = []
        # a forked mutant's budget: its own on the original's steps so far
        bound = ((lambda steps: self.mutant_budget(Cost(steps, UNIT_STEPS)))
                 if hasattr(os, "fork") else None)

        def run(values, budget, arm):
            result, decisions = probe.run(values, budget, arm, bound)
            rows.append((tuple(values), decisions, (probe.printed, probe.entries)))
            return result

        baseline = _overall(self, partial(_mini_result, run), inputs)
        self._decided = {}
        if baseline.verdict != VERDICT_OK:
            return baseline
        for values, decisions, entries in rows:
            self._entries[values] = entries
            for site, decision in zip(probe.sites, decisions):
                if decision is not None:
                    self._decided.setdefault(site, {})[values] = decision
        return baseline

    def run(self, program: CompiledMini, input_values: Sequence[int],
            budget: int) -> RunResult:
        values = tuple(input_values)
        k, decisions = self._answers.get(program, (0, {}))
        decision = decisions.get(values)
        if decision is not None and decision.steps <= budget:
            if decision.outcome is None:
                return RunResult(b"", None, VERDICT_TIMEOUT, decision.kind)
            if isinstance(decision.outcome, str):
                return RunResult(b"", None, VERDICT_CRASH, decision.kind)
            return RunResult(decision.outcome.output,
                             Cost(decision.outcome.steps, UNIT_STEPS), VERDICT_OK,
                             decision.kind)
        if k and values in self._entries:
            printed, entries = self._entries[values]
            steps, length, variables = entries[k]
            if steps <= budget:
                return _mini_result(program.run, values, budget,
                                    (k, steps, printed[:length], variables))
        return _mini_result(program.run, values, budget)

    def mutant_budget(self, baseline: Cost) -> int:
        return max(1, math.ceil(baseline.value * self.config.timeout_factor))

    def baseline_budget(self) -> int:
        return BASELINE_STEP_LIMIT


class ExternalBackend:
    """Compiles and runs through the configured command templates; costs
    are wall-clock milliseconds.

    ``run`` is one spawn, which checks a program's output on an input;
    ``timed`` is ``warmups`` discarded spawns and ``repetitions`` measured
    ones, whose median is the cost.  ``overall_time`` times a program only
    once it has passed the check on every input.  ``compile`` digests each
    ELF binary (``elf_digest``).  A program whose digest equals an earlier
    program's is answered from that code's recorded run on the same input
    values, without a spawn, when the run was made under the same budget
    or was ok within this one; the first program with a digest always
    spawns.

    The first program compiled is the original.  ``decide`` runs it on
    every input for its baseline; on a C source it then checks its
    one-operator mutants in a few schema binaries
    (``cschema``), each spawned once per input as a fork server for the
    mutants it has not yet decided, and records the runs of each one the
    schema kills or crashes, under its edit.  ``compile`` of such a
    mutant, given that edit, writes its source and builds nothing, and
    ``run`` answers from that record by the same rule as for an identical
    binary, marked ``DECIDED_SCHEMA``; a run it did not record builds the
    mutant alone first.  Schema binaries are never digested, so a schema's
    run and an identical binary's never answer each other.
    """

    unit = UNIT_MS

    def __init__(self, config: ExecBackendConfig, scratch_dir: Path):
        self.config = config
        self.scratch = Path(scratch_dir)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        self._compile_args = check_template(config.compile_cmd, COMPILE_PLACEHOLDERS)
        self._run_args = check_template(config.run_cmd, RUN_PLACEHOLDERS)
        self._digests: dict[Path, bytes] = {}  # each ELF program's code
        self._first: dict[bytes, Path] = {}  # each code's first program
        # by (warmups, repetitions, code, input values): the budget and
        # the result of that code's last run
        self._recorded: dict[tuple, tuple[float, RunResult]] = {}
        # the original, its name and its binary
        self._original: tuple[SourceUnit | bytes, str, Path] | None = None
        # by a mutant's edit, then by input values: the budget and result
        # of each of its runs in a schema
        self._decided: dict[tuple[int, str],
                            dict[tuple[int, ...], tuple[float, RunResult]]] = {}
        self._answers: dict[Path, dict] = {}  # an unbuilt program -> its runs

    def compile(self, source: SourceUnit | bytes, name: str = "unit.src",
                edit: tuple[int, str] | None = None) -> Path:
        """The path of ``source``'s binary.  ``edit``, the start of the token
        it replaces and the new lexeme, describes ``source`` against the
        first program this backend compiled: a mutant whose schema runs
        ``decide`` recorded under it builds nothing, and ``run`` answers from
        that record.  Without an edit, ``source`` always builds."""
        # name keeps the real extension so compilers that sniff suffixes
        # (gcc, javac) treat the file correctly; the counter avoids clashes
        data = source.text if isinstance(source, SourceUnit) else bytes(source)
        self._counter += 1
        src_path = self.scratch / f"{self._counter:04d}.{name}"
        out_path = self.scratch / f"{self._counter:04d}.{name}.bin"
        if self._original is None:
            self._original = source, name, out_path
        src_path.write_bytes(data)
        if edit in self._decided:
            self._answers[out_path] = self._decided[edit]
        else:
            self._build(src_path, out_path)
        return out_path

    def _build(self, src_path: Path, out_path: Path) -> None:
        """Compile ``src_path`` to ``out_path`` and digest the binary."""
        self._cc(src_path, out_path)
        try:
            digest = elf_digest(out_path.read_bytes())
        except OSError:  # no binary: running it fails as it would have
            digest = None
        if digest is not None:
            self._digests[out_path] = digest
            self._first.setdefault(digest, out_path)

    def _cc(self, src_path: Path, out_path: Path) -> None:
        mapping = {"src": str(src_path), "out": str(out_path)}
        cmd = [arg.format_map(mapping) for arg in self._compile_args]
        try:
            proc = _run_group(cmd, 120)
        except OSError as exc:  # missing, not executable, not a program
            raise ToolchainError(f"cannot start compiler {cmd[0]}: {exc.strerror}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ToolchainError(f"compiler timed out: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            diag = proc.stderr.decode("utf-8", errors="replace").strip()
            raise CompileError(diag or f"compiler exited {proc.returncode}", 0, 0)

    def decide(self, edits: Sequence[tuple[int, str]],
               inputs: Sequence[Sequence[int]]) -> "OverallTime":
        """Run the original on ``inputs``, as ``overall_time`` with no
        reference does, and return those runs as its baseline.  Then, only
        on a ``.c`` original with an ok baseline, check its one-operator
        mutants ``edits``, each the start of the token it replaces and the
        new lexeme, against that baseline in schema binaries, and record
        the runs of each mutant that one kills or crashes under its edit,
        for ``compile``; the rest are left to run alone.  A schema that does
        not compile is split in halves, down to single mutants, so a mutant
        whose arm does not compile (a ``%`` on a ``double``) leaves only
        itself to run alone.

        Each schema runs as a fork server (``cschema``), once per input
        while any of its mutants is still undecided, for those mutants
        alone, each under its ``mutant_budget`` (``_serve``).  A mutant's
        arm that exits 0 with the baseline's output goes on to the next
        input; one that exits 0 with another output is killed there, and
        one that exits otherwise or dies of a signal crashes there.  An arm
        the server stopped, at its cap or its output limit, runs alone, as
        does every arm still undecided when a server run's frames do not
        parse or its arm 0 does not give the baseline's output.  The
        original must be compiled.  Replaces the earlier record for later
        compiles.  Never calls ``compile`` or ``run``, which a trace of a
        search charges to the mutant compiled last."""
        from .cschema import schemas  # only a C search writes schemas

        self._decided = {}
        source, name, original = self._original
        checked = _overall(self, partial(self._recall, original, warmups=0, repetitions=1),
                           inputs)
        baseline = _then_timed(self, original, inputs, checked)
        if not name.endswith(".c") or baseline.verdict != VERDICT_OK:
            return baseline
        unit = source if isinstance(source, SourceUnit) else tokenize(source, Language.C_LIKE)
        (self.scratch / "schema").mkdir(exist_ok=True)

        def part(members):  # the schema of some members of one
            (text, order), = schemas(unit, [edits[index] for index in members])
            return text, [members[n] for n in order]

        pending = schemas(unit, edits)[::-1]
        j = 0
        while pending:
            text, members = pending.pop()
            src_path = self.scratch / "schema" / f"{j:02d}.{name}"
            binary = src_path.with_name(src_path.name + ".bin")
            src_path.write_bytes(text)
            j += 1
            try:
                self._cc(src_path, binary)
            except CompileError:
                if len(members) > 1:
                    half = len(members) // 2
                    pending += [part(members[half:]), part(members[:half])]
                continue
            except ToolchainError as exc:
                raise ToolchainError(f"while compiling mutant schema {src_path.name}: "
                                     f"{exc}") from exc
            # each undecided arm's runs so far, by its number in the schema
            runs = {n: [] for n in range(1, len(members) + 1)}
            for values, ref in zip(inputs, baseline.results):
                if not runs:
                    break
                budget = self.mutant_budget(ref.cost)
                served = self._serve(binary, values, budget, list(runs))
                if served is None or served[0] != ref.output:
                    break
                for n, result in served[1].items():
                    if result is None:  # stopped: runs alone
                        del runs[n]
                        continue
                    runs[n].append((budget, result))
                    if result.ok and result.output == ref.output:
                        continue
                    self._decided[edits[members[n - 1]]] = dict(
                        zip(map(tuple, inputs), runs.pop(n)))
        return baseline

    def _serve(self, binary: Path, input_values: Sequence[int], budget: float,
               arms: list[int]) -> tuple[bytes, dict[int, RunResult | None]] | None:
        """One run of the schema ``binary`` as a fork server on the input,
        for its ``arms`` under ``budget`` seconds each: arm 0's normalized
        output, and each arm's result, None where the server stopped it.
        None when the server does not exit 0 within room for every arm's
        budget (its session is killed), or its output is not exactly
        one frame for arm 0 and each of ``arms``, in order, or arm 0 did
        not exit 0."""
        from .cschema import SWITCH

        env = dict(os.environ)
        env[SWITCH] = f"{math.ceil(budget * 1000)}:{','.join(map(str, arms))}"
        try:
            proc = _run_group(self._command(binary), (len(arms) + 1) * budget + 1.0,
                              _stdin(input_values), env)
        except OSError as exc:
            raise ToolchainError(f"cannot start run command {self._run_args[0]}: "
                                 f"{exc.strerror}") from exc
        except subprocess.TimeoutExpired:
            return None
        results = _frames(proc.stdout, [0, *arms]) if proc.returncode == 0 else None
        if results is None or results[0] is None or not results[0].ok:
            return None
        return results[0].output, dict(zip(arms, results[1:]))

    def run(self, program: Path, input_values: Sequence[int],
            budget: float) -> RunResult:
        """One run of ``program`` on the input; its cost is that run's wall
        time."""
        recorded = self._answers.get(program, {}).get(tuple(input_values))
        if recorded is not None and _covers(*recorded, budget):
            return replace(recorded[1], decided=DECIDED_SCHEMA)
        return self._recall(program, input_values, budget, 0, 1)

    def timed(self, program: Path, input_values: Sequence[int],
              budget: float) -> RunResult:
        """``warmups`` runs of ``program`` on the input, then
        ``repetitions`` measured ones; the cost is their median, the output
        the first measured run's."""
        return self._recall(program, input_values, budget,
                            self.config.warmups, self.config.repetitions)

    def _recall(self, program: Path, input_values: Sequence[int], budget: float,
                warmups: int, repetitions: int) -> RunResult:
        """``_spawn``, or the recorded result of the same runs of an
        earlier program with the same code."""
        if self._answers.pop(program, None) is not None:  # a run no schema made
            self._build(program.with_suffix(""), program)
        digest = self._digests.get(program)
        key = (warmups, repetitions, digest, tuple(input_values))
        if digest is not None and self._first[digest] != program and key in self._recorded:
            within, result = self._recorded[key]
            if _covers(within, result, budget):
                return replace(result, decided=DECIDED_IDENTICAL)
        result = self._spawn(program, input_values, budget, warmups, repetitions)
        if digest is not None:
            self._recorded[key] = budget, result
        return result

    def _command(self, program: Path) -> list[str]:
        """The run command for ``program``, which reads its input on stdin."""
        mapping = {"bin": str(program), "input": "-"}
        return [arg.format_map(mapping) for arg in self._run_args]

    def _spawn(self, program: Path, input_values: Sequence[int], budget: float,
               warmups: int, repetitions: int) -> RunResult:
        from statistics import median  # imported here: about 2.5 ms a mini search never needs

        stdin_data = _stdin(input_values)
        cmd = self._command(program)
        times_ms: list[float] = []
        output: bytes | None = None
        for i in range(warmups + repetitions):
            t0 = time.perf_counter()
            try:
                proc = _run_group(cmd, budget, stdin_data)
            except OSError as exc:
                raise ToolchainError(f"cannot start run command {cmd[0]}: "
                                     f"{exc.strerror}") from exc
            except subprocess.TimeoutExpired:
                return RunResult(b"", None, VERDICT_TIMEOUT)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            if proc.returncode != 0:
                return RunResult(b"", None, VERDICT_CRASH)
            if i >= warmups:
                times_ms.append(elapsed_ms)
                if output is None:
                    output = normalize_output(proc.stdout)
        return RunResult(output, Cost(median(times_ms), UNIT_MS), VERDICT_OK)

    def mutant_budget(self, baseline: Cost) -> float:
        # subprocess timeout in seconds; floor keeps tiny baselines usable
        return max(0.05, baseline.value / 1000.0 * self.config.timeout_factor)

    def baseline_budget(self) -> float:
        return BASELINE_TIME_LIMIT


def _stdin(input_values: Sequence[int]) -> bytes:
    """A program's standard input: the values on one line."""
    return (" ".join(str(v) for v in input_values) + "\n").encode("ascii")


# a fork server's frame header: arm, wait status (-1: stopped), microseconds,
# output length
_FRAME = re.compile(rb"(\d+) (-1|\d+) (\d+) (\d+)\n")


def _frames(data: bytes, arms: Sequence[int]) -> list[RunResult | None] | None:
    """The results a schema fork server framed in ``data`` for ``arms``, in
    order: ok for an exit 0 (its output normalized, its cost the arm's
    time), a crash for any other exit or a signal, None for an arm it
    stopped.  None unless ``data`` is exactly one frame for each arm."""
    results: list[RunResult | None] = []
    pos = 0
    for arm in arms:
        frame = _FRAME.match(data, pos)
        if frame is None or int(frame[1]) != arm:
            return None
        status, pos = int(frame[2]), frame.end() + int(frame[4])
        if status == 0:
            results.append(RunResult(normalize_output(data[frame.end():pos]),
                                     Cost(int(frame[3]) / 1000.0, UNIT_MS), VERDICT_OK))
        else:
            results.append(None if status < 0 else RunResult(b"", None, VERDICT_CRASH))
    return results if pos == len(data) else None


def _covers(within: float, result: RunResult, budget: float) -> bool:
    """Whether a run recorded under the budget ``within`` answers one under
    ``budget``: the same budget, or an ok run that took no longer."""
    return within == budget or (result.ok and result.cost.value <= budget * 1000.0)


Backend = Union[MiniBackend, ExternalBackend]


def make_backend(config: ExecBackendConfig,
                 scratch_dir: Path | None = None) -> Backend:
    if config.kind == "mini":
        return MiniBackend(config)
    if scratch_dir is None:
        raise ValueError("external backend needs a scratch directory")
    return ExternalBackend(config, scratch_dir)


@dataclass(frozen=True)
class OverallTime:
    cost: Cost | None
    verdict: str
    failing_index: int | None = None
    # the runs made, in input order; on the external backend, the timed
    # runs of a program that passed its check (see ``overall_time``)
    results: tuple[RunResult, ...] = ()


def overall_time(backend: Backend, program: CompiledMini | Path,
                 inputs: Sequence[Sequence[int]],
                 reference: OverallTime | None = None) -> OverallTime:
    """Sum of per-input costs; aborts at the first non-ok verdict.  Without a
    ``reference`` each input runs under the baseline budget; with one (the
    original's run on the same inputs), input i runs under ``mutant_budget``
    of the reference's cost and is ``killed`` if its output differs.

    The inputs are checked first (``check``).  On the external backend a
    program that passes every one is then timed through the same loop
    (``ExternalBackend.timed``), and the costs and outputs are the timed
    runs'.  Its ``results`` are the check's when only the timed pass fails
    (a flaky program, or one near its budget): a verdict reports the runs
    its check made.

    Empty input list yields a zero cost in the backend's unit.
    """
    checked = check(backend, program, inputs, reference)
    if not isinstance(backend, ExternalBackend):
        return checked
    return _then_timed(backend, program, inputs, checked, reference)


def _then_timed(backend: ExternalBackend, program: Path, inputs: Sequence[Sequence[int]],
                checked: OverallTime, reference: OverallTime | None = None) -> OverallTime:
    """``checked``, the check pass of ``program``, or, when it is ok, the
    timed pass that follows it in ``overall_time``."""
    if checked.verdict != VERDICT_OK:
        return checked
    timed = _overall(backend, partial(backend.timed, program), inputs, reference)
    return timed if timed.verdict == VERDICT_OK else replace(timed, results=checked.results)


def check(backend: Backend, program: CompiledMini | Path,
          inputs: Sequence[Sequence[int]],
          reference: OverallTime | None = None) -> OverallTime:
    """``overall_time`` with one ``run`` per input and no timed pass: the
    costs are those runs' own."""
    return _overall(backend, partial(backend.run, program), inputs, reference)


def _overall(backend: Backend, run, inputs: Sequence[Sequence[int]],
             reference: OverallTime | None = None) -> OverallTime:
    """``overall_time`` with ``run(input_values, budget)`` for the runs."""
    total = Cost(0, backend.unit)
    results: list[RunResult] = []
    for i, values in enumerate(inputs):
        ref = None if reference is None else reference.results[i]
        result = run(values, backend.baseline_budget() if ref is None
                     else backend.mutant_budget(ref.cost))
        results.append(result)
        if not result.ok:
            return OverallTime(None, result.verdict, i, tuple(results))
        if ref is not None and result.output != ref.output:
            return OverallTime(None, VERDICT_KILLED, i, tuple(results))
        total = total + result.cost
    return OverallTime(total, VERDICT_OK, None, tuple(results))
