import os
import shlex
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, cached_property
from pathlib import Path

import pytest

import mutopt.backend
from mutopt import AOR, ASR, ROR, CompileError, Language, SourceUnit, apply_all, tokenize
from mutopt.cli import load_inputs
from mutopt.cschema import SWITCH
from mutopt.minilang import BudgetExceeded, MiniProgram, MiniRuntimeError, interp, parse_mini
from mutopt.minilang.interp import compile_program
from mutopt.optimizer import confirm_equivalence
from mutopt.tokens import MalformedSource

import minigen

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DATA = Path(__file__).resolve().parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

RUN_SLOW = bool(os.environ.get("MUTOPT_RUN_SLOW"))

FULL_BITS_30 = "111111111111111111111111110110"
SCALED_BITS_20 = "11111111111111110110"

# a step budget above any a test runs, under which no loop counter's range
# fits in int64: code compiled for it keeps every loop counter's check
ANY_BUDGET = 2**64


def encode_bits(bits: str) -> list[int]:
    """Input encoding used by the binary-conversion fixtures: length first,
    then the bits most significant first."""
    return [len(bits)] + [int(c) for c in bits]


def load_unit(name: str, language: Language = Language.MINI) -> SourceUnit:
    return tokenize((FIXTURES / name).read_bytes(), language)


@pytest.fixture(scope="session", autouse=True)
def no_child_outlives_the_session():
    """Fail the session when a child of the test process is left running
    or unreaped: a forked run or a spawned program."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the tests ({'running' if pid == 0 else 'unreaped'})")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def b2tob10_unit() -> SourceUnit:
    return load_unit("b2tob10.mini")


@pytest.fixture
def max_search_unit() -> SourceUnit:
    return load_unit("max_search.mini")


# A C program whose constant conditions gcc folds even at -O0: on lines 6
# and 7, ``>=`` and ``!=`` build the original's binary, and ``<=`` and
# ``==`` build the same binary as ``<``.  Line 6's ``<`` is killed on input
# 5, line 7's survives, and line 8's operators are all different code.
FOLDED_C = b"""int scanf(const char *, ...);
int printf(const char *, ...);
int main(void) {
    int a = 0, b = 0;
    scanf("%d", &a);
    if (2 > 1) a += 10;
    if (2 > 1) b = 1;
    printf("%d\\n", a > 14);
    return 0;
}
"""


def logging_run_cmd(log: Path, interpreter: str = "") -> str:
    """An external ``--run-cmd`` that appends the program's path and its
    ``cschema.SWITCH`` value (empty outside a schema) to ``log`` at each
    spawn, then runs it (through ``interpreter``, if given)."""
    script = f'echo "$0 ${SWITCH}" >> {shlex.quote(str(log))}; exec {interpreter} "$0"'
    return f"sh -c {shlex.quote(script)} {{bin}}"


def spawns(log: Path) -> Counter:
    """The runs ``logging_run_cmd`` logged, by program file name: one per
    spawn, but a schema's fork server (``SWITCH`` ``budget:n1,n2,...``)
    counts once for each mutant it runs, by the binary's name and the
    mutant's number, ``00.a.c.bin#3``."""
    names = Counter()
    for line in log.read_text().splitlines():
        path, _, switch = line.rpartition(" ")
        arms = switch.partition(":")[2].split(",") if switch else [""]
        names.update(Path(path).name + (f"#{n}" if n else "") for n in arms)
    return names


def confirm_against(candidate, original, inputs, config) -> bool:
    """``confirm_equivalence`` of ``candidate`` against ``original``'s own
    baseline, ``decide``'s run of it on a fresh backend; False when the
    original itself does not compile or run cleanly on every input."""
    backend = mutopt.backend.make_backend(config.backend, config.scratch_dir)
    try:
        backend.compile(original, name=config.source_name)
    except CompileError:
        return False
    baseline = backend.decide([], [e.values for e in inputs.entries])
    return baseline.verdict == "ok" and bool(
        confirm_equivalence(candidate, baseline, inputs, config))


# ---- differential helpers ----

def outcome(run, *args) -> tuple:
    """The outcome of ``run(*args)``: ("ok", output, steps), or the name and
    message of the BudgetExceeded or MiniRuntimeError it raised."""
    try:
        result = run(*args)
    except (BudgetExceeded, MiniRuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.output, result.steps


def stop(program, values, budget, arm) -> tuple:
    """``outcome`` of a run, with the step count where it stopped for a
    BudgetExceeded."""
    try:
        result = program.run(values, budget, arm)
    except BudgetExceeded as exc:
        return "BudgetExceeded", exc.steps
    except MiniRuntimeError as exc:
        return "MiniRuntimeError", str(exc)
    return "ok", result.output, result.steps


def outcomes(program, inputs, budgets, arm=None):
    """The outcome of ``program`` on each input under its budget; or
    ``program`` itself where it is the name of a compile error (see
    ``attempt``)."""
    if isinstance(program, str):
        return program
    return [outcome(program.run, values, budget, arm)
            for values, budget in zip(inputs, budgets)]


def full_compile(text: bytes):
    """A fresh full compile: tokenize, parse and generate, with no base."""
    return compile_program(parse_mini(tokenize(text, Language.MINI)), ANY_BUDGET)


def attempt(compile, *args):
    """The program ``compile(*args)`` returns, or the name of the error it
    raised."""
    try:
        return compile(*args)
    except (CompileError, MalformedSource) as exc:
        return type(exc).__name__


def compile_mutant(backend, mutant, name: str = "unit.src"):
    """``backend.compile`` of a ``Mutant`` or a corpus ``Fresh`` mutant with
    its edit, as ``optimize`` compiles it: on a backend that compiled its
    original first, the schema path (or the schema record), where the edit
    allows it."""
    if isinstance(mutant, Fresh):
        return backend.compile(mutant.text, name=name, edit=mutant.edit)
    return backend.compile(mutant.mutated_text, name=name,
                           edit=(mutant.start, mutant.replacement))


def decisions_of(backend, program) -> dict:
    """The decisions a ``MiniBackend``'s ``run`` answers for ``program``, by
    input values."""
    return backend._answers.get(program, (0, {}))[1]


def merges_tokens(subject, fresh) -> bool:
    """Whether a mutant's text lexes into another number of tokens than the
    subject's original: its change merged two tokens or opened a comment
    (``merges.mini``)."""
    return len(tokenize(fresh.text, Language.MINI).tokens) != len(subject.unit.tokens)


def shape(node):
    """``node`` without its operators: trees that differ only in operators
    have one shape."""
    if isinstance(node, tuple):
        return tuple(map(shape, node))
    if is_dataclass(node):
        return (type(node), *(shape(getattr(node, f.name)) for f in fields(node)
                              if f.name != "op"))
    return node


def regroups(subject, fresh) -> bool:
    """Whether a mutant's tree has another shape than the subject's
    original: its new operator binds at another level than the old one and
    regrouped the operands (``slices.mini``, ``precedence.mini``)."""
    if fresh.program is None:
        return False
    body, original = fresh.program.body, subject.original.program.body
    # the corpus keeps the original's statement wherever a mutant's equals it
    return len(body) != len(original) or any(
        new is not old and shape(new) != shape(old) for new, old in zip(body, original))


def count_full_parses(monkeypatch) -> list:
    """A list that gains an entry at each full parse the backend makes."""
    parses = []
    real_parse = mutopt.backend.parse_mini
    monkeypatch.setattr(mutopt.backend, "parse_mini",
                        lambda source: parses.append(1) or real_parse(source))
    return parses


# ---- the differential corpus ----

# The fixture programs the sweeps run, and their inputs: literal values or
# the name of an input-set directory.  The sweeps parametrize on the items,
# which names each case after its program and inputs.
FIXTURE_INPUTS = {
    "b2tob10.mini": [encode_bits(b) for b in ("0", "1", "110", "1011011010")],
    "census.mini": [[-3], [0], [1], [7]],
    "hostile.mini": "m_hostile",
    "max_search.mini": "m_max",
    "powsum.mini": "m_powsum",
    "slices.mini": [[4, 1, 2], [0, 3, 5, 1], [2, -1, 3], [9, 2, 0, -4, 7]],
    "merges.mini": [[5, 3], [-7, 2], [0, 0], [4, -1]],
    "reentry.mini": [[1, 4], [2, 4], [3, 6], [2, 0], [3, -2]],
    "seeds.mini": [[2, 4, 56], [1, 0, 20], [3, -2, 90], [0, 8, 7], [3, 6, 30]],
    "precedence.mini": [[3, 5, 2], [0, -4, 7], [6, 6, 1], [1, 0, 0, 9], [2, -1, -3]],
    "late.mini": [[60], [100], [7], [45]],
    "edges.mini": [[2**63 - 2, 2**63 - 1, 1], [-2**63, 1 - 2**63, 3], [0, 0, 0],
                   [2**63 - 1, -2**63, 9], [-5, 7, 63], []],
    "branches.mini": [[3, 5, 1, 2], [0, 1, 4, 0, 9, 9], [-2, 2, 0, 3] + [1] * 9,
                      [1, 0, 7, -1, 5], [2, 3, 2, 1, 0, 4, 4, 4]],
}


@dataclass(frozen=True)
class Fresh:
    """A fresh full compile of one program text and its runs.

    ``edit`` is a mutant's, the start of the token it replaces and the new
    lexeme; None for the original.  ``error`` names the error compiling
    raised.  Otherwise ``program`` is the AST, and ``unarmed`` and ``armed``
    hold the outcome on each of the subject's inputs under its budget,
    unarmed and armed at 0.
    """
    id: str
    text: bytes
    edit: tuple[int, str] | None = None
    error: str | None = None
    program: MiniProgram | None = None
    unarmed: tuple | None = None
    armed: tuple | None = None


@dataclass(frozen=True)
class Subject:
    """A program, its inputs, budgets 10x the original's steps on them, and
    fresh full compiles of the original and of every ROR, ASR and AOR
    mutant."""
    name: str
    unit: SourceUnit
    inputs: list
    budgets: list
    original: Fresh
    mutants: list[Fresh]


def build_subject(name: str, text: bytes, inputs: list) -> Subject:
    # Most of a mutant's generated functions are the original's text again,
    # so the build compiles each distinct text once.  A code object is
    # immutable and ``exec`` makes fresh functions from it, so every program
    # and run is what it is without the cache.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "compile", cache(compile), raising=False)
        return _build_subject(name, text, inputs)


def _build_subject(name: str, text: bytes, inputs: list) -> Subject:
    unit = tokenize(text, Language.MINI)
    original = parse_mini(unit)
    compiled = compile_program(original, ANY_BUDGET)
    budgets = [10 * compiled.run(values, 10**9).steps for values in inputs]
    # A mutant's AST holds the original's objects wherever its top-level
    # statements, variables and spans equal them, so the corpus keeps each
    # mutant's changed statement alone; equal outcome tuples share one
    # object.  Both are immutable and compare by value, so this changes
    # nothing but memory.
    statements = {s: s for s in original.body}
    spans = {s: s for s in original.spans}
    runs = {}

    def fresh(id, text, edit, program, compiled):
        if program is not original:
            program = MiniProgram(
                body=tuple(statements.get(s, s) for s in program.body),
                variables=(original.variables if program.variables == original.variables
                           else program.variables),
                spans=tuple(spans.get(s, s) for s in program.spans))
        unarmed, armed = (tuple(outcomes(compiled, inputs, budgets, arm)) for arm in (None, 0))
        return Fresh(id, text, edit, None, program,
                     runs.setdefault(unarmed, unarmed), runs.setdefault(armed, armed))

    mutants = []
    for m in apply_all([ROR, ASR, AOR], unit):
        edit = m.start, m.replacement
        try:
            program = parse_mini(tokenize(m.mutated_text, Language.MINI))
            compiled_mutant = compile_program(program, ANY_BUDGET)
        except (CompileError, MalformedSource) as exc:
            mutants.append(Fresh(m.id, m.mutated_text, edit, type(exc).__name__))
            continue
        mutants.append(fresh(m.id, m.mutated_text, edit, program, compiled_mutant))
    return Subject(name, unit, inputs, budgets,
                   fresh("original", text, None, original, compiled), mutants)


class Corpus:
    """Every program the differential sweeps compare, each built on first
    use and kept for the session: the fixtures, ``minigen`` seeds 0-49 and
    the benchmark's ``wide`` program, seed 1."""

    def __init__(self):
        self._fixtures = {}

    def fixture(self, name: str) -> Subject:
        if name not in self._fixtures:
            inputs = FIXTURE_INPUTS[name]
            if isinstance(inputs, str):
                inputs = [e.values for e in load_inputs(FIXTURES / inputs).entries]
            self._fixtures[name] = build_subject(name, (FIXTURES / name).read_bytes(), inputs)
        return self._fixtures[name]

    @cached_property
    def generated(self) -> list[Subject]:
        return [build_subject(f"seed {seed}", minigen.generate_program(seed).encode(),
                              [e.values for e in minigen.generate_inputs(seed).entries])
                for seed in range(50)]

    @cached_property
    def wide(self) -> Subject:
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(PERFBENCH))
            import widegen
        return build_subject("wide", widegen.generate_program(1).encode(),
                             widegen.generate_inputs(1))


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    return Corpus()
