"""Gate for deciding mutants from one instrumented run of the original
(``MiniBackend.decide``): every run the backend answers without executing
must equal the corpus's fresh full compile (class, message, output and
steps), and every mutant must get the verdict it gets when all its runs
execute.  That covers the runs a fork of the instrumented run decides: with
``FORK_STEPS`` at 0, a mutant forks at its first infection in any run.  The
instrumented run is also the mini backend's baseline, so its own outcome
must equal the original's fresh full compile, armed or not."""

from collections import Counter

import pytest

from mutopt import AOR, ASR, ROR, ExecBackendConfig, Language, apply_all, tokenize
from mutopt.backend import (DECIDED_FORKED, DECIDED_INHERITED, DECIDED_SHADOWED, VERDICT_CRASH,
                            VERDICT_OK, VERDICT_TIMEOUT, MiniBackend)
from mutopt.cli import load_inputs
from mutopt.minilang import BudgetExceeded, MiniRuntimeError, interp
from mutopt.minilang.instrument import Instrumented
from mutopt.minilang.interp import CYCLE_STRIDE, CompiledMini, compile_program
from mutopt.optimizer import InputEntry, InputSet, _evaluate_one

from conftest import (ANY_BUDGET, FIXTURE_INPUTS, FIXTURES, attempt, compile_mutant,
                      decisions_of, full_compile, load_unit, outcome, outcomes, stop)


def _deciding_backend(unit, inputs):
    """A backend that compiled ``unit`` and decided its mutants on
    ``inputs``, the original's run on them (``decide``'s baseline) and the
    mutants."""
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(unit)
    mutants = apply_all([ROR, ASR, AOR], unit)
    reference = backend.decide([(m.start, m.replacement) for m in mutants], inputs)
    return backend, reference, mutants


def _outcome(decision) -> tuple:
    """A decision's outcome in the corpus's form (``conftest.outcome``); a
    forked run proved never to end stops over budget unarmed."""
    if decision.outcome is None:
        return "BudgetExceeded", ""
    if isinstance(decision.outcome, str):
        return "MiniRuntimeError", decision.outcome
    return "ok", decision.outcome.output, decision.outcome.steps


def _wrong_decisions(subject) -> tuple[list[str], Counter]:
    """Decided runs of the subject's mutants that differ from the fresh full
    compile, and verdicts that differ from those of a backend that decides
    nothing; and the decided runs by kind."""
    backend, reference, mutants = _deciding_backend(subject.unit, subject.inputs)
    plain = MiniBackend(ExecBackendConfig())
    plain.compile(subject.unit)
    inputs = InputSet(tuple(InputEntry(str(i), tuple(values))
                            for i, values in enumerate(subject.inputs)))
    found, decided = [], Counter()
    for mutant, fresh in zip(mutants, subject.mutants):
        program = attempt(compile_mutant, backend, fresh)
        decisions = {} if isinstance(program, str) else decisions_of(backend, program)
        for values, want in zip(subject.inputs, fresh.unarmed or ()):
            decision = decisions.get(tuple(values))
            if decision is not None:
                decided[decision.kind] += 1
                if _outcome(decision) != want:
                    found.append(f"{subject.name} {fresh.id} on {values}: "
                                 f"{decision.kind} {_outcome(decision)}, ran {want}")
                # a shadowed decision holds within its steps (a branch
                # shadow's may exceed the original's and its own)
                if (decision.kind == DECIDED_SHADOWED
                        and outcome(program.run, values, decision.steps) != want):
                    found.append(f"{subject.name} {fresh.id} on {values}: "
                                 f"{decision.kind} does not hold within {decision.steps}")
        got, want = (_evaluate_one(b, inputs, reference, "unit", mutant)
                     for b in (backend, plain))
        if (got.status, got.input_id, got.tau, got.runs) != (want.status, want.input_id,
                                                               want.tau, want.runs):
            found.append(f"{subject.name} {fresh.id}: verdict {got} with decisions, "
                         f"{want} without")
    return found, decided


@pytest.mark.parametrize("name, inputs", FIXTURE_INPUTS.items())
def test_decisions_match_full_compile_on_fixture(name, inputs, corpus):
    found, decided = _wrong_decisions(corpus.fixture(name))
    assert found == []
    assert decided.total() > 0


def test_decisions_match_full_compile_on_generated_programs(corpus):
    found, decided = [], Counter()
    for subject in corpus.generated:
        f, d = _wrong_decisions(subject)
        found += f
        decided += d
    assert found == []
    assert decided.total() > 0


def test_decisions_match_full_compile_on_wide(corpus):
    found, decided = _wrong_decisions(corpus.wide)
    assert found == []
    assert decided.total() > 0
    # its runs are all far shorter than FORK_STEPS
    assert decided[DECIDED_FORKED] == 0


@pytest.mark.parametrize("name, inputs", FIXTURE_INPUTS.items())
def test_forked_decisions_match_full_compile_on_fixture(name, inputs, corpus, monkeypatch):
    monkeypatch.setattr(interp, "FORK_STEPS", 0)
    found, decided = _wrong_decisions(corpus.fixture(name))
    assert found == []
    assert decided[DECIDED_FORKED] > 0


def test_forked_decisions_match_full_compile_on_generated_programs(corpus, monkeypatch):
    monkeypatch.setattr(interp, "FORK_STEPS", 0)
    found, decided = [], Counter()
    for subject in corpus.generated[:8]:
        f, d = _wrong_decisions(subject)
        found += f
        decided += d
    assert found == []
    assert decided[DECIDED_FORKED] > 0


def _instrumented_differences(subject) -> list[str]:
    """Runs of the subject's original, instrumented with the sites of all
    its mutants, whose outcome differs from the fresh full compile's:
    unarmed, armed at 0 and at ``CYCLE_STRIDE`` under the subject's budgets,
    and under one step short of the original's steps, where it must stop
    over budget.  The mini backend takes this run as the baseline."""
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(subject.unit)
    sites = (backend._base.site(m.start, m.replacement)
             for m in apply_all([ROR, ASR, AOR], subject.unit))
    probe = Instrumented(backend._base.tree, [site for site in sites if site is not None],
                         backend._budget)

    def run(*args):
        return probe.run(*args)[0]

    original = subject.original
    expected = {None: original.unarmed, 0: original.armed,
                CYCLE_STRIDE: tuple(outcomes(compile_program(original.program, ANY_BUDGET),
                                             subject.inputs, subject.budgets,
                                             CYCLE_STRIDE))}
    found = []
    for arm, want in expected.items():
        for values, budget, ran in zip(subject.inputs, subject.budgets, want):
            got = outcome(run, values, budget, arm)
            if got != ran:
                found.append(f"{subject.name} on {values} armed at {arm}: "
                             f"instrumented {got}, ran {ran}")
            steps = budget // 10  # the corpus's budgets are 10x the steps
            if steps > 1:
                short = outcome(run, values, steps - 1, arm)
                if short != ("BudgetExceeded", ""):
                    found.append(f"{subject.name} on {values} armed at {arm}: "
                                 f"instrumented {short} under {steps - 1} steps")
    return found


@pytest.mark.parametrize("name, inputs", FIXTURE_INPUTS.items())
def test_instrumented_original_matches_full_compile_on_fixture(name, inputs, corpus):
    assert _instrumented_differences(corpus.fixture(name)) == []


def test_instrumented_original_matches_full_compile_on_generated_programs(corpus):
    assert [line for subject in corpus.generated
            for line in _instrumented_differences(subject)] == []


def test_instrumented_original_matches_full_compile_on_wide(corpus):
    assert _instrumented_differences(corpus.wide) == []


def _kinds(backend, mutant, inputs):
    decisions = decisions_of(backend, compile_mutant(backend, mutant))
    found = (decisions.get(tuple(values)) for values in inputs)
    return tuple(None if d is None else d.kind for d in found)


def test_pinned_decisions_on_scaled():
    inputs = load_inputs(FIXTURES / "m_scaled")
    values = [e.values for e in inputs.entries]
    backend, _, mutants = _deciding_backend(load_unit("b2tob10.mini"), values)
    kinds = {m.id: _kinds(backend, m, values) for m in mutants}
    # never infected: on these inputs size is never 0 or negative, aux is
    # never negative and count is at least 1 wherever it is tested
    for id in ("ROR_1", "ROR_2", "ROR_15", "ROR_20"):
        assert kinds[id] == (DECIDED_INHERITED,) * 3, id
    # data-only: they change number or pos, which no condition reads
    for id in ("ASR_13", "ASR_14", "ASR_18", "ASR_19", "ASR_20", "AOR_11", "AOR_12",
               "AOR_13", "AOR_14", "AOR_15", "AOR_16"):
        assert kinds[id] == (DECIDED_SHADOWED,) * 3, id
    i20 = [e.id for e in inputs.entries].index("i20")
    # ROR_6, ``i <= 1 << size - 1`` to ``<``, is first infected at the last
    # outer loop head of i20, 27 steps before its end, and forks there; the
    # four timeouts are infected early
    assert kinds["ROR_6"][i20] == DECIDED_FORKED
    assert sum(kind == DECIDED_FORKED for row in kinds.values() for kind in row) == 1
    for id in ("AOR_5", "AOR_6", "AOR_7", "ROR_13"):
        assert kinds[id][i20] is None, id
    # branch shadows: ``count > 1`` flipped sends the mutant down the other
    # path of the ``if``, which changes only number and pos besides i += 2
    for id in ("ROR_16", "ROR_17", "ROR_18", "ROR_19"):
        assert kinds[id][i20] == DECIDED_SHADOWED, id


def test_branch_shadows_flip_only_where_the_branch_differs_on_scaled(monkeypatch):
    # one ``_branch`` call per flip: ROR_18 (``count >= 1``) flips at the 19
    # powers of two of i20, and the three others stop calling at the crash
    # that reading past the input ends them with, so no call per iteration
    # of the outer loop creeps in
    flips = Counter()
    branch = Instrumented._branch
    monkeypatch.setattr(Instrumented, "_branch",
                        lambda self, j, *args: flips.update([j]) or branch(self, j, *args))
    backend = MiniBackend(ExecBackendConfig())
    unit = load_unit("b2tob10.mini")
    backend.compile(unit)
    found = [(m.id, backend._base.site(m.start, m.replacement))
             for m in apply_all([ROR, ASR, AOR], unit)]
    found = [(id, site) for id, site in found if site is not None]
    probe = Instrumented(backend._base.tree, [site for _, site in found], backend._budget)
    i20, = (e.values for e in load_inputs(FIXTURES / "m_scaled").entries if e.id == "i20")
    _, decisions = probe.run(i20, backend.baseline_budget(), CYCLE_STRIDE)
    assert {found[j][0]: n for j, n in flips.items()} == {
        "ROR_16": 16, "ROR_17": 26, "ROR_18": 19, "ROR_19": 26}
    assert [isinstance(decisions[j].outcome, str) for j in sorted(flips)] == [
        True, True, False, True]


def test_an_original_that_crashes_in_a_branch_region_raises_its_own_crash():
    # the mutant ``i >= in[0]`` flips at i = 0 on [0, 0, 0]: the shadow
    # evaluates the original's path through the region for i, whose
    # division crashes on line 8, but the original crashes first, on line 7
    text = b"""i = 0;
s = 0;
while (i < 3) {
    if (i > in[0]) {
        i += 1;
    } else {
        s += 5 / in[1];
        i += 10 / in[2];
    }
}
print(s);
"""
    unit = tokenize(text, Language.MINI)
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(unit)
    sites = [backend._base.site(m.start, m.replacement) for m in apply_all([ROR], unit)]
    probe = Instrumented(backend._base.tree, sites, backend._budget)
    assert probe._regions
    plain = outcome(full_compile(text).run, [0, 0, 0], 10**6)
    assert plain == ("MiniRuntimeError", "division by zero at line 7")
    assert outcome(lambda *args: probe.run(*args)[0], [0, 0, 0], 10**6, None) == plain


def test_precedence_regroup_is_not_decided():
    # ``-`` to ``/`` regroups ``in[0] - in[1] * in[2]`` as
    # ``(in[0] / in[1]) * in[2]``; on [4, 1, 2] the operator alone, on the
    # original's operands, would give 4 / 2, the original's 2
    unit = load_unit("slices.mini")
    backend, _, mutants = _deciding_backend(unit, [[4, 1, 2]])
    start = unit.text.index(b"in[0] - in[1] * in[2]") + len(b"in[0] ")
    regroup, = [m for m in mutants if m.start == start and m.replacement == "/"]
    assert _kinds(backend, regroup, [[4, 1, 2]]) == (None,)
    run = backend.run(compile_mutant(backend, regroup), [4, 1, 2], 10**6)
    assert run.decided is None
    assert run.output == full_compile(regroup.mutated_text).run([4, 1, 2], 10**6).output
    assert run.output.split(b"\n")[5] == b"8"


def test_decisions_are_answered_only_within_the_budget():
    unit = load_unit("b2tob10.mini")
    inputs = [FIXTURE_INPUTS["b2tob10.mini"][-1]]
    backend, reference, mutants = _deciding_backend(unit, inputs)
    steps = reference.cost.value
    inherited = next(m for m in mutants if _kinds(backend, m, inputs) == (DECIDED_INHERITED,))
    program = compile_mutant(backend, inherited)
    assert backend.run(program, inputs[0], steps).decided == DECIDED_INHERITED
    assert backend.run(program, inputs[0], steps - 1).decided is None


def test_a_later_decide_leaves_earlier_compiles_right():
    # a decision is a fact about a mutant on given input values: a program
    # compiled under one decide answers the next decide's inputs as a real
    # run would, whether it still has a decision for them or not
    unit = load_unit("powsum.mini")
    backend, _, mutants = _deciding_backend(unit, [[64], [5]])
    programs = [attempt(compile_mutant, backend, m) for m in mutants]
    inputs = [[3], [64]]
    reference = backend.decide([(m.start, m.replacement) for m in mutants], inputs)
    found, decided = [], 0
    for mutant, program in zip(mutants, programs):
        if isinstance(program, str):
            continue
        plain = MiniBackend(ExecBackendConfig())
        fresh = plain.compile(mutant.mutated_text)
        for values, ref in zip(inputs, reference.results):
            budget = backend.mutant_budget(ref.cost)
            got, want = backend.run(program, values, budget), plain.run(fresh, values, budget)
            decided += got.decided is not None
            if (got.verdict, got.output, got.cost) != (want.verdict, want.output, want.cost):
                found.append(f"{mutant.id} on {values}: {got.decided} {got}, ran {want}")
    assert found == []
    assert decided > 0


def test_a_decide_whose_baseline_fails_leaves_no_decisions():
    unit = load_unit("powsum.mini")
    backend, _, mutants = _deciding_backend(unit, [[64]])
    assert any(decisions_of(backend, compile_mutant(backend, m)) for m in mutants)
    # powsum reads in[0]: on no input the original crashes
    baseline = backend.decide([(m.start, m.replacement) for m in mutants], [[]])
    assert baseline.verdict == VERDICT_CRASH
    assert not any(decisions_of(backend, compile_mutant(backend, m)) for m in mutants)


def _recording_runs(monkeypatch) -> list:
    """A list that gains, at each ``CompiledMini.run``, the run's outcome,
    with the step count where it stopped for a BudgetExceeded, and the
    statement it started at."""
    runs = []
    real = CompiledMini.run

    def run(self, values, budget, arm=None, start=None):
        k = 0 if start is None else start[0]
        try:
            result = real(self, values, budget, arm, start)
        except BudgetExceeded as exc:
            runs.append((("BudgetExceeded", exc.steps), k))
            raise
        except MiniRuntimeError as exc:
            runs.append((("MiniRuntimeError", str(exc)), k))
            raise
        runs.append((("ok", result.output, result.steps), k))
        return result

    monkeypatch.setattr(CompiledMini, "run", run)
    return runs


_VERDICT_CLASSES = {VERDICT_OK: "ok", VERDICT_CRASH: "MiniRuntimeError",
                    VERDICT_TIMEOUT: "BudgetExceeded"}


def _resumed_mismatches(subject, monkeypatch) -> tuple[list[str], int]:
    """Runs of the subject's mutants through ``MiniBackend.run``, after
    ``decide``, on every input under its budget, that differ from the fresh
    full compile: a decided run by class, output and steps; an executed
    run also by its crash's message, and by the step it stopped at over
    budget, armed at ``CYCLE_STRIDE`` as the backend arms it.  And the
    number of executed runs that started at a later statement."""
    backend, _, _ = _deciding_backend(subject.unit, subject.inputs)
    runs = _recording_runs(monkeypatch)
    found, resumed = [], 0
    for fresh in subject.mutants:
        program = attempt(compile_mutant, backend, fresh)
        if isinstance(program, str) or fresh.error:
            if program != fresh.error:
                found.append(f"{subject.name} {fresh.id}: {program} != {fresh.error}")
            continue
        for values, budget, want in zip(subject.inputs, subject.budgets, fresh.unarmed):
            runs.clear()
            result = backend.run(program, values, budget)
            got = (_VERDICT_CLASSES[result.verdict],
                   *((result.output, result.cost.value) if result.ok else ()))
            if result.decided is None:
                (got, k), = runs
                resumed += k > 0
                if got[0] == "BudgetExceeded":
                    want = stop(full_compile(fresh.text), values, budget, CYCLE_STRIDE)
            elif not result.ok:
                want = want[:1]
            if got != want:
                found.append(f"{subject.name} {fresh.id} on {values} "
                             f"({result.decided or 'executed'}): {got} != {want}")
    return found, resumed


@pytest.mark.parametrize("name, inputs", FIXTURE_INPUTS.items())
def test_resumed_runs_match_full_compile_on_fixture(name, inputs, corpus, monkeypatch):
    found, _ = _resumed_mismatches(corpus.fixture(name), monkeypatch)
    assert found == []


def test_resumed_runs_match_full_compile_on_generated_programs(corpus, monkeypatch):
    found, resumed = [], 0
    for subject in corpus.generated:
        f, r = _resumed_mismatches(subject, monkeypatch)
        found += f
        resumed += r
    assert found == []
    assert resumed > 0


def test_resumed_runs_match_full_compile_on_wide(corpus, monkeypatch):
    found, resumed = _resumed_mismatches(corpus.wide, monkeypatch)
    assert found == []
    assert resumed > 0


def test_a_run_starts_at_its_statement_only_within_the_budget(corpus, monkeypatch):
    # under fewer steps than the original's entry to the mutant's statement
    # the run starts at the first statement, and stops over budget where a
    # fresh full compile stops, in an earlier statement's loop
    subject = corpus.wide
    backend, _, mutants = _deciding_backend(subject.unit, subject.inputs)
    values = subject.inputs[0]
    programs = [(compile_mutant(backend, m), m) for m in mutants]
    program, mutant = max(programs, key=lambda found: backend._answers[found[0]][0])
    k = backend._answers[program][0]
    steps = backend._entries[tuple(values)][1][k][0]
    runs = _recording_runs(monkeypatch)
    for budget, start in ((steps - 1, 0), (steps, k)):
        runs.clear()
        result = backend.run(program, values, budget)
        (got, started), = runs
        assert (result.verdict, started) == (VERDICT_TIMEOUT, start)
        assert got == stop(full_compile(mutant.mutated_text), values, budget, CYCLE_STRIDE)
