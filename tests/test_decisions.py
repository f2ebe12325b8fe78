"""Gate for deciding mutants from one instrumented run of the original
(``MiniBackend.decide``): every run the backend answers without executing
must equal the corpus's fresh full compile (class, message, output and
steps), and every mutant must get the verdict it gets when all its runs
execute.  The instrumented run is also the mini backend's baseline, so its
own outcome must equal the original's fresh full compile, armed or not."""

import pytest

from mutopt import AOR, ASR, ROR, ExecBackendConfig, apply_all
from mutopt.backend import DECIDED_INHERITED, DECIDED_SHADOWED, VERDICT_CRASH, MiniBackend
from mutopt.cli import load_inputs
from mutopt.minilang.instrument import Instrumented
from mutopt.minilang.interp import CYCLE_STRIDE, compile_program
from mutopt.optimizer import InputEntry, InputSet, _evaluate_one

from conftest import (FIXTURE_INPUTS, FIXTURES, attempt, full_compile, load_unit, outcome,
                      outcomes)


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
    """A decision's outcome in the corpus's form (``conftest.outcome``)."""
    if isinstance(decision.outcome, str):
        return "MiniRuntimeError", decision.outcome
    return "ok", decision.outcome.output, decision.outcome.steps


def _wrong_decisions(subject) -> tuple[list[str], int]:
    """Decided runs of the subject's mutants that differ from the fresh full
    compile, and verdicts that differ from those of a backend that decides
    nothing; and the number of decided runs."""
    backend, reference, mutants = _deciding_backend(subject.unit, subject.inputs)
    plain = MiniBackend(ExecBackendConfig())
    plain.compile(subject.unit)
    inputs = InputSet(tuple(InputEntry(str(i), tuple(values))
                            for i, values in enumerate(subject.inputs)))
    found, decided = [], 0
    for mutant, fresh in zip(mutants, subject.mutants):
        program = attempt(backend.compile, fresh.text)
        decisions = {} if isinstance(program, str) else backend.decisions(program)
        for values, want in zip(subject.inputs, fresh.unarmed or ()):
            decision = decisions.get(tuple(values))
            if decision is not None:
                decided += 1
                if _outcome(decision) != want:
                    found.append(f"{subject.name} {fresh.id} on {values}: "
                                 f"{decision.kind} {_outcome(decision)}, ran {want}")
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
    assert decided > 0


def test_decisions_match_full_compile_on_generated_programs(corpus):
    found, decided = [], 0
    for subject in corpus.generated:
        f, d = _wrong_decisions(subject)
        found += f
        decided += d
    assert found == []
    assert decided > 0


def test_decisions_match_full_compile_on_wide(corpus):
    found, decided = _wrong_decisions(corpus.wide)
    assert found == []
    assert decided > 0


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
    probe = Instrumented(backend._base.tree, [site for site in sites if site is not None])

    def run(*args):
        return probe.run(*args)[0]

    original = subject.original
    expected = {None: original.unarmed, 0: original.armed,
                CYCLE_STRIDE: tuple(outcomes(compile_program(original.program),
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
    decisions = backend.decisions(backend.compile(mutant.mutated_text))
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
    for id in ("ROR_6", "ROR_18", "AOR_5", "AOR_6", "AOR_7", "ROR_13"):
        assert kinds[id][i20] is None, id


def test_precedence_regroup_is_not_decided():
    # ``-`` to ``/`` regroups ``in[0] - in[1] * in[2]`` as
    # ``(in[0] / in[1]) * in[2]``; on [4, 1, 2] the operator alone, on the
    # original's operands, would give 4 / 2, the original's 2
    unit = load_unit("slices.mini")
    backend, _, mutants = _deciding_backend(unit, [[4, 1, 2]])
    start = unit.text.index(b"in[0] - in[1] * in[2]") + len(b"in[0] ")
    regroup, = [m for m in mutants if m.start == start and m.replacement == "/"]
    assert _kinds(backend, regroup, [[4, 1, 2]]) == (None,)
    run = backend.run(backend.compile(regroup.mutated_text), [4, 1, 2], 10**6)
    assert run.decided is None
    assert run.output == full_compile(regroup.mutated_text).run([4, 1, 2], 10**6).output
    assert run.output.split(b"\n")[5] == b"8"


def test_decisions_are_answered_only_within_the_budget():
    unit = load_unit("b2tob10.mini")
    inputs = [FIXTURE_INPUTS["b2tob10.mini"][-1]]
    backend, reference, mutants = _deciding_backend(unit, inputs)
    steps = reference.cost.value
    inherited = next(m for m in mutants if _kinds(backend, m, inputs) == (DECIDED_INHERITED,))
    program = backend.compile(inherited.mutated_text)
    assert backend.run(program, inputs[0], steps).decided == DECIDED_INHERITED
    assert backend.run(program, inputs[0], steps - 1).decided is None


def test_a_later_decide_leaves_earlier_compiles_right():
    # a decision is a fact about a mutant on given input values: a program
    # compiled under one decide answers the next decide's inputs as a real
    # run would, whether it still has a decision for them or not
    unit = load_unit("powsum.mini")
    backend, _, mutants = _deciding_backend(unit, [[64], [5]])
    programs = [attempt(backend.compile, m.mutated_text) for m in mutants]
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
    assert any(backend.decisions(backend.compile(m.mutated_text)) for m in mutants)
    # powsum reads in[0]: on no input the original crashes
    baseline = backend.decide([(m.start, m.replacement) for m in mutants], [[]])
    assert baseline.verdict == VERDICT_CRASH
    assert not any(backend.decisions(backend.compile(m.mutated_text)) for m in mutants)
