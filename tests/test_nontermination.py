"""Non-termination proofs at the loop head: slices, traps, a differential
check that detection never changes a run's outcome at any stride, and how
many checks a run pays for."""

import pytest

from mutopt import (AOR, ASR, ROR, ExecBackendConfig, Language, apply_all, make_backend,
                    parse_mini, tokenize)
from mutopt.backend import BASELINE_STEP_LIMIT
from mutopt.cli import load_inputs
from mutopt.minilang import interp
from mutopt.minilang.ast_nodes import While
from mutopt.minilang.interp import (
    CYCLE_STRIDE,
    BudgetExceeded,
    _cycle,
    compile_program,
    generate_source,
    loop_slice,
)

from conftest import (ANY_BUDGET, FIXTURE_INPUTS, FIXTURES, full_compile, load_unit, outcome,
                      outcomes)

# 0 checks every head; 1 and 3 check some heads of short entries, where the
# mini backend's stride checks none
STRIDES = (0, 1, 3, CYCLE_STRIDE)


def parse(text: str):
    return parse_mini(tokenize(text.encode(), Language.MINI))


def first_loop(text: str):
    return next(s for s in parse(text).body if isinstance(s, While))


CONTROL_TRAP = "j = 3; i = 0; while (i < 1) { if (j == 0) { i = 1; } j -= 1; } print(i);"
CRASH_TRAP = "j = 3; while (1) { x = 100 / j; j -= 1; }"
CLOSURE_TRAP = "i = 0; t = 0; while (i < 3) { i = t; t += 1; } print(i);"
REENTRY_TRAP = ("k = 0; while (k < 3) { i = 0; while (i < 2) { i += 1; } k += 1; } "
                "print(k);")


@pytest.mark.parametrize("text, expected", [
    ((FIXTURES / "hostile.mini").read_text(), ("i",)),
    ("while (1) { x += 1; }", ()),
    (CONTROL_TRAP, ("i", "j")),
    (CRASH_TRAP, ("j",)),
    ("while (i < 9) { x = in[i]; i += 1; }", ("i",)),
    ("while (i < n) { t = k * 2; i += t; k += 1; u += 1; print(u); }", ("i", "k", "t")),
    ("while (i < 9) { x /= y; y = i; i += 1; }", ("i", "x", "y")),
    ("while (i < 3) { i += 1; if (i == 2) { break; } }", None),
    ("while (i < 3) { j = 0; while (j < 2) { j += 1; } i += 1; }", None),
])
def test_loop_slice(text, expected):
    assert loop_slice(first_loop(text)) == expected


@pytest.mark.parametrize("text, expected", [
    (CONTROL_TRAP, ("ok", b"1", 30)),
    (CRASH_TRAP, ("MiniRuntimeError", "division by zero at line 1")),
    (CLOSURE_TRAP, ("ok", b"3", 25)),
    (REENTRY_TRAP, ("ok", b"3", 49)),
], ids=["control-dependence", "crash", "closure", "re-entry"])
def test_traps_keep_their_outcome_when_always_armed(text, expected):
    program = compile_program(parse(text), ANY_BUDGET)
    for arm in (None,) + STRIDES:
        assert outcome(program.run, [], 10**6, arm) == expected, arm


@pytest.mark.parametrize("text, checks", [
    ("while (i < 3) { i += 1; if (i == 2) { break; } }", 0),
    # only the inner loop is eligible
    ("while (i < 3) { j = 0; while (j < 2) { j += 1; } i += 1; }", 1),
])
def test_ineligible_loops_get_no_detector(text, checks):
    assert generate_source(parse(text), ANY_BUDGET).count("_cycle(") == checks


def test_cycle_detector_finds_every_period():
    for prefix in range(6):
        for period in range(1, 10):
            keys = [(-k,) for k in range(prefix)] + [(k % period,) for k in range(10 * period)]
            state, checks = None, 0
            with pytest.raises(BudgetExceeded):
                for key in keys:
                    checks += 1
                    state, _ = _cycle(state, key, 0, 1, 0)
            # Brent: the saved key is in the cycle and its power covers the
            # period within 2 * max(prefix + 1, period) checks; one more
            # period brings the repeat
            assert checks <= 2 * (prefix + 2 * period) + 1, (prefix, period)


def test_cycle_detector_stops_at_the_budget_and_not_before():
    state = None
    for k in range(1000):
        state, point = _cycle(state, (k,), k, 999, 10)
        assert point == min(k + 10, 999)
    with pytest.raises(BudgetExceeded) as stop:
        _cycle(state, (1000,), 1000, 999, 10)
    assert stop.value.steps == 1000


def test_budget_stop_carries_its_step_count():
    # heads at 3, 7, 11 and 15 steps; the budget is checked at each
    program = compile_program(parse("i = 0; while (i < 3) { i += 1; }"), ANY_BUDGET)
    for arm in (None,) + STRIDES:
        with pytest.raises(BudgetExceeded) as stop:
            program.run([], 13, arm)
        assert (stop.value.steps, str(stop.value)) == (15, ""), arm
    # past the budget at exit
    with pytest.raises(BudgetExceeded) as stop:
        compile_program(parse("x = 1; y = 2;"), ANY_BUDGET).run([], 1)
    assert stop.value.steps == 2


def _counting_cycle(monkeypatch) -> list:
    """Count ``_cycle`` calls by programs compiled from now on."""
    calls = []
    real = interp._cycle

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(interp, "_cycle", counted)
    return calls


def test_a_long_entry_pays_one_check_per_stride(monkeypatch):
    calls = _counting_cycle(monkeypatch)
    result = compile_program(parse("i = 0; while (i < 100000) { i += 1; }"), ANY_BUDGET).run(
        [], 10**7, CYCLE_STRIDE)
    assert 0 < len(calls) <= result.steps // CYCLE_STRIDE + 1


def test_short_entries_pay_no_check(monkeypatch):
    # b2tob10's inner loop runs at most 20 iterations per entry on i20
    calls = _counting_cycle(monkeypatch)
    program = full_compile(load_unit("b2tob10.mini").text)
    i20, = [e.values for e in load_inputs(FIXTURES / "m_scaled").entries if e.id == "i20"]
    assert program.run(i20, BASELINE_STEP_LIMIT, CYCLE_STRIDE).steps == 19_923_080
    assert calls == []


def test_scaled_timeouts_stop_within_a_few_strides():
    unit = load_unit("b2tob10.mini")
    i20, = [e.values for e in load_inputs(FIXTURES / "m_scaled").entries if e.id == "i20"]
    budget = 10 * 19_923_080  # the default timeout factor times the original's cost
    backend = make_backend(ExecBackendConfig(kind="mini"))
    backend.compile(unit)
    stopped = {}
    for m in apply_all([ROR, ASR, AOR], unit):
        if m.id in ("AOR_5", "AOR_6", "AOR_7", "ROR_13"):
            assert backend.run(backend.compile(m.mutated_text), i20, budget).verdict == "timeout"
            with pytest.raises(BudgetExceeded) as stop:
                full_compile(m.mutated_text).run(i20, budget, CYCLE_STRIDE)
            stopped[m.id] = stop.value.steps
    # each one's inner loop sticks at its first entry, about 20 steps in;
    # Brent's detector saves the first check's key and matches it at the
    # second, one stride later
    assert len(stopped) == 4
    assert all(steps <= 3 * CYCLE_STRIDE for steps in stopped.values()), stopped


def test_hostile_divide_by_one_is_proved_non_terminating():
    unit = tokenize((FIXTURES / "hostile.mini").read_bytes(), Language.MINI)
    mutant, = [m for m in apply_all([ASR], unit)
               if m.original == "-=" and m.replacement == "/="]
    program = compile_program(parse_mini(tokenize(mutant.mutated_text, Language.MINI)),
                              ANY_BUDGET)
    # without the proof this run would take hours
    for arm in STRIDES:
        with pytest.raises(BudgetExceeded):
            program.run([5], 10**12, arm)


def _armed_differences(subject, strides=(0,)) -> list[str]:
    """Runs of the subject's mutants, at its budgets, whose outcome armed at
    one of ``strides`` differs from the unarmed one.  The corpus holds the
    runs armed at 0; other strides run a fresh compile."""
    found = []
    for fresh in subject.mutants:
        if fresh.error is not None:
            continue
        program = None
        for stride in strides:
            if stride == 0:
                armed = fresh.armed
            else:
                program = program or compile_program(fresh.program, ANY_BUDGET)
                armed = outcomes(program, subject.inputs, subject.budgets, stride)
            found += [f"{subject.name} {fresh.id} on {values} at stride {stride}: "
                      f"armed gave {got}"
                      for values, got, unarmed in zip(subject.inputs, armed, fresh.unarmed)
                      if got != unarmed]
    return found


# b2tob10, slices and seeds come last, after the four fixtures this sweep
# first ran on
@pytest.mark.parametrize("name, inputs", [
    (name, FIXTURE_INPUTS[name])
    for name in ("hostile.mini", "max_search.mini", "powsum.mini", "census.mini",
                 "b2tob10.mini", "slices.mini", "seeds.mini")])
def test_detection_never_changes_a_fixture_outcome(name, inputs, corpus):
    assert _armed_differences(corpus.fixture(name), STRIDES) == []


def test_detection_never_changes_a_generated_outcome(corpus):
    assert [line for subject in corpus.generated
            for line in _armed_differences(subject)] == []
