"""Non-termination proofs at the loop head: slices, traps, and a
differential check that detection never changes a run's outcome."""

import pytest

from mutopt import AOR, ASR, ROR, CompileError, Language, apply_all, parse_mini, tokenize
from mutopt.cli import load_inputs
from mutopt.minilang.ast_nodes import While
from mutopt.minilang.interp import (
    BudgetExceeded,
    MiniRuntimeError,
    _cycle,
    compile_program,
    generate_source,
    loop_slice,
)

import minigen
from conftest import FIXTURES


def parse(text: str):
    return parse_mini(tokenize(text.encode(), Language.MINI))


def first_loop(text: str):
    return next(s for s in parse(text).body if isinstance(s, While))


def outcome(program, values, budget, arm):
    try:
        result = program.run(values, budget, arm)
    except (BudgetExceeded, MiniRuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.output, result.steps


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
    program = compile_program(parse(text))
    assert outcome(program, [], 10**6, 0) == expected
    assert outcome(program, [], 10**6, None) == expected


@pytest.mark.parametrize("text, checks", [
    ("while (i < 3) { i += 1; if (i == 2) { break; } }", 0),
    # only the inner loop is eligible
    ("while (i < 3) { j = 0; while (j < 2) { j += 1; } i += 1; }", 1),
])
def test_ineligible_loops_get_no_detector(text, checks):
    assert generate_source(parse(text)).count("_cycle(") == checks


def test_cycle_detector_finds_every_period():
    for prefix in range(6):
        for period in range(1, 10):
            keys = [(-k,) for k in range(prefix)] + [(k % period,) for k in range(10 * period)]
            state, checks = None, 0
            with pytest.raises(BudgetExceeded):
                for key in keys:
                    checks += 1
                    state = _cycle(state, key, 0, 1)
            # Brent: the saved key is in the cycle and its power covers the
            # period within 2 * max(prefix + 1, period) checks; one more
            # period brings the repeat
            assert checks <= 2 * (prefix + 2 * period) + 1, (prefix, period)


def test_cycle_detector_stops_at_the_budget_and_not_before():
    state = None
    for k in range(1000):
        state = _cycle(state, (k,), k, 999)
    with pytest.raises(BudgetExceeded):
        _cycle(state, (1000,), 1000, 999)


def test_hostile_divide_by_one_is_proved_non_terminating():
    unit = tokenize((FIXTURES / "hostile.mini").read_bytes(), Language.MINI)
    mutant, = [m for m in apply_all([ASR], unit)
               if m.original == "-=" and m.replacement == "/="]
    program = compile_program(parse_mini(tokenize(mutant.mutated_text, Language.MINI)))
    # without the proof this run would take hours
    with pytest.raises(BudgetExceeded):
        program.run([5], 10**12, 0)


def _mismatches(text: bytes, inputs) -> list[str]:
    unit = tokenize(text, Language.MINI)
    original = compile_program(parse_mini(unit))
    budgets = [10 * original.run(values, 10**9).steps for values in inputs]
    found = []
    for m in apply_all([ROR, ASR, AOR], unit):
        try:
            program = compile_program(parse_mini(tokenize(m.mutated_text, Language.MINI)))
        except CompileError:
            continue
        for values, budget in zip(inputs, budgets):
            armed = outcome(program, values, budget, 0)
            if armed != outcome(program, values, budget, None):
                found.append(f"{m.id} on {values}: armed gave {armed}")
    return found


@pytest.mark.parametrize("name, inputs", [
    ("hostile.mini", "m_hostile"),
    ("max_search.mini", "m_max"),
    ("powsum.mini", "m_powsum"),
    ("census.mini", [[-3], [0], [1], [7]]),
])
def test_detection_never_changes_a_fixture_outcome(name, inputs):
    if isinstance(inputs, str):
        inputs = [e.values for e in load_inputs(FIXTURES / inputs).entries]
    assert _mismatches((FIXTURES / name).read_bytes(), inputs) == []


def test_detection_never_changes_a_generated_outcome():
    found = []
    for seed in range(50):
        inputs = [e.values for e in minigen.generate_inputs(seed).entries]
        found += _mismatches(minigen.generate_program(seed).encode(), inputs)
    assert found == []
