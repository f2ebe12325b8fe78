"""Differential test of the code generator against ``oracle.reference_eval``,
an AST walker that shares no code with it: outcome class, message, output
and steps must agree for every program and mutant on every input."""

import pytest

from mutopt import Language, tokenize
from mutopt.cli import load_inputs
from mutopt.minilang import BudgetExceeded, MiniRuntimeError, parse_mini
from mutopt.minilang.interp import compile_program
from mutopt.mutation import AOR, ASR, ROR, apply_all

import minigen
from conftest import FIXTURES, encode_bits
from oracle import reference_eval


def outcome(run):
    try:
        result = run()
    except (BudgetExceeded, MiniRuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.output, result.steps


def _mismatches(text: bytes, inputs) -> list[str]:
    """Runs of the program and of each of its mutants, at budgets 10x the
    original's steps, on which the two evaluators disagree."""
    unit = tokenize(text, Language.MINI)
    original = parse_mini(unit)
    budgets = [10 * compile_program(original).run(values, 10**9).steps
               for values in inputs]
    programs = [("original", original)]
    programs += [(m.id, parse_mini(tokenize(m.mutated_text, Language.MINI)))
                 for m in apply_all([ROR, ASR, AOR], unit)]
    found = []
    for name, program in programs:
        compiled = compile_program(program)
        for values, budget in zip(inputs, budgets):
            got = outcome(lambda: compiled.run(values, budget))
            want = outcome(lambda: reference_eval(program, values, budget))
            if got != want:
                found.append(f"{name} on {values}: codegen {got}, reference {want}")
    return found


@pytest.mark.parametrize("name, inputs", [
    ("b2tob10.mini", [encode_bits(b) for b in ("0", "1", "110", "1011011010")]),
    ("census.mini", [[-3], [0], [1], [7]]),
    ("hostile.mini", "m_hostile"),
    ("max_search.mini", "m_max"),
    ("powsum.mini", "m_powsum"),
])
def test_codegen_matches_reference_on_fixture(name, inputs):
    if isinstance(inputs, str):
        inputs = [e.values for e in load_inputs(FIXTURES / inputs).entries]
    assert _mismatches((FIXTURES / name).read_bytes(), inputs) == []


def test_codegen_matches_reference_on_generated_programs():
    found = []
    for seed in range(50):
        inputs = [e.values for e in minigen.generate_inputs(seed).entries]
        found += _mismatches(minigen.generate_program(seed).encode(), inputs)
    assert found == []


@pytest.mark.parametrize("text, inputs, expected", [
    # int64 edges: wrapping, MIN / -1, truncation, remainder sign, shift mask
    ("print(9223372036854775807 + 1);", [], ("ok", b"-9223372036854775808", 2)),
    ("m = -9223372036854775807 - 1; print(m / -1); print(m % -1);", [],
     ("ok", b"-9223372036854775808\n0", 9)),
    ("print(-7 / 2); print(-7 % 2); print(7 % -2);", [], ("ok", b"-3\n-1\n1", 9)),
    ("print(1 << 65); print(-8 >> 1); print(1 << -1);", [],
     ("ok", b"2\n-4\n-9223372036854775808", 8)),
    ("print(2 && 0); print(0 || 3); print(2 && 3); print(0 || 0);", [],
     ("ok", b"0\n1\n1\n0", 8)),
    ("print(6 & 3); print(6 | 3); print(6 ^ 3); print(-1 ^ 0);", [],
     ("ok", b"2\n7\n5\n-1", 9)),
    ("x = 0; print(x && 1 / x);", [],
     ("MiniRuntimeError", "division by zero at line 1")),
    ("print(in[in_len]);", [4], ("MiniRuntimeError", "array read out of bounds at line 1")),
    ("i = 0; while (i < 3) { i += 1; }", [], ("ok", b"", 15)),
])
def test_reference_semantics(text, inputs, expected):
    program = parse_mini(tokenize(text.encode(), Language.MINI))
    assert outcome(lambda: reference_eval(program, inputs, 10**6)) == expected
    assert outcome(lambda: compile_program(program).run(inputs, 10**6)) == expected


@pytest.mark.parametrize("text, budget, expected", [
    # 1 for the assignment, 2 per loop head, 2 per body: the last head is at 15
    ("i = 0; while (i < 3) { i += 1; }", 15, "ok"),
    ("i = 0; while (i < 3) { i += 1; }", 14, "BudgetExceeded"),
    # the check comes after the head's cost is added, before the condition runs
    ("x = 0; while (1 / x) { }", 2, "BudgetExceeded"),
    ("x = 0; while (1 / x) { }", 3, "MiniRuntimeError"),
])
def test_budget_is_checked_at_the_loop_head(text, budget, expected):
    program = parse_mini(tokenize(text.encode(), Language.MINI))
    assert outcome(lambda: reference_eval(program, [], budget))[0] == expected
    assert outcome(lambda: compile_program(program).run([], budget))[0] == expected
