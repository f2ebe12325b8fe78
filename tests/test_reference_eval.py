"""Differential test of the code generator against ``oracle.reference_eval``,
an AST walker that shares no code with it: outcome class, message, output
and steps must agree for every program and mutant on every input."""

import pytest

from mutopt import Language, tokenize
from mutopt.cli import load_inputs
from mutopt.minilang import parse_mini
from mutopt.minilang.interp import compile_program

from conftest import FIXTURE_INPUTS, FIXTURES, merges_tokens, outcome
from oracle import reference_eval


def _disagreements(subject) -> list[str]:
    """Runs of the subject's program and of each of its mutants, at its
    budgets, on which the reference and the fresh full compile disagree."""
    found = []
    for fresh in (subject.original, *subject.mutants):
        if fresh.error:
            # only a mutant that merges tokens may fail to compile
            if not merges_tokens(subject, fresh):
                found.append(f"{fresh.id}: {fresh.error}")
            continue
        for values, budget, got in zip(subject.inputs, subject.budgets, fresh.unarmed):
            want = outcome(reference_eval, fresh.program, values, budget)
            if got != want:
                found.append(f"{subject.name} {fresh.id} on {values}: "
                             f"codegen {got}, reference {want}")
    return found


@pytest.mark.parametrize("name, inputs", FIXTURE_INPUTS.items())
def test_codegen_matches_reference_on_fixture(name, inputs, corpus):
    assert _disagreements(corpus.fixture(name)) == []


def test_codegen_matches_reference_on_generated_programs(corpus):
    assert [line for subject in corpus.generated for line in _disagreements(subject)] == []


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
    # one-sided checks for a literal operand, results stored in place
    ("x = 9223372036854775807; x += 1; print(x);", [],
     ("ok", b"-9223372036854775808", 4)),
    ("x = 9223372036854775807; print(1 + x);", [], ("ok", b"-9223372036854775808", 3)),
    ("x = -9223372036854775807 - 1; x -= 1; print(x);", [],
     ("ok", b"9223372036854775807", 6)),
    ("x = 9223372036854775807; y = -9223372036854775807 - 1; print(x - 0);"
     " print(x + 0); print(0 + x); print(y - 0); print(y + 0); print(0 + y); print(0 - y);",
     [], ("ok", b"9223372036854775807\n" * 3 + b"-9223372036854775808\n" * 3
          + b"-9223372036854775808", 18)),
    ("x = 9223372036854775807; y = x * 2; print(y);", [], ("ok", b"-2", 4)),
    ("x = 9223372036854775807; x = x - -1; print(x);", [],
     ("ok", b"-9223372036854775808", 5)),
])
def test_reference_semantics(text, inputs, expected):
    program = parse_mini(tokenize(text.encode(), Language.MINI))
    assert outcome(reference_eval, program, inputs, 10**6) == expected
    assert outcome(compile_program(program).run, inputs, 10**6) == expected


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
    assert outcome(reference_eval, program, [], budget)[0] == expected
    assert outcome(compile_program(program).run, [], budget)[0] == expected


# A loop's tail is paid at its next head, so the step count lags between
# heads.  Each program puts a kind of loop exit next to a tail; its second
# input makes it crash, so the budget decides between BudgetExceeded and
# the crash at the heads before it.
_BOUNDARY_PROGRAMS = [
    ("loop-first", "while (i < 3) { i += 1; print(in[i]); }", [[5, 6, 7, 8], [5, 6]]),
    ("empty-body", "x = in[0]; while (x < 0) { } print(x);", [[1], []]),
    ("continue-under-if",
     "i = 0; s = 0; while (i < 6) { i += 1; if (i % 2 == 0) { s -= 1; continue; }"
     " s += in[i]; print(s); }", [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3]]),
    ("break-before-tail",
     "i = 0; while (1) { i += 1; if (i > 4) { break; } print(12 / (in[0] - i)); i *= 1; }",
     [[9], [3]]),
    ("nested-loop-then-tail",
     "i = 0; t = 0; while (i < 4) { j = 0; while (j < i) { j += 1; t += in[j]; }"
     " i += 1; print(t); }", [[1, 2, 3, 4], [1, 2, 3]]),
    ("body-ends-in-if",
     "i = 0; while (i < 5) { i += 1;"
     " if (i > 2) { print(i / (in[0] - i)); } else { print(-i); } }", [[9], [4]]),
    ("census.mini", None, [[-3], [0], [1], [7]]),
    ("max_search.mini", None, "m_max"),
    ("powsum.mini", None, "m_powsum"),
]


def _boundary_mismatches(program, values) -> list[str]:
    """Budgets 1 to T + 1 on which the reference and the generated code,
    unarmed or armed from the first step, disagree.

    T is the least budget under which the reference runs to its end: its
    step count S when it finishes.  The reference's step count only grows
    and each check raises on ``steps > budget``, so below T it raises
    BudgetExceeded and from T on it ends as under any larger budget; T is
    found by bisection.
    """
    def reference(budget):
        return outcome(reference_eval, program, values, budget)

    final = reference(10**9)
    lo, hi = 1, 10**9
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reference(mid) == final else (mid + 1, hi)
    over = reference(lo - 1) if lo > 1 else None
    compiled = compile_program(program)
    found = []
    for budget in range(1, lo + 2):
        want = over if budget < lo else final
        for arm in (None, 0):
            got = outcome(compiled.run, values, budget, arm)
            if got != want:
                found.append(f"{values} at budget {budget}, arm {arm}: "
                             f"codegen {got}, reference {want}")
    return found


@pytest.mark.parametrize("name, text, inputs", _BOUNDARY_PROGRAMS,
                         ids=[p[0] for p in _BOUNDARY_PROGRAMS])
def test_every_budget_up_to_the_steps_matches_reference(name, text, inputs):
    source = (FIXTURES / name).read_bytes() if text is None else text.encode()
    if isinstance(inputs, str):
        inputs = [e.values for e in load_inputs(FIXTURES / inputs).entries]
    program = parse_mini(tokenize(source, Language.MINI))
    assert [m for values in inputs for m in _boundary_mismatches(program, values)] == []


def test_every_budget_up_to_the_steps_matches_reference_on_generated_programs(corpus):
    found = []
    for subject in corpus.generated:
        for values in subject.inputs:
            found += [f"{subject.name}: {m}"
                      for m in _boundary_mismatches(subject.original.program, values)]
    assert found == []
