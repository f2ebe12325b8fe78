"""Gate for the interval facts of the code generator (``minilang.ranges``).

Every transfer function and condition refinement must hold each concrete
point of the intervals it is given, with ``oracle``'s arithmetic as the
concrete semantics.  And the soundness sweep: a test-only emitter turns
each overflow check into an ``assert`` of the exact range the facts give
its operator (the range a dropped check relied on), each relational
operator's operands into an ``assert`` of their intervals, and each
operator the facts call unreachable into ``assert False``.  Then every
program of the corpus runs as a full compile under its own budgets, as
the mini backend's base and schemas, and through ``decide`` with
``FORK_STEPS`` at 0, so forked children run the instrumented code too;
every outcome must equal the corpus's fresh full compile."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from mutopt import ExecBackendConfig, Language, tokenize
from mutopt.backend import MiniBackend
from mutopt.minilang import ast_nodes as ast
from mutopt.minilang import instrument, interp, parse_mini, ranges
from mutopt.minilang.instrument import DECIDED_FORKED, Decision
from mutopt.minilang.interp import compile_program, eval_mini, generate_source
from mutopt.minilang.ranges import (INT_MAX, INT_MIN, NEGATION, RELATIONAL, _Analysis,
                                    compare, exact, wrapped)

import oracle
from conftest import ANY_BUDGET, FIXTURE_INPUTS, attempt, load_unit
from test_decisions import _wrong_decisions

EDGES = (INT_MIN, INT_MIN + 1, -64, -1, 0, 1, 63, 64, INT_MAX - 1, INT_MAX)
values = st.one_of(st.integers(INT_MIN, INT_MAX), st.sampled_from(EDGES),
                   st.integers(-70, 70))


@st.composite
def intervals(draw):
    a, b = draw(values), draw(values)
    return min(a, b), max(a, b)


@st.composite
def inside(draw, interval):
    lo, hi = interval
    return draw(st.one_of(st.sampled_from((lo, hi)), st.integers(lo, hi)))


# the result of each operator before wrapping, as the generated code
# computes it
UNWRAPPED = {
    "+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y,
    "/": lambda x, y: oracle._quotient(x, y) if (x, y) != (INT_MIN, -1) else 2**63,
    "%": oracle._remainder, "<<": lambda x, y: x << (y & 63),
    "neg": lambda x, y: -y,
}


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(oracle._BINARY) + ["neg"]), st.data())
def test_transfer_functions_hold_every_point(op, data):
    a, b = data.draw(intervals()), data.draw(intervals())
    x, y = data.draw(inside(a)), data.draw(inside(b))
    found = exact(op, a, b)
    if op in ("/", "%") and y == 0:
        return  # a crash: no result to hold
    assert found is not None
    concrete = oracle._int64(-y) if op == "neg" else oracle._BINARY[op](x, y)
    unwrapped = UNWRAPPED.get(op, oracle._BINARY.get(op))(x, y)
    assert oracle._int64(unwrapped) == concrete
    assert found[0] <= unwrapped <= found[1]
    lo, hi = wrapped(*found)
    assert INT_MIN <= lo <= concrete <= hi <= INT_MAX


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(RELATIONAL), st.booleans(), st.data())
def test_comparisons_keep_every_pair_they_hold_for(op, truth, data):
    a, b = data.draw(intervals()), data.draw(intervals())
    x, y = data.draw(inside(a)), data.draw(inside(b))
    refined = compare(op if truth else NEGATION[op], a, b)
    if bool(oracle._BINARY[op](x, y)) == truth:
        assert refined is not None
        assert refined[0][0] <= x <= refined[0][1] and refined[1][0] <= y <= refined[1][1]


NAMES = ("p", "q", "r")


@st.composite
def conditions(draw, depth=2):
    """A condition over the variables ``NAMES``: a comparison, a bare
    variable or an ``&&`` or ``||`` of two conditions."""
    def operand():
        return draw(st.one_of(st.sampled_from([ast.Var(n) for n in NAMES]),
                              values.map(lambda v: ast.IntLit(abs(v)))))

    kind = draw(st.sampled_from(("cmp", "var", "logic") if depth else ("cmp", "var")))
    if kind == "cmp":
        return ast.BinOp(draw(st.sampled_from(RELATIONAL)), operand(), operand(), 1)
    if kind == "var":
        return ast.Var(draw(st.sampled_from(NAMES)))
    return ast.BinOp(draw(st.sampled_from(("&&", "||"))), draw(conditions(depth - 1)),
                     draw(conditions(depth - 1)), 1)


def _truth(node, env) -> int:
    if isinstance(node, ast.IntLit):
        return node.value
    if isinstance(node, ast.Var):
        return env[node.name]
    return oracle._BINARY[node.op](_truth(node.left, env), _truth(node.right, env))


@settings(max_examples=500, deadline=None)
@given(conditions(), st.booleans(), st.data())
def test_conditions_keep_every_state_they_hold_in(cond, truth, data):
    state = {n: data.draw(intervals()) for n in NAMES}
    env = {n: data.draw(inside(state[n])) for n in NAMES}
    refined = _Analysis(0, None, frozenset()).refine(cond, state, truth)
    if bool(_truth(cond, env)) == truth:
        assert refined is not None
        for n in NAMES:
            lo, hi = refined.get(n, (INT_MIN, INT_MAX))
            assert lo <= env[n] <= hi, n


def test_run_rejects_a_budget_above_the_compiled_one():
    program = compile_program(parse_mini(load_unit("powsum.mini")), 1000)
    assert program.run([5], 1000).output
    with pytest.raises(ValueError, match="exceeds"):
        program.run([5], 1001)
    backend = MiniBackend(ExecBackendConfig(timeout_factor=2.0))
    base = backend.compile(load_unit("powsum.mini"))
    assert base.budget == 2 * 2_000_000_000
    with pytest.raises(ValueError, match="exceeds"):
        base.run([5], base.budget + 1)
    # eval_mini compiles for its own budget
    assert eval_mini(parse_mini(load_unit("powsum.mini")), [5], 10**15).output


def test_counters_keep_their_checks_under_a_large_budget():
    # one top-level statement: a statement's facts start from any values
    text = b"if (1) { x = 9223372036844775807; while (x != in[0]) { x += 1; } } print(x);"
    program = parse_mini(tokenize(text, Language.MINI))
    # x starts 10^7 below MAX: a budget of 10^6 steps bounds it by that
    # plus 10^6 and a statement's steps, inside int64, so ``x + 1`` needs
    # no check; under 10^8 steps it might
    assert "_wrap(v_x)" not in generate_source(program, 10**6)
    assert "_wrap(v_x)" in generate_source(program, 10**8)
    assert "_wrap(v_x)" in generate_source(program, ANY_BUDGET)
    end = 2**63 - 10**7 + 999
    assert eval_mini(program, [end], 10**6).output == str(end).encode()
    with pytest.raises(interp.BudgetExceeded):
        eval_mini(program, [2**63 - 1], 10**6)


# ---- the soundness sweep ----

def _asserting(mp):
    """Make the code generator assert the facts it relies on."""
    checked, probe, forked = interp._CodeGen.checked, interp._CodeGen.probe, instrument._forked

    def assert_checked(gen, t, node, op):
        if gen.facts is not None:
            found = gen.facts.results.get((id(node), op))
            where = f"{op} at line {getattr(node, 'line', '?')}"
            gen.emit(f"assert False, 'unreachable {where}'" if found is None else
                     f"assert {found[0]} <= {t} <= {found[1]}, '{where}'")
        checked(gen, t, node, op)

    def assert_probe(gen, node, a, b):
        if gen.facts is not None and isinstance(node, ast.BinOp) and node.op in RELATIONAL:
            found = gen.facts.operands.get(id(node))
            where = f"{node.op} at line {node.line}"
            gen.emit(f"assert False, 'unreachable {where}'" if found is None else
                     f"assert {found[0][0]} <= {a} <= {found[0][1]} and "
                     f"{found[1][0]} <= {b} <= {found[1][1]}, '{where}'")
        return probe(gen, node, a, b)

    def report(outcome, bound):  # a forked child's failed assert decides a crash
        if isinstance(outcome, AssertionError):
            return Decision(DECIDED_FORKED, f"AssertionError: {outcome}", bound)
        return forked(outcome, bound)

    mp.setattr(interp._CodeGen, "checked", assert_checked)
    mp.setattr(interp._CodeGen, "probe", assert_probe)
    mp.setattr(instrument, "_forked", report)


def _outcomes(program, inputs, budgets) -> tuple:
    found = []
    for values, budget in zip(inputs, budgets):
        try:
            result = program.run(values, budget)
        except (interp.BudgetExceeded, interp.MiniRuntimeError) as exc:
            found.append((type(exc).__name__, str(exc)))
        except AssertionError as exc:
            found.append(("AssertionError", str(exc)))
        else:
            found.append(("ok", result.output, result.steps))
    return tuple(found)


def _unsound(subject) -> list[str]:
    """Runs of the subject's programs, generated with the asserting
    emitter, whose outcome differs from the corpus's fresh full compile."""
    found = []
    budget = max(subject.budgets)
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(subject.unit)
    for fresh in [subject.original] + subject.mutants:
        if fresh.program is None:
            continue
        # a full compile, for the subject's own largest budget
        got = _outcomes(compile_program(fresh.program, budget), subject.inputs, subject.budgets)
        if got != fresh.unarmed:
            found.append(f"{subject.name} {fresh.id} full compile: {got} != {fresh.unarmed}")
        # the base, or the mutant through its schema
        program = backend._base.program if fresh is subject.original else attempt(
            backend.compile, fresh.text)
        got = _outcomes(program, subject.inputs, subject.budgets)
        if got != fresh.unarmed:
            found.append(f"{subject.name} {fresh.id} schema: {got} != {fresh.unarmed}")
    wrong, _ = _wrong_decisions(subject)
    return found + wrong


def _sweep(subjects) -> list[str]:
    """What ``_unsound`` finds on ``subjects``, and each statement whose
    analysis gave up: a rule that never settles keeps every check."""
    gave_up = []
    with pytest.MonkeyPatch.context() as mp:
        _asserting(mp)
        analyse = ranges.analyse
        mp.setattr(ranges, "analyse", lambda stmt, *args: analyse(stmt, *args) or
                   gave_up.append(f"gave up on {stmt}"))
        mp.setattr(interp, "FORK_STEPS", 0)
        # A mutant's full compile holds the original's statement objects
        # wherever it equals the original (``conftest.build_subject``), and
        # a statement's code depends on nothing else, so each is generated
        # and compiled once: the sweep tests the same code without the
        # caches.
        mp.setattr(interp, "compile", cache(compile), raising=False)
        source = interp._statement_source
        generated = {}

        def statement_source(stmt, index, names, budget, hooks=None, switch=None):
            if hooks is not None or switch is not None:
                return source(stmt, index, names, budget, hooks, switch)
            key = id(stmt), index, names, budget
            if key not in generated:
                generated[key] = stmt, source(stmt, index, names, budget)
            return generated[key][1]

        mp.setattr(interp, "_statement_source", statement_source)
        return [line for subject in subjects for line in _unsound(subject)] + gave_up


@pytest.mark.parametrize("name", FIXTURE_INPUTS)
def test_facts_hold_on_fixture(name, corpus):
    assert _sweep([corpus.fixture(name)]) == []


def test_facts_hold_on_generated_programs(corpus):
    assert _sweep(corpus.generated) == []


def test_facts_hold_on_wide(corpus):
    assert _sweep([corpus.wide]) == []
