"""Differential gate for the mini backend's compile of a mutant: a backend
that compiled the original first re-lexes the one token a mutant swaps and
runs the schema of the statement that holds that operator site, or
compiles the mutant in full.  For every mutant, that must behave exactly
like a fresh full compile."""

import pytest

from mutopt import AOR, ASR, ROR, ExecBackendConfig, Language, apply_all, tokenize
from mutopt.backend import MiniBackend
from mutopt.minilang import BudgetExceeded, MiniRuntimeError, interp
from mutopt.minilang.ast_nodes import While
from mutopt.minilang.interp import CYCLE_STRIDE, CompiledMini, loop_slice

from conftest import (
    FIXTURE_INPUTS,
    FIXTURES,
    PERFBENCH,
    attempt,
    count_full_parses,
    full_compile,
    merges_tokens,
    outcome,
    outcomes,
    regroups,
)


def _statement_compile_mismatches(subject, parses: list) -> tuple[list[str], int]:
    """Mismatches between a backend's statement-level compile of every
    mutant of the subject and the corpus's fresh full compile, at its
    budgets, unarmed and armed at 0; and the number of full parses the
    backend made for the mutants."""
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(subject.unit)
    base_parses = len(parses)
    found = []
    for fresh in subject.mutants:
        derived = attempt(backend.compile, fresh.text)
        if isinstance(derived, str) or fresh.error:
            if derived != fresh.error:
                found.append(f"{subject.name} {fresh.id}: {derived} != {fresh.error}")
            continue
        for arm, full in ((None, fresh.unarmed), (0, fresh.armed)):
            got = outcomes(derived, subject.inputs, subject.budgets, arm)
            found += [f"{subject.name} {fresh.id} on {values} arm={arm}: {g} != {w}"
                      for values, g, w in zip(subject.inputs, got, full) if g != w]
    return found, len(parses) - base_parses


@pytest.mark.parametrize("name, inputs", FIXTURE_INPUTS.items())
def test_statement_compile_matches_full_compile_on_fixture(name, inputs, corpus,
                                                           monkeypatch):
    subject = corpus.fixture(name)
    found, full_parses = _statement_compile_mismatches(
        subject, count_full_parses(monkeypatch))
    assert found == []
    # only a mutant that merges tokens, or whose new operator regroups the
    # operands, compiles in full
    assert full_parses == sum(merges_tokens(subject, fresh) or regroups(subject, fresh)
                              for fresh in subject.mutants)


def test_statement_compile_matches_full_compile_on_wide(corpus, monkeypatch):
    found, full_parses = _statement_compile_mismatches(
        corpus.wide, count_full_parses(monkeypatch))
    assert found == []
    # every mutant swaps one operator inside a statement with the same
    # token boundaries, so none falls back to the full path
    assert full_parses == 0


def test_statement_compile_matches_full_compile_on_generated_programs(corpus, monkeypatch):
    parses = count_full_parses(monkeypatch)
    found = []
    mutants = full_parses = 0
    for subject in corpus.generated:
        f, p = _statement_compile_mismatches(subject, parses)
        found += f
        mutants += len(subject.mutants)
        full_parses += p
    assert found == []
    assert mutants > 0 and full_parses == 0


def _stop(program, values, budget, arm) -> tuple:
    """``conftest.outcome`` of a run, with the step count where it stopped
    for a BudgetExceeded."""
    try:
        result = program.run(values, budget, arm)
    except BudgetExceeded as exc:
        return "BudgetExceeded", exc.steps
    except MiniRuntimeError as exc:
        return "MiniRuntimeError", str(exc)
    return "ok", result.output, result.steps


def _timeout_mismatches(subject) -> tuple[list[str], int]:
    """Runs of the subject's mutants that the corpus has over budget, where
    the backend's compile stops at another step than a fresh full compile,
    armed at 0 and at ``CYCLE_STRIDE``; and the number of runs compared."""
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(subject.unit)
    found, compared = [], 0
    for fresh in subject.mutants:
        stuck = [(values, budget) for values, budget, got
                 in zip(subject.inputs, subject.budgets, fresh.unarmed or ())
                 if got[0] == "BudgetExceeded"]
        if not stuck:
            continue
        derived, full = backend.compile(fresh.text), full_compile(fresh.text)
        for values, budget in stuck:
            for arm in (0, CYCLE_STRIDE):
                compared += 1
                got, want = (_stop(p, values, budget, arm) for p in (derived, full))
                if got != want:
                    found.append(f"{subject.name} {fresh.id} on {values} arm={arm}: "
                                 f"{got} != {want}")
    return found, compared


# The sweeps above compare a timeout by class and message alone; a loop
# head that checks another cycle key than the mutant's own compile stops
# at another step, or runs to its budget.
@pytest.mark.parametrize("name, inputs", FIXTURE_INPUTS.items())
def test_timeouts_stop_where_full_compile_does_on_fixture(name, inputs, corpus):
    assert _timeout_mismatches(corpus.fixture(name))[0] == []


def test_timeouts_stop_where_full_compile_does_on_wide(corpus):
    assert _timeout_mismatches(corpus.wide)[0] == []


def test_timeouts_stop_where_full_compile_does_on_generated_programs(corpus):
    found, compared = [], 0
    for subject in corpus.generated:
        f, c = _timeout_mismatches(subject)
        found += f
        compared += c
    assert found == []
    assert compared > 0


@pytest.mark.parametrize("name", ["b2tob10.mini", "wide"])
def test_each_schema_compiles_once(name, corpus, monkeypatch):
    # A mutant that swaps one operator and keeps the tree's shape runs the
    # schema of its statement, compiled once per operator site, or once for
    # each set of cycle keys the site's mutants give the loops.  Any other
    # mutant compiles in full; neither program has one, so every compile()
    # call is a schema's.
    subject = corpus.wide if name == "wide" else corpus.fixture(name)
    schemas, others = set(), 0
    for mutant, fresh in zip(apply_all([ROR, ASR, AOR], subject.unit), subject.mutants):
        if fresh.error:
            continue
        if regroups(subject, fresh):
            others += 1
            continue
        keys = tuple(loop_slice(stmt) for stmt in interp._statements(fresh.program.body)
                     if isinstance(stmt, While))
        schemas.add((mutant.start, keys))
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(subject.unit)
    compiles = []
    monkeypatch.setattr(interp, "compile",
                        lambda *args: compiles.append(1) or compile(*args), raising=False)
    for fresh in subject.mutants:
        attempt(backend.compile, fresh.text)
    assert others == 0
    assert len(compiles) == len(schemas)
    assert len(schemas) < len(subject.mutants)


@pytest.mark.parametrize("name", FIXTURE_INPUTS)
def test_schemas_switch_one_branch_per_mutant_that_keeps_the_tree(name, corpus, monkeypatch):
    # A site's schemas switch only between the operators that keep its
    # statement's tree, so every ``_K`` branch is some mutant's: a mutant
    # that regroups its operands compiles in full and gets none.  A merging
    # mutant of ``merges.mini`` compiles in full too, but its operator is
    # one its site may take, so it keeps a branch.
    subject = corpus.fixture(name)
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(subject.unit)
    branches = []
    real = CompiledMini.statement_code
    monkeypatch.setattr(CompiledMini, "statement_code", lambda self, index, stmt, switch:
                        branches.extend(switch[1]) or real(self, index, stmt, switch))
    for fresh in subject.mutants:
        attempt(backend.compile, fresh.text)
    assert len(branches) == sum(not regroups(subject, fresh) for fresh in subject.mutants)
    assert len(branches) == {"precedence.mini": 169, "slices.mini": 112}.get(
        name, len(subject.mutants))


def test_corpus_holds_every_mutant(corpus, monkeypatch):
    # the sweeps above and in test_reference_eval and test_nontermination
    # read these subjects; a generator change must not shrink them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import widegen

    assert sum(len(subject.mutants) for subject in corpus.generated) == 3137
    assert len(corpus.wide.mutants) == sum(widegen.expected_mutants().values())


EDITS = (";", "{", "}", "(", ")", "else", "while", "print", "in", "x", "zz", "1",
         "+", "-", "*", "/", "=", "+=", "<", "/*", "//", "\"")


@pytest.mark.parametrize("name, inputs", [
    ("powsum.mini", [[64], [5]]),
    ("census.mini", [[-3], [0], [7]]),
])
def test_any_one_token_edit_matches_full_compile(name, inputs):
    # arbitrary replacements, not just operator swaps: statements that end
    # early, merge into the next one or gain a variable must all come out
    # as the full compile says
    text = (FIXTURES / name).read_bytes()
    unit = tokenize(text, Language.MINI)
    backend = MiniBackend(ExecBackendConfig())
    original = backend.compile(unit)
    budgets = [10 * original.run(values, 10**9).steps for values in inputs]
    found = []
    for tok in unit.tokens:
        for lexeme in EDITS:
            edited = text[:tok.start] + lexeme.encode() + text[tok.end:]
            derived = attempt(backend.compile, edited)
            full = attempt(full_compile, edited)
            where = f"{tok.lexeme!r}@{tok.start} -> {lexeme!r}"
            if isinstance(derived, str) or isinstance(full, str):
                if derived != full:
                    found.append(f"{where}: {derived} != {full}")
                continue
            for values, budget in zip(inputs, budgets):
                if (outcome(derived.run, values, budget, None)
                        != outcome(full.run, values, budget, None)):
                    found.append(f"{where} on {values}")
    assert found == []
