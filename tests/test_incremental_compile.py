"""Differential gate for the mini backend's statement-level compile: a
backend that compiled the original first compiles each mutant by re-lexing
one token and re-parsing and compiling one top-level statement.  For every
mutant, that must behave exactly like a fresh full compile."""

import pytest

from mutopt import ExecBackendConfig, Language, tokenize
from mutopt.backend import MiniBackend

from conftest import (
    FIXTURE_INPUTS,
    FIXTURES,
    PERFBENCH,
    attempt,
    count_full_parses,
    full_compile,
    outcome,
    outcomes,
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
    found, full_parses = _statement_compile_mismatches(
        corpus.fixture(name), count_full_parses(monkeypatch))
    assert found == []
    assert full_parses == 0


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
