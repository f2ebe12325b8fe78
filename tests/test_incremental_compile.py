"""Differential gate for the mini backend's statement-level compile: a
backend that compiled the original first compiles each mutant by re-lexing
one token and re-parsing and compiling one top-level statement.  For every
mutant, that must behave exactly like a fresh full compile."""

import sys
from pathlib import Path

import pytest

import mutopt.backend
from mutopt import AOR, ASR, ROR, CompileError, ExecBackendConfig, Language, tokenize
from mutopt.backend import MiniBackend
from mutopt.cli import load_inputs
from mutopt.minilang import BudgetExceeded, MiniRuntimeError, parse_mini
from mutopt.minilang.interp import compile_program
from mutopt.mutation import apply_all
from mutopt.tokens import MalformedSource

import minigen
from conftest import FIXTURES, encode_bits

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import widegen  # noqa: E402


def outcome(program, values, budget, arm):
    try:
        result = program.run(values, budget, arm)
    except (BudgetExceeded, MiniRuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.output, result.steps


def full_compile(text: bytes):
    return compile_program(parse_mini(tokenize(text, Language.MINI)))


def attempt(compile, text: bytes):
    """The compiled program, or the name of the error compiling raised."""
    try:
        return compile(text)
    except (CompileError, MalformedSource) as exc:
        return type(exc).__name__


def _compare(text: bytes, inputs, monkeypatch) -> tuple[list[str], int, int]:
    """Mismatches between the two compiles over every mutant of ``text``, at
    budgets 10x the original's steps, unarmed and armed at 0; and the
    number of mutants and of full parses the incremental backend made."""
    unit = tokenize(text, Language.MINI)
    backend = MiniBackend(ExecBackendConfig())
    original = backend.compile(unit)
    budgets = [10 * original.run(values, 10**9).steps for values in inputs]
    mutants = apply_all([ROR, ASR, AOR], unit)
    parses = []
    real_parse = mutopt.backend.parse_mini
    monkeypatch.setattr(mutopt.backend, "parse_mini",
                        lambda source: parses.append(1) or real_parse(source))
    found = []
    for m in mutants:
        derived = attempt(backend.compile, m.mutated_text)
        full = attempt(full_compile, m.mutated_text)
        if isinstance(derived, str) or isinstance(full, str):
            if derived != full:
                found.append(f"{m.id}: {derived} != {full}")
            continue
        for values, budget in zip(inputs, budgets):
            for arm in (None, 0):
                got = outcome(derived, values, budget, arm)
                want = outcome(full, values, budget, arm)
                if got != want:
                    found.append(f"{m.id} on {values} arm={arm}: {got} != {want}")
    monkeypatch.undo()
    return found, len(mutants), len(parses)


@pytest.mark.parametrize("name, inputs", [
    ("b2tob10.mini", [encode_bits(b) for b in ("0", "1", "110", "1011011010")]),
    ("census.mini", [[-3], [0], [1], [7]]),
    ("hostile.mini", "m_hostile"),
    ("max_search.mini", "m_max"),
    ("powsum.mini", "m_powsum"),
])
def test_statement_compile_matches_full_compile_on_fixture(name, inputs, monkeypatch):
    if isinstance(inputs, str):
        inputs = [e.values for e in load_inputs(FIXTURES / inputs).entries]
    found, _, full_parses = _compare((FIXTURES / name).read_bytes(), inputs, monkeypatch)
    assert found == []
    assert full_parses == 0


def test_statement_compile_matches_full_compile_on_wide(monkeypatch):
    text = widegen.generate_program(1).encode()
    found, mutants, full_parses = _compare(text, widegen.generate_inputs(1), monkeypatch)
    assert found == []
    assert mutants == sum(widegen.expected_mutants().values())
    # every mutant swaps one operator inside a statement with the same
    # token boundaries, so none falls back to the full path
    assert full_parses == 0


def test_statement_compile_matches_full_compile_on_generated_programs(monkeypatch):
    found = []
    mutants = full_parses = 0
    for seed in range(50):
        inputs = [e.values for e in minigen.generate_inputs(seed).entries]
        f, n, p = _compare(minigen.generate_program(seed).encode(), inputs, monkeypatch)
        found += [f"seed {seed}: {line}" for line in f]
        mutants += n
        full_parses += p
    assert found == []
    assert mutants > 0 and full_parses == 0


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
                if (outcome(derived, values, budget, None)
                        != outcome(full, values, budget, None)):
                    found.append(f"{where} on {values}")
    assert found == []
