"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; under default capture they appear in the captured output.
"""

import functools
import json
import shutil
import time

import pytest

from mutopt import (
    AOR,
    ASR,
    ExecBackendConfig,
    Language,
    OptimizeConfig,
    ROR,
    apply_all,
    confirm_equivalence,
    eval_mini,
    optimize,
    parse_mini,
    tokenize,
)
from mutopt.backend import make_backend
from mutopt.cli import load_inputs, main
from mutopt.optimizer import InputEntry, InputSet
from mutopt.report import report_to_dict

import minigen
from conftest import FIXTURES, FULL_BITS_30, SCALED_BITS_20, encode_bits, load_unit

HAVE_CC = shutil.which("cc") is not None

# frozen from the first oracle run of the scaled fixture
GOLDEN_SCALED_ORIGINAL_TAU = 19_923_110
GOLDEN_SCALED_SELECTED_TAU = 539
OUTER_INCREMENT_LINE = 26  # the loop-tail "i += 2" in fixtures/b2tob10.mini


def criterion(num: int, desc: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL: {desc}")
                raise
            print(f"[criterion {num}] PASS: {desc}")
            return result
        return inner
    return wrap


def scaled_optimize_once():
    unit = load_unit("b2tob10.mini")
    inputs = load_inputs(FIXTURES / "m_scaled")
    config = OptimizeConfig(source_name="b2tob10.mini")
    start = time.perf_counter()
    report = optimize([ROR, ASR, AOR], unit, inputs, config)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def scaled_run():
    return scaled_optimize_once()


@criterion(1, "scaled rediscovery selects ASR += -> *= at the outer-loop "
              "increment, >= 100x step speedup, under 60 s")
def test_criterion_1_scaled_rediscovery(scaled_run):
    report, elapsed = scaled_run
    assert elapsed < 60.0, f"optimize took {elapsed:.1f}s"
    m = report.selected
    assert m is not None
    assert m.operator == "ASR"
    assert m.original == "+=" and m.replacement == "*="
    assert m.line == OUTER_INCREMENT_LINE
    speedup = report.original_tau.value / report.final_tau.value
    assert speedup >= 100.0
    # exact step counts, frozen as golden before the build completed
    assert report.original_tau.value == GOLDEN_SCALED_ORIGINAL_TAU
    assert report.final_tau.value == GOLDEN_SCALED_SELECTED_TAU


@criterion(2, "the selected rewrite reproduces the recorded outputs "
              "1073741814, 0, 1 on the full-width input set")
def test_criterion_2_full_width_outputs(scaled_run):
    report, _ = scaled_run
    unit = load_unit("b2tob10.mini")
    twin = next(m for m in apply_all([ASR], unit)
                if m.line == report.selected.line
                and m.col == report.selected.col
                and m.replacement == "*=")
    mutant_prog = parse_mini(tokenize(twin.mutated_text, Language.MINI))
    expected = {FULL_BITS_30: "1073741814", "0": "0", "1": "1"}
    for bits, value in expected.items():
        got = eval_mini(mutant_prog, encode_bits(bits), 10**9)
        assert got.output.decode() == value
        assert int(value) == int(bits, 2)  # positional-weight oracle


@criterion(2, "external backend: mutant at -O0 outruns the original at -O3, "
              "which outruns the original at -O0")
@pytest.mark.external
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_criterion_2_external_wall_clock_ordering(tmp_path):
    c_unit = tokenize((FIXTURES / "b2tob10.c").read_bytes(), Language.C_LIKE)
    star = [m for m in apply_all([ASR], c_unit)
            if m.original == "+=" and m.replacement == "*="]
    tail = max(star, key=lambda m: m.line)  # the loop-tail increment

    def backend_for(flags):
        cfg = ExecBackendConfig(kind="external",
                                compile_cmd=f"cc {flags} {{src}} -o {{out}}",
                                run_cmd="{bin}", repetitions=1, warmups=1)
        return make_backend(cfg, tmp_path)

    values = encode_bits(FULL_BITS_30)
    results = {}
    for label, flags, source in [
        ("unoptimized", "-O0", c_unit.text),
        ("compiler_optimized", "-O3", c_unit.text),
        ("mutant", "-O0", tail.mutated_text),
    ]:
        backend = backend_for(flags)
        program = backend.compile(source, name="b2tob10.c")
        run = backend.run(program, values, budget=120.0)
        assert run.ok and run.output == b"1073741814"
        results[label] = run.cost.value
    assert results["mutant"] < results["compiler_optimized"] < results["unoptimized"]


@criterion(3, "soundness: the selected source is input-set equivalent for "
              "every fixture and 50 generated programs, zero failures")
def test_criterion_3_soundness(scaled_run):
    config = OptimizeConfig()
    failures = []

    def check(unit, inputs, report=None):
        report = report or optimize([ROR, ASR, AOR], unit, inputs, config)
        if not confirm_equivalence(report.selected_source, unit, inputs, config):
            failures.append(inputs.origin)
        assert report.final_tau.value <= report.original_tau.value

    report, _ = scaled_run
    check(load_unit("b2tob10.mini"), load_inputs(FIXTURES / "m_scaled"), report)
    check(load_unit("max_search.mini"), load_inputs(FIXTURES / "m_max"))
    check(load_unit("hostile.mini"), load_inputs(FIXTURES / "m_hostile"))
    check(load_unit("powsum.mini"), load_inputs(FIXTURES / "m_powsum"))

    for seed in range(50):
        text = minigen.generate_program(seed)
        unit = tokenize(text.encode(), Language.MINI)
        inputs = minigen.generate_inputs(seed)
        check(unit, inputs)

    assert failures == []


@criterion(4, "on the duplicated-maximum input set, >= -> > survives as "
              "equivalent and >= -> < is killed, matching the oracle")
def test_criterion_4_kill_classification():
    unit = load_unit("max_search.mini")
    inputs = load_inputs(FIXTURES / "m_max")
    report = optimize([ROR], unit, inputs, OptimizeConfig())
    got = {v.replacement: v.status for v in report.verdicts if v.original == ">="}
    equivalent_family = ("equivalent_not_faster", "equivalent_faster", "selected")
    assert got[">"] in equivalent_family
    assert got["<"] == "killed"

    # exhaustive interpreter oracle over M, independent of the optimizer
    original = parse_mini(unit)
    for m in apply_all([ROR], unit):
        if m.original != ">=":
            continue
        mutant_prog = parse_mini(tokenize(m.mutated_text, Language.MINI))
        equivalent = all(
            eval_mini(mutant_prog, e.values, 10**9).output
            == eval_mini(original, e.values, 10**9).output
            for e in inputs.entries
        )
        if equivalent:
            assert got[m.replacement] in equivalent_family
        else:
            assert got[m.replacement] in ("killed", "crash", "timeout")


@criterion(5, "the dry-run lister reports 13 mutants (5 + 4 + 4) for the "
              "single-site census file")
def test_criterion_5_mutant_census(capsys):
    code = main(["mutants", "--source", str(FIXTURES / "census.mini"),
                 "--operators", "ror,asr,aor"])
    out = capsys.readouterr().out
    assert code == 0
    assert "13 mutants" in out
    assert "ROR: 5" in out and "ASR: 4" in out and "AOR: 4" in out


@criterion(6, "hostile shortcut mutants (the i /= 1 family) are classified "
              "timeout within the budget and the run terminates")
def test_criterion_6_hostile_termination():
    unit = load_unit("hostile.mini")
    inputs = load_inputs(FIXTURES / "m_hostile")
    start = time.perf_counter()
    report = optimize([ROR, ASR, AOR], unit, inputs, OptimizeConfig())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0  # tiny baseline means tiny budgets
    div = next(v for v in report.verdicts
               if v.original == "-=" and v.replacement == "/=")
    assert div.status == "timeout"
    assert div.input_id == "n5"
    assert confirm_equivalence(report.selected_source, unit, inputs,
                               OptimizeConfig())


@criterion(7, "two runs produce byte-identical reports apart from the "
              "host/timestamp block")
def test_criterion_7_determinism(scaled_run):
    first, _ = scaled_run
    second, _ = scaled_optimize_once()

    def frozen(report):
        d = report_to_dict(report)
        d.pop("host")
        return json.dumps(d, indent=2)

    assert frozen(first) == frozen(second)


@criterion(8, "a mutant killed on the first of three inputs executes "
              "exactly once")
def test_criterion_8_early_abort():
    unit = load_unit("max_search.mini")
    inputs = load_inputs(FIXTURES / "m_max")
    assert len(inputs) == 3
    report = optimize([ROR], unit, inputs, OptimizeConfig())
    lt = next(v for v in report.verdicts
              if v.original == ">=" and v.replacement == "<")
    assert lt.status == "killed"
    assert lt.input_id == inputs.entries[0].id
    assert lt.runs == 1
