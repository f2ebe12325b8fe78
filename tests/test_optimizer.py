"""Optimizer loop tests: verdict classification, selection, soundness."""

import shutil

import pytest

from mutopt import (
    AOR,
    ASR,
    Cost,
    ExecBackendConfig,
    InputEntry,
    InputSet,
    InvalidBaseline,
    Language,
    OptimizeConfig,
    ROR,
    UnitMismatch,
    apply_all,
    confirm_equivalence,
    eval_mini,
    improvement_test,
    optimize,
    parse_mini,
    tokenize,
)
from mutopt.cli import load_inputs
from mutopt.report import report_to_dict

from conftest import FIXTURES, load_unit
from oracle import literal_verdicts

HAVE_CC = shutil.which("cc") is not None


def input_set(*entries):
    return InputSet(entries=tuple(InputEntry(id=i, values=tuple(v))
                                  for i, v in entries))


MAX_INPUTS = input_set(("a", [3, 7, 7, 2]), ("b", [5]), ("c", [1, 2, 3, 4, 4]))


def run_optimize(unit, inputs, operators=(ROR, ASR, AOR), **kw):
    return optimize(list(operators), unit, inputs, OptimizeConfig(**kw))


# ---- improvement test ----

def test_improvement_strict_on_steps():
    assert improvement_test(Cost(1000, "steps"), Cost(999, "steps"), 0.0)
    assert not improvement_test(Cost(1000, "steps"), Cost(1000, "steps"), 0.0)
    # threshold is forced to zero for exact step counts
    assert improvement_test(Cost(1000, "steps"), Cost(999, "steps"), 0.4)


def test_improvement_noise_guard_on_milliseconds():
    assert not improvement_test(Cost(100.0, "ms"), Cost(97.0, "ms"), 0.05)
    assert improvement_test(Cost(100.0, "ms"), Cost(90.0, "ms"), 0.05)


def test_improvement_unit_mismatch():
    with pytest.raises(UnitMismatch):
        improvement_test(Cost(10, "steps"), Cost(5.0, "ms"), 0.0)


# ---- degenerate runs ----

def test_empty_operator_set(max_search_unit):
    report = run_optimize(max_search_unit, MAX_INPUTS, operators=())
    assert report.verdicts == []
    assert report.selected is None
    assert report.selected_source == max_search_unit.text
    assert report.final_tau == report.original_tau


def test_empty_input_set(max_search_unit):
    report = run_optimize(max_search_unit, InputSet(entries=()))
    assert report.original_tau.value == 0
    assert report.selected is None  # nothing can strictly improve on zero
    assert all(v.status == "equivalent_not_faster" for v in report.verdicts
               if v.status not in ("compile_error",))


def test_source_with_no_mutable_operators():
    unit = tokenize(b"x = 5; print(x);", Language.MINI)
    report = run_optimize(unit, input_set(("a", [1])))
    assert report.verdicts == [] and report.selected is None


# ---- baseline validation ----

def test_invalid_baseline_on_parse_error():
    unit = tokenize(b"x = ;", Language.MINI)
    with pytest.raises(InvalidBaseline):
        run_optimize(unit, input_set(("a", [1])))


def test_invalid_baseline_on_crash():
    unit = tokenize(b"print(1 / in[0]);", Language.MINI)
    with pytest.raises(InvalidBaseline) as err:
        run_optimize(unit, input_set(("good", [2]), ("zero", [0])))
    assert "zero" in str(err.value)  # names the failing input


# ---- classification on the max-search fixture ----

def classify_with_oracle(unit, inputs):
    """Exhaustive interpreter oracle: run original and every mutant of the
    >= site directly, no optimizer involved."""
    original = parse_mini(unit)
    expected = {}
    for m in apply_all([ROR], unit):
        if m.original != ">=":
            continue
        mutant_prog = parse_mini(tokenize(m.mutated_text, Language.MINI))
        verdict = "equivalent"
        for entry in inputs.entries:
            base = eval_mini(original, entry.values, 10**9)
            got = eval_mini(mutant_prog, entry.values, 10**9)
            if got.output != base.output:
                verdict = "killed"
                break
        expected[m.replacement] = verdict
    return expected


def test_ror_kill_and_equivalence_match_oracle(max_search_unit):
    report = run_optimize(max_search_unit, MAX_INPUTS, operators=(ROR,))
    oracle = classify_with_oracle(max_search_unit, MAX_INPUTS)
    assert oracle[">"] == "equivalent"
    assert oracle["<"] == "killed"
    got = {v.replacement: v.status for v in report.verdicts if v.original == ">="}
    assert got[">"] in ("equivalent_not_faster", "equivalent_faster", "selected")
    assert got["<"] == "killed"
    # every >= mutant agrees with the oracle
    for replacement, verdict in oracle.items():
        if verdict == "killed":
            assert got[replacement] in ("killed", "crash", "timeout")
        else:
            assert got[replacement] in ("equivalent_not_faster",
                                        "equivalent_faster", "selected")


def test_killed_verdict_names_the_killing_input(max_search_unit):
    report = run_optimize(max_search_unit, MAX_INPUTS, operators=(ROR,))
    lt = next(v for v in report.verdicts
              if v.original == ">=" and v.replacement == "<")
    assert lt.status == "killed"
    assert lt.input_id == "a"  # duplicated maximum appears in the first input
    assert lt.tau is None


def test_early_abort_runs_exactly_once_on_first_input_kill(max_search_unit):
    report = run_optimize(max_search_unit, MAX_INPUTS, operators=(ROR,))
    lt = next(v for v in report.verdicts
              if v.original == ">=" and v.replacement == "<")
    assert lt.runs == 1
    # and a mutant killed later ran exactly up to its killing input
    for v in report.verdicts:
        if v.status == "killed":
            index = list(report.input_ids).index(v.input_id)
            assert v.runs == index + 1


# ---- selection behavior ----

def test_powsum_selects_the_walk_doubling_mutant():
    unit = load_unit("powsum.mini")
    report = run_optimize(unit, input_set(("n", [256])))
    m = report.selected
    assert (m.operator, m.original, m.replacement) == ("ASR", "+=", "*=")
    assert report.final_tau.value < report.original_tau.value
    statuses = [v.status for v in report.verdicts]
    assert statuses.count("selected") == 1


def test_hostile_mutants_time_out_and_run_terminates():
    unit = load_unit("hostile.mini")
    report = run_optimize(unit, input_set(("n5", [5])), operators=(ASR,))
    div = next(v for v in report.verdicts
               if v.original == "-=" and v.replacement == "/=")
    assert div.status == "timeout"
    assert div.input_id == "n5"
    timeouts = [v for v in report.verdicts if v.status == "timeout"]
    assert len(timeouts) >= 1
    assert report.selected is None


def test_recorded_improvements_are_strictly_decreasing():
    unit = load_unit("powsum.mini")
    report = run_optimize(unit, input_set(("n", [256])))
    taus = [v.tau.value for v in report.verdicts
            if v.status in ("equivalent_faster", "selected")]
    assert taus == sorted(taus, reverse=True)
    assert all(t < report.original_tau.value for t in taus)
    assert report.final_tau.value <= report.original_tau.value


def test_max_search_strict_comparison_mutant_is_selected(max_search_unit):
    # skipping the redundant update on the duplicated maximum saves steps,
    # so the >= -> > rewrite is not just equivalent but the selected one
    report = run_optimize(max_search_unit, MAX_INPUTS, operators=(ROR,))
    m = report.selected
    assert (m.original, m.replacement) == (">=", ">")
    assert report.final_tau.value < report.original_tau.value


def test_tie_keeps_current_best(b2tob10_unit):
    # every surviving relational rewrite here has exactly the baseline cost
    inputs = input_set(("i6", [6, 1, 1, 1, 0, 0, 1]))
    report = run_optimize(b2tob10_unit, inputs, operators=(ROR,))
    equivalents = [v for v in report.verdicts
                   if v.status.startswith("equivalent")]
    assert equivalents, "expected at least one tie"
    assert all(v.status == "equivalent_not_faster" for v in equivalents)
    assert all(v.tau == report.original_tau for v in equivalents)
    assert report.selected is None
    assert report.selected_source == b2tob10_unit.text


# ---- soundness and confirmation ----

def test_selected_source_is_equivalent_on_inputs():
    unit = load_unit("powsum.mini")
    inputs = input_set(("n", [256]))
    report = run_optimize(unit, inputs)
    assert confirm_equivalence(report.selected_source, unit, inputs,
                               OptimizeConfig())


def test_confirm_equivalence_reflexive(max_search_unit):
    assert confirm_equivalence(max_search_unit, max_search_unit, MAX_INPUTS,
                               OptimizeConfig())


def test_confirm_equivalence_false_for_killed_mutant(max_search_unit):
    killed = next(m for m in apply_all([ROR], max_search_unit)
                  if m.original == ">=" and m.replacement == "<")
    assert not confirm_equivalence(killed.mutated_text, max_search_unit,
                                   MAX_INPUTS, OptimizeConfig())


def test_confirm_equivalence_false_for_non_compiling_candidate(max_search_unit):
    assert not confirm_equivalence(b"x = ;", max_search_unit, MAX_INPUTS,
                                   OptimizeConfig())


# ---- memoization and parallelism are invisible ----

def strip_host(report):
    d = report_to_dict(report)
    d.pop("host")
    return d


@pytest.mark.parametrize("fixture, inputs", [
    ("max_search.mini", MAX_INPUTS),
    ("powsum.mini", input_set(("n", [64]))),
    ("hostile.mini", load_inputs(FIXTURES / "m_hostile")),
], ids=["max_search", "powsum", "hostile"])
def test_memoized_verdicts_match_literal_oracle(fixture, inputs):
    # the oracle re-runs the current best program for every comparison
    unit = load_unit(fixture)
    report = run_optimize(unit, inputs)
    got = [(v.mutant_id, v.status, v.input_id, v.tau, v.runs)
           for v in report.verdicts]
    assert got == literal_verdicts([ROR, ASR, AOR], unit, inputs)


def test_parallel_evaluation_yields_identical_report():
    unit = load_unit("powsum.mini")
    inputs = input_set(("n", [64]))
    a = run_optimize(unit, inputs, jobs=1)
    b = run_optimize(unit, inputs, jobs=2)
    assert strip_host(a) == strip_host(b)


# ---- line-range restriction ----

def test_line_range_restricts_mutation_sites():
    unit = load_unit("powsum.mini")
    inputs = input_set(("n", [64]))
    report = run_optimize(unit, inputs, line_range=(8, 13))
    assert all(8 <= v.line <= 13 for v in report.verdicts)
    full = run_optimize(unit, inputs)
    assert len(report.verdicts) < len(full.verdicts)


# ---- external backend end to end ----

@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_external_optimize_small_c_program(tmp_path):
    source = b"""#include <stdio.h>
int main(void) {
    int a = 0, b = 0;
    if (scanf("%d %d", &a, &b) != 2) return 1;
    int big = a;
    if (b >= a) {
        big = b;
    }
    printf("%d\\n", big);
    return 0;
}
"""
    unit = tokenize(source, Language.C_LIKE)
    inputs = input_set(("x", [3, 9]), ("y", [9, 3]), ("z", [4, 4]))
    config = OptimizeConfig(
        backend=ExecBackendConfig(kind="external",
                                  compile_cmd="cc -O0 {src} -o {out}",
                                  run_cmd="{bin}",
                                  repetitions=2, warmups=0),
        scratch_dir=tmp_path,
        source_name="bigger.c",
    )
    report = optimize([ROR], unit, inputs, config)
    assert report.unit == "ms"
    got = {v.replacement: v.status for v in report.verdicts if v.original == ">="}
    assert got["<"] == "killed"     # picks the wrong side on (3, 9)
    assert got[">"] in ("equivalent_not_faster", "equivalent_faster", "selected")
    assert confirm_equivalence(report.selected_source, unit, inputs, config)
