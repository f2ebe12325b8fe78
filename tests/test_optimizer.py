"""Optimizer loop tests: verdict classification, selection, soundness."""

import json
import os
import shutil
from dataclasses import replace

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
from mutopt import optimizer
from mutopt.backend import MiniBackend, make_backend
from mutopt.cli import load_inputs, main
from mutopt.minilang import BudgetExceeded, interp
from mutopt.minilang.interp import CYCLE_STRIDE
from mutopt.optimizer import _baseline

from conftest import (FIXTURE_INPUTS, FIXTURES, FOLDED_C, confirm_against,
                      load_unit, logging_run_cmd, spawns)
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


def _record_runs(monkeypatch) -> list:
    """A list that gains (program, input values, steps where a
    BudgetExceeded stopped it or None) at each ``CompiledMini.run``."""
    runs = []
    real = interp.CompiledMini.run

    def run(self, input_values, *args):
        runs.append((self, tuple(input_values), None))
        try:
            return real(self, input_values, *args)
        except BudgetExceeded as stop:
            runs[-1] = runs[-1][:2] + (stop.steps,)
            raise

    monkeypatch.setattr(interp.CompiledMini, "run", run)
    return runs


def test_invalid_baseline_on_a_cycling_original(monkeypatch):
    # the original has relational and shortcut sites, so its baseline is
    # the instrumented run, which must prove the cycle as a plain run does
    # and not spin up to BASELINE_STEP_LIMIT
    runs = _record_runs(monkeypatch)
    unit = tokenize(b"x = 0; while (x < 1) { x += 0; } print(x);", Language.MINI)
    with pytest.raises(InvalidBaseline) as err:
        run_optimize(unit, input_set(("a", [1])))
    assert str(err.value) == "original program verdict 'timeout' on input 'a'"
    (_, values, steps), = runs
    assert values == (1,) and steps <= 3 * CYCLE_STRIDE


def test_the_search_runs_the_original_once_per_input(monkeypatch):
    # the baseline is the instrumented run, whose program no backend
    # compile returns; the base that MiniBackend.compile returns never runs
    runs = _record_runs(monkeypatch)
    compiled = []
    real_compile = MiniBackend.compile

    def compile(self, *args, **kwargs):
        compiled.append(real_compile(self, *args, **kwargs))
        return compiled[-1]

    monkeypatch.setattr(MiniBackend, "compile", compile)
    inputs = load_inputs(FIXTURES / "m_powsum")
    report = run_optimize(load_unit("powsum.mini"), inputs)
    assert report.selected is not None
    instrumented = [values for program, values, _ in runs
                    if not any(program is c for c in compiled)]
    assert instrumented == [e.values for e in inputs.entries]
    assert not any(program is compiled[0] for program, _, _ in runs)


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
    assert confirm_against(report.selected_source, unit, inputs,
                           OptimizeConfig())


def test_confirm_equivalence_reflexive(max_search_unit):
    assert confirm_against(max_search_unit, max_search_unit, MAX_INPUTS,
                           OptimizeConfig())


def test_confirm_equivalence_false_for_killed_mutant(max_search_unit):
    killed = next(m for m in apply_all([ROR], max_search_unit)
                  if m.original == ">=" and m.replacement == "<")
    assert not confirm_against(killed.mutated_text, max_search_unit,
                               MAX_INPUTS, OptimizeConfig())


def test_confirm_equivalence_false_for_non_compiling_candidate(max_search_unit):
    assert not confirm_against(b"x = ;", max_search_unit, MAX_INPUTS,
                               OptimizeConfig())


def test_confirm_equivalence_false_when_original_crashes(max_search_unit):
    crashing = input_set(("empty", []))  # max_search reads in[0]
    assert not confirm_against(b"print(0);", max_search_unit, crashing,
                               OptimizeConfig())


def test_confirm_equivalence_checks_against_the_given_baseline(max_search_unit):
    backend = make_backend(ExecBackendConfig())
    baseline = _baseline(backend, max_search_unit, MAX_INPUTS, "unit")
    assert confirm_equivalence(max_search_unit, baseline, MAX_INPUTS, OptimizeConfig())
    # the original itself fails against a reference whose output on one
    # input was altered
    first, *rest = baseline.results
    altered = replace(baseline, results=(replace(first, output=first.output + b"0"),
                                         *rest))
    assert not confirm_equivalence(max_search_unit, altered, MAX_INPUTS,
                                   OptimizeConfig())


def test_confirmation_compiles_only_the_candidate_on_a_fresh_backend(
        max_search_unit, monkeypatch):
    # the search's backend holds the original as its base and has decided
    # runs; the confirmation's must hold neither, and compile the selected
    # source in full as its first and only program
    made = []

    def capture(*args):
        backend, compiled = make_backend(*args), []
        compile = backend.compile

        def record(source, name="unit.src"):
            compiled.append(bytes(getattr(source, "text", source)))
            return compile(source, name)

        backend.compile = record
        made.append((backend, compiled))
        return backend

    monkeypatch.setattr(optimizer, "make_backend", capture)
    report = run_optimize(max_search_unit, MAX_INPUTS)
    assert report.selected is not None
    (search, _), (fresh, compiled) = made
    assert search._decided
    assert fresh is not search and fresh._decided == {}
    assert compiled == [report.selected_source]
    assert fresh._base.unit.text == report.selected_source


# ---- memoization is invisible ----

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


def test_host_counts_how_each_run_was_decided():
    # b2tob10 on the corpus's small inputs: each reported run executed, or
    # was inherited from the original's or shadowed
    unit = load_unit("b2tob10.mini")
    inputs = input_set(*((f"b{k}", v) for k, v in enumerate(FIXTURE_INPUTS["b2tob10.mini"])))
    report = run_optimize(unit, inputs)
    decided = report.host["decided"]
    assert sum(decided.values()) == sum(v.runs for v in report.verdicts)
    # only the external backend decides by identical binaries
    assert min(decided["executed"], decided["inherited"], decided["shadowed"]) > 0
    assert decided["identical"] == 0


def _evaluating_pids(monkeypatch, tmp_path):
    """Make each mutant's evaluation leave a file named by the pid of the
    process that evaluates it, in ``tmp_path``; return a function that
    lists those pids."""
    evaluate = optimizer._evaluate_one

    def recorded(*args):
        (tmp_path / str(os.getpid())).touch()
        return evaluate(*args)

    monkeypatch.setattr(optimizer, "_evaluate_one", recorded)
    return lambda: {int(path.name) for path in tmp_path.iterdir()}


def test_jobs_is_accepted_and_ignored(monkeypatch, tmp_path):
    # every mutant is evaluated in this process, and the report is the one
    # without --jobs
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path / "scratch"))
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    pids = _evaluating_pids(monkeypatch, pid_dir)
    argv = ["optimize", "--source", str(FIXTURES / "powsum.mini"),
            "--inputs", str(FIXTURES / "m_powsum"), "--operators", "ror,asr,aor"]
    reports = []
    for extra in (["--jobs", "2"], []):
        report = tmp_path / f"report{len(reports)}.json"
        assert main([*argv, *extra, "--report", str(report)]) == 0
        reports.append({k: v for k, v in json.loads(report.read_text()).items()
                        if k != "host"})
    assert pids() == {os.getpid()}
    assert reports[0] == reports[1]


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
    assert confirm_against(report.selected_source, unit, inputs, config)
    # the external backend decides the runs of ``#include <stdio.h>=``,
    # which gcc builds (with a warning) into the original's binary
    include, = (v for v in report.verdicts if (v.line, v.original, v.replacement)
                == (1, ">", ">="))
    assert (include.status, include.tau) == ("equivalent_not_faster", report.original_tau)
    # the schema answers every run of the mutants it kills or crashes; it
    # holds none on the preprocessor line
    decided = [v for v in report.verdicts if v.line > 1 and v.status in ("killed", "crash")]
    assert all(v.decided == ("schema",) * v.runs for v in decided)
    assert sum(v.runs for v in decided) == 8
    assert report.host["decided"] == {"executed": sum(v.runs for v in report.verdicts) - 3 - 8,
                                      "inherited": 0, "shadowed": 0, "forked": 0,
                                      "identical": 3, "schema": 8}


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_external_times_only_survivors_and_runs_each_binary_once(tmp_path):
    log = tmp_path / "spawns"
    config = OptimizeConfig(
        backend=ExecBackendConfig(kind="external", compile_cmd="cc -O0 {src} -o {out}",
                                  run_cmd=logging_run_cmd(log), repetitions=2, warmups=1),
        scratch_dir=tmp_path / "scratch", source_name="folded.c")
    inputs = input_set(("x", [3]), ("y", [5]))
    report = optimize([ROR], tokenize(FOLDED_C, Language.C_LIKE), inputs, config)
    logged = spawns(log)
    verdicts = {(v.line, v.replacement): v for v in report.verdicts}
    spawned = {key: sum(n for name, n in logged.items() if name.endswith(f".{v.mutant_id}.c.bin"))
               for key, v in verdicts.items()}
    # all 15 mutants sit in one schema, which runs the n-th mutant when
    # switched to n and checks each before any compiles alone
    schema = {key: logged[f"00.folded.c.bin#{n}"] for n, key in enumerate(verdicts, 1)}
    timed = 1 + 1 + 2  # per input: the check's run, one warmup, two measured
    # killed ones spawn once per input they reached, in the schema, and
    # never alone; the schema answers each of their runs
    assert {key: (v.status, v.input_id, spawned[key], schema[key], v.decided)
            for key, v in verdicts.items() if v.tau is None} == {
        (6, "<"): ("killed", "y", 0, 2, ("schema",) * 2),
        (6, "<="): ("killed", "y", 0, 2, ("schema",) * 2),
        (6, "=="): ("killed", "y", 0, 2, ("schema",) * 2),
        (8, "<"): ("killed", "x", 0, 1, ("schema",)),
        (8, "<="): ("killed", "x", 0, 1, ("schema",)),
        (8, "=="): ("killed", "y", 0, 2, ("schema",) * 2),
        (8, "!="): ("killed", "x", 0, 1, ("schema",))}
    # survivors pass the schema on both inputs, then run alone and are timed
    assert all(schema[key] == 2 for key, v in verdicts.items() if v.tau is not None)
    assert spawned[7, "<"] == spawned[8, ">="] == 2 * timed
    # the original's binary: its runs, so its tau, and never selected
    for key in [(6, ">="), (6, "!="), (7, ">="), (7, "!=")]:
        v = verdicts[key]
        assert (v.status, v.tau, spawned[key]) == ("equivalent_not_faster",
                                                   report.original_tau, 0)
        assert v.decided == ("identical", "identical")
    # an earlier mutant's binary: that mutant's verdict; on line 6 the
    # schema kills all three, so none of them compiles alone
    for line in (6, 7):
        first = verdicts[line, "<"]
        for op in ("<=", "=="):
            twin = verdicts[line, op]
            assert (twin.input_id, twin.tau, twin.runs) == (first.input_id, first.tau,
                                                            first.runs)
            assert twin.status == (first.status if first.tau is None
                                   else "equivalent_not_faster")
            assert twin.decided == ("schema" if line == 6 else "identical",) * twin.runs
    assert report.host["decided"]["identical"] == 2 * 2 + 2 * 2 + 2 * 2
    assert report.host["decided"]["schema"] == 2 + 2 + 2 + 1 + 1 + 2 + 1
    # the original is checked and timed; the confirmation only checks
    assert sum(logged.values()) == (2 * timed + sum(spawned.values())
                                    + sum(schema.values()) + 2)
