"""The benchmark's tracer (``perfbench/trace_run.py``) still finds its hook
points: it wraps functions at the module paths where mutopt looks them up, so
a renamed global or a call moved out of ``optimize`` shows here, not only in
a traced benchmark run."""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from mutopt.cli import main

from conftest import FIXTURE_INPUTS, FIXTURES, FOLDED_C, PERFBENCH


def _traced_optimize(source, inputs, tmp_path, monkeypatch, *args,
                     codes=(0,)) -> tuple[dict, dict, list]:
    """The report, the per-layer metrics and the problems of a traced
    ``optimize`` run at ``--jobs 1``, with ``args`` added, that exits with
    one of ``codes``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # trace_run imports workloads
    trace_run = importlib.import_module("trace_run")
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path))
    report = tmp_path / "report.json"
    tracer = trace_run.Tracer()
    trace_run.install(tracer)
    root = tracer.open("cli:main")
    try:
        code = main(["optimize", "--source", str(source), "--inputs", str(inputs),
                     "--operators", "ror,asr,aor", "--jobs", "1",
                     "--report", str(report), *args])
    finally:
        tracer.close(root)
        tracer.uninstall()
    assert code in codes
    data = json.loads(report.read_text())
    metrics, problems = trace_run.layer_metrics(tracer.spans, data["verdicts"])
    assert metrics["mutation.mutants"][0] == len(data["verdicts"])
    assert sum(metrics[f"optimizer.{c}.mutants"][0]
               for c in trace_run.CLASSES) == len(data["verdicts"])
    return data, {name: value for name, (value, _) in metrics.items()}, problems


def _assert_exact_counts(data: dict, metrics: dict):
    """Every mutant compiles once and calls ``run`` once per run it reports,
    and only the runs not decided without running execute."""
    verdicts, n = data["verdicts"], len(data["inputs"])
    # the original, one per mutant, and the selected source alone in
    # confirm_equivalence, which checks it against the baseline's runs
    assert metrics["backend.compile_calls"] == 1 + len(verdicts) + 1
    runs = sum(v["runs"] for v in verdicts)
    assert sum(data["host"]["decided"].values()) == runs
    # the mutants' runs and the selected source's in confirm; the baseline
    # is decide's instrumented run, which does not go through the backend
    assert metrics["backend.run_calls"] == runs + n
    # the instrumented run of the original per input, which is the
    # baseline, the mutants' runs less the decided ones, and the selected
    # source's in confirm
    assert metrics["interp.runs"] == n + data["host"]["decided"]["executed"] + n


def test_traced_optimize_attributes_every_mutant(tmp_path, monkeypatch):
    data, metrics, problems = _traced_optimize(
        FIXTURES / "powsum.mini", FIXTURES / "m_powsum", tmp_path, monkeypatch)
    assert problems == []
    _assert_exact_counts(data, metrics)
    # Only the original, in the baseline, and the selected source, the first
    # program of confirm_equivalence's fresh backend, are parsed and
    # generated in full; the selected source is also tokenized there, the
    # original once by the CLI.  Every mutant of powsum swaps one operator
    # and keeps its tree's shape, so each runs the schema of its site: none
    # compiles in full.
    assert metrics["backend.compile_errors"] == 0
    assert metrics["tokens.tokenize_calls"] == 2
    assert metrics["parser.parse_calls"] == 2
    assert metrics["interp.codegen_calls"] == 2


def test_traced_optimize_counts_decided_runs_exactly(tmp_path, monkeypatch):
    # b2tob10 on the corpus's small inputs: some runs of its mutants are
    # inherited, some shadowed, and the rest execute
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for k, values in enumerate(FIXTURE_INPUTS["b2tob10.mini"]):
        (inputs / f"b{k}.in").write_text(" ".join(map(str, values)) + "\n")
    data, metrics, problems = _traced_optimize(
        FIXTURES / "b2tob10.mini", inputs, tmp_path, monkeypatch)
    assert problems == []
    _assert_exact_counts(data, metrics)
    decided = data["host"]["decided"]
    assert decided["inherited"] > 0 and decided["shadowed"] > 0 and decided["executed"] > 0


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_traced_external_optimize_attributes_every_mutant(tmp_path, monkeypatch):
    # the tracer counts ``ExternalBackend.run`` calls, which check, not the
    # timed runs; a binary identical to an earlier one, or a mutant a
    # schema killed, still calls ``run`` once per run its verdict reports,
    # and is answered without a spawn
    source = tmp_path / "folded.c"
    source.write_bytes(FOLDED_C)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, value in (("x", 3), ("y", 5)):
        (inputs / f"{name}.in").write_text(f"{value}\n")
    data, metrics, problems = _traced_optimize(
        source, inputs, tmp_path, monkeypatch, "--backend", "external",
        "--compile-cmd", "cc -O0 {src} -o {out}", "--run-cmd", "{bin}",
        "--reps", "2", "--warmups", "0", codes=(0, 3))
    assert problems == []
    verdicts, n = data["verdicts"], len(data["inputs"])
    assert metrics["backend.compile_calls"] == 1 + len(verdicts) + 1
    # the original's check, the mutants' runs and the selected source's in
    # confirm, which only checks
    assert sum(v["runs"] for v in verdicts) == 34
    assert metrics["backend.run_calls"] == n + 34 + n
    # the schema answers the 18 runs of the mutants it kills; on lines 6
    # and 7 two mutants each build the original's binary, and on line 7,
    # whose ``<`` survives, two build that ``<``'s binary
    assert data["host"]["decided"] == {"executed": 4, "inherited": 0, "shadowed": 0,
                                       "forked": 0, "identical": 12, "schema": 18}


@pytest.mark.parametrize("backend, source, inputs", [
    ("mini", "powsum.mini", "m_powsum"),
    pytest.param("external", "b2tob10.c", "m_scaled",
                 marks=pytest.mark.skipif(shutil.which("cc") is None,
                                          reason="no C compiler on PATH")),
])
def test_setup_probe_runs(backend, source, inputs, tmp_path, monkeypatch):
    # the benchmark's setup_s probe builds its backend config directly, with
    # no templates on mini, and compiles and runs the original
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    external = backend == "external"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "source": str(FIXTURES / source), "inputs": str(FIXTURES / inputs),
        "backend": backend,
        "compile_cmd": workloads.EXTERNAL_CC if external else None,
        "run_cmd": "{bin}" if external else None,
        "scratch": str(tmp_path / "scratch")}))
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "probe_setup.py"), str(spec)],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
