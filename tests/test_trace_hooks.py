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
from pathlib import Path

import pytest

from mutopt.cli import main

from conftest import FIXTURES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_optimize_attributes_every_mutant(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # trace_run imports workloads
    trace_run = importlib.import_module("trace_run")
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path))
    report = tmp_path / "report.json"
    tracer = trace_run.Tracer()
    trace_run.install(tracer)
    root = tracer.open("cli:main")
    try:
        code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                     "--inputs", str(FIXTURES / "m_powsum"),
                     "--operators", "ror,asr,aor", "--jobs", "1",
                     "--report", str(report)])
    finally:
        tracer.close(root)
        tracer.uninstall()
    assert code == 0
    verdicts = json.loads(report.read_text())["verdicts"]
    metrics, problems = trace_run.layer_metrics(tracer.spans, verdicts)
    assert problems == []
    # the baseline, one per mutant, and the original and the selected
    # source in confirm_equivalence
    compiles = metrics["backend.compile_calls"][0]
    assert compiles == 1 + len(verdicts) + 2
    # each compile parses, and each that parses generates code
    assert metrics["parser.parse_calls"][0] == compiles
    assert (metrics["interp.codegen_calls"][0]
            == compiles - metrics["backend.compile_errors"][0])
    assert metrics["interp.runs"][0] == metrics["backend.run_calls"][0] > 0
    assert metrics["mutation.mutants"][0] == len(verdicts)
    assert sum(metrics[f"optimizer.{c}.mutants"][0]
               for c in trace_run.CLASSES) == len(verdicts)


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
