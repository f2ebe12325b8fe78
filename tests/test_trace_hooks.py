"""The benchmark's tracer (``perfbench/trace_run.py``) still finds its hook
points: it wraps functions at the module paths where mutopt looks them up, so
a renamed global or a call moved out of ``optimize`` shows here, not only in
a traced benchmark run."""

import importlib
import json
from pathlib import Path

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
