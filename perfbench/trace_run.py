"""Traced in-process runs of ``mutopt optimize`` for the per-layer metrics.

    python3 perfbench/trace_run.py SPEC.json

SPEC names ``cli_args`` (the optimize arguments without ``--jobs`` and
``--report``), ``jobs`` (the workload's own), ``report_dir``, ``out`` and
``spawn`` (the external toolchain for the spawn probe, or null).  Calls
``mutopt.cli.main`` in this process: untraced at the workload's ``--jobs``,
untraced at ``--jobs 1`` when that differs, then traced at ``--jobs 1``,
because calls inside pool workers are not visible from here.

The tracer wraps each function where its caller looks it up (for example
``mutopt.backend.tokenize`` and ``mutopt.optimizer.apply_all``) and the
``compile``/``run`` methods of both backends.  Spans (name, layer, start,
end, parent, run id) stay in memory and are written to ``out`` with the
metrics computed from them when the runs end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import types
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

import mutopt.backend
import mutopt.cli
import mutopt.optimizer
from mutopt.minilang import BudgetExceeded, CompileError, interp
from workloads import EQUIVALENT

CLASSES = ("killed", "crash", "timeout", "equivalent", "compile_error")
LAYERS = ("cli", "tokens", "mutation", "minilang.parser", "minilang.interp",
          "backend", "optimizer", "report")
SPAWN_PROBE_CALLS = 20


@dataclass(slots=True)
class Span:
    id: int
    name: str  # "<layer>:<function>"
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts at layer boundaries, recorded by wrapping callees."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name,
                    self._stack[-1].id if self._stack else None,
                    self.run, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None):
        """Replace ``owner.attr`` by a spanning wrapper; ``note(extra, args,
        result, exc)`` adds counts to the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                span.extra["error"] = type(e).__name__
                raise
            finally:
                tracer.close(span)
                if note is not None:
                    note(span.extra, args, result, exc)

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value):
        """Set ``owner.attr`` until ``uninstall``."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _note_bytes(extra, args, result, exc):
    text = args[0]
    extra["bytes"] = len(text.encode("utf-8") if isinstance(text, str) else text)


def _note_count(extra, args, result, exc):
    if result is not None:
        extra["count"] = len(result)


def _note_steps(extra, args, result, exc):
    # a timed-out run burned at least its budget; a crash's count is unknown
    if result is not None:
        extra["steps"] = result.steps
    elif isinstance(exc, BudgetExceeded):
        extra["steps"] = args[2]


def _note_verdict(extra, args, result, exc):
    if result is not None:
        extra["verdict"] = result.verdict


def install(tracer: Tracer):
    cli, backend, optimizer = mutopt.cli, mutopt.backend, mutopt.optimizer
    w = tracer.wrap
    w(cli, "tokenize", "tokens:tokenize", _note_bytes)
    w(cli, "load_inputs", "cli:load_inputs")
    w(cli, "optimize", "optimizer:optimize")
    w(cli, "render_summary", "report:render_summary")
    w(cli, "write_report", "report:write_report")
    w(optimizer, "make_backend", "backend:make_backend")
    w(optimizer, "apply_all", "mutation:apply_all", _note_count)
    w(optimizer, "confirm_equivalence", "optimizer:confirm_equivalence")
    w(backend, "tokenize", "tokens:tokenize", _note_bytes)
    w(backend, "parse_mini", "minilang.parser:parse_mini")
    w(backend, "compile_program", "minilang.interp:compile_program")
    w(interp, "generate_source", "minilang.interp:generate_source")
    w(interp.CompiledMini, "run", "minilang.interp:run", _note_steps)
    for cls in (backend.MiniBackend, backend.ExternalBackend):
        w(cls, "compile", f"backend:{cls.__name__}.compile")
        w(cls, "run", f"backend:{cls.__name__}.run", _note_verdict)
    # child processes are spawned through the module's ``subprocess`` name
    proxy = types.SimpleNamespace(**vars(backend.subprocess))
    w(proxy, "run", "process:run")
    tracer.replace(backend, "subprocess", proxy)


def _self_times(spans: list[Span]) -> dict[int, float]:
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _verdict_class(status: str) -> str:
    return "equivalent" if status in EQUIVALENT else status


def layer_metrics(spans: list[Span], verdicts: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced optimize run, and any inconsistency
    between the spans and the report's verdicts."""
    problems: list[str] = []
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name):
        return sum(s.duration for s in named[name])

    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    compiles = named["backend:MiniBackend.compile"] + named["backend:ExternalBackend.compile"]
    runs = named["backend:MiniBackend.run"] + named["backend:ExternalBackend.run"]
    interp_runs = named["minilang.interp:run"]
    steps = sum(s.extra.get("steps", 0) for s in interp_runs)
    tokenize_s = total("tokens:tokenize")
    compile_ids = {s.id for s in compiles}
    run_ids = {s.id for s in runs}
    processes = named["process:run"]

    opt, = named["optimizer:optimize"]
    gen = next(s for s in named["mutation:apply_all"] if s.parent == opt.id)
    conf = next(s for s in named["optimizer:confirm_equivalence"] if s.parent == opt.id)
    evaluate_s = conf.start - gen.end

    # evaluate phase: runs belong to the mutant compiled just before them
    phase = sorted((s for s in compiles + runs
                    if s.parent == opt.id and gen.end <= s.start and s.end <= conf.start),
                   key=lambda s: s.start)
    mutants: list[dict] = []
    for s in phase:
        if s.id in compile_ids:
            mutants.append({"start": s.start, "compile_s": s.duration,
                            "runs": 0, "steps": 0})
        elif mutants:
            mutants[-1]["runs"] += 1
            mutants[-1]["steps"] += sum(c.extra.get("steps", 0) for c in children[s.id])
        else:
            problems.append("a run precedes the first mutant compile")
    if len(mutants) != len(verdicts):
        problems.append(f"{len(mutants)} mutant compiles traced, "
                        f"{len(verdicts)} verdicts reported")
    per_class = {c: {"mutants": 0, "s": 0.0, "runs": 0, "steps": 0} for c in CLASSES}
    ends = [m["start"] for m in mutants[1:]] + [conf.start]
    for m, end, v in zip(mutants, ends, verdicts):
        if m["runs"] != v["runs"]:
            problems.append(f"{v['mutant_id']}: {m['runs']} runs traced, "
                            f"{v['runs']} reported")
        acc = per_class[_verdict_class(v["status"])]
        acc["mutants"] += 1
        acc["s"] += end - m["start"]
        acc["runs"] += m["runs"]
        acc["steps"] += m["steps"]

    n_mutants = max(len(verdicts), 1)
    metrics = {
        "tokens.tokenize_calls": (len(named["tokens:tokenize"]), "count"),
        "tokens.tokenize_s": (tokenize_s, "s"),
        "tokens.bytes_per_s": (sum(s.extra.get("bytes", 0) for s in named["tokens:tokenize"])
                               / tokenize_s if tokenize_s else 0.0, "B/s"),
        "parser.parse_calls": (len(named["minilang.parser:parse_mini"]), "count"),
        "parser.parse_s": (total("minilang.parser:parse_mini"), "s"),
        "interp.codegen_calls": (len(named["minilang.interp:compile_program"]), "count"),
        "interp.codegen_s": (total("minilang.interp:compile_program"), "s"),
        "interp.generate_source_s": (total("minilang.interp:generate_source"), "s"),
        "interp.runs": (len(interp_runs), "count"),
        "interp.run_s": (total("minilang.interp:run"), "s"),
        "interp.steps": (steps, "steps"),
        "interp.steps_per_s": (steps / total("minilang.interp:run") if interp_runs else 0.0,
                               "steps/s"),
        "backend.compile_calls": (len(compiles), "count"),
        "backend.compile_s": (sum(s.duration for s in compiles), "s"),
        "backend.compile_ms_per_mutant": (
            1000.0 * sum(m["compile_s"] for m in mutants) / max(len(mutants), 1), "ms"),
        "backend.compile_errors": (sum(s.extra.get("error") == CompileError.__name__
                                       for s in compiles), "count"),
        "backend.run_calls": (len(runs), "count"),
        "backend.run_s": (sum(s.duration for s in runs), "s"),
        "backend.timed_processes": (sum(s.parent in run_ids for s in processes), "count"),
        "backend.process_s": (total("process:run"), "s"),
        "mutation.apply_all_s": (gen.duration, "s"),
        "mutation.mutants": (gen.extra.get("count", 0), "count"),
        "optimizer.baseline_s": (gen.start - opt.start, "s"),
        "optimizer.generate_s": (gen.duration, "s"),
        "optimizer.evaluate_s": (evaluate_s, "s"),
        "optimizer.confirm_s": (conf.duration, "s"),
    }
    for c in CLASSES:
        metrics[f"optimizer.{c}.mutants"] = (per_class[c]["mutants"], "count")
        metrics[f"optimizer.{c}.s"] = (per_class[c]["s"], "s")
        metrics[f"optimizer.{c}.runs"] = (per_class[c]["runs"], "count")
    metrics["optimizer.timeout.steps"] = (per_class["timeout"]["steps"], "steps")
    metrics["optimizer.useful_ratio"] = (per_class["equivalent"]["mutants"] / n_mutants, "ratio")
    metrics["optimizer.timeout_share"] = (per_class["timeout"]["s"] / evaluate_s
                                          if evaluate_s else 0.0, "ratio")
    metrics["optimizer.runs_per_mutant"] = (sum(m["runs"] for m in mutants) / n_mutants,
                                            "ratio")
    metrics["cli.load_inputs_s"] = (total("cli:load_inputs"), "s")
    metrics["report.render_s"] = (total("report:render_summary"), "s")
    metrics["report.write_s"] = (total("report:write_report"), "s")
    self_s = _self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(self_s[s.id] for s in spans if s.layer == layer),
                                      "s")
    return metrics, problems


def spawn_ms(spec: dict) -> float:
    """Median cost, in ms, of an empty C program run through
    ``ExternalBackend.run`` with the default reps and warmups."""
    config = mutopt.backend.ExecBackendConfig(
        kind="external", compile_cmd=spec["compile_cmd"], run_cmd=spec["run_cmd"])
    backend = mutopt.backend.ExternalBackend(config, Path(spec["scratch"]))
    program = backend.compile(b"int main(void){return 0;}\n", name="empty.c")
    costs = []
    for _ in range(SPAWN_PROBE_CALLS):
        result = backend.run(program, (), backend.baseline_budget())
        if not result.ok:
            raise RuntimeError(f"empty program verdict {result.verdict}")
        costs.append(result.cost.value)
    return median(costs)


def _optimize(argv: list[str]) -> tuple[int, float]:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = mutopt.cli.main(argv)
        return code, time.perf_counter() - t0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    report_dir = Path(spec["report_dir"])
    plan = [("untraced", spec["jobs"], False)]
    if spec["jobs"] != 1:
        plan.append(("untraced_jobs1", 1, False))
    plan.append(("traced", 1, True))
    tracer = Tracer()
    runs = []
    for label, jobs, traced in plan:
        report = report_dir / f"{label}.json"
        argv = ["optimize", *spec["cli_args"], "--jobs", str(jobs), "--report", str(report)]
        if traced:
            install(tracer)
            tracer.run = 1
            root = tracer.open("cli:main")
            try:
                code, wall = _optimize(argv)
            finally:
                tracer.close(root)
                tracer.uninstall()
        else:
            code, wall = _optimize(argv)
        runs.append({"label": label, "jobs": jobs, "traced": traced,
                     "wall_s": wall, "exit_code": code, "report": str(report)})

    out = {"runs": runs, "metrics": {}, "problems": [], "spans": []}
    traced_report = report_dir / "traced.json"
    if traced_report.is_file():
        verdicts = json.loads(traced_report.read_text(encoding="utf-8"))["verdicts"]
        try:
            metrics, out["problems"] = layer_metrics(tracer.spans, verdicts)
        except (ValueError, StopIteration) as exc:
            metrics, out["problems"] = {}, [f"trace incomplete: {exc!r}"]
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["metrics"]["backend.spawn_ms"] = {
        "value": spawn_ms(spec["spawn"]) if spec["spawn"] else 0.0, "unit": "ms"}
    self_s = _self_times(tracer.spans)
    out["spans"] = [{**asdict(s), "self": self_s[s.id]} for s in tracer.spans]
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
