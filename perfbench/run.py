"""The mutopt benchmark: end-to-end timings of ``mutopt optimize`` and a
traced run for the per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scaled|wide|external|all \
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` sets up the workload in fresh processes several times, then
starts ``mutopt optimize`` as a fresh CLI process until ``--seconds`` have
passed, and reports medians.  Set-up probes and optimize runs are timed in
CPU seconds of the whole process tree (the CLI, its pool workers and every
``cc`` and binary it started), which other load on a shared machine
stretches far less than wall time; wall time is printed beside it.  ``--trace 1`` runs ``perfbench/trace_run.py``
and reports the per-layer metrics.  Every optimize run is checked (see
``workloads.check_report``).  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go to ``.bench_scratch/`` and a
record of each run to ``.bench_out/``, both in the checkout.

Exit codes: 0 the benchmark ran (``correct`` says whether the program's
outputs were right), 2 the checkout lacks the program or a step of the
benchmark itself failed, 4 the workload is unavailable on this machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from statistics import median

import workloads
from workloads import DEFAULT_SEED, SCRATCH, WORKLOADS, Workload

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_RUNS = 5
CHILD_LIMIT_S = 170.0
# ROADMAP re-anchor: 4 timeouts took 29.2 s of a ~42 s pass over 60 mutants
ROADMAP_TIMEOUTS = {"AOR_5", "AOR_6", "AOR_7", "ROR_13"}
ROADMAP_TIMEOUT_SHARE = 0.70


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Unavailable(Exception):
    """The workload cannot run here; reported, not counted as failed."""


def run_child(argv: list[str], env: dict, limit: float,
              stderr_path: Path) -> tuple[int, float, float, float]:
    """Run ``argv`` to completion in its own session.

    Returns the exit code, wall seconds, CPU seconds (user plus system) and
    peak RSS in MB.  CPU time and RSS cover the child and the descendants it
    reaped, from ``os.wait4``, so nothing leaks in from earlier children.
    The session is killed after ``limit``.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(limit, _kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the child's session down too
            _kill_session(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_session(proc.pid)  # anything the child left behind
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _kill_session(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def environment(seed: int) -> dict:
    cc = shutil.which("cc")
    cc_version = "none"
    if cc:
        cc_version = subprocess.run([cc, "--version"], capture_output=True,
                                    text=True).stdout.splitlines()[0]
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or rev
    return {"python": platform.python_version(), "cc": cc_version,
            "nproc": os.cpu_count(), "rev": rev, "seed": seed,
            "host": platform.platform()}


def child_env(scratch: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["MUTOPT_SCRATCH"] = str(scratch)
    env["TMPDIR"] = str(scratch)
    return env


def optimize_argv(workload: Workload, report: Path) -> list[str]:
    jobs = ["--jobs", str(workload.jobs)] if workload.jobs else []
    return [sys.executable, "-m", "mutopt.cli", "optimize", *workload.cli_args(),
            *jobs, "--report", str(report)]


def measure(workload: Workload, seed: int, seconds: float, env: dict,
            work: Path) -> dict:
    """Untraced run: set-up probes, then optimize processes, started one
    after another until ``seconds`` have passed."""
    spec = work / "setup.json"
    spec.write_text(json.dumps({
        "source": workload.source, "inputs": workload.inputs,
        "backend": workload.backend, "compile_cmd": workload.compile_cmd,
        "run_cmd": workload.run_cmd, "scratch": str(work / "setup")}))
    setup, setup_wall = [], []
    for k in range(-1, SETUP_RUNS):  # probe -1 warms the file cache, untimed
        code, wall, cpu, _ = run_child([sys.executable, str(BENCH / "probe_setup.py"),
                                        str(spec)], env, CHILD_LIMIT_S, work / f"setup-{k}.err")
        if code != 0:
            raise BenchError(f"set-up probe exited {code}; see {work}/setup-{k}.err")
        if k >= 0:
            setup.append(cpu)
            setup_wall.append(wall)

    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        n = len(runs)
        report = work / f"report-{n}.json"
        code, wall, cpu, rss = run_child(optimize_argv(workload, report), env,
                                         CHILD_LIMIT_S, work / f"optimize-{n}.err")
        problems = workloads.check_report(workload, code, report, seed)
        data = json.loads(report.read_text()) if report.is_file() else {}
        mutants = len(data.get("verdicts", ()))
        runs.append({"optimize_cpu_s": cpu, "optimize_wall_s": wall, "peak_rss_mb": rss,
                     "mutants": mutants, "mutants_per_cpu_s": mutants / cpu,
                     "speedup": data.get("speedup"),
                     "selected": (data.get("selected") or {}).get("mutant_id"),
                     "per_operator": data and workloads.mutants_per_operator(data),
                     "exit_code": code, "problems": problems})

    failed = sum(bool(r["problems"]) for r in runs)
    metrics = {
        "optimize_cpu_s": (median(r["optimize_cpu_s"] for r in runs), "s"),
        "mutants_per_cpu_s": (median(r["mutants_per_cpu_s"] for r in runs), "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    for name in ("optimize_cpu_s", "optimize_wall_s"):
        print(f"  {name:<17} median {median(r[name] for r in runs):9.3f} s   "
              f"max {max(r[name] for r in runs):9.3f} s   n={len(runs)}")
    print(f"  {'setup_s':<17} median {metrics['setup_s'][0]:9.3f} s   "
          f"max {max(setup):9.3f} s   n={len(setup)}   (CPU)")
    print(f"  {'setup_wall_s':<17} median {median(setup_wall):9.3f} s   "
          f"max {max(setup_wall):9.3f} s   n={len(setup_wall)}")
    print(f"  {'mutants_per_cpu_s':<17} median {metrics['mutants_per_cpu_s'][0]:9.3f} 1/s "
          f"({runs[0]['mutants']} mutants: {runs[0]['per_operator']})")
    print(f"  {'peak_rss_mb':<17} median {metrics['peak_rss_mb'][0]:9.2f} MB")
    if workload.backend == "mini":
        # exact on the mini backend; not steady on external, so not reported there
        print(f"  {'speedup':<17} {runs[0]['speedup']} x (original_tau / final_tau)")
    print(f"  {'selected':<17} " + ", ".join(f"{k} x{v}" for k, v in
                                             Counter(r["selected"] for r in runs).items()))
    print(f"  {'error_rate':<17} {failed}/{len(runs)} = {failed / len(runs):.3f}")
    return {"runs": runs, "setup_s": setup, "setup_wall_s": setup_wall,
            "attempted": len(runs), "failed": failed, "metrics": metrics}


def trace(workload: Workload, seed: int, env: dict, work: Path) -> dict:
    """Traced run: untraced and traced in-process optimize calls."""
    out = work / "trace.json"
    spec = work / "trace-spec.json"
    spec.write_text(json.dumps({
        "cli_args": workload.cli_args(), "jobs": workload.jobs or os.cpu_count() or 1,
        "report_dir": str(work), "out": str(out),
        "spawn": None if workload.backend != "external" else {
            "compile_cmd": workload.compile_cmd, "run_cmd": workload.run_cmd,
            "scratch": str(work / "spawn")}}))
    code, _, _, _ = run_child([sys.executable, str(BENCH / "trace_run.py"), str(spec)],
                              env, CHILD_LIMIT_S, work / "trace.err")
    if code != 0:
        raise BenchError(f"traced run exited {code}; see {work}/trace.err")
    data = json.loads(out.read_text())
    runs = {r["label"]: r for r in data["runs"]}
    for r in data["runs"]:
        r["problems"] = workloads.check_report(workload, r["exit_code"], Path(r["report"]), seed)
    runs["traced"]["problems"] += data["problems"]

    traced_path = Path(runs["traced"]["report"])
    if not traced_path.is_file() or "optimizer.timeout_share" not in data["metrics"]:
        raise BenchError(f"traced run incomplete: {data['problems']}; see {work}/trace.err")
    traced_report = json.loads(traced_path.read_text())
    timeouts = {v["mutant_id"] for v in traced_report["verdicts"] if v["status"] == "timeout"}
    metrics = {k: (m["value"], m["unit"]) for k, m in data["metrics"].items()}
    wall = runs["traced"]["wall_s"]
    jobs1 = runs.get("untraced_jobs1", runs["untraced"])["wall_s"]
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - jobs1, "s")
    metrics["optimizer.pool_speedup"] = (wall / runs["untraced"]["wall_s"], "x")
    if workload.name == "scaled":
        share = metrics["optimizer.timeout_share"][0]
        print(f"  optimizer.timeout_share = {share:.3f} (ROADMAP measured "
              f"{ROADMAP_TIMEOUT_SHARE:.2f}); timeouts {sorted(timeouts)}")
        if timeouts != ROADMAP_TIMEOUTS:
            runs["traced"]["problems"].append(
                f"timeouts {sorted(timeouts)}, ROADMAP found {sorted(ROADMAP_TIMEOUTS)}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<34} {value:>16.6g} {unit}")
    for label, r in runs.items():
        print(f"  run {label}: --jobs {r['jobs']} {r['wall_s']:.3f} s exit {r['exit_code']}")
    failed = sum(bool(r["problems"]) for r in data["runs"])
    return {"runs": data["runs"], "attempted": len(data["runs"]), "failed": failed,
            "metrics": metrics, "timeouts": sorted(timeouts)}


def bench(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    if workload.backend == "external" and shutil.which("cc") is None:
        raise Unavailable(f"{name}: unavailable, no cc on PATH")
    work = SCRATCH / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    workloads.prepare(workload, seed)
    env = child_env(ROOT / work / "tmp")
    os.environ["TMPDIR"] = env["TMPDIR"]  # for the checks' own cc calls too
    info = environment(seed)
    print(f"{name}: trace={int(traced)} " + " ".join(f"{k}={v!r}" for k, v in info.items()))
    result = trace(workload, seed, env, work) if traced else measure(workload, seed, seconds,
                                                                     env, work)
    for r in result["runs"]:
        for p in r["problems"]:
            print(f"  FAILED CHECK: {p}")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if traced
                                                             else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in listed):
        raise BenchError("metrics differ from those BENCHMARK.json lists")
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "trace": int(traced), "env": info,
              **{k: v for k, v in result.items() if k != "metrics"},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # children run in sessions of their own; SIGTERM unwinds through run_child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # crashing mutants must not write core files into the checkout, nor
    # spend a varying time doing so; children inherit the limit
    resource.setrlimit(resource.RLIMIT_CORE, (0, resource.getrlimit(resource.RLIMIT_CORE)[1]))

    missing = [p for p in ("BENCHMARK.json", "src/mutopt/cli.py", "fixtures/b2tob10.mini",
                           "fixtures/m_scaled")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: run from the root of a mutopt checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True,
                   stdout=subprocess.DEVNULL)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            try:
                records.append(bench(name, args.seed, args.seconds, bool(args.trace)))
            except Unavailable as exc:
                print(exc, file=sys.stderr)
                if args.workload != "all":
                    return 4
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prefix = args.workload == "all"
    metrics = {(f"{r['workload']}.{k}" if prefix else k): v
               for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
