"""The benchmark's workloads and the correctness checks on their reports.

Paths are relative to the root of the checkout, which is the working
directory of every run, so reports name the same inputs on every machine.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import widegen

DEFAULT_SEED = 1
SCRATCH = Path(".bench_scratch")
EXTERNAL_CC = "cc -O2 {src} -o {out}"
EQUIVALENT = ("equivalent_not_faster", "equivalent_faster", "selected")


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    inputs: str
    backend: str = "mini"
    jobs: int | None = None  # None: the CLI default, one per CPU
    # exit 3 (no improvement, original returned) is correct where costs are
    # wall-clock: ASR_14 saves about 1 ms per run against about 2.5 ms of
    # process spawn, near the noise of the 5% threshold
    exit_codes: tuple[int, ...] = (0,)
    # the loop-tail ``i += 2`` -> ``i *= 2`` (mutant id, line): selected on
    # scaled; on external found equivalent, because which equivalent mutant a
    # wall-clock search selects is decided by timing noise
    selected: tuple[str, int] | None = None
    equivalent: tuple[str, int] | None = None
    # sha256 of the report without ``host``; wide freezes it for DEFAULT_SEED
    report_sha256: str | None = None
    compile_errors: int | None = None

    @property
    def compile_cmd(self) -> str | None:
        return EXTERNAL_CC if self.backend == "external" else None

    @property
    def run_cmd(self) -> str | None:
        return "{bin}" if self.backend == "external" else None

    def cli_args(self) -> list[str]:
        args = ["--source", self.source, "--inputs", self.inputs,
                "--operators", "ror,asr,aor"]
        if self.backend == "external":
            args += ["--backend", "external", "--compile-cmd", self.compile_cmd,
                     "--run-cmd", self.run_cmd]
        return args


WORKLOADS = {
    "scaled": Workload(
        name="scaled",
        source="fixtures/b2tob10.mini", inputs="fixtures/m_scaled", jobs=1,
        selected=("ASR_22", 26),
        report_sha256="3ca22b579e3243dae969623ddcc9bf31bc42ad1dd0ebe9c6a1989291422e78d4"),
    "wide": Workload(
        name="wide",
        source=str(SCRATCH / "wide" / "wide.mini"), inputs=str(SCRATCH / "wide" / "inputs"),
        report_sha256="24f7a98b32032616c6809ebd62845f5baa36e2ba98a6f8ddfcf4dae8d26774e5"),
    "external": Workload(
        name="external",
        source="fixtures/b2tob10.c", inputs="fixtures/m_scaled", backend="external",
        jobs=1,  # the process pool serves the mini backend only
        exit_codes=(0, 3),
        equivalent=("ASR_14", 36), compile_errors=9),
}


def prepare(workload: Workload, seed: int):
    if workload.name == "wide":
        widegen.write_workload(seed, SCRATCH / "wide")


def report_sha256(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "host"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def _input_values(directory: str) -> list[list[int]]:
    return [[int(t) for t in f.read_text(encoding="ascii").split()]
            for f in sorted(Path(directory).glob("*.in"), key=lambda p: p.name)]


def _positional_weight(values: list[int]) -> str:
    """Independent oracle for b2tob10: the bits read as a base-2 number."""
    bits = values[1:1 + values[0]]
    return str(int("".join(map(str, bits)), 2)) if bits else "0"


def _mini_outputs(source: str, inputs: list[list[int]]) -> list[str]:
    from mutopt import Language, eval_mini, parse_mini, tokenize
    program = parse_mini(tokenize(source.encode("utf-8"), Language.MINI))
    return [eval_mini(program, values, 10**10).output.decode("ascii")
            for values in inputs]


def _c_outputs(source: str, inputs: list[list[int]], work: Path) -> list[str]:
    src, binary = work / "oracle.c", work / "oracle.bin"
    src.write_text(source, encoding="utf-8")
    subprocess.run(EXTERNAL_CC.format(src=src, out=binary).split(), check=True,
                   capture_output=True, timeout=120)
    return [subprocess.run([str(binary)], input=" ".join(map(str, v)) + "\n",
                           capture_output=True, text=True, check=True,
                           timeout=60).stdout.strip()
            for v in inputs]


def mutants_per_operator(report: dict) -> dict[str, int]:
    return dict(Counter(v["operator"] for v in report["verdicts"]))


def check_report(workload: Workload, exit_code: int, report_path: Path,
                 seed: int) -> list[str]:
    """Problems found with one optimize run; empty when it is correct."""
    problems = [] if exit_code in workload.exit_codes else [f"exit code {exit_code}"]
    if not report_path.is_file():
        return problems + ["no report written"]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    selected = report["selected"]
    inputs = _input_values(workload.inputs)
    if workload.selected is not None:
        mutant_id, line = workload.selected
        got = selected and (selected["mutant_id"], selected["line"],
                            selected["original"], selected["replacement"])
        if got != (mutant_id, line, "+=", "*="):
            problems.append(f"selected {got}, expected {mutant_id} += -> *= on line {line}")
    if workload.equivalent is not None:
        mutant_id, line = workload.equivalent
        verdict = next((v for v in report["verdicts"] if v["mutant_id"] == mutant_id), {})
        got = tuple(verdict.get(k) for k in ("line", "original", "replacement"))
        if got != (line, "+=", "*=") or verdict.get("status") not in EQUIVALENT:
            problems.append(f"{mutant_id} {got} is {verdict.get('status')}, expected an "
                            f"equivalent += -> *= on line {line}")
    if workload.selected or workload.equivalent:
        oracle = [_positional_weight(v) for v in inputs]
        if workload.backend == "mini":
            outputs = _mini_outputs(report["final_source"], inputs)
        else:
            outputs = _c_outputs(report["final_source"], inputs, report_path.parent)
        if outputs != oracle:
            problems.append(f"selected program printed {outputs}, oracle {oracle}")
    if workload.name == "wide":
        if (_mini_outputs(report["final_source"], inputs)
                != _mini_outputs(report["original_source"], inputs)):
            problems.append("selected program's outputs differ from the original's")
        if mutants_per_operator(report) != widegen.expected_mutants():
            problems.append(f"mutants per operator {mutants_per_operator(report)}, "
                            f"generator promises {widegen.expected_mutants()}")
    if workload.report_sha256 is not None and (workload.name != "wide"
                                               or seed == DEFAULT_SEED):
        digest = report_sha256(report)
        if digest != workload.report_sha256:
            problems.append(f"report sha256 {digest[:16]}..., frozen "
                            f"{workload.report_sha256[:16]}...")
    if workload.compile_errors is not None:
        got = report["verdict_counts"].get("compile_error", 0)
        if got != workload.compile_errors:
            problems.append(f"{got} compile errors, expected {workload.compile_errors}")
    return problems
