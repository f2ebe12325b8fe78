"""Compile-and-run backends.

Two kinds behind one contract: the in-process MiniImp interpreter (costs in
deterministic steps) and an external toolchain driven by command templates
(costs in wall-clock milliseconds, median of repeated runs).  Each
backend's ``compile`` returns the artifact that its ``run`` takes: a
``CompiledMini`` for the interpreter, the binary's ``Path`` for the external
toolchain.  Costs from different backends are never comparable; ``Cost``
carries its unit and adds only within it.
"""

from __future__ import annotations

import math
import os
import shlex
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Sequence, Union

from .minilang import CompileError, MiniRuntimeError, BudgetExceeded, parse_mini
from .minilang.interp import CompiledMini, compile_program
from .tokens import Language, SourceUnit, tokenize

VERDICT_OK = "ok"
VERDICT_TIMEOUT = "timeout"
VERDICT_CRASH = "crash"
VERDICT_KILLED = "killed"  # only from overall_time: output differs from expected

UNIT_STEPS = "steps"
UNIT_MS = "ms"

# Caps for the baseline itself, which has no reference cost to scale from.
BASELINE_STEP_LIMIT = 2_000_000_000
BASELINE_TIME_LIMIT = 300.0  # seconds


class ToolchainError(Exception):
    """The toolchain itself is unusable (missing or timed-out compiler, run
    command not found); aborts the whole run, unlike a mutant's compile
    failure."""


class UnitMismatch(Exception):
    """Costs in different units were combined or compared."""


@dataclass(frozen=True)
class Cost:
    value: Union[int, float]
    unit: str

    def __add__(self, other: "Cost") -> "Cost":
        if self.unit != other.unit:
            raise UnitMismatch(f"cannot add {self.unit} to {other.unit}")
        return Cost(self.value + other.value, self.unit)


@dataclass(frozen=True)
class RunResult:
    output: bytes  # normalized: per-line trailing whitespace and final newline stripped
    cost: Cost | None
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_OK


COMPILE_PLACEHOLDERS = ("src", "out")
RUN_PLACEHOLDERS = ("bin", "input")


def check_template(template: str, placeholders: Sequence[str]) -> list[str]:
    """Split a command template into arguments as a POSIX shell would.

    Raises ValueError for unbalanced quotes, a template with no argument, or
    an argument that does not format with ``placeholders`` alone; a literal
    brace is written ``{{`` or ``}}``.
    """
    try:
        args = shlex.split(template)
    except ValueError as exc:  # "No closing quotation"
        raise ValueError(f"malformed template {template!r}: {exc}") from None
    if not args:
        raise ValueError(f"empty command template {template!r}")
    probe = dict.fromkeys(placeholders, "")
    allowed = ", ".join(f"{{{name}}}" for name in placeholders)
    for arg in args:
        try:
            arg.format_map(probe)
        except KeyError as exc:
            raise ValueError(f"unknown placeholder {{{exc.args[0]}}} in "
                             f"{template!r}; allowed: {allowed}") from None
        except (LookupError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed template {template!r}: {exc}; "
                             "write a literal brace as {{ or }}") from None
    return args


@dataclass(frozen=True)
class ExecBackendConfig:
    kind: str = "mini"  # "mini" | "external"
    compile_cmd: str | None = None  # placeholders {src} {out}
    run_cmd: str | None = None      # placeholders {bin} {input}; input fed on stdin
    repetitions: int = 5
    warmups: int = 1
    timeout_factor: float = 10.0  # mutant budget per input, times the baseline cost

    def __post_init__(self):
        if self.kind not in ("mini", "external"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "external":
            if not (self.compile_cmd and self.run_cmd):
                raise ValueError("external backend needs compile_cmd and run_cmd")
            check_template(self.compile_cmd, COMPILE_PLACEHOLDERS)
            check_template(self.run_cmd, RUN_PLACEHOLDERS)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.warmups < 0:
            raise ValueError("warmups must be >= 0")
        if not 1 < self.timeout_factor < math.inf:  # inf would overflow budgets
            raise ValueError("timeout_factor must be > 1 and finite")


def normalize_output(raw: bytes) -> bytes:
    lines = [line.rstrip() for line in raw.split(b"\n")]
    while lines and lines[-1] == b"":
        lines.pop()
    return b"\n".join(lines)


def _run_group(cmd: list[str], timeout: float,
               stdin_data: bytes | None = None) -> subprocess.CompletedProcess:
    """``subprocess.run`` with captured output, in a new session whose whole
    process group is killed on timeout, so no descendant outlives it."""
    stdin = None if stdin_data is None else subprocess.PIPE
    with subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(stdin_data, timeout=timeout)
        except BaseException:  # timeout or interrupt: no process may survive
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


class MiniBackend:
    unit = UNIT_STEPS

    def __init__(self, config: ExecBackendConfig):
        self.config = config

    def compile(self, source: SourceUnit | bytes, name: str = "unit.src") -> CompiledMini:
        # name only matters to external toolchains; accepted for one signature
        if isinstance(source, (bytes, bytearray)):
            source = tokenize(source, Language.MINI)
        return compile_program(parse_mini(source))  # parse raises CompileError

    def run(self, program: CompiledMini, input_values: Sequence[int],
            budget: int) -> RunResult:
        try:
            # arms non-termination proofs once a run passes its baseline cost
            result = program.run(input_values, budget,
                                 int(budget / self.config.timeout_factor))
        except BudgetExceeded:
            return RunResult(b"", None, VERDICT_TIMEOUT)
        except MiniRuntimeError:
            return RunResult(b"", None, VERDICT_CRASH)
        # already normal: one decimal per line, no trailing newline
        return RunResult(result.output, Cost(result.steps, UNIT_STEPS), VERDICT_OK)

    def mutant_budget(self, baseline: Cost) -> int:
        return max(1, math.ceil(baseline.value * self.config.timeout_factor))

    def baseline_budget(self) -> int:
        return BASELINE_STEP_LIMIT


class ExternalBackend:
    unit = UNIT_MS

    def __init__(self, config: ExecBackendConfig, scratch_dir: Path):
        self.config = config
        self.scratch = Path(scratch_dir)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        self._compile_args = check_template(config.compile_cmd, COMPILE_PLACEHOLDERS)
        self._run_args = check_template(config.run_cmd, RUN_PLACEHOLDERS)

    def compile(self, source: SourceUnit | bytes, name: str = "unit.src") -> Path:
        # name keeps the real extension so compilers that sniff suffixes
        # (gcc, javac) treat the file correctly; the counter avoids clashes
        data = source.text if isinstance(source, SourceUnit) else bytes(source)
        self._counter += 1
        src_path = self.scratch / f"{self._counter:04d}.{name}"
        out_path = self.scratch / f"{self._counter:04d}.{name}.bin"
        src_path.write_bytes(data)
        mapping = {"src": str(src_path), "out": str(out_path)}
        cmd = [arg.format_map(mapping) for arg in self._compile_args]
        try:
            proc = _run_group(cmd, 120)
        except FileNotFoundError as exc:
            raise ToolchainError(f"compiler not found: {cmd[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ToolchainError(f"compiler timed out: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            diag = proc.stderr.decode("utf-8", errors="replace").strip()
            raise CompileError(diag or f"compiler exited {proc.returncode}", 0, 0)
        return out_path

    def run(self, program: Path, input_values: Sequence[int],
            budget: float) -> RunResult:
        stdin_data = (" ".join(str(v) for v in input_values) + "\n").encode("ascii")
        mapping = {"bin": str(program), "input": "-"}
        cmd = [arg.format_map(mapping) for arg in self._run_args]
        times_ms: list[float] = []
        output: bytes | None = None
        total = self.config.warmups + self.config.repetitions
        for i in range(total):
            t0 = time.perf_counter()
            try:
                proc = _run_group(cmd, budget, stdin_data)
            except FileNotFoundError as exc:
                raise ToolchainError(f"run command not found: {cmd[0]}") from exc
            except subprocess.TimeoutExpired:
                return RunResult(b"", None, VERDICT_TIMEOUT)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            if proc.returncode != 0:
                return RunResult(b"", None, VERDICT_CRASH)
            if i >= self.config.warmups:
                times_ms.append(elapsed_ms)
                if output is None:
                    output = normalize_output(proc.stdout)
        return RunResult(output, Cost(median(times_ms), UNIT_MS), VERDICT_OK)

    def mutant_budget(self, baseline: Cost) -> float:
        # subprocess timeout in seconds; floor keeps tiny baselines usable
        return max(0.05, baseline.value / 1000.0 * self.config.timeout_factor)

    def baseline_budget(self) -> float:
        return BASELINE_TIME_LIMIT


Backend = Union[MiniBackend, ExternalBackend]


def make_backend(config: ExecBackendConfig,
                 scratch_dir: Path | None = None) -> Backend:
    if config.kind == "mini":
        return MiniBackend(config)
    if scratch_dir is None:
        raise ValueError("external backend needs a scratch directory")
    return ExternalBackend(config, scratch_dir)


@dataclass(frozen=True)
class OverallTime:
    cost: Cost | None
    verdict: str
    failing_index: int | None = None
    results: tuple[RunResult, ...] = ()  # every run made, in input order


def overall_time(backend: Backend, program: CompiledMini | Path,
                 inputs: Sequence[Sequence[int]],
                 budgets: Sequence[Union[int, float]],
                 expected: Sequence[bytes] | None = None) -> OverallTime:
    """Sum of per-input costs; aborts at the first non-ok verdict and, when
    ``expected`` outputs are given, with verdict ``killed`` at the first
    output that differs.

    Empty input list yields a zero cost in the backend's unit.
    """
    total = Cost(0, backend.unit)
    results: list[RunResult] = []
    for i, (values, budget) in enumerate(zip(inputs, budgets)):
        result = backend.run(program, values, budget)
        results.append(result)
        if not result.ok:
            return OverallTime(None, result.verdict, i, tuple(results))
        if expected is not None and result.output != expected[i]:
            return OverallTime(None, VERDICT_KILLED, i, tuple(results))
        total = total + result.cost
    return OverallTime(total, VERDICT_OK, None, tuple(results))
