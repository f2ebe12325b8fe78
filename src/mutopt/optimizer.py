"""The optimization loop: evaluate every first-order mutant against the
input set, keep the equivalent ones, and select the fastest.

The baseline program's outputs are computed once per input up front and
reused for every comparison; when an improving mutant replaces the current
best, its outputs are equal to the baseline's by construction, so the memo
stays valid.

Each mutant runs the inputs in the set's order and aborts at the first
output mismatch or non-ok verdict.  Per-input budgets are derived from the
baseline cost on that input, scaled by the backend's budget factor; mutants
that exceed them are classified ``timeout`` and discarded.
"""

from __future__ import annotations

import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Sequence, Union

from .backend import (
    Backend,
    Cost,
    ExecBackendConfig,
    MiniBackend,
    ToolchainError,
    UNIT_STEPS,
    UnitMismatch,
    VERDICT_OK,
    make_backend,
    overall_time,
)
from .minilang import CompileError
from .mutation import Mutant, MutationOperator, apply_all
from .tokens import SourceUnit


STATUS_COMPILE_ERROR = "compile_error"
STATUS_KILLED = "killed"
STATUS_CRASH = "crash"
STATUS_TIMEOUT = "timeout"
STATUS_EQUIVALENT_NOT_FASTER = "equivalent_not_faster"
STATUS_EQUIVALENT_FASTER = "equivalent_faster"
STATUS_SELECTED = "selected"


class InvalidBaseline(Exception):
    """The original program fails on its own input set."""


@dataclass(frozen=True)
class InputEntry:
    id: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class InputSet:
    entries: tuple[InputEntry, ...]
    origin: str = "<memory>"

    def __post_init__(self):
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("input ids must be unique")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class MutantVerdict:
    mutant_id: str
    operator: str
    line: int
    col: int
    original: str
    replacement: str
    status: str
    input_id: str | None = None  # set for killed/crash/timeout
    tau: Cost | None = None      # set for equivalent_* and selected
    runs: int = 0                # executions performed before the verdict


@dataclass
class OptimizationReport:
    unit: str
    original_tau: Cost
    final_tau: Cost
    selected: Mutant | None
    selected_source: bytes
    original_source: bytes
    verdicts: list[MutantVerdict]
    input_ids: tuple[str, ...]
    backend_kind: str
    config_echo: dict
    host: dict = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        return self.selected is not None


@dataclass(frozen=True)
class OptimizeConfig:
    backend: ExecBackendConfig = ExecBackendConfig()
    threshold: float = 0.05  # noise guard for wall-clock units; forced to 0 on steps
    line_range: tuple[int, int] | None = None
    jobs: int = 1
    scratch_dir: Path | None = None
    source_name: str = "unit"  # stem for mutant files on the external backend

    def __post_init__(self):
        if not (0.0 <= self.threshold <= 0.5):
            raise ValueError("threshold must be in [0, 0.5]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def improvement_test(tau_o: Cost, tau_p: Cost, threshold: float) -> bool:
    """Strict improvement check.

    Step costs compare exactly (threshold forced to 0); millisecond costs
    must undercut by the noise threshold: tau_p < (1 - threshold) * tau_o.
    """
    if tau_o.unit != tau_p.unit:
        raise UnitMismatch(f"cannot compare {tau_p.unit} to {tau_o.unit}")
    if tau_o.unit == UNIT_STEPS:
        return tau_p.value < tau_o.value
    return tau_p.value < (1.0 - threshold) * tau_o.value


def _split_source_name(name: str) -> tuple[str, str]:
    stem, dot, ext = name.rpartition(".")
    if not dot:
        return name, "src"
    return stem, ext


def select_mutants(operators: Sequence[MutationOperator], source: SourceUnit,
                   line_range: tuple[int, int] | None) -> list[Mutant]:
    """``apply_all`` restricted to mutants whose site is in ``line_range``
    (inclusive; None keeps all)."""
    mutants = apply_all(operators, source)
    if line_range is None:
        return mutants
    lo, hi = line_range
    return [m for m in mutants if lo <= m.line <= hi]


def _evaluate_one(backend: Backend, source_bytes: bytes,
                  inputs: Sequence[Sequence[int]],
                  budgets: Sequence[Union[int, float]],
                  expected: Sequence[bytes],
                  name: str = "unit.src") -> tuple[str, int | None, Union[int, float, None], int]:
    """Evaluate one candidate; returns (status, failing_input_index, tau, runs).

    status is one of compile_error/killed/crash/timeout/equivalent.
    """
    try:
        program = backend.compile(source_bytes, name=name)
    except CompileError:
        return (STATUS_COMPILE_ERROR, None, None, 0)
    except ToolchainError as exc:
        raise ToolchainError(f"while compiling mutant {name}: {exc}") from exc
    run = overall_time(backend, program, inputs, budgets, expected)
    if run.verdict != VERDICT_OK:
        return (run.verdict, run.failing_index, None, len(run.results))
    return ("equivalent", None, run.cost.value, len(run.results))


def _host_block() -> dict:
    return {
        "os": platform.platform(),
        "cpu": f"{platform.machine()} x{os.cpu_count() or 1}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def confirm_equivalence(candidate: SourceUnit | bytes,
                        original: SourceUnit | bytes,
                        inputs: InputSet,
                        config: OptimizeConfig) -> bool:
    """True iff candidate and original produce identical normalized outputs
    on every input in the set.  Any mismatch, compile failure, timeout or
    crash yields False."""
    backend = make_backend(config.backend, config.scratch_dir)
    try:
        orig_prog = backend.compile(original, name=config.source_name)
        cand_prog = backend.compile(candidate, name=config.source_name)
    except CompileError:
        return False
    values = [entry.values for entry in inputs.entries]
    base = overall_time(backend, orig_prog, values,
                        [backend.baseline_budget()] * len(values))
    if base.verdict != VERDICT_OK:
        return False
    cand = overall_time(backend, cand_prog, values,
                        [backend.mutant_budget(r.cost) for r in base.results],
                        [r.output for r in base.results])
    return cand.verdict == VERDICT_OK


def optimize(operators: Sequence[MutationOperator], source: SourceUnit,
             inputs: InputSet, config: OptimizeConfig) -> OptimizationReport:
    """Run the full selection loop and return the report.

    Raises InvalidBaseline when the original program does not compile or
    does not run cleanly on every input; propagates ToolchainError.
    """
    backend = make_backend(config.backend, config.scratch_dir)
    stem, ext = _split_source_name(config.source_name)

    try:
        baseline_prog = backend.compile(source, name=config.source_name)
    except CompileError as exc:
        raise InvalidBaseline(f"original program does not compile: {exc}") from exc

    values = [entry.values for entry in inputs.entries]
    baseline = overall_time(backend, baseline_prog, values,
                            [backend.baseline_budget()] * len(values))
    if baseline.verdict != VERDICT_OK:
        raise InvalidBaseline(
            f"original program verdict {baseline.verdict!r} on input "
            f"{inputs.entries[baseline.failing_index].id!r}")
    baseline_outputs = [r.output for r in baseline.results]
    budgets = [backend.mutant_budget(r.cost) for r in baseline.results]
    original_tau = baseline.cost

    mutants = select_mutants(operators, source, config.line_range)

    # perfbench/trace_run.py attributes a compile or run span to a mutant
    # only when it is a direct child of optimize, between the apply_all span
    # and the one final confirm_equivalence span.  So the baseline stays
    # above, and the evaluate phase must not go through make_backend,
    # apply_all or confirm_equivalence, the module globals the tracer wraps.
    threshold = 0.0 if backend.unit == UNIT_STEPS else config.threshold
    outcomes = _evaluate_all(backend, config, mutants, values, budgets,
                             baseline_outputs, stem, ext)
    verdicts: list[MutantVerdict] = []
    current_tau = original_tau
    best: Mutant | None = None
    best_index: int | None = None
    for idx, (mutant, (status, failing, tau, runs)) in enumerate(zip(mutants, outcomes)):
        verdict = MutantVerdict(
            mutant_id=mutant.id, operator=mutant.operator,
            line=mutant.line, col=mutant.col,
            original=mutant.original, replacement=mutant.replacement,
            status=status, runs=runs,
        )
        if status in (STATUS_KILLED, STATUS_CRASH, STATUS_TIMEOUT):
            verdict.input_id = inputs.entries[failing].id
        elif status == "equivalent":
            tau_cost = Cost(tau, backend.unit)
            verdict.tau = tau_cost
            if improvement_test(current_tau, tau_cost, threshold):
                verdict.status = STATUS_EQUIVALENT_FASTER
                current_tau = tau_cost
                best = mutant
                best_index = idx
            else:
                verdict.status = STATUS_EQUIVALENT_NOT_FASTER
        verdicts.append(verdict)

    if best_index is not None:
        verdicts[best_index].status = STATUS_SELECTED

    selected_source = best.mutated_text if best is not None else source.text
    if not confirm_equivalence(selected_source, source, inputs, config):
        raise RuntimeError(
            "internal error: selected source failed the final equivalence pass")

    return OptimizationReport(
        unit=backend.unit,
        original_tau=original_tau,
        final_tau=current_tau,
        selected=best,
        selected_source=selected_source,
        original_source=source.text,
        verdicts=verdicts,
        input_ids=tuple(e.id for e in inputs.entries),
        backend_kind=config.backend.kind,
        config_echo=_config_echo(operators, inputs, config),
        host=_host_block(),
    )


def _evaluate_all(backend, config, mutants, inputs, budgets,
                  baseline_outputs, stem, ext):
    if isinstance(backend, MiniBackend) and config.jobs > 1 and len(mutants) > 1:
        task = partial(_evaluate_one, backend, inputs=inputs, budgets=budgets,
                       expected=baseline_outputs)
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunk = max(1, len(mutants) // (config.jobs * 4))
            return list(pool.map(task, [m.mutated_text for m in mutants],
                                 chunksize=chunk))
    return [
        _evaluate_one(backend, m.mutated_text, inputs, budgets,
                      baseline_outputs, name=m.filename(stem, ext))
        for m in mutants
    ]


def _config_echo(operators, inputs, config: OptimizeConfig) -> dict:
    # jobs is deliberately absent: it is execution strategy, observationally
    # invisible, and reports must not depend on it.  "step_budget_factor"
    # is kept as an alias of timeout_factor so the report format is unchanged.
    return {
        "backend": config.backend.kind,
        "operators": [op.kind.lower() for op in operators],
        "inputs": inputs.origin,
        "repetitions": config.backend.repetitions,
        "warmups": config.backend.warmups,
        "timeout_factor": config.backend.timeout_factor,
        "step_budget_factor": config.backend.timeout_factor,
        "threshold": config.threshold,
        "line_range": list(config.line_range) if config.line_range else None,
        "source_name": config.source_name,
    }
