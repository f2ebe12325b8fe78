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

``_evaluate_one`` is the one place a mutant's ``MutantVerdict`` is made,
in-process or in a pool worker; the selection loop in ``optimize`` only
refines its ``equivalent`` status into ``equivalent_faster``,
``equivalent_not_faster`` or ``selected``.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Sequence

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
STATUS_EQUIVALENT = "equivalent"  # until the selection loop refines it
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
    config_echo: dict
    host: dict = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        return self.selected is not None


@dataclass(frozen=True)
class OptimizeConfig:
    backend: ExecBackendConfig = ExecBackendConfig()
    threshold: float = 0.05  # noise guard for wall-clock units; ignored on steps
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


def _evaluate_one(backend: Backend, inputs: InputSet,
                  budgets: Sequence[int | float], expected: Sequence[bytes],
                  mutant: Mutant, name: str) -> MutantVerdict:
    """Compile one mutant and run it on the inputs, stopping at the first
    non-ok verdict or differing output.

    The status is compile_error, the backend's verdict (killed, crash or
    timeout, with ``input_id`` naming the input) or ``equivalent`` (with
    ``tau``).
    """
    verdict = MutantVerdict(
        mutant_id=mutant.id, operator=mutant.operator,
        line=mutant.line, col=mutant.col,
        original=mutant.original, replacement=mutant.replacement,
        status=STATUS_COMPILE_ERROR,
    )
    try:
        program = backend.compile(mutant.mutated_text, name=name)
    except CompileError:
        return verdict
    except ToolchainError as exc:
        raise ToolchainError(f"while compiling mutant {name}: {exc}") from exc
    run = overall_time(backend, program, [e.values for e in inputs.entries],
                       budgets, expected)
    verdict.runs = len(run.results)
    if run.verdict == VERDICT_OK:
        verdict.status, verdict.tau = STATUS_EQUIVALENT, run.cost
    else:
        verdict.status = run.verdict
        verdict.input_id = inputs.entries[run.failing_index].id
    return verdict


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

    mutants = apply_all(operators, source, config.line_range)

    # perfbench/trace_run.py attributes a compile or run span to a mutant
    # only when it is a direct child of optimize, between the apply_all span
    # and the one final confirm_equivalence span.  So the baseline stays
    # above, and the evaluate phase must not go through make_backend,
    # apply_all or confirm_equivalence, the module globals the tracer wraps.
    verdicts = _evaluate_all(backend, config, mutants, inputs, budgets,
                             baseline_outputs)
    current_tau = original_tau
    best: Mutant | None = None
    best_verdict: MutantVerdict | None = None
    for mutant, verdict in zip(mutants, verdicts):
        if verdict.status != STATUS_EQUIVALENT:
            continue
        if improvement_test(current_tau, verdict.tau, config.threshold):
            verdict.status = STATUS_EQUIVALENT_FASTER
            current_tau = verdict.tau
            best, best_verdict = mutant, verdict
        else:
            verdict.status = STATUS_EQUIVALENT_NOT_FASTER
    if best_verdict is not None:
        best_verdict.status = STATUS_SELECTED

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
        config_echo=_config_echo(operators, inputs, config),
        host=_host_block(),
    )


def _evaluate_all(backend, config, mutants, inputs, budgets, expected):
    # the same call either way; only the mapper differs
    task = partial(_evaluate_one, backend, inputs, budgets, expected)
    names = [m.filename(config.source_name) for m in mutants]
    if isinstance(backend, MiniBackend) and config.jobs > 1 and len(mutants) > 1:
        # imported here, so a serial run does not load its 26 modules (~1.8 MB)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunk = max(1, len(mutants) // (config.jobs * 4))
            return list(pool.map(task, mutants, names, chunksize=chunk))
    return list(map(task, mutants, names))


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
