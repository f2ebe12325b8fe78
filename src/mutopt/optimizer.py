"""The optimization loop: evaluate every first-order mutant against the
input set, keep the equivalent ones, and select the fastest.

The original runs once on every input, and that ``OverallTime`` is the
baseline every mutant runs against: on input i a mutant gets the backend's
``mutant_budget`` of the original's cost and must print the original's
output (``backend.overall_time``), or it is discarded at the first input
where it fails.  The final confirmation compiles the selected source in
full on a fresh backend, which decides nothing, and checks it against that
same baseline on every input.

``_evaluate_one`` is the one place a mutant's ``MutantVerdict`` is made,
in-process or in a pool worker; the selection loop in ``optimize`` only
refines its ``equivalent`` status into ``equivalent_faster``,
``equivalent_not_faster`` or ``selected``.

On the external backend the baseline is a plain run of the original
(``_baseline``).  ``ExternalBackend.decide`` then checks the mutants of a C
source in schema binaries and keeps the runs of each one a schema kills or
crashes.  A mutant is timed only once it has passed the check on every
input (``backend.overall_time``); a mutant whose binary is the original's,
or an earlier mutant's, is answered from that binary's runs.  On the mini
backend the baseline is ``MiniBackend.decide``'s one instrumented run of
the original per input, which also settles the mutant runs it can, some in
a fork of that run.  Either way each mutant compiles and calls ``run`` once
per input it reports, and the backend answers the decided calls.
``host.decided`` totals the reported runs by how they were decided:
executed, inherited, shadowed, forked, identical or schema.
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
    DECIDED_FORKED,
    DECIDED_IDENTICAL,
    DECIDED_INHERITED,
    DECIDED_SCHEMA,
    DECIDED_SHADOWED,
    Backend,
    Cost,
    ExecBackendConfig,
    MiniBackend,
    OverallTime,
    ToolchainError,
    UNIT_STEPS,
    UnitMismatch,
    VERDICT_OK,
    check,
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
    runs: int = 0                # runs made before the verdict, executed or decided
    # per run: how the backend decided it, None if executed; like
    # ``jobs``, how a verdict was reached, so only its totals are reported,
    # under ``host``
    decided: tuple[str | None, ...] = field(default=(), compare=False)


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


def _compile_original(backend: Backend, source: SourceUnit | bytes, name: str):
    """The original compiled; raises InvalidBaseline when it does not compile."""
    try:
        return backend.compile(source, name=name)
    except CompileError as exc:
        raise InvalidBaseline(f"original program does not compile: {exc}") from exc


def _valid(baseline: OverallTime, inputs: InputSet) -> OverallTime:
    """``baseline``; raises InvalidBaseline when it is not ok on every input."""
    if baseline.verdict != VERDICT_OK:
        raise InvalidBaseline(
            f"original program verdict {baseline.verdict!r} on input "
            f"{inputs.entries[baseline.failing_index].id!r}")
    return baseline


def _baseline(backend: Backend, source: SourceUnit | bytes, inputs: InputSet,
              name: str) -> OverallTime:
    """Compile the original and run it on every input with no reference.

    Raises InvalidBaseline when it does not compile or does not run cleanly
    on every input.
    """
    program = _compile_original(backend, source, name)
    return _valid(overall_time(backend, program, [e.values for e in inputs.entries]),
                  inputs)


def _evaluate_one(backend: Backend, inputs: InputSet, baseline: OverallTime,
                  source_name: str, mutant: Mutant) -> MutantVerdict:
    """Compile one mutant and run it on the inputs against the baseline.

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
    name = mutant.filename(source_name)
    try:
        program = backend.compile(mutant.mutated_text, name=name)
    except CompileError:
        return verdict
    except ToolchainError as exc:
        raise ToolchainError(f"while compiling mutant {name}: {exc}") from exc
    run = overall_time(backend, program, [e.values for e in inputs.entries],
                       baseline)
    verdict.runs = len(run.results)
    verdict.decided = tuple(result.decided for result in run.results)
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


def confirm_equivalence(candidate: SourceUnit | bytes, baseline: OverallTime,
                        inputs: InputSet, config: OptimizeConfig) -> bool:
    """True iff candidate prints the baseline's normalized output on every
    input in the set, within each input's mutant budget.  ``baseline`` is
    the original's run on these inputs (``_baseline``).

    The candidate is compiled in full on a fresh backend, which decides
    nothing, and runs once per input against ``baseline`` (``check``),
    untimed; so on the mini backend it is that backend's first program.
    On the external backend its files go to ``confirm/`` under the scratch
    directory, apart from the search's.  Any mismatch, compile failure,
    timeout or crash yields False.
    """
    scratch = None if config.scratch_dir is None else config.scratch_dir / "confirm"
    backend = make_backend(config.backend, scratch)
    try:
        program = backend.compile(candidate, name=config.source_name)
    except CompileError:
        return False
    run = check(backend, program, [e.values for e in inputs.entries], baseline)
    return run.verdict == VERDICT_OK


def optimize(operators: Sequence[MutationOperator], source: SourceUnit,
             inputs: InputSet, config: OptimizeConfig) -> OptimizationReport:
    """Run the full selection loop and return the report.

    Raises InvalidBaseline when the original program does not compile or
    does not run cleanly on every input; propagates ToolchainError.
    """
    backend = make_backend(config.backend, config.scratch_dir)
    # perfbench/trace_run.py attributes a compile or run span to a mutant
    # only when it is a direct child of optimize, between the apply_all span
    # and the one final confirm_equivalence span.  So the original's compile
    # and the external backend's baseline runs stay above apply_all, and the
    # evaluate phase must not go through make_backend, apply_all or
    # confirm_equivalence, the module globals the tracer wraps.  ``decide``
    # runs the original through ``CompiledMini.run``, or the schema binaries
    # through ``ExternalBackend._spawn``, not the backend's compile or run,
    # so no mutant is charged with it.
    if isinstance(backend, MiniBackend):
        _compile_original(backend, source, config.source_name)
        mutants = apply_all(operators, source, config.line_range)
        baseline = _valid(backend.decide([(m.start, m.replacement) for m in mutants],
                                         [e.values for e in inputs.entries]), inputs)
    else:
        baseline = _baseline(backend, source, inputs, config.source_name)
        mutants = apply_all(operators, source, config.line_range)
        backend.decide([(m.start, m.replacement) for m in mutants],
                       [e.values for e in inputs.entries], baseline)
    verdicts = _evaluate_all(backend, config, mutants, inputs, baseline)
    current_tau = baseline.cost
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
    if not confirm_equivalence(selected_source, baseline, inputs, config):
        raise RuntimeError(
            "internal error: selected source failed the final equivalence pass")

    return OptimizationReport(
        unit=backend.unit,
        original_tau=baseline.cost,
        final_tau=current_tau,
        selected=best,
        selected_source=selected_source,
        original_source=source.text,
        verdicts=verdicts,
        input_ids=tuple(e.id for e in inputs.entries),
        config_echo=_config_echo(operators, inputs, config),
        host={**_host_block(), "decided": _decided(verdicts)},
    )


def _decided(verdicts: list[MutantVerdict]) -> dict:
    """The reported runs by how they were decided."""
    totals = {"executed": 0, DECIDED_INHERITED: 0, DECIDED_SHADOWED: 0, DECIDED_FORKED: 0,
              DECIDED_IDENTICAL: 0, DECIDED_SCHEMA: 0}
    for verdict in verdicts:
        for kind in verdict.decided:
            totals[kind or "executed"] += 1
    return totals


_inherited: tuple = ()  # (task, mutants) in a pool worker, from _inherit


def _inherit(task, mutants) -> None:
    global _inherited
    _inherited = task, mutants


def _evaluate_inherited(index: int) -> MutantVerdict:
    task, mutants = _inherited
    return task(mutants[index])


def _evaluate_all(backend, config, mutants, inputs, baseline):
    # The same call either way; only the mapper differs.  Pool workers are
    # forked after ``decide`` and inherit the task and the mutants, so only
    # indices and verdicts cross the pipe.  Without fork, jobs run serially.
    task = partial(_evaluate_one, backend, inputs, baseline, config.source_name)
    if isinstance(backend, MiniBackend) and config.jobs > 1 and len(mutants) > 1:
        # imported here, so a serial run does not load their 26 modules (~1.8 MB)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(config.jobs, multiprocessing.get_context("fork"),
                                     _inherit, (task, mutants)) as pool:
                chunk = max(1, len(mutants) // (config.jobs * 4))
                return list(pool.map(_evaluate_inherited, range(len(mutants)),
                                     chunksize=chunk))
    return list(map(task, mutants))


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
