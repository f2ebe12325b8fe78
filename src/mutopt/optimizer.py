"""The optimization loop: evaluate every first-order mutant against the
input set, keep the equivalent ones, and select the fastest.

The original runs once on every input, in ``backend.decide``, and that
``OverallTime`` is the baseline every mutant runs against: on input i a
mutant gets the backend's ``mutant_budget`` of the original's cost and must
print the original's output (``backend.overall_time``), or it is discarded
at the first input where it fails.  The same call decides what mutant runs
it can, so each mutant calls ``compile`` with the edit ``decide`` got for
it, and ``run`` once per input it reports, and the backend answers the
decided calls (``host.decided`` totals them by how).  The final
confirmation compiles the selected source in full on a fresh backend,
which decides nothing, and checks it against that same baseline on every
input.

``_evaluate_one`` is the one place a mutant's ``MutantVerdict`` is made,
once per mutant in mutant order; the selection loop in ``optimize`` only
refines its ``equivalent`` status into ``equivalent_faster``,
``equivalent_not_faster`` or ``selected``.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
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


class ConfirmationFailed(Exception):
    """The selected source failed the final equivalence pass."""


@dataclass(frozen=True)
class Confirmation:
    """The final equivalence pass: true iff passed, else ``failure`` says why."""
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.failure is None


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
    # per run: how the backend decided it, None if executed; how a verdict
    # was reached, not what it is, so only its totals are reported, under
    # ``host``
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
    scratch_dir: Path | None = None
    source_name: str = "unit"  # stem for mutant files on the external backend

    def __post_init__(self):
        if not (0.0 <= self.threshold <= 0.5):
            raise ValueError("threshold must be in [0, 0.5]")


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


def _valid(baseline: OverallTime, inputs: InputSet) -> OverallTime:
    """``baseline``; raises InvalidBaseline when it is not ok on every input."""
    if baseline.verdict != VERDICT_OK:
        raise InvalidBaseline(
            f"original program verdict {baseline.verdict!r} on input "
            f"{inputs.entries[baseline.failing_index].id!r}")
    return baseline


def _evaluate_one(backend: Backend, inputs: InputSet, baseline: OverallTime,
                  source_name: str, mutant: Mutant) -> MutantVerdict:
    """Compile one mutant, with its edit, and run it on the inputs against
    the baseline.

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
        program = backend.compile(mutant.mutated_text, name=name,
                                  edit=(mutant.start, mutant.replacement))
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
                        inputs: InputSet, config: OptimizeConfig) -> Confirmation:
    """A true ``Confirmation`` iff candidate prints the baseline's
    normalized output on every input in the set, within each input's
    mutant budget.  ``baseline`` is the original's run on these inputs,
    ``backend.decide``'s.

    The candidate is compiled in full on a fresh backend, which decides
    nothing, and runs once per input against ``baseline`` (``check``),
    untimed; so on the mini backend it is that backend's first program.
    On the external backend its files go to ``confirm/`` under the scratch
    directory, apart from the search's.  A compile failure, or a mismatch,
    timeout or crash on an input, which it names, yields a false one.
    """
    scratch = None if config.scratch_dir is None else config.scratch_dir / "confirm"
    backend = make_backend(config.backend, scratch)
    try:
        program = backend.compile(candidate, name=config.source_name)
    except CompileError:
        return Confirmation("it does not compile")
    run = check(backend, program, [e.values for e in inputs.entries], baseline)
    if run.verdict == VERDICT_OK:
        return Confirmation()
    return Confirmation(f"{run.verdict} on input {inputs.entries[run.failing_index].id!r}")


def optimize(operators: Sequence[MutationOperator], source: SourceUnit,
             inputs: InputSet, config: OptimizeConfig) -> OptimizationReport:
    """Run the full selection loop and return the report.

    Raises InvalidBaseline when the original program does not compile or
    does not run cleanly on every input, and ConfirmationFailed when the
    selected source fails the final equivalence pass; propagates
    ToolchainError.
    """
    backend = make_backend(config.backend, config.scratch_dir)
    try:
        backend.compile(source, name=config.source_name)
    except CompileError as exc:
        raise InvalidBaseline(f"original program does not compile: {exc}") from exc
    mutants = apply_all(operators, source, config.line_range)
    baseline = _valid(backend.decide([(m.start, m.replacement) for m in mutants],
                                     [e.values for e in inputs.entries]), inputs)
    verdicts = [_evaluate_one(backend, inputs, baseline, config.source_name, mutant)
                for mutant in mutants]
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
    confirmed = confirm_equivalence(selected_source, baseline, inputs, config)
    if not confirmed:
        raise ConfirmationFailed(
            f"selected {'mutant ' + best.id if best is not None else 'original'} "
            f"failed the final equivalence pass: {confirmed.failure}")

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


def _config_echo(operators, inputs, config: OptimizeConfig) -> dict:
    # "step_budget_factor" is kept as an alias of timeout_factor so the
    # report format is unchanged.
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
