"""Algorithm-literal reference for the optimizer's selection loop.

``optimize`` runs the original once per input and compares every mutant
against those memoized outputs.  This oracle follows the paper's procedure
word for word instead: for every comparison it re-runs the current best
program, and it adopts an equivalent mutant as the new best under
``improvement_test``.  Its verdicts must equal ``optimize``'s.
"""

from mutopt import CompileError, Cost, OptimizeConfig, apply_all, improvement_test, make_backend


def literal_verdicts(operators, unit, inputs, config=OptimizeConfig()):
    """Per mutant, in emission order: (mutant_id, status, input_id, tau, runs)."""
    backend = make_backend(config.backend, config.scratch_dir)
    threshold = 0.0 if backend.unit == "steps" else config.threshold
    best_prog = backend.compile(unit, name=config.source_name)
    best_tau = Cost(0, backend.unit)
    budgets = []
    for entry in inputs.entries:
        base = backend.run(best_prog, entry.values, backend.baseline_budget())
        assert base.ok, f"original fails on {entry.id}"
        budgets.append(backend.mutant_budget(base.cost))
        best_tau = best_tau + base.cost

    verdicts = []
    selected = None
    for mutant in apply_all(operators, unit):
        try:
            program = backend.compile(mutant.mutated_text, name=config.source_name)
        except CompileError:
            verdicts.append([mutant.id, "compile_error", None, None, 0])
            continue
        status, input_id, tau, runs = None, None, Cost(0, backend.unit), 0
        for entry, budget in zip(inputs.entries, budgets):
            reference = backend.run(best_prog, entry.values, backend.baseline_budget())
            result = backend.run(program, entry.values, budget)
            runs += 1
            if not result.ok:
                status = result.verdict
            elif result.output != reference.output:
                status = "killed"
            if status is not None:
                input_id, tau = entry.id, None
                break
            tau = tau + result.cost
        if status is None:
            if improvement_test(best_tau, tau, threshold):
                status = "equivalent_faster"
                best_prog, best_tau, selected = program, tau, len(verdicts)
            else:
                status = "equivalent_not_faster"
        verdicts.append([mutant.id, status, input_id, tau, runs])
    if selected is not None:
        verdicts[selected][1] = "selected"
    return [tuple(v) for v in verdicts]
