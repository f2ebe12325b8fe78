"""Backend contract tests for both the mini and the external kind."""

import shlex
import shutil
import time

import pytest

from mutopt import (
    CompileError,
    Cost,
    ExecBackendConfig,
    Language,
    ToolchainError,
    UnitMismatch,
    make_backend,
    overall_time,
    tokenize,
)
from mutopt.backend import normalize_output
from mutopt.minilang.interp import CompiledMini

from conftest import encode_bits, load_unit

HAVE_CC = shutil.which("cc") is not None
external = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


def mini_backend(**kw):
    return make_backend(ExecBackendConfig(kind="mini", **kw))


# ---- config validation ----

def test_external_config_requires_commands():
    with pytest.raises(ValueError):
        ExecBackendConfig(kind="external")
    with pytest.raises(ValueError, match="unknown placeholder {bin}"):
        ExecBackendConfig(kind="external", compile_cmd="cc {src} -o {out} {bin}",
                          run_cmd="{bin}")
    with pytest.raises(ValueError):
        ExecBackendConfig(kind="bogus")
    with pytest.raises(ValueError):
        ExecBackendConfig(repetitions=0)
    for factor in (1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExecBackendConfig(timeout_factor=factor)


def test_cost_addition_checks_units():
    assert (Cost(2, "steps") + Cost(3, "steps")).value == 5
    with pytest.raises(UnitMismatch):
        Cost(2, "steps") + Cost(3.0, "ms")


def test_normalize_output():
    assert normalize_output(b"a  \nb\t\n\n\n") == b"a\nb"
    assert normalize_output(b"") == b""
    assert normalize_output(b"7\n") == b"7"


# ---- mini backend ----

def test_mini_compile_and_run_ok():
    backend = mini_backend()
    program = backend.compile(load_unit("census.mini"))
    result = backend.run(program, [7], 10**6)
    assert result.ok and result.output == b"11"
    assert result.cost == Cost(result.cost.value, "steps")


def test_mini_compile_error_on_malformed_mutant():
    backend = mini_backend()
    with pytest.raises(CompileError):
        backend.compile(b"x = ;")


def test_mini_run_verdicts():
    backend = mini_backend()
    looping = backend.compile(b"i = 1; while (i > 0) { i /= 1; } print(i);")
    assert backend.run(looping, [], 1000).verdict == "timeout"
    crashing = backend.compile(b"print(1 / in[0]);")
    assert backend.run(crashing, [0], 1000).verdict == "crash"
    # timeout/crash results carry no cost and are unusable for equivalence
    assert backend.run(looping, [], 1000).cost is None


def test_mini_run_arms_detection_at_baseline_cost(monkeypatch):
    backend = mini_backend(timeout_factor=4.0)
    looping = backend.compile(b"i = 1; while (i > 0) { i /= 1; } print(i);")
    arms = []
    real_run = CompiledMini.run

    def spy(self, values, budget, arm=None):
        arms.append(arm)
        return real_run(self, values, budget, arm)

    monkeypatch.setattr(CompiledMini, "run", spy)
    assert backend.run(looping, [], 4_000_000).verdict == "timeout"
    assert arms == [1_000_000]  # the budget over the timeout factor


def test_mini_budget_derivation():
    backend = mini_backend(timeout_factor=10.0)
    assert backend.mutant_budget(Cost(15, "steps")) == 150
    assert backend.mutant_budget(Cost(1, "steps")) == 10


def test_overall_time_empty_inputs_is_zero():
    backend = mini_backend()
    program = backend.compile(load_unit("census.mini"))
    result = overall_time(backend, program, [], [])
    assert result.verdict == "ok" and result.cost == Cost(0, "steps")


def test_overall_time_sums_per_input_costs():
    backend = mini_backend()
    program = backend.compile(load_unit("max_search.mini"))
    inputs = [[3, 7, 7, 2], [5], [1, 2, 3, 4, 4]]
    singles = [backend.run(program, v, 10**6).cost.value for v in inputs]
    total = overall_time(backend, program, inputs, [10**6] * 3)
    assert total.cost.value == sum(singles)


@pytest.mark.parametrize("expected, verdict, index", [
    (None, "crash", 2),
    ([b"3", b"5", b"0"], "killed", 1),  # stops before the crashing input
], ids=["crash", "killed"])
def test_overall_time_aborts_on_bad_verdict(expected, verdict, index):
    backend = mini_backend()
    program = backend.compile(b"print(in[0] / in[1]);")
    result = overall_time(backend, program, [[6, 2], [8, 2], [1, 0]], [100] * 3,
                          expected)
    assert result.cost is None
    assert result.verdict == verdict
    assert result.failing_index == index
    assert len(result.results) == index + 1


def test_mini_overall_time_is_bit_identical_across_invocations():
    backend = mini_backend()
    program = backend.compile(load_unit("b2tob10.mini"))
    inputs = [encode_bits("101101"), encode_bits("0")]
    a = overall_time(backend, program, inputs, [10**9, 10**9])
    b = overall_time(backend, program, inputs, [10**9, 10**9])
    assert a == b


# ---- external backend ----

C_OK = b"""
#include <stdio.h>
int main(void) {
    int a = 0, b = 0;
    if (scanf("%d %d", &a, &b) != 2) return 1;
    printf("%d  \\n", a + b);
    return 0;
}
"""

C_EXIT_1 = b"#include <stdio.h>\nint main(void){ return 7; }\n"
C_SLEEPY = b"#include <unistd.h>\nint main(void){ sleep(30); return 0; }\n"


def ext_config(**kw):
    defaults = dict(kind="external",
                    compile_cmd="cc -O0 {src} -o {out}",
                    run_cmd="{bin}",
                    repetitions=2, warmups=0)
    defaults.update(kw)
    return ExecBackendConfig(**defaults)


@external
def test_external_compile_run_and_normalization(tmp_path):
    backend = make_backend(ext_config(), tmp_path)
    program = backend.compile(C_OK, name="adder.c")
    result = backend.run(program, [20, 22], budget=10.0)
    assert result.ok
    assert result.output == b"42"  # trailing spaces and newline normalized away
    assert result.cost.unit == "ms" and result.cost.value >= 0


@external
def test_external_compile_error_carries_diagnostics(tmp_path):
    backend = make_backend(ext_config(), tmp_path)
    with pytest.raises(CompileError) as err:
        backend.compile(b"int main(void) { return 0 }\n", name="broken.c")
    assert "error" in str(err.value).lower()


@external
def test_external_crash_and_timeout_verdicts(tmp_path):
    backend = make_backend(ext_config(), tmp_path)
    crasher = backend.compile(C_EXIT_1, name="crasher.c")
    assert backend.run(crasher, [], budget=10.0).verdict == "crash"
    sleeper = backend.compile(C_SLEEPY, name="sleeper.c")
    assert backend.run(sleeper, [], budget=0.2).verdict == "timeout"


def test_external_timeout_kills_the_whole_process_group(tmp_path):
    # needs no compiler: the run command leaves a grandchild behind
    marker = tmp_path / "marker"
    script = f"(sleep 1; touch {shlex.quote(str(marker))}) & sleep 5"
    cfg = ext_config(compile_cmd="cp {src} {out}",
                     run_cmd=f"sh -c {shlex.quote(script)}")
    backend = make_backend(cfg, tmp_path / "scratch")
    program = backend.compile(b"", name="script.sh")
    assert backend.run(program, [], budget=0.3).verdict == "timeout"
    time.sleep(1.5)
    assert not marker.exists()


def test_external_missing_compiler_is_toolchain_error(tmp_path):
    cfg = ext_config(compile_cmd="definitely-not-a-compiler-xyz {src} -o {out}")
    backend = make_backend(cfg, tmp_path)
    with pytest.raises(ToolchainError):
        backend.compile(C_OK, name="none.c")


@external
def test_external_single_repetition_cost_is_that_measurement(tmp_path):
    backend = make_backend(ext_config(repetitions=1, warmups=0), tmp_path)
    program = backend.compile(C_OK, name="adder.c")
    result = backend.run(program, [1, 2], budget=10.0)
    assert result.ok and result.cost.value > 0


def test_external_backend_requires_scratch_dir():
    with pytest.raises(ValueError):
        make_backend(ext_config())


def test_mini_data_flows_through_source_units():
    backend = mini_backend()
    unit = tokenize(b"print(in[0] + in[1]);", Language.MINI)
    program = backend.compile(unit)
    assert backend.run(program, [40, 2], 100).output == b"42"


def test_overall_time_speedup_of_walk_doubling_rewrite():
    # golden bound fixed from the first oracle run: the rewrite is over
    # 100x cheaper on the scaled input set
    from mutopt import ASR, apply_all

    backend = mini_backend()
    unit = load_unit("b2tob10.mini")
    original = backend.compile(unit)
    star = [m for m in apply_all([ASR], unit)
            if m.original == "+=" and m.replacement == "*="]
    tail = max(star, key=lambda m: m.line)
    mutant = backend.compile(tail.mutated_text)
    inputs = [encode_bits("11111111111111110110"), encode_bits("0"), encode_bits("1")]
    budgets = [10**9] * 3
    tau_original = overall_time(backend, original, inputs, budgets)
    tau_mutant = overall_time(backend, mutant, inputs, budgets)
    assert tau_original.cost.value == 19_923_110
    assert tau_mutant.cost.value == 539
    assert tau_mutant.cost.value <= tau_original.cost.value / 100


def test_compile_maps_every_mutant_to_program_or_compile_error():
    from mutopt import AOR, ASR, ROR, apply_all

    backend = mini_backend()
    unit = load_unit("b2tob10.mini")
    for m in apply_all([ROR, ASR, AOR], unit):
        name = m.filename("b2tob10.mini")
        try:
            program = backend.compile(m.mutated_text)
        except CompileError:
            # the name argument, shared with the external backend, is ignored
            with pytest.raises(CompileError):
                backend.compile(m.mutated_text, name=name)
            continue
        assert isinstance(program, CompiledMini)
        assert isinstance(backend.compile(m.mutated_text, name=name), CompiledMini)
