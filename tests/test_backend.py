"""Backend contract tests for both the mini and the external kind."""

import shlex
import shutil
import time
from dataclasses import replace

import pytest

from mutopt import (
    CompileError,
    Cost,
    ExecBackendConfig,
    Language,
    RunResult,
    ToolchainError,
    UnitMismatch,
    make_backend,
    overall_time,
    tokenize,
)
from mutopt.backend import BASELINE_STEP_LIMIT, elf_digest, normalize_output
from mutopt.minilang.interp import CYCLE_STRIDE, CompiledMini

from conftest import (attempt, count_full_parses, encode_bits, full_compile, load_unit,
                      logging_run_cmd, outcomes, spawns)

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
    for factor in (1.0, float("inf"), float("nan"), 1e299):
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


def test_mini_run_checks_for_cycles_at_a_fixed_stride(monkeypatch):
    backend = mini_backend(timeout_factor=4.0)
    looping = backend.compile(b"i = 1; while (i > 0) { i /= 1; } print(i);")
    arms = []
    real_run = CompiledMini.run

    def spy(self, values, budget, arm=None):
        arms.append(arm)
        return real_run(self, values, budget, arm)

    monkeypatch.setattr(CompiledMini, "run", spy)
    assert backend.run(looping, [], 4_000_000).verdict == "timeout"
    # the largest budget its code allows: a mutant's on the largest baseline
    assert backend.run(looping, [], 4 * BASELINE_STEP_LIMIT).verdict == "timeout"
    # the same stride whatever the budget or the timeout factor
    assert arms == [CYCLE_STRIDE, CYCLE_STRIDE]


def test_mini_budget_derivation():
    backend = mini_backend(timeout_factor=10.0)
    assert backend.mutant_budget(Cost(15, "steps")) == 150
    assert backend.mutant_budget(Cost(1, "steps")) == 10


def test_overall_time_empty_inputs_is_zero():
    backend = mini_backend()
    program = backend.compile(load_unit("census.mini"))
    result = overall_time(backend, program, [])
    assert result.verdict == "ok" and result.cost == Cost(0, "steps")


def test_overall_time_sums_per_input_costs():
    backend = mini_backend()
    program = backend.compile(load_unit("max_search.mini"))
    inputs = [[3, 7, 7, 2], [5], [1, 2, 3, 4, 4]]
    singles = [backend.run(program, v, 10**6).cost.value for v in inputs]
    total = overall_time(backend, program, inputs)
    assert total.cost.value == sum(singles)


@pytest.mark.parametrize("reference, verdict, index", [
    (None, "crash", 2),
    # prints 3, 5 and 0; stops before the crashing input
    (b"print(in[0] / 2 + in[0] / 8);", "killed", 1),
], ids=["crash", "killed"])
def test_overall_time_aborts_on_bad_verdict(reference, verdict, index):
    backend = mini_backend()
    program = backend.compile(b"print(in[0] / in[1]);")
    inputs = [[6, 2], [8, 2], [1, 0]]
    if reference is not None:
        reference = overall_time(backend, backend.compile(reference), inputs)
        assert [r.output for r in reference.results] == [b"3", b"5", b"0"]
    result = overall_time(backend, program, inputs, reference)
    assert result.cost is None
    assert result.verdict == verdict
    assert result.failing_index == index
    assert len(result.results) == index + 1


def test_mini_overall_time_is_bit_identical_across_invocations():
    backend = mini_backend()
    program = backend.compile(load_unit("b2tob10.mini"))
    inputs = [encode_bits("101101"), encode_bits("0")]
    a = overall_time(backend, program, inputs)
    b = overall_time(backend, program, inputs)
    assert a == b


def test_overall_time_budget_comes_from_the_reference():
    backend = mini_backend(timeout_factor=10.0)
    reference = overall_time(backend, backend.compile(b"i = 1 + 2; print(i);"), [[]])
    assert reference.cost == Cost(3, "steps")  # so each input's budget is 30
    fits = backend.compile(b"i = 0; while (i < 3) { i += 1; } print(i);")
    over = backend.compile(b"i = 0; while (i < 100) { i += 1; } print(i - 97);")
    assert overall_time(backend, fits, [[]], reference).verdict == "ok"
    assert overall_time(backend, over, [[]]).verdict == "ok"
    assert overall_time(backend, over, [[]], reference).verdict == "timeout"


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


C_COMPARE = b"""int scanf(const char *, ...);
int printf(const char *, ...);
int main(void) { int a = 0; scanf("%d", &a); printf("%d\\n", a > 3); return 0; }
"""


@external
def test_elf_digest_ignores_the_file_name_and_sees_the_code(tmp_path):
    backend = make_backend(ext_config(), tmp_path)
    one, two = (backend.compile(C_COMPARE, name=name) for name in ("one.c", "two.c"))
    greater_equal = backend.compile(C_COMPARE.replace(b"a > 3", b"a >= 3"), name="one.c")
    # the symbol table names each source file, and the build-id hashes it
    assert one.read_bytes() != two.read_bytes()
    digests = [elf_digest(p.read_bytes()) for p in (one, two, greater_equal)]
    assert None not in digests
    assert digests[0] == digests[1] != digests[2]


@external
def test_elf_digest_rejects_truncated_and_garbage_headers(tmp_path):
    data = make_backend(ext_config(), tmp_path).compile(C_COMPARE, name="cmp.c").read_bytes()
    assert elf_digest(data) is not None
    # the section table sits at the end of the file, so every prefix lacks it
    for n in [*range(0, len(data), 61), len(data) - 1]:
        assert elf_digest(data[:n]) is None
    for garbage in (b"\x7fELF" + bytes(range(256)) * 4,
                    b"\x7fELF\x02\x01\x01" + b"\xff" * 200,
                    b"\x7fELF\x03\x01" + bytes(100),
                    b"#!/bin/sh\necho 5\n"):
        assert elf_digest(garbage) is None


def test_external_non_elf_programs_are_run_and_timed(tmp_path):
    # needs no compiler: two copies of one shell script are the same bytes,
    # but not ELF files, so each spawns on its own
    log = tmp_path / "spawns"
    cfg = ext_config(compile_cmd="cp {src} {out}", run_cmd=logging_run_cmd(log, "sh"),
                     repetitions=2, warmups=1)
    backend = make_backend(cfg, tmp_path / "scratch")
    for name in ("a.sh", "b.sh"):
        program = backend.compile(b"echo 5\n", name=name)
        run = overall_time(backend, program, [[1], [2]])
        assert run.verdict == "ok" and run.cost.unit == "ms" and run.cost.value > 0
        assert [r.decided for r in run.results] == [None, None]
        assert [r.output for r in run.results] == [b"5", b"5"]
    # per input: the check's run, then one warmup and two measured runs
    assert spawns(log) == {"0001.a.sh.bin": 8, "0002.b.sh.bin": 8}


@external
def test_external_identical_binary_is_answered_without_a_spawn(tmp_path):
    log = tmp_path / "spawns"
    backend = make_backend(ext_config(run_cmd=logging_run_cmd(log)), tmp_path / "scratch")
    first = backend.compile(C_COMPARE, name="first.c")
    twin = backend.compile(C_COMPARE, name="twin.c")
    other = backend.compile(C_COMPARE.replace(b"a > 3", b"a >= 3"), name="other.c")
    runs = [backend.run(program, [5], budget=10.0) for program in (first, first, twin, other)]
    assert [r.decided for r in runs] == [None, None, "identical", None]
    assert runs[2] == replace(runs[1], decided="identical")
    timed = backend.timed(first, [5], budget=10.0)
    assert backend.timed(twin, [5], budget=10.0) == replace(timed, decided="identical")
    # the first program of a code always spawns; a twin only where its code
    # has no run on these values
    assert backend.run(twin, [6], budget=10.0).decided is None
    assert spawns(log) == {"0001.first.c.bin": 2 + 2, "0002.twin.c.bin": 1,
                           "0003.other.c.bin": 1}
    # a run that is not ok answers only the budget it was made under
    sleeper, twin = (backend.compile(C_SLEEPY, name=name) for name in ("s.c", "t.c"))
    assert backend.run(sleeper, [], budget=0.2).verdict == "timeout"
    assert backend.run(twin, [], budget=0.2).decided == "identical"
    assert backend.run(twin, [], budget=0.3) == RunResult(b"", None, "timeout")


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
    tau_original = overall_time(backend, original, inputs)
    tau_mutant = overall_time(backend, mutant, inputs)
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


# ---- statement-level compile against the base ----

@pytest.mark.parametrize("statement, site, merging", [
    (b"x = a+-b;", "+", "-"),              # "--" is one token
    (b"x = a*/*c*/b;", "*", "/"),          # "//" opens a line comment
    (b"x = a -/*c*/ 1; y = 2;", "-", "/"),  # which swallows y = 2
    # ... and here leaves a program that parses: x = a + 3;
    (b"x = a -/*c*/ 1; y = 2; x = x\n+ 3;", "-", "/"),
])
def test_relex_fallback_matches_full_compile(statement, site, merging, monkeypatch):
    from mutopt import AOR, apply_all

    text = b"a = in[0];\nb = in[1];\n" + statement + b"\nprint(x + y);\n"
    unit = tokenize(text, Language.MINI)
    inputs = [[5, 3], [-7, 2], [0, 0]]
    budgets = [10**6] * len(inputs)
    parses = count_full_parses(monkeypatch)
    backend = mini_backend()
    backend.compile(unit)
    mutants = [m for m in apply_all([AOR], unit) if m.line == 3 and m.original == site]
    assert len(mutants) == 4
    for m in mutants:
        assert (outcomes(attempt(backend.compile, m.mutated_text), inputs, budgets)
                == outcomes(attempt(full_compile, m.mutated_text), inputs, budgets)), m.id
    # the base and the one mutant whose replacement merges tokens
    assert len(parses) == 2
    merged = next(m for m in mutants if m.replacement == merging)
    assert ((attempt(full_compile, merged.mutated_text) == "CompileError")
            == (b"+ 3" not in statement))


def test_change_between_statements_compiles_in_full(monkeypatch):
    parses = count_full_parses(monkeypatch)
    backend = mini_backend()
    backend.compile(tokenize(b"x = in[0]; /* a */ print(x);", Language.MINI))
    program = backend.compile(b"x = in[0]; /* b */ print(x);")
    assert len(parses) == 2
    assert outcomes(program, [[4]], [10**6]) == [("ok", b"4", 3)]


def test_base_is_the_first_program_compiled(monkeypatch):
    from mutopt import ASR, apply_all

    parses = count_full_parses(monkeypatch)
    backend = mini_backend()
    unit = load_unit("powsum.mini")
    backend.compile(unit)
    backend.compile(b"print(1);")  # compiled in full; the base stays
    mutant = apply_all([ASR], unit)[0]
    program = backend.compile(mutant.mutated_text)
    assert len(parses) == 2
    assert (outcomes(program, [[64]], [10**6])
            == outcomes(full_compile(mutant.mutated_text), [[64]], [10**6]))
    backend.compile(unit)  # a SourceUnit is always compiled in full
    assert len(parses) == 3
