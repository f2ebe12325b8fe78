"""Command-line behavior: exit codes, input loading, report files."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutopt import Cost, Mutant
from mutopt.cli import InputSetError, load_inputs, main
from mutopt.optimizer import MutantVerdict, OptimizationReport
from mutopt.report import report_to_dict

from conftest import FIXTURES


def report_from_dict(data: dict) -> OptimizationReport:
    """Rebuild a report from its JSON form, host block and all."""
    unit = data["unit"]
    verdicts = []
    for v in data["verdicts"]:
        verdicts.append(MutantVerdict(
            mutant_id=v["mutant_id"], operator=v["operator"],
            line=v["line"], col=v["col"],
            original=v["original"], replacement=v["replacement"],
            status=v["status"], input_id=v["input_id"],
            tau=None if v["tau"] is None else Cost(v["tau"], unit),
            runs=v["runs"],
        ))
    selected = None
    if data["selected"] is not None:
        s = data["selected"]
        selected = Mutant(
            id=s["mutant_id"], operator=s["operator"],
            line=s["line"], col=s["col"],
            start=s["start"], end=s["end"],
            original=s["original"], replacement=s["replacement"],
            mutated_text=data["final_source"].encode("utf-8"),
        )
    return OptimizationReport(
        unit=unit,
        original_tau=Cost(data["original_tau"], unit),
        final_tau=Cost(data["final_tau"], unit),
        selected=selected,
        selected_source=data["final_source"].encode("utf-8"),
        original_source=data["original_source"].encode("utf-8"),
        verdicts=verdicts,
        input_ids=tuple(data["inputs"]),
        config_echo=data["config"],
        host=data["host"],
    )


def test_mutants_census_is_13(capsys):
    code = main(["mutants", "--source", str(FIXTURES / "census.mini"),
                 "--operators", "ror,asr,aor"])
    out = capsys.readouterr().out
    assert code == 0
    assert "13 mutants" in out
    assert "ROR: 5" in out and "ASR: 4" in out and "AOR: 4" in out


def test_missing_source_flag_is_usage_error(capsys):
    assert main(["optimize", "--inputs", "x", "--operators", "ror"]) == 1
    assert main(["mutants", "--operators", "ror"]) == 1


def test_unknown_operator_is_usage_error():
    assert main(["mutants", "--source", str(FIXTURES / "census.mini"),
                 "--operators", "ror,xyz"]) == 1
    assert main(["mutants", "--source", str(FIXTURES / "census.mini"),
                 "--operators", ","]) == 1


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_nonexistent_source_is_operational_error(capsys):
    code = main(["mutants", "--source", "no/such/file.mini",
                 "--operators", "ror"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "mutants"])
def test_non_utf8_source_is_operational_error(command, tmp_path, monkeypatch, capsys):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("MUTOPT_SCRATCH", str(scratch))
    src = tmp_path / "bad.mini"
    src.write_bytes(b"x = 1;\n\xff = 2;\nprint(x);\n")
    argv = [command, "--source", str(src), "--operators", "ror"]
    if command == "optimize":
        argv += ["--inputs", str(FIXTURES / "m_powsum")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("mutopt: ")
    assert "invalid UTF-8 at line 2, col 1" in err
    assert "Traceback" not in err
    assert list(scratch.iterdir()) == []  # checked before the scratch directory


def test_non_utf8_manifest_is_operational_error(tmp_path, monkeypatch, capsys):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("MUTOPT_SCRATCH", str(scratch))
    manifest = tmp_path / "suite.txt"
    manifest.write_bytes(b"# caf\xe9\n")
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(manifest), "--operators", "asr"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"mutopt: manifest is not valid UTF-8: {manifest}\n"
    assert list(scratch.iterdir()) == []


def test_unreadable_input_entry_is_operational_error(tmp_path, monkeypatch, capsys):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("MUTOPT_SCRATCH", str(scratch))
    inputs = tmp_path / "m"
    (inputs / "x.in").mkdir(parents=True)  # matches *.in but is a directory
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(inputs), "--operators", "asr"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"mutopt: cannot read input file {inputs / 'x.in'}: Is a directory\n"
    assert "Traceback" not in err
    assert list(scratch.iterdir()) == []


def test_optimize_powsum_improves(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    code = main(["optimize",
                 "--source", str(FIXTURES / "powsum.mini"),
                 "--backend", "mini",
                 "--inputs", str(FIXTURES / "m_powsum"),
                 "--operators", "ror,asr,aor",
                 "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "selected:" in out
    data = json.loads(report_path.read_text())
    assert data["selected"]["replacement"] == "*="
    assert data["selected"]["operator"] == "ASR"
    assert data["final_tau"] < data["original_tau"]
    assert data["patch"].startswith("---")
    # verdict counts partition the verdicts array
    counted = {}
    for v in data["verdicts"]:
        counted[v["status"]] = counted.get(v["status"], 0) + 1
    assert counted == data["verdict_counts"]
    assert sum(counted.values()) == len(data["verdicts"])


def test_optimize_without_improvement_exits_3(tmp_path):
    # single relational site and a max that appears once: all survivors tie
    src = tmp_path / "gate.mini"
    src.write_text("x = in[0];\nif (x >= 10) {\n    x = 10;\n}\nprint(x);\n")
    inputs = tmp_path / "m"
    inputs.mkdir()
    (inputs / "lo.in").write_text("3\n")
    code = main(["optimize", "--source", str(src), "--inputs", str(inputs),
                 "--operators", "ror"])
    assert code == 3


def test_optimize_source_without_mutable_operators_exits_3(tmp_path, capsys):
    src = tmp_path / "plain.mini"
    src.write_text("x = 5;\nprint(x);\n")
    inputs = tmp_path / "m"
    inputs.mkdir()
    (inputs / "a.in").write_text("1\n")
    report_path = tmp_path / "r.json"
    code = main(["optimize", "--source", str(src), "--inputs", str(inputs),
                 "--operators", "ror,asr,aor", "--report", str(report_path)])
    assert code == 3
    assert json.loads(report_path.read_text())["verdicts"] == []


def test_empty_input_set_warns_and_exits_3(tmp_path, capsys):
    inputs = tmp_path / "m"
    inputs.mkdir()
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(inputs), "--operators", "asr"])
    assert code == 3
    assert "empty input set" in capsys.readouterr().err


def test_invalid_baseline_exits_2(tmp_path, capsys):
    src = tmp_path / "crash.mini"
    src.write_text("print(1 / in[0]);\n")
    inputs = tmp_path / "m"
    inputs.mkdir()
    (inputs / "zero.in").write_text("0\n")
    code = main(["optimize", "--source", str(src), "--inputs", str(inputs),
                 "--operators", "aor"])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid baseline" in err and "zero" in err


def test_invalid_baseline_leaves_no_scratch_directory(tmp_path, monkeypatch, capsys):
    # the mini backend writes nothing to scratch, so nothing is kept or named
    src = tmp_path / "crash.mini"
    src.write_text("x = 1 / 0; print(x);\n")
    scratch = tmp_path / "scratch"
    monkeypatch.setenv("MUTOPT_SCRATCH", str(scratch))
    code = main(["optimize", "--source", str(src),
                 "--inputs", str(FIXTURES / "m_powsum"), "--operators", "aor"])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("mutopt:")]
    assert len(errors) == 1 and errors[0].startswith("mutopt: invalid baseline: ")
    assert list(scratch.iterdir()) == []


def test_deeply_nested_source_is_invalid_baseline(tmp_path):
    # a fresh process, so the check does not depend on how much stack the
    # caller has left
    src = tmp_path / "deep.mini"
    src.write_text("x = " + "(" * 400 + "1" + ")" * 400 + "; print(x);\n")
    env = dict(os.environ, MUTOPT_SCRATCH=str(tmp_path / "scratch"),
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mutopt.cli", "optimize", "--source", str(src),
         "--inputs", str(FIXTURES / "m_powsum"), "--operators", "aor"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    baseline = [line for line in proc.stderr.splitlines()
                if line.startswith("mutopt: invalid baseline: ")]
    assert len(baseline) == 1 and "nesting deeper than" in baseline[0]


def test_unusable_scratch_root_exits_2(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("MUTOPT_SCRATCH", str(blocker / "scratch"))
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(FIXTURES / "m_powsum"), "--operators", "asr"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mutopt: cannot create scratch directory under {blocker}")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_lines_flag_validation(tmp_path, capsys):
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(FIXTURES / "m_powsum"),
                 "--operators", "ror", "--lines", "500:600"])
    assert code == 1
    code = main(["mutants", "--source", str(FIXTURES / "census.mini"),
                 "--operators", "ror", "--lines", "bogus"])
    assert code == 1


def test_lines_flag_restricts_sites(capsys):
    code = main(["mutants", "--source", str(FIXTURES / "census.mini"),
                 "--operators", "ror,asr,aor", "--lines", "5:5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 mutants" in out  # only the one shortcut-assign line


def test_scratch_keeps_mutant_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path))
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(FIXTURES / "m_powsum"),
                 "--operators", "asr", "--keep-scratch"])
    assert code == 0
    kept = list(tmp_path.glob("mutopt-*/mutants/powsum.ASR_*.mini"))
    assert len(kept) == 12  # 3 sites x 4 replacements
    err = capsys.readouterr().err
    assert "scratch" in err

    # only the mutants that --lines selects are written
    for old in tmp_path.glob("mutopt-*"):
        shutil.rmtree(old)
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(FIXTURES / "m_powsum"),
                 "--operators", "asr", "--lines", "17:17", "--keep-scratch"])
    assert code == 0
    kept = sorted(p.name for p in tmp_path.glob("mutopt-*/mutants/*"))
    assert kept == [f"powsum.ASR_{n}.mini" for n in (10, 11, 12, 9)]


@pytest.mark.parametrize("flag, value", [
    ("--reps", "0"), ("--warmups", "-1"), ("--timeout-factor", "1"),
    ("--timeout-factor", "inf"), ("--timeout-factor", "1e299"), ("--jobs", "-1"), ("--jobs", "0"),
    ("--threshold", "0.9"),
])
def test_out_of_range_number_is_usage_error(flag, value, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path))
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(FIXTURES / "m_powsum"),
                 "--operators", "asr", flag, value])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("mutopt: error:")
    assert f"argument {flag}: must be " in errors[0]
    assert list(tmp_path.iterdir()) == []  # no scratch directory left behind


@pytest.mark.parametrize("flag, template", [
    ("--compile-cmd", "cc {src} -o {out} {bin}"),   # unknown placeholder
    ("--compile-cmd", "cc {src} -o {out} -D'X={'"),  # lone brace
    ("--run-cmd", "{bin} '"),                         # unbalanced quote
    ("--run-cmd", "   "),                             # no argument at all
])
def test_malformed_template_is_usage_error(flag, template, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path))
    templates = {"--compile-cmd": "cc {src} -o {out}", "--run-cmd": "{bin}",
                 flag: template}
    code = main(["optimize", "--source", str(FIXTURES / "b2tob10.c"),
                 "--backend", "external", "--inputs", str(FIXTURES / "m_scaled"),
                 "--operators", "ror",
                 "--compile-cmd", templates["--compile-cmd"],
                 "--run-cmd", templates["--run-cmd"]])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(f"mutopt: error: argument {flag}: ")
    assert list(tmp_path.iterdir()) == []  # no scratch directory left behind


def test_run_command_that_cannot_start_is_toolchain_error(tmp_path, monkeypatch, capsys):
    # "cp" leaves a copy of the source, which is not executable
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path))
    code = main(["optimize", "--source", str(FIXTURES / "b2tob10.c"),
                 "--backend", "external", "--inputs", str(FIXTURES / "m_scaled"),
                 "--operators", "ror", "--compile-cmd", "cp {src} {out}",
                 "--run-cmd", "{bin}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert errors[0].startswith("mutopt: toolchain error: cannot start run command ")
    assert errors[0].endswith(".b2tob10.c.bin: Permission denied")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_compiler_vanishing_after_baseline_is_toolchain_error(tmp_path, capsys):
    # compiles the original, then deletes itself before the first mutant
    compiler = tmp_path / "cc-once"
    compiler.write_text('#!/bin/sh\ncc "$@" && rm -f "$0"\n')
    compiler.chmod(0o755)
    src = tmp_path / "bigger.c"
    src.write_text('#include <stdio.h>\nint main(void) {\n  int a = 0;\n'
                   '  if (scanf("%d", &a) != 1) return 1;\n'
                   '  printf("%d\\n", a > 3);\n  return 0;\n}\n')
    inputs = tmp_path / "m"
    inputs.mkdir()
    (inputs / "a.in").write_text("5\n")
    code = main(["optimize", "--source", str(src), "--inputs", str(inputs),
                 "--operators", "ror", "--backend", "external",
                 "--compile-cmd", f"{compiler} -O0 {{src}} -o {{out}}",
                 "--run-cmd", "{bin}", "--reps", "1", "--warmups", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("toolchain error") == 1
    assert "\nmutopt: toolchain error: while compiling mutant" in "\n" + err
    assert "Traceback" not in err


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kept_external_scratch_keeps_search_and_confirmation_files_apart(
        tmp_path, monkeypatch):
    # the search numbers its files from 0001 (the original) and the final
    # confirmation numbers its own from 0001 under confirm/, so neither
    # overwrites the other
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path / "scratch"))
    src = tmp_path / "bigger.c"
    src.write_text('#include <stdio.h>\nint main(void) {\n  int a = 0;\n'
                   '  if (scanf("%d", &a) != 1) return 1;\n'
                   '  printf("%d\\n", a > 3);\n  return 0;\n}\n')
    inputs = tmp_path / "m"
    inputs.mkdir()
    (inputs / "a.in").write_text("5\n")
    report = tmp_path / "report.json"
    code = main(["optimize", "--source", str(src), "--inputs", str(inputs),
                 "--operators", "ror", "--backend", "external",
                 "--compile-cmd", "cc -O0 {src} -o {out}",
                 "--run-cmd", "{bin}", "--reps", "1", "--warmups", "0",
                 "--report", str(report), "--keep-scratch"])
    assert code in (0, 3)
    data = json.loads(report.read_text())
    scratch, = (tmp_path / "scratch").glob("mutopt-*")
    assert (scratch / "0001.bigger.c").read_bytes() == src.read_bytes()
    assert (scratch / "0001.bigger.c.bin").is_file()
    assert len(list(scratch.glob("*.c"))) == 1 + len(data["verdicts"])
    assert sorted(p.name for p in (scratch / "confirm").iterdir()) == [
        "0001.bigger.c", "0001.bigger.c.bin"]
    assert ((scratch / "confirm" / "0001.bigger.c").read_text()
            == data["final_source"])


def test_scratch_removed_on_success(tmp_path, monkeypatch):
    monkeypatch.setenv("MUTOPT_SCRATCH", str(tmp_path))
    code = main(["optimize", "--source", str(FIXTURES / "powsum.mini"),
                 "--inputs", str(FIXTURES / "m_powsum"),
                 "--operators", "asr"])
    assert code == 0
    assert list(tmp_path.glob("mutopt-*")) == []


# ---- input-set loading ----

def test_load_inputs_directory_is_lexicographic(tmp_path):
    d = tmp_path / "m"
    d.mkdir()
    (d / "b.in").write_text("2\n")
    (d / "a.in").write_text("1 -3\n")
    (d / "c.in").write_text("3\n")
    (d / "ignored.txt").write_text("9\n")
    s = load_inputs(d)
    assert [e.id for e in s.entries] == ["a", "b", "c"]
    assert s.entries[0].values == (1, -3)


def test_load_inputs_paper_fixture_ids():
    s = load_inputs(FIXTURES / "m_paper")
    assert {e.id for e in s.entries} == {"i30", "i0", "i1"}
    assert [e.id for e in s.entries] == ["i0", "i1", "i30"]


def test_load_inputs_manifest(tmp_path):
    manifest = tmp_path / "suite.txt"
    manifest.write_text(
        "# regression inputs\n"
        f"{FIXTURES / 'm_max' / 'a.in'}\n"
        "\n"
        f"{FIXTURES / 'm_max' / 'b.in'}\n"
    )
    s = load_inputs(manifest)
    assert [e.id for e in s.entries] == ["a", "b"]


def test_load_inputs_manifest_missing_file(tmp_path):
    manifest = tmp_path / "suite.txt"
    manifest.write_text("missing/thing.in\n")
    with pytest.raises(InputSetError) as err:
        load_inputs(manifest)
    assert "missing/thing.in" in str(err.value)


def test_load_inputs_rejects_bad_integers(tmp_path):
    d = tmp_path / "m"
    d.mkdir()
    (d / "a.in").write_text("1 two 3\n")
    with pytest.raises(InputSetError):
        load_inputs(d)


@pytest.mark.parametrize("value, ok", [
    ("9223372036854775807", True), ("-9223372036854775808", True),
    ("9223372036854775808", False), ("-9223372036854775809", False),
])
def test_load_inputs_accepts_only_64_bit_integers(value, ok, tmp_path):
    d = tmp_path / "m"
    d.mkdir()
    (d / "a.in").write_text(f"1 {value}\n")
    if ok:
        assert load_inputs(d).entries[0].values == (1, int(value))
    else:
        with pytest.raises(InputSetError, match="integer out of 64-bit range"):
            load_inputs(d)


# ---- report round-trip ----

def test_report_json_round_trips():
    from mutopt import OptimizeConfig, ROR, ASR, AOR, optimize, tokenize, Language
    from mutopt.optimizer import InputEntry, InputSet

    unit = tokenize((FIXTURES / "powsum.mini").read_bytes(), Language.MINI)
    inputs = InputSet(entries=(InputEntry("n", (64,)),), origin="<memory>")
    report = optimize([ROR, ASR, AOR], unit, inputs, OptimizeConfig())
    data = json.loads(json.dumps(report_to_dict(report)))
    rebuilt = report_from_dict(data)
    assert report_to_dict(rebuilt) == report_to_dict(report)
    assert rebuilt == report


def test_optimize_b2tob10_names_the_increment_rewrite(tmp_path):
    # small-width variant of the binary-conversion run: exit 0 and the
    # report names an ASR mutant at the loop-tail increment line
    inputs = tmp_path / "m"
    inputs.mkdir()
    (inputs / "i8.in").write_text("8 1 0 1 1 0 1 1 0\n")
    (inputs / "i0.in").write_text("1 0\n")
    (inputs / "i1.in").write_text("1 1\n")
    report_path = tmp_path / "r.json"
    code = main(["optimize", "--source", str(FIXTURES / "b2tob10.mini"),
                 "--backend", "mini",
                 "--inputs", str(inputs),
                 "--operators", "ror,asr,aor",
                 "--report", str(report_path)])
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["selected"]["operator"] == "ASR"
    assert data["selected"]["original"] == "+="
    assert data["selected"]["replacement"] == "*="
    assert data["selected"]["line"] == 26
    assert data["speedup"] == data["original_tau"] / data["final_tau"]


def test_no_improvement_report_keeps_original_tau(tmp_path):
    src = tmp_path / "gate.mini"
    src.write_text("x = in[0];\nif (x >= 10) {\n    x = 10;\n}\nprint(x);\n")
    inputs = tmp_path / "m"
    inputs.mkdir()
    (inputs / "lo.in").write_text("3\n")
    report_path = tmp_path / "r.json"
    code = main(["optimize", "--source", str(src), "--inputs", str(inputs),
                 "--operators", "ror", "--report", str(report_path)])
    assert code == 3
    data = json.loads(report_path.read_text())
    assert data["selected"] is None
    assert data["original_tau"] == data["final_tau"]
    assert data["patch"] == ""
    assert data["final_source"] == data["original_source"]
