"""C mutant schemata on the external backend: which sites a schema switches,
and that checking mutants in schema binaries gives the verdicts each
mutant gets compiled alone."""

import os
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from mutopt import ROR, ASR, AOR, ExecBackendConfig, Language, apply_all, tokenize
from mutopt import cschema
from mutopt.backend import ExternalBackend, check, overall_time
from mutopt.cli import load_inputs
from mutopt.optimizer import InputEntry, InputSet, InvalidBaseline, OptimizeConfig, optimize

from conftest import FIXTURES, FOLDED_C, compile_mutant, logging_run_cmd, spawns

external = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
EQUIVALENT = ("equivalent_not_faster", "equivalent_faster", "selected")
OPERATORS = [ROR, ASR, AOR]


def input_set(*entries) -> InputSet:
    return InputSet(tuple(InputEntry(str(i), tuple(values)) for i, values in enumerate(entries)))


def snippet_program(name: str, *edits: tuple[str, str]) -> tuple[bytes, tuple[int, int]]:
    """``fixtures/snippets/<name>`` with ``edits`` made, in a ``main`` that
    reads ``n`` and ``n`` values into ``arr`` and prints ``max`` and
    ``count``; and the snippet's lines in it."""
    snippet = (FIXTURES / "snippets" / name).read_text()
    for old, new in edits:
        snippet = snippet.replace(old, new)
    head = ("#include <stdio.h>\n"
            "int main(void) {\n"
            "    int n = 0, N = 0, arr[8] = {0}, max = -99, count = 0;\n"
            "    scanf(\"%d\", &n);\n"
            "    for (int k = 0; k < n; k++) scanf(\"%d\", &arr[k]);\n"
            "    N = n ? arr[0] : 0;\n")
    first = head.count("\n") + 1
    text = head + snippet + "    printf(\"%d %d\\n\", max, count);\n    return 0;\n}\n"
    return text.encode(), (first, first + snippet.count("\n") - 1)


def search(tmp_path, text: bytes, inputs: InputSet, name: str = "unit.c",
           compile_cmd: str = "cc -O2 {src} -o {out}", line_range=None,
           run_cmd: str = "{bin}", timeout_factor: float = 10.0):
    config = OptimizeConfig(
        backend=ExecBackendConfig(kind="external", compile_cmd=compile_cmd, run_cmd=run_cmd,
                                  repetitions=1, warmups=0, timeout_factor=timeout_factor),
        scratch_dir=tmp_path, source_name=name, line_range=line_range)
    return optimize(OPERATORS, tokenize(text, Language.C_LIKE), inputs, config)


def verdicts(report) -> list[tuple]:
    """Each mutant's status class, killing input and runs."""
    return [(v.mutant_id, "equivalent" if v.status in EQUIVALENT else v.status,
             v.input_id, v.runs) for v in report.verdicts]


def alone(monkeypatch):
    """Send every mutant down the per-mutant path: no schema is written."""
    monkeypatch.setattr(cschema, "schemas", lambda unit, edits: [])


# ---- which sites a schema switches ----

EXCLUDED_C = b"""#include <stdio.h>
#define LIMIT (2 + 3)
enum { E = 1 + 1 };
static int table[4 * 2];
int scale = 3 * 2;
int main(void) {
    static int s = 7 - 1;
    int a = 0, arr[2 + 1];
    if (scanf("%d", &a) != 1) return 1;
    switch (a) {
    case 1 + 1: a += 10; break;
    default: break;
    }
    printf("%d\\n", a + E + LIMIT + table[0] + scale + s + arr[0] * 0);
    return 0;
}
"""


def test_schema_leaves_out_constant_contexts_declarations_and_directives():
    unit = tokenize(EXCLUDED_C, Language.C_LIKE)
    mutants = apply_all(OPERATORS, unit)
    built = cschema.schemas(unit, [(m.start, m.replacement) for m in mutants])
    switched = {(mutants[i].line, mutants[i].original) for _, members in built
                for i in members}
    # the condition, the statement after the case label and the printf
    # call; not the include, the macro, the enum value, the array sizes,
    # the file-scope and static initializers or the case label
    assert switched == {(9, "!="), (11, "+="), (14, "+"), (14, "*")}
    assert all(m.line in (9, 11, 14) for _, members in built
               for m in (mutants[i] for i in members))


def test_schema_scan_follows_braceless_bodies_and_for_clauses():
    unit = tokenize(FOLDED_C, Language.C_LIKE)
    spans = [unit.text[a:b] for a, b in cschema.full_expressions(unit)]
    assert spans == [b'scanf("%d", &a)', b"2 > 1", b"a += 10", b"2 > 1", b"b = 1",
                     b'printf("%d\\n", a > 14)', b"0"]
    text, _ = snippet_program("pow3_snippet.c")
    unit = tokenize(text, Language.C_LIKE)
    assert [unit.text[a:b] for a, b in cschema.full_expressions(unit)][4:8] == [
        b"N = n ? arr[0] : 0", b"i <= N", b"i+=3", b"i > 0 && 1162261467 % i"]


def test_schema_keeps_every_line_number():
    unit = tokenize(b"int main(void) {\n    int a = 1;\n    a = a\n      + 2 /* c */\n"
                    b"      * 3;\n    return __LINE__ + a;\n}\n", Language.C_LIKE)
    mutants = apply_all([AOR], unit)
    (text, members), = cschema.schemas(unit, [(m.start, m.replacement) for m in mutants])
    body = text[len(cschema._PRELUDE):]
    assert body.count(b"\n") == unit.text.count(b"\n")
    assert body.splitlines()[-2:] == unit.text.splitlines()[-2:]
    # the return holds __LINE__, so it is left out
    assert [mutants[i].line for i in members] == [4] * 4 + [5] * 4


def test_schema_leaves_out_a_mutant_that_merges_with_a_neighbour():
    unit = tokenize(b"int main(void) { int a = 2; a = a+-1; return a+*&a; }\n",
                    Language.C_LIKE)
    mutants = apply_all([AOR], unit)
    (_, members), = cschema.schemas(unit, [(m.start, m.replacement) for m in mutants])
    # ``a--1`` lexes ``--``, and ``a/*&a`` opens a comment
    assert [(mutants[i].line, mutants[i].col, mutants[i].replacement) for i in members] == [
        (1, 34, "*"), (1, 34, "/"), (1, 34, "%"),
        (1, 47, "-"), (1, 47, "*"), (1, 47, "%")]


def test_schema_leaves_out_a_source_that_names_its_switch():
    unit = tokenize(b"int main(void) { int __mutopt_k = 1; return __mutopt_k - 1; }\n",
                    Language.C_LIKE)
    assert cschema.schemas(unit, [(m.start, m.replacement)
                                  for m in apply_all([AOR], unit)]) == []


# ---- the schema path gives the per-mutant path's verdicts ----

DIFFERENTIAL = {
    "b2tob10": lambda: ((FIXTURES / "b2tob10.c").read_bytes(),
                        load_inputs(FIXTURES / "m_scaled"), None),
    "folded": lambda: (FOLDED_C, input_set([3], [5]), None),
    # ``arr.length()`` is a method call in C++ and Java; here it is ``n``
    "max_snippet": lambda: (
        *snippet_program("max_snippet.c", ("arr.length()", "n"))[:1],
        input_set([3, 4, -2, 9], [1, -5], [0], [4, 2, 2, 7, 7]),
        snippet_program("max_snippet.c", ("arr.length()", "n"))[1]),
    # its empty if-body counts, so the loop's work shows
    "pow3_snippet": lambda: (
        *snippet_program("pow3_snippet.c", ("      //If-body\n      ;", "count++;"))[:1],
        input_set([1, 10], [1, 30], [0], [1, 100]),
        snippet_program("pow3_snippet.c", ("      //If-body\n      ;", "count++;"))[1]),
}


@external
@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_schema_path_matches_per_mutant_path(name, tmp_path, monkeypatch):
    text, inputs, lines = DIFFERENTIAL[name]()
    schema = search(tmp_path / "schema", text, inputs, line_range=lines)
    alone(monkeypatch)
    per_mutant = search(tmp_path / "alone", text, inputs, line_range=lines)
    assert verdicts(schema) == verdicts(per_mutant)
    assert schema.host["decided"]["schema"] > 0
    assert per_mutant.host["decided"]["schema"] == 0
    if name == "b2tob10":
        # ASR_14, the loop-tail ``i += 2`` -> ``i *= 2``, survives; the
        # include line's mutants compile alone, and 9 fail
        assert {v.mutant_id: v.status for v in schema.verdicts}["ASR_14"] in EQUIVALENT
        assert sum(v.status == "compile_error" for v in schema.verdicts) == 9


@external
def test_schema_that_does_not_compile_decides_nothing(tmp_path, monkeypatch):
    failing = ("sh -c 'case \"$0\" in */schema/*) exit 1;; esac; "
               "exec cc -O2 \"$0\" -o \"$1\"' {src} {out}")
    inputs = input_set([3], [5])
    report = search(tmp_path / "failing", FOLDED_C, inputs, compile_cmd=failing)
    assert (tmp_path / "failing" / "schema" / "00.unit.c").is_file()
    assert report.host["decided"]["schema"] == 0
    alone(monkeypatch)
    assert verdicts(report) == verdicts(search(tmp_path / "alone", FOLDED_C, inputs))


# ``x % n`` on a double does not compile, in a schema or alone; every other
# mutant of lines 7 and 8 prints another line than the original on 3
DOUBLE_C = b"""int scanf(const char *, ...);
int printf(const char *, ...);
int main(void) {
    int n = 0;
    double x = 2.5;
    scanf("%d", &n);
    x = x * n;
    n = n + 7;
    printf("%d %d\\n", (int) (x * 4), n);
    return 0;
}
"""


@external
def test_a_schema_that_does_not_compile_is_split_down_to_its_bad_arm(tmp_path):
    report = search(tmp_path, DOUBLE_C, input_set([3], [5]), line_range=(7, 8))
    bad, = (v for v in report.verdicts if v.status == "compile_error")
    assert (bad.line, bad.original, bad.replacement) == (7, "*", "%")
    others = [v for v in report.verdicts if v is not bad]
    assert len(others) == 7
    assert all(v.status == "killed" and v.decided == ("schema",) for v in others)
    # one schema of all 8, halves of 4, 2 and 1 down to the ``%`` arm
    assert len(list((tmp_path / "schema").glob("*.unit.c"))) == 7


# On 7, line 7's ``a + 3`` and line 8's ``a * 2`` pick what the program
# does; each AOR mutant of them is hostile in its own way
HOSTILE_C = b"""#include <signal.h>
#include <stdio.h>
#include <unistd.h>
int main(void) {
    int a = 0, b = 0, x, y, k;
    if (scanf("%d", &a) != 1) return 1;
    x = a + 3;
    y = a * 2;
    static char big[1 << 16];
    switch (x) {
    case 4: for (;;) {}
    case 21: close(1); for (;;) {}
    case 2: for (k = 0; k < 32; k++) fwrite(big, 1, sizeof big, stdout); break;
    case 1:
        if (fork() == 0) {
            sleep(1);
            fopen("MARKER", "w");
            return 0;
        }
        for (;;) {}
    }
    switch (y) {
    case 9: raise(SIGKILL); break;
    case 5: while (getchar() != EOF) b++; break;
    case 3: return 3;
    case 1: raise(SIGTERM); break;
    }
    printf("%d %d\\n", a, b);
    return 0;
}
"""

# by line and replacement: the status class and the decided kind of each
# run, on 7.  ``-``, ``*`` and ``%`` on line 7 hang, close stdout and spin,
# or fork a child that would write the marker a second later and spin;
# ``/`` writes 2 MiB, past the fork server's output limit, and exits.  The
# server stops each, which runs alone.  On line 8, ``+`` dies of SIGKILL,
# the server's own signal, so it runs alone too; ``-`` reads past the
# input and prints how far, ``/`` exits 3 and ``%`` dies of SIGTERM, which
# the server decides.
HOSTILE = {(7, "-"): ("timeout", (None,)), (7, "*"): ("timeout", (None,)),
           (7, "/"): ("killed", (None,)), (7, "%"): ("timeout", (None,)),
           (8, "+"): ("crash", (None,)), (8, "-"): ("killed", ("schema",)),
           (8, "/"): ("crash", ("schema",)), (8, "%"): ("crash", ("schema",))}


def running_under(path) -> list[int]:
    """The running processes whose program file lies under ``path``, from
    Linux's /proc (none without it): an arm is a fork of its schema binary,
    and each of its children a fork of the arm."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            if os.readlink(entry / "exe").startswith(str(path)):
                found.append(int(entry.name))
        except OSError:  # gone, a zombie, or another user's
            pass
    return found


@external
def test_hanging_schema_mutant_leaves_no_process_and_runs_alone(tmp_path, monkeypatch):
    marker = tmp_path / "marker"
    text = HOSTILE_C.replace(b"MARKER", str(marker).encode())
    inputs = input_set([7])
    report = search(tmp_path / "schema", text, inputs, compile_cmd="cc -O0 {src} -o {out}",
                    line_range=(7, 8))
    assert running_under(tmp_path) == []
    time.sleep(1.5)
    assert not marker.exists()
    assert {(v.line, v.replacement): (v.status, v.decided) for v in report.verdicts} == HOSTILE
    assert report.host["decided"]["schema"] == 3
    alone(monkeypatch)
    assert verdicts(report) == verdicts(search(tmp_path / "alone", text, inputs,
                                               compile_cmd="cc -O0 {src} -o {out}",
                                               line_range=(7, 8)))


@external
@pytest.mark.parametrize("wrapper", ['"$0"; echo x', '"$0" > /dev/null'],
                         ids=["line_after", "swallowed"])
def test_unparseable_frames_decide_nothing(wrapper, tmp_path, monkeypatch):
    # a run command that appends a line to the program's output, or drops
    # it, breaks every fork server's frames, so no schema decides anything
    run_cmd = f"sh -c '{wrapper}' {{bin}}"
    inputs = input_set([3], [5])
    report = search(tmp_path / "schema", FOLDED_C, inputs, run_cmd=run_cmd)
    assert (tmp_path / "schema" / "schema" / "00.unit.c.bin").is_file()
    assert report.host["decided"]["schema"] == 0
    alone(monkeypatch)
    assert verdicts(report) == verdicts(search(tmp_path / "alone", FOLDED_C, inputs,
                                               run_cmd=run_cmd))


# Lines 5 and 6 set the loop's work: their ``>``, ``>=`` and ``!=`` give it
# 20 times the original's.  The sum is printed divided by line 5's share,
# so line 5's slow mutants print the right answer and line 6's a wrong
# one.  On 1500000 the original runs for a few milliseconds.
CAPPED_C = b"""#include <stdio.h>
int main(void) {
    long n = 0, s = 0, k, w, v;
    if (scanf("%ld", &n) != 1) return 1;
    w = n < 0;
    v = n < 0;
    for (k = 0; k < (1 + 19 * (w | v)) * n; k++) s += 1;
    printf("%ld\\n", s / (1 + 19 * w));
    return 0;
}
"""


@external
def test_the_cap_never_changes_a_verdict(tmp_path, monkeypatch):
    inputs, lines, compile_cmd = input_set([1500000]), (5, 6), "cc -O0 {src} -o {out}"
    # the fork server stops the slow arms at their cap, never arm 0
    backend = ExternalBackend(ExecBackendConfig(kind="external", compile_cmd=compile_cmd,
                                                run_cmd="{bin}"), tmp_path / "direct")
    unit = tokenize(CAPPED_C, Language.C_LIKE)
    mutants = apply_all([ROR], unit, lines)
    (text, members), = cschema.schemas(unit, [(m.start, m.replacement) for m in mutants])
    binary = tmp_path / "direct" / "capped.c.bin"
    binary.with_suffix("").write_bytes(text)
    backend._cc(binary.with_suffix(""), binary)
    slow = {n: (mutants[i].line, mutants[i].replacement) for n, i in enumerate(members, 1)
            if mutants[i].replacement in (">", ">=", "!=")}
    output, results = backend._serve(binary, [1500000], 1.0, list(slow))
    assert output == b"1500000"
    assert results == dict.fromkeys(slow)
    # so each runs alone, with the verdict it gets without schemas: line
    # 5's equivalent, line 6's killed; a budget of 100 times the original's
    # keeps them clear of a timeout
    report = search(tmp_path / "schema", CAPPED_C, inputs, compile_cmd=compile_cmd,
                    line_range=lines, timeout_factor=100.0)
    alone(monkeypatch)
    per_mutant = search(tmp_path / "alone", CAPPED_C, inputs, compile_cmd=compile_cmd,
                        line_range=lines, timeout_factor=100.0)
    assert verdicts(report) == verdicts(per_mutant)
    by_key = {(v.line, v.replacement): v for v in report.verdicts}
    for line, op in slow.values():
        v = by_key[line, op]
        assert (v.status in EQUIVALENT, v.status == "killed") == (line == 5, line == 6)
        assert "schema" not in v.decided


# a program with its own functions named like libc's, which the prelude
# calls under other names
OWN_LIBC_C = b"""int printf(const char *, ...);
static int read(int a[1]) { return a[0]; }
static void write(int v) { printf("%d\\n", v); }
static int fork(int a) { return a + 1; }
static int pipe(int a) { return a * 2; }
static int poll(int a) { return a - 1; }
static int kill(int a) { return a % 5; }
static int close(int a) { return 0 - a; }
int main(void) {
    int a = 3;
    write(read(&a) + fork(a) + pipe(a) + poll(a) + kill(a) + close(a));
    return 0;
}
"""


@external
@pytest.mark.parametrize("level", ["-O0", "-O2"])
def test_prelude_names_nothing_a_program_may(level, tmp_path, monkeypatch):
    def cc(text: bytes, *flags: str) -> subprocess.CompletedProcess:
        src = tmp_path / "unit.c"
        src.write_bytes(text)
        return subprocess.run(["cc", level, *flags, str(src), "-o", str(tmp_path / "unit")],
                              capture_output=True, timeout=120)

    # the prelude is clean C99
    main = b"int main(void) { return 0; }\n"
    assert cc(cschema._PRELUDE + main, "-std=c99", "-Wall", "-Wextra", "-Werror").stderr == b""
    # a schema of a program that defines its own read, write, fork, pipe,
    # poll, kill and close compiles; but its fork server would call them
    # there, so no such program gets a schema
    unit = tokenize(OWN_LIBC_C, Language.C_LIKE)
    edits = [(m.start, m.replacement) for m in apply_all(OPERATORS, unit)]
    assert cschema.schemas(unit, edits) == []
    monkeypatch.setattr(cschema, "_SERVER_CALLS", frozenset())
    text, members = cschema.schemas(unit, edits)[0]
    assert members and cc(text).returncode == 0


# ---- the baseline is decide's run of the original ----

CRASHES_ON_ZERO_C = b"""int scanf(const char *, ...);
int printf(const char *, ...);
int main(void) {
    int a = 0;
    scanf("%d", &a);
    if (a == 0) return 3;
    printf("%d\\n", a + 1);
    return 0;
}
"""


@external
def test_a_crashing_original_is_an_invalid_baseline_and_compiles_no_schema(tmp_path):
    inputs = InputSet((InputEntry("good", (3,)), InputEntry("zero", (0,))))
    with pytest.raises(InvalidBaseline, match="'crash' on input 'zero'"):
        search(tmp_path, CRASHES_ON_ZERO_C, inputs)
    assert not (tmp_path / "schema").exists()


@external
def test_decide_returns_the_baseline_that_overall_time_gives(tmp_path):
    def backend(name):
        config = ExecBackendConfig(kind="external", compile_cmd="cc -O0 {src} -o {out}",
                                   run_cmd=logging_run_cmd(tmp_path / f"{name}.log"),
                                   repetitions=2, warmups=1)
        return ExternalBackend(config, tmp_path / name)

    unit = tokenize(FOLDED_C, Language.C_LIKE)
    inputs = [(3,), (5,), (9,)]
    searched = backend("search")
    searched.compile(unit, name="folded.c")
    baseline = searched.decide([(m.start, m.replacement) for m in apply_all([ROR], unit)],
                               inputs)
    plain = backend("plain")
    expected = overall_time(plain, plain.compile(unit, name="folded.c"), inputs)
    # the same runs of the original: a check, a warmup and two timed runs per input
    original = "0001.folded.c.bin"
    assert (spawns(tmp_path / "search.log")[original] == spawns(tmp_path / "plain.log")[original]
            == len(inputs) * 4)
    assert (baseline.verdict, baseline.failing_index) == (expected.verdict,
                                                          expected.failing_index)
    assert len(baseline.results) == len(expected.results) == len(inputs)
    assert [r.output for r in baseline.results] == [r.output for r in expected.results]
    assert [r.decided for r in baseline.results] == [None] * len(inputs)
    # a schema was checked against it
    assert (tmp_path / "search" / "schema").is_dir()


# ---- no state shared with trivial compiler equivalence ----

@external
def test_schema_runs_and_identical_binaries_never_answer_each_other(tmp_path):
    config = ExecBackendConfig(kind="external", compile_cmd="cc -O0 {src} -o {out}",
                               run_cmd="{bin}", repetitions=1, warmups=0)
    backend = ExternalBackend(config, tmp_path)
    unit = tokenize(FOLDED_C, Language.C_LIKE)
    inputs = [(3,), (5,)]
    backend.compile(unit, name="folded.c")
    mutants = apply_all([ROR], unit)
    baseline = backend.decide([(m.start, m.replacement) for m in mutants], inputs)
    # schema binaries are never digested, so no identity record is theirs
    assert all(path.parent == tmp_path for path in backend._digests)
    results = {}
    for m in mutants:
        program = compile_mutant(backend, m, name=m.filename("folded.c"))
        results[m.line, m.replacement] = program, check(backend, program, inputs, baseline)
    kinds = {key: {r.decided for r in run.results} for key, (_, run) in results.items()}
    # line 6's ``<``, ``<=`` and ``==`` build one binary, killed on input 5:
    # the schema answers all three, and none of them is built or digested
    for op in ("<", "<=", "=="):
        program, run = results[6, op]
        assert (run.verdict, kinds[6, op]) == ("killed", {"schema"})
        assert not program.exists() and program not in backend._digests
    # line 7's ``<=`` and ``==`` survive the schema, build ``<``'s binary
    # and are answered from its runs, not the schema's
    for op in ("<=", "=="):
        assert (results[7, op][1].verdict, kinds[7, op]) == ("ok", {"identical"})
    assert all(kinds[key] in ({"schema"}, {None}, {"identical"}, {None, "identical"})
               for key in kinds)
    # a run the schema did not make builds the mutant alone first
    program, _ = results[6, "<"]
    assert backend.run(program, (7,), 60.0).decided is None
    assert program.exists() and program in backend._digests


@external
def test_a_mutant_compiled_without_its_edit_is_never_answered_by_its_schema(tmp_path):
    config = ExecBackendConfig(kind="external", compile_cmd="cc -O0 {src} -o {out}",
                               run_cmd="{bin}", repetitions=1, warmups=0)
    backend = ExternalBackend(config, tmp_path)
    unit = tokenize(FOLDED_C, Language.C_LIKE)
    inputs = [(3,), (5,)]
    backend.compile(unit, name="folded.c")
    mutants = apply_all([ROR], unit)
    baseline = backend.decide([(m.start, m.replacement) for m in mutants], inputs)
    # line 6's ``<``, which the schema kills on input 5
    killed, = [m for m in mutants if (m.line, m.replacement) == (6, "<")]
    alone = backend.compile(killed.mutated_text, name="alone.c")
    assert alone.exists()
    run = check(backend, alone, inputs, baseline)
    assert run.verdict == "killed" and "schema" not in {r.decided for r in run.results}
    recorded = compile_mutant(backend, killed, name="recorded.c")
    assert not recorded.exists()
    assert {r.decided for r in check(backend, recorded, inputs, baseline).results} == {"schema"}
