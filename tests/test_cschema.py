"""C mutant schemata on the external backend: which sites a schema switches,
and that checking mutants in schema binaries gives the verdicts each
mutant gets compiled alone."""

import shutil
import time

import pytest

from mutopt import ROR, ASR, AOR, ExecBackendConfig, Language, apply_all, tokenize
from mutopt import cschema
from mutopt.backend import ExternalBackend, check, overall_time
from mutopt.cli import load_inputs
from mutopt.optimizer import InputEntry, InputSet, OptimizeConfig, optimize

from conftest import FIXTURES, FOLDED_C

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
           compile_cmd: str = "cc -O2 {src} -o {out}", line_range=None):
    config = OptimizeConfig(
        backend=ExecBackendConfig(kind="external", compile_cmd=compile_cmd, run_cmd="{bin}",
                                  repetitions=1, warmups=0),
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


HANGING_C = b"""#include <stdio.h>
#include <unistd.h>
int main(void) {
    int a = 0;
    if (scanf("%d", &a) != 1) return 1;
    if (a > 100) {
        if (fork() == 0) {
            sleep(1);
            fopen("MARKER", "w");
            return 0;
        }
        for (;;) {}
    }
    printf("%d\\n", a);
    return 0;
}
"""


@external
def test_hanging_schema_mutant_leaves_no_process_and_runs_alone(tmp_path, monkeypatch):
    # ``a < 100``, ``a <= 100`` and ``a != 100`` fork a child that would
    # write the marker a second later, then spin; the schema's run of each
    # times out and its process group is killed, and it runs alone
    marker = tmp_path / "marker"
    text = HANGING_C.replace(b"MARKER", str(marker).encode())
    inputs = input_set([5])
    report = search(tmp_path / "schema", text, inputs, compile_cmd="cc -O0 {src} -o {out}",
                    line_range=(6, 6))
    time.sleep(1.5)
    assert not marker.exists()
    hanging = [v for v in report.verdicts if v.status == "timeout"]
    assert [v.replacement for v in hanging] == ["<", "<=", "!="]
    assert all(v.decided == (None,) for v in hanging)
    alone(monkeypatch)
    assert verdicts(report) == verdicts(search(tmp_path / "alone", text, inputs,
                                               compile_cmd="cc -O0 {src} -o {out}",
                                               line_range=(6, 6)))


# ---- no state shared with trivial compiler equivalence ----

@external
def test_schema_runs_and_identical_binaries_never_answer_each_other(tmp_path):
    config = ExecBackendConfig(kind="external", compile_cmd="cc -O0 {src} -o {out}",
                               run_cmd="{bin}", repetitions=1, warmups=0)
    backend = ExternalBackend(config, tmp_path)
    unit = tokenize(FOLDED_C, Language.C_LIKE)
    inputs = [(3,), (5,)]
    baseline = overall_time(backend, backend.compile(unit, name="folded.c"), inputs)
    mutants = apply_all([ROR], unit)
    backend.decide([(m.start, m.replacement) for m in mutants], inputs, baseline)
    # schema binaries are never digested, so no identity record is theirs
    assert all(path.parent == tmp_path for path in backend._digests)
    results = {}
    for m in mutants:
        program = backend.compile(m.mutated_text, name=m.filename("folded.c"))
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
