"""MiniImp parser and interpreter tests.

The binary-conversion fixture's step counts are checked against an
independent closed-form summation over the walk, and its outputs against
plain positional-weight conversion.
"""

import random

import pytest

from mutopt import (
    BudgetExceeded,
    CompileError,
    Language,
    MiniRuntimeError,
    eval_mini,
    parse_mini,
    tokenize,
)
from mutopt.backend import ExecBackendConfig, MiniBackend
from mutopt.minilang.ast_nodes import BinOp, If, Var, While
from mutopt.minilang.interp import generate_source
from mutopt.minilang.parser import MAX_DEPTH

from conftest import RUN_SLOW, FULL_BITS_30, SCALED_BITS_20, encode_bits, load_unit


def parse_text(text: str):
    return parse_mini(tokenize(text.encode(), Language.MINI))


def run_text(text: str, inputs=(), budget=10**9):
    return eval_mini(parse_text(text), inputs, budget)


def statement_count(stmts) -> int:
    """Statements in ``stmts``, counting those nested in if and while bodies."""
    total = 0
    for s in stmts:
        total += 1
        if isinstance(s, If):
            total += statement_count(s.then_body) + statement_count(s.else_body)
        elif isinstance(s, While):
            total += statement_count(s.body)
    return total


# ---- parsing ----

def test_minimal_program_parses():
    prog = parse_text("x = 2; print(x + 3);")
    assert len(prog.body) == 2


def test_missing_expression_is_compile_error():
    with pytest.raises(CompileError) as err:
        parse_text("x = ;")
    assert err.value.line == 1


@pytest.mark.parametrize("bad", [
    "x = 1",            # missing semicolon
    "if (x) print(x);", # missing block braces
    "continue;",        # outside loop
    "break;",
    "in = 5;",          # read-only input array
    "in_len = 1;",
    "print(While);x=",  # truncated
    "x = 9223372036854775808;",  # literal out of range
    "x = 0x1F;",        # mini literals are decimal
    'x = "s";',
    "while (1) { }",    # missing ; after? no: missing nothing -- valid; see below
])
def test_parse_errors(bad):
    if bad == "while (1) { }":
        parse_text(bad)  # empty loop body is fine
        return
    with pytest.raises(CompileError):
        parse_text(bad)


def test_b2tob10_fixture_parses_with_audited_statement_count():
    prog = parse_mini(load_unit("b2tob10.mini"))
    # one-off manual audit of the fixture: 20 statements
    assert statement_count(prog.body) == 20


def test_else_if_chain():
    prog = parse_text("""
        x = in[0];
        if (x < 0) { print(0); }
        else if (x == 0) { print(1); }
        else { print(2); }
    """)
    assert len(prog.body) == 2


# ---- nesting depth ----

def parens(n):
    return "x = " + "(" * n + "1" + ")" * n + "; print(x);"


def chain(n):  # left-deep: n operators, one level each
    return "x = 1" + " + 1" * n + "; print(x);"


def unary(n):
    return "x = " + "- " * n + "1; print(x);"


def reads(n):
    return "x = " + "in[" * n + "0" + "]" * n + "; print(x);"


def ifs(n):
    return "if (1) { " * n + "print(1);" + " }" * n


def else_ifs(n):  # the innermost block is n + 1 levels down
    return ("x = in[0]; if (x == 0) { print(0); }"
            + "".join(f" else if (x == {k}) {{ print({k}); }}" for k in range(1, n + 1)))


def whiles(n):
    return ("".join(f"i{k} = 0; while (i{k} < 1) {{ i{k} += 1; " for k in range(n))
            + "print(1);" + " }" * n)


@pytest.mark.parametrize("text", [
    parens(400), chain(2000), ifs(400), ifs(99),
    # parses, but CPython allows only 20 statically nested loops
    whiles(21),
], ids=["parens-400", "chain-2000", "ifs-400", "ifs-99", "whiles-21"])
def test_deep_nesting_is_compile_error(text):
    with pytest.raises(CompileError):
        MiniBackend(ExecBackendConfig()).compile(text.encode())


@pytest.mark.parametrize("program, expected", [
    (parens, b"1"), (chain, f"{MAX_DEPTH + 1}".encode()), (unary, b"1"),
    (reads, b"0"), (ifs, b"1"), (lambda n: else_ifs(n - 1), b"0"),
], ids=["parens", "chain", "unary", "reads", "ifs", "else-ifs"])
def test_nesting_limit_is_exact(program, expected):
    backend = MiniBackend(ExecBackendConfig())
    compiled = backend.compile(program(MAX_DEPTH).encode())
    assert backend.run(compiled, [0], 10**6).output == expected
    with pytest.raises(CompileError, match=f"nesting deeper than {MAX_DEPTH} levels"):
        backend.compile(program(MAX_DEPTH + 1).encode())


def test_nesting_counts_left_chains_inside_groups():
    # each group adds a parenthesis and two operators above the one inside,
    # so the tree is 3 levels taller per group though no run of open
    # parentheses or operators is long
    def groups(n):
        expr = "x"
        for _ in range(n):
            expr = f"({expr} + 1 + 1)"
        return f"x = {expr}; print(x);"
    parse_text(groups(MAX_DEPTH // 3))
    with pytest.raises(CompileError):
        parse_text(groups(MAX_DEPTH // 3 + 1))


def test_twenty_nested_loops_still_run():
    assert run_text(whiles(20)).output == b"1"


# ---- evaluation: outputs ----

def test_print_and_step_count_for_minimal_program():
    result = run_text("x = 2; print(x + 3);")
    assert result.output == b"5"
    assert result.steps == 3  # 2 statements + 1 binary operator


def test_unassigned_variables_read_as_zero():
    assert run_text("print(y);").output == b"0"


def test_in_len_and_array_reads():
    result = run_text("print(in_len); print(in[1]);", inputs=[7, 8, 9])
    assert result.output == b"3\n8"


def test_budget_exceeded_on_infinite_loop():
    with pytest.raises(BudgetExceeded):
        run_text("i = 1; while (i > 0) { i /= 1; }", budget=10**6)


def test_division_by_zero_is_runtime_error():
    with pytest.raises(MiniRuntimeError):
        run_text("x = 1 / 0;")
    with pytest.raises(MiniRuntimeError):
        run_text("x = in[0]; y = 5 % x;", inputs=[0])


def test_out_of_bounds_reads_are_runtime_errors():
    with pytest.raises(MiniRuntimeError):
        run_text("print(in[2]);", inputs=[1, 2])
    with pytest.raises(MiniRuntimeError):
        run_text("print(in[0 - 1]);", inputs=[1])


# ---- evaluation: arithmetic semantics ----

@pytest.mark.parametrize("text,expected", [
    ("x = 4611686018427387904; x *= 4; print(x);", "0"),          # 2^62 * 4 wraps
    ("x = 4611686018427387904; x += x; print(x);", "-9223372036854775808"),
    ("print(1 << 63);", "-9223372036854775808"),
    ("print(1 << 64);", "1"),                                      # count masked to 0
    ("print(0 - 8 >> 1);", "-4"),                                  # arithmetic shift
    ("x = 0 - 7; print(x / 3);", "-2"),                            # truncate toward zero
    ("x = 0 - 7; print(x % 3);", "-1"),                            # sign of dividend
    ("print(7 / 0 - 3);", None),                                   # placeholder, below
])
def test_int64_semantics(text, expected):
    if expected is None:
        with pytest.raises(MiniRuntimeError):
            run_text(text)
        return
    assert run_text(text).output.decode() == expected


def test_min_divided_by_minus_one_wraps():
    text = ("x = 0 - 9223372036854775807; x -= 1; "
            "y = 0 - 1; print(x / y);")
    assert run_text(text).output == b"-9223372036854775808"


def test_precedence_matches_c():
    # shift binds tighter than relational, looser than additive
    assert run_text("print(2 <= 1 << 3 - 1);").output == b"1"
    assert run_text("print(1 + 2 * 3);").output == b"7"
    assert run_text("print(7 & 3 == 3);").output == b"1"  # == before &


# C's binary operators, loosest tier first
_C_TIERS = (("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
            ("<", "<=", ">", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"))


@pytest.mark.parametrize("first", [op for tier in _C_TIERS for op in tier])
def test_every_operator_pair_groups_like_c(first):
    tier = {op: level for level, ops in enumerate(_C_TIERS) for op in ops}
    a, b, c = Var("a"), Var("b"), Var("c")
    for second in tier:
        expr = parse_text(f"x = a {first} b {second} c;").body[0].value
        if tier[first] >= tier[second]:  # same tier groups to the left
            expected = BinOp(second, BinOp(first, a, b, 1), c, 1)
        else:
            expected = BinOp(first, a, BinOp(second, b, c, 1), 1)
        assert expr == expected, f"a {first} b {second} c"


def test_logical_operators_are_eager():
    assert run_text("print(2 && 3); print(0 || 5);").output == b"1\n1"
    # both operands evaluate: the guard does not protect the division
    with pytest.raises(MiniRuntimeError):
        run_text("x = 0; print(x != 0 && 1 / x);")


def test_relational_results_are_0_or_1():
    assert run_text("print(3 > 2); print(2 > 3);").output == b"1\n0"


# ---- determinism and cost model ----

def test_determinism_output_and_steps():
    unit = load_unit("b2tob10.mini")
    prog = parse_mini(unit)
    a = eval_mini(prog, encode_bits("10110"), 10**9)
    b = eval_mini(prog, encode_bits("10110"), 10**9)
    assert a.output == b.output and a.steps == b.steps


def test_step_monotonicity_in_loop_iterations():
    text = "i = 0; while (i < in[0]) { i += 1; } print(i);"
    prog = parse_text(text)
    steps = [eval_mini(prog, [n], 10**9).steps for n in range(1, 6)]
    assert steps == sorted(set(steps))  # strictly increasing


def _b2tob10_expected_steps(bits: str) -> int:
    """Independent cost oracle: closed-form summation over the even walk.

    Per-statement costs follow the documented model (statement + operator
    evaluations + array reads); iteration costs were derived by hand from
    the fixture text.
    """
    size = len(bits)
    if size == 0:
        return 2 + 2 + 1  # size=, if, print(0)
    total = 10  # size=, if, pos=, i=, number=, number+=in[size]
    bound = 1 << (size - 1)
    i = 2
    while i <= bound:
        p = bin(i).count("1")
        total += 26 if p == 1 else 13 + 7 * p
        i += 2
    return total + 4 + 1  # final loop test, print


@pytest.mark.parametrize("bits", ["0", "1", "101", "111001", SCALED_BITS_20[:12]])
def test_b2tob10_step_oracle_small(bits):
    prog = parse_mini(load_unit("b2tob10.mini"))
    result = eval_mini(prog, encode_bits(bits), 10**12)
    assert result.steps == _b2tob10_expected_steps(bits)
    assert result.output.decode() == str(int(bits, 2))


def test_b2tob10_step_oracle_scaled_20bit():
    prog = parse_mini(load_unit("b2tob10.mini"))
    result = eval_mini(prog, encode_bits(SCALED_BITS_20), 10**12)
    assert result.steps == _b2tob10_expected_steps(SCALED_BITS_20) == 19923080
    assert result.output == b"1048566"


def test_b2tob10_hot_loop_is_lean():
    # the innermost loop runs ~20 M steps on i20: its condition is tested in
    # place, its tail is paid at the head, and `count += 1` checks one bound
    source = generate_source(parse_mini(load_unit("b2tob10.mini")))
    lines = source.splitlines()
    head = max(i for i, line in enumerate(lines) if line.strip() == "while True:")
    depth = len(lines[head]) - len(lines[head].lstrip())
    block = []
    for line in lines[head + 1:]:
        if len(line) - len(line.lstrip()) <= depth:
            break
        block.append(line.strip())
    assert sum(line.startswith("_s +=") for line in block) == 1
    assert not any("= 1 if" in line for line in block)
    assert [line for line in block if line.startswith("if v_count ")] == [
        "if v_count > 9223372036854775807: v_count = _wrap(v_count)"]


# ---- fixture behavior pinned by the experiment record ----

def test_b2tob10_trivial_inputs():
    prog = parse_mini(load_unit("b2tob10.mini"))
    assert eval_mini(prog, encode_bits("0"), 10**6).output == b"0"
    assert eval_mini(prog, encode_bits("1"), 10**6).output == b"1"


@pytest.mark.slow
@pytest.mark.skipif(not RUN_SLOW, reason="walks 2^28 candidates; set MUTOPT_RUN_SLOW=1")
def test_b2tob10_full_30bit_input():
    prog = parse_mini(load_unit("b2tob10.mini"))
    result = eval_mini(prog, encode_bits(FULL_BITS_30), 10**13)
    assert result.output == b"1073741814"


def test_b2tob10_differential_against_positional_weights():
    # 1,000 random binary strings of length <= 20; lengths are skewed short
    # to keep the suite quick, with a tail of full-length samples
    rng = random.Random(20260810)
    lengths = ([rng.randint(1, 14) for _ in range(900)]
               + [rng.randint(15, 18) for _ in range(95)]
               + [rng.randint(19, 20) for _ in range(5)])
    prog = parse_mini(load_unit("b2tob10.mini"))
    for n in lengths:
        bits = "".join(rng.choice("01") for _ in range(n))
        result = eval_mini(prog, encode_bits(bits), 10**10)
        assert int(result.output) == int(bits, 2), bits


def test_max_search_fixture():
    prog = parse_mini(load_unit("max_search.mini"))
    assert eval_mini(prog, [3, 7, 7, 2], 10**6).output == b"7"
    assert eval_mini(prog, [5], 10**6).output == b"5"
    assert eval_mini(prog, [-3, -9], 10**6).output == b"-3"


def test_hostile_fixture_counts_down():
    prog = parse_mini(load_unit("hostile.mini"))
    assert eval_mini(prog, [5], 10**6).output == b"15"
