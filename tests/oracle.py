"""Reference implementations that tests compare ``mutopt`` against.

``literal_verdicts`` is the algorithm-literal reference for the optimizer's
selection loop.  ``optimize`` runs the original once per input and compares
every mutant against those memoized outputs.  This oracle follows the paper's
procedure word for word instead: for every comparison it re-runs the current
best program, and it adopts an equivalent mutant as the new best under
``improvement_test``.  Its verdicts must equal ``optimize``'s.

``reference_tokenize`` is an independent byte-at-a-time lexer, with a second
pass that decides binary position per arithmetic operator; ``tokenize`` does
both in one regex scan.  Token streams and ``MalformedSource`` errors of the
two must agree on every valid UTF-8 source.

``reference_eval`` walks a MiniImp AST directly under the README's cost
model and int64 semantics; ``eval_mini`` runs the Python function that
codegen emits.  Outcome class, message, output and steps must agree.
"""

from typing import Sequence

from mutopt import CompileError, Cost, OptimizeConfig, apply_all, improvement_test, make_backend
from mutopt.minilang import ast_nodes as ast
from mutopt.minilang.interp import BudgetExceeded, MiniRunResult, MiniRuntimeError
from mutopt.tokens import (
    _KIND_BY_LEXEME,
    _OPERATOR_TABLE,
    ARITHMETIC_LEXEMES,
    Language,
    MalformedSource,
    SourceUnit,
    Token,
    TokenKind,
)


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


_CLOSING_BRACKETS = (")", "]")


def _is_ident_start(b: int) -> bool:
    return b == 0x5F or 0x41 <= b <= 0x5A or 0x61 <= b <= 0x7A or b >= 0x80


def _is_ident_part(b: int) -> bool:
    return _is_ident_start(b) or 0x30 <= b <= 0x39


def _is_digit(b: int) -> bool:
    return 0x30 <= b <= 0x39


class _Lexer:
    def __init__(self, data: bytes):
        self.data = data
        self.n = len(data)
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []

    def error(self, message: str, line: int, col: int):
        raise MalformedSource(message, line, col)

    def peek(self, offset: int = 0) -> int:
        p = self.pos + offset
        return self.data[p] if p < self.n else -1

    def advance(self, count: int = 1):
        for _ in range(count):
            if self.pos >= self.n:
                return
            if self.data[self.pos] == 0x0A:
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def emit(self, kind: TokenKind, start: int, line: int, col: int):
        lexeme = self.data[start:self.pos].decode("utf-8")
        self.tokens.append(Token(kind, lexeme, start, self.pos, line, col))

    def run(self) -> list[Token]:
        while self.pos < self.n:
            b = self.peek()
            if b in (0x20, 0x09, 0x0D, 0x0A, 0x0B, 0x0C):
                self.advance()
            elif b == 0x2F and self.peek(1) == 0x2F:
                self.line_comment()
            elif b == 0x2F and self.peek(1) == 0x2A:
                self.block_comment()
            elif b in (0x22, 0x27):  # " or '
                self.string_literal(b)
            elif _is_digit(b) or (b == 0x2E and _is_digit(self.peek(1))):
                self.number()
            elif _is_ident_start(b):
                self.identifier()
            else:
                self.operator()
        return self.tokens

    def line_comment(self):
        start, line, col = self.pos, self.line, self.col
        while self.pos < self.n and self.peek() != 0x0A:
            self.advance()
        self.emit(TokenKind.COMMENT, start, line, col)

    def block_comment(self):
        start, line, col = self.pos, self.line, self.col
        self.advance(2)
        while self.pos < self.n:
            if self.peek() == 0x2A and self.peek(1) == 0x2F:
                self.advance(2)
                self.emit(TokenKind.COMMENT, start, line, col)
                return
            self.advance()
        self.error("unterminated block comment", line, col)

    def string_literal(self, quote: int):
        start, line, col = self.pos, self.line, self.col
        self.advance()
        while self.pos < self.n:
            b = self.peek()
            if b == quote:
                self.advance()
                self.emit(TokenKind.STRING_LITERAL, start, line, col)
                return
            if b == 0x5C:  # backslash escape
                self.advance(2)
            elif b == 0x0A:
                break
            else:
                self.advance()
        self.error("unterminated string literal", line, col)

    def number(self):
        # C-style preprocessing number: digits, letters, dots, and exponent
        # signs; the parser decides validity.
        start, line, col = self.pos, self.line, self.col
        self.advance()
        while self.pos < self.n:
            b = self.peek()
            if _is_ident_part(b) or b == 0x2E:
                self.advance()
            elif b in (0x2B, 0x2D) and self.data[self.pos - 1] in (0x65, 0x45):
                self.advance()  # 1e+5 stays one literal
            else:
                break
        self.emit(TokenKind.LITERAL, start, line, col)

    def identifier(self):
        start, line, col = self.pos, self.line, self.col
        self.advance()
        while self.pos < self.n and _is_ident_part(self.peek()):
            self.advance()
        self.emit(TokenKind.IDENTIFIER, start, line, col)

    def operator(self):
        start, line, col = self.pos, self.line, self.col
        window = self.data[self.pos:self.pos + 3].decode("utf-8", errors="replace")
        for op in _OPERATOR_TABLE:
            if window.startswith(op):
                self.advance(len(op))
                kind = _KIND_BY_LEXEME.get(op, TokenKind.OTHER)
                self.emit(kind, start, line, col)
                return
        self.advance()
        self.emit(TokenKind.OTHER, start, line, col)


def classify_binary_context(tokens: Sequence[Token], index: int) -> bool:
    """True iff the candidate arithmetic lexeme at ``index`` sits in binary
    position: the previous non-comment token is an identifier, a literal, or
    a closing bracket.  Anything else is treated as unary and skipped."""
    if tokens[index].lexeme not in ARITHMETIC_LEXEMES:
        raise ValueError(f"token {index} is not an arithmetic candidate")
    for prev in reversed(tokens[:index]):
        if prev.kind is TokenKind.COMMENT:
            continue
        return (
            prev.kind in (TokenKind.IDENTIFIER, TokenKind.LITERAL)
            or prev.lexeme in _CLOSING_BRACKETS
        )
    return False


def reference_tokenize(text: bytes | str, language: Language = Language.C_LIKE) -> SourceUnit:
    """Lex ``text`` into a SourceUnit.

    Maximal munch: ``>=`` is one relational token, ``+=`` one shortcut
    assignment, ``++`` one increment token.  ``+ - * / %`` become ARITHMETIC
    only in binary position; unary occurrences stay OTHER.  Raises
    MalformedSource for unterminated strings or block comments.
    """
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    data.decode("utf-8")  # reject invalid UTF-8 up front
    raw = _Lexer(data).run()
    tokens = []
    for i, tok in enumerate(raw):
        if tok.kind is TokenKind.OTHER and tok.lexeme in ARITHMETIC_LEXEMES:
            if classify_binary_context(raw, i):
                tok = Token(TokenKind.ARITHMETIC, tok.lexeme, tok.start, tok.end,
                            tok.line, tok.col)
        tokens.append(tok)
    return SourceUnit(text=data, language=Language(language), tokens=tuple(tokens))


def _int64(v: int) -> int:
    v &= (1 << 64) - 1
    return v - (1 << 64) if v >= 1 << 63 else v


def _cost(node) -> int:
    """Operator evaluations and array reads in one evaluation of ``node``."""
    if isinstance(node, ast.BinOp):
        return 1 + _cost(node.left) + _cost(node.right)
    if isinstance(node, ast.UnaryOp):
        return 1 + _cost(node.operand)
    if isinstance(node, ast.ArrayRead):
        return 1 + _cost(node.index)
    return 0


def _quotient(a: int, b: int) -> int:
    q = abs(a) // abs(b)  # on magnitudes, so it truncates toward zero
    return _int64(q if (a < 0) == (b < 0) else -q)  # MIN / -1 wraps


def _remainder(a: int, b: int) -> int:
    r = abs(a) % abs(b)
    return -r if a < 0 else r


_BINARY = {
    "+": lambda a, b: _int64(a + b), "-": lambda a, b: _int64(a - b),
    "*": lambda a, b: _int64(a * b), "/": _quotient, "%": _remainder,
    "<<": lambda a, b: _int64(a * 2 ** (b % 64)),
    ">>": lambda a, b: a // 2 ** (b % 64),  # floor: an arithmetic shift
    "&": lambda a, b: a & b, "|": lambda a, b: a | b, "^": lambda a, b: a ^ b,
    "<": lambda a, b: int(a < b), "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b), ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "&&": lambda a, b: int(a != 0 and b != 0),
    "||": lambda a, b: int(a != 0 or b != 0),
}


def _apply(op: str, a: int, b: int, line: int) -> int:
    if b == 0 and op in ("/", "%"):
        raise MiniRuntimeError("division by zero", line)
    return _BINARY[op](a, b)


class _Walker:
    def __init__(self, input_values: Sequence[int], budget: int):
        self.input = [int(v) for v in input_values]
        self.budget = budget
        self.env: dict[str, int] = {}
        self.steps = 0
        self.out: list[int] = []

    def value(self, node) -> int:
        if isinstance(node, ast.IntLit):
            return node.value
        if isinstance(node, ast.Var):
            return self.env.get(node.name, 0)
        if isinstance(node, ast.InLen):
            return len(self.input)
        if isinstance(node, ast.ArrayRead):
            i = self.value(node.index)
            if not 0 <= i < len(self.input):
                raise MiniRuntimeError("array read out of bounds", node.line)
            return self.input[i]
        if isinstance(node, ast.UnaryOp):
            return _int64(-self.value(node.operand))
        a = self.value(node.left)  # both operands, left first: no short circuit
        b = self.value(node.right)
        return _apply(node.op, a, b, node.line)

    def block(self, stmts) -> str | None:
        """Run ``stmts``; return "break" or "continue" if one was executed."""
        for stmt in stmts:
            if isinstance(stmt, (ast.Break, ast.Continue)):
                self.steps += 1
                return "break" if isinstance(stmt, ast.Break) else "continue"
            if isinstance(stmt, ast.While):
                while True:
                    self.steps += 1 + _cost(stmt.cond)
                    if self.steps > self.budget:  # before the condition runs
                        raise BudgetExceeded()
                    if self.value(stmt.cond) == 0:
                        break
                    if self.block(stmt.body) == "break":
                        break
                continue
            if isinstance(stmt, ast.If):
                self.steps += 1 + _cost(stmt.cond)
                taken = stmt.then_body if self.value(stmt.cond) else stmt.else_body
                jump = self.block(taken)
                if jump is not None:
                    return jump
                continue
            self.steps += 1 + _cost(stmt.value)
            v = self.value(stmt.value)
            if isinstance(stmt, ast.Print):
                self.out.append(v)
            elif isinstance(stmt, ast.AugAssign):
                self.steps += 1  # the combining operator
                self.env[stmt.name] = _apply(stmt.op[:-1], self.env.get(stmt.name, 0),
                                             v, stmt.line)
            else:
                self.env[stmt.name] = v
        return None


def reference_eval(program: ast.MiniProgram, input_values: Sequence[int],
                   budget: int) -> MiniRunResult:
    """Run ``program`` by walking its AST.

    Costs 1 per executed statement (a ``while`` 1 per condition evaluation,
    a shortcut assignment 1 more for its operator), 1 per operator
    evaluation and 1 per array read.  The budget is checked at each loop
    condition, after its cost is added and before it is evaluated, and once
    at exit.  Raises BudgetExceeded and MiniRuntimeError like ``eval_mini``.
    """
    walker = _Walker(input_values, budget)
    walker.block(program.body)
    if walker.steps > budget:
        raise BudgetExceeded()
    return MiniRunResult(output="\n".join(map(str, walker.out)).encode("ascii"),
                         steps=walker.steps)
