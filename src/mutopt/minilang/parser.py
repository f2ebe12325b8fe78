"""Recursive-descent parser for MiniImp.

Grammar (loosest to tightest binding, all left-associative):

    program   := stmt* EOF
    stmt      := IDENT '=' expr ';'
               | IDENT ('+='|'-='|'*='|'/='|'%=') expr ';'
               | 'print' '(' expr ')' ';'
               | 'if' '(' expr ')' block ('else' (block | if-stmt))?
               | 'while' '(' expr ')' block
               | 'continue' ';'  |  'break' ';'
    block     := '{' stmt* '}'
    expr      := '||' < '&&' < '|' < '^' < '&' < '==' '!='
               < '<' '<=' '>' '>=' < '<<' '>>' < '+' '-' < '*' '/' '%'
               < unary '-' < primary
    primary   := INT | IDENT | 'in' '[' expr ']' | 'in_len' | '(' expr ')'

Integers are 64-bit signed with wrapping arithmetic.  Variables need no
declaration and read as 0 before first assignment.  `in` is the read-only
input array, `in_len` its length.

Nesting is at most ``MAX_DEPTH`` levels deep, counted along any path from
the top level down to a leaf of an expression: one level per enclosing
block (an `else if` is one too), parenthesis, `in[...]`, unary minus and
binary operator.  A deeper program is a CompileError, so no later stage
(parser, code generator, cost model) recurses past it.
"""

from __future__ import annotations

from ..tokens import Language, SourceUnit, Token, TokenKind
from . import ast_nodes as ast


KEYWORDS = frozenset({"if", "else", "while", "print", "continue", "break",
                      "in", "in_len"})

_INT_MAX = 2**63 - 1

MAX_DEPTH = 48  # an `else if` is two indentation levels of the generated code,
               # and CPython accepts fewer than 100

# binding level of each binary operator, loosest (0) to tightest (9)
LEVELS = {"||": 0, "&&": 1, "|": 2, "^": 3, "&": 4, "==": 5, "!=": 5,
          "<": 6, "<=": 6, ">": 6, ">=": 6, "<<": 7, ">>": 7,
          "+": 8, "-": 8, "*": 9, "/": 9, "%": 9}


class CompileError(Exception):
    """Source that does not parse as MiniImp."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, col {col}")
        self.message = message
        self.line = line
        self.col = col


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.loop_depth = 0
        self.depth = 0  # levels open above the current token
        self.variables: set[str] = set()
        self.operators: dict[int, ast.Node] = {}  # operator token start -> its node
        self.levels: dict[int, range] = {}  # binary operator token start -> climb's range

    def error(self, message: str) -> CompileError:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            return CompileError(message, tok.line, tok.col)
        if self.tokens:
            last = self.tokens[-1]
            return CompileError(message + " (at end of input)", last.line, last.col)
        return CompileError(message + " (empty input)", 1, 1)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, lexeme: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.lexeme == lexeme

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, lexeme: str) -> Token:
        if not self.at(lexeme):
            raise self.error(f"expected {lexeme!r}")
        return self.take()

    def check_depth(self, height: int = 0):
        """Reject a subtree ``height`` levels tall under the open levels.

        The parser opens a level as it recurses, and each open level lies on
        a path of the finished tree, so checking the open levels alone never
        rejects a program within the limit.  Left-deep chains are built by a
        loop, not recursion; ``climb`` checks their height.
        """
        if self.depth + height > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels")

    def nested(self, parse, *args):
        """``parse(*args)`` one level down."""
        self.depth += 1
        self.check_depth()
        result = parse(*args)
        self.depth -= 1
        return result

    # ---- statements ----

    def parse_program(self) -> ast.MiniProgram:
        body, spans = [], []
        while self.peek() is not None:
            start = self.peek().start
            body.append(self.statement())
            spans.append((start, self.tokens[self.pos - 1].end))
        return ast.MiniProgram(body=tuple(body),
                               variables=tuple(sorted(self.variables)),
                               spans=tuple(spans), operators=self.operators,
                               levels=self.levels)

    def statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok is None:
            raise self.error("expected statement")
        if tok.kind is TokenKind.IDENTIFIER:
            if tok.lexeme == "print":
                return self.print_stmt()
            if tok.lexeme == "if":
                return self.if_stmt()
            if tok.lexeme == "while":
                return self.while_stmt()
            if tok.lexeme in ("continue", "break"):
                self.take()
                self.expect(";")
                if self.loop_depth == 0:
                    raise CompileError(f"{tok.lexeme} outside loop", tok.line, tok.col)
                return ast.Continue() if tok.lexeme == "continue" else ast.Break()
            if tok.lexeme in KEYWORDS:
                raise CompileError(f"{tok.lexeme!r} cannot start a statement",
                                   tok.line, tok.col)
            return self.assignment()
        raise self.error("expected statement")

    def assignment(self) -> ast.Stmt:
        name_tok = self.take()
        name = name_tok.lexeme
        op_tok = self.peek()
        if op_tok is None:
            raise self.error("expected '=' or shortcut assignment")
        self.variables.add(name)
        if op_tok.lexeme == "=":
            self.take()
            value = self.expression()
            self.expect(";")
            return ast.Assign(name, value)
        if op_tok.kind is TokenKind.SHORTCUT_ASSIGN:
            self.take()
            value = self.expression()
            self.expect(";")
            node = ast.AugAssign(name, op_tok.lexeme, value, name_tok.line)
            self.operators[op_tok.start] = node
            return node
        raise self.error("expected '=' or shortcut assignment")

    def print_stmt(self) -> ast.Print:
        self.take()
        self.expect("(")
        value = self.expression()
        self.expect(")")
        self.expect(";")
        return ast.Print(value)

    def if_stmt(self) -> ast.If:
        self.take()
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        then_body = self.nested(self.block)
        else_body: tuple[ast.Stmt, ...] = ()
        if self.at("else"):
            self.take()
            if self.at("if"):
                else_body = (self.nested(self.if_stmt),)
            else:
                else_body = self.nested(self.block)
        return ast.If(cond, then_body, else_body)

    def while_stmt(self) -> ast.While:
        self.take()
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        self.loop_depth += 1
        body = self.nested(self.block)
        self.loop_depth -= 1
        return ast.While(cond, body)

    def block(self) -> tuple[ast.Stmt, ...]:
        self.expect("{")
        body = []
        while not self.at("}"):
            if self.peek() is None:
                raise self.error("unterminated block, expected '}'")
            body.append(self.statement())
        self.take()
        return tuple(body)

    # ---- expressions ----

    def expression(self) -> ast.Expr:
        return self.climb(0)[0]

    def climb(self, min_level: int) -> tuple[ast.Expr, int, int]:
        """Precedence climbing: the operand and every following operator
        that binds at ``min_level`` or tighter, grouped to the left, with
        the height of the tree in nesting levels and the level of the
        chain's last operator, 10 if it has none.  That is the loosest level
        it grouped: each right operand takes every tighter operator, so
        levels never rise along the chain.

        Another operator in place of one of the chain's parses to the same
        tree exactly when it binds from the larger of ``min_level`` and the
        level of the operator, if any, that follows the right operand, to
        the smaller of the level of the operator, if any, that built the
        left operand and one less than the loosest level grouped in the
        right operand.  ``levels`` records that range by the operator
        token's start."""
        node, height = self.unary()
        loosest, last = 10, None  # the level and token start of node's operator
        while True:
            tok = self.peek()
            level = -1 if tok is None else LEVELS.get(tok.lexeme, -1)
            if level < min_level:
                return node, height, loosest
            self.take()
            if last is not None:  # this operator follows last's right operand
                self.levels[last] = range(level, self.levels[last].stop)
            right, right_height, right_loosest = self.nested(self.climb, level + 1)
            node = ast.BinOp(tok.lexeme, node, right, tok.line)
            self.operators[tok.start] = node
            self.levels[tok.start] = range(min_level, min(loosest, right_loosest - 1) + 1)
            loosest, last = level, tok.start
            height = 1 + max(height, right_height)
            self.check_depth(height)

    def unary(self) -> tuple[ast.Expr, int]:
        tok = self.peek()
        if tok is not None and tok.lexeme == "-":
            self.take()
            operand, height = self.nested(self.unary)
            return ast.UnaryOp("-", operand), height + 1
        return self.primary()

    def primary(self) -> tuple[ast.Expr, int]:
        tok = self.peek()
        if tok is None:
            raise self.error("expected expression")
        if tok.kind is TokenKind.LITERAL:
            self.take()
            if not tok.lexeme.isdigit():
                raise CompileError(f"malformed integer literal {tok.lexeme!r}",
                                   tok.line, tok.col)
            value = int(tok.lexeme)
            if value > _INT_MAX:
                raise CompileError(f"integer literal {tok.lexeme} out of range",
                                   tok.line, tok.col)
            return ast.IntLit(value), 0
        if tok.lexeme == "(":
            self.take()
            inner, height, _ = self.nested(self.climb, 0)
            self.expect(")")
            return inner, height + 1
        if tok.lexeme == "in":
            self.take()
            self.expect("[")
            index, height, _ = self.nested(self.climb, 0)
            self.expect("]")
            return ast.ArrayRead(index, tok.line), height + 1
        if tok.lexeme == "in_len":
            self.take()
            return ast.InLen(), 0
        if tok.kind is TokenKind.IDENTIFIER:
            if tok.lexeme in KEYWORDS:
                raise CompileError(f"{tok.lexeme!r} is not a value", tok.line, tok.col)
            self.take()
            self.variables.add(tok.lexeme)  # reads default to 0, so declare it
            return ast.Var(tok.lexeme), 0
        raise self.error("expected expression")


def parse_mini(source: SourceUnit) -> ast.MiniProgram:
    """Parse a tokenized unit into a MiniProgram.

    Raises CompileError on any syntax problem; for mutated sources this is
    the compile-failure outcome that makes the optimizer skip the mutant.
    """
    if source.language is not Language.MINI:
        raise ValueError(f"expected a mini unit, got {source.language.value}")
    tokens = [t for t in source.tokens if t.kind is not TokenKind.COMMENT]
    return _Parser(tokens).parse_program()
