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
"""

from __future__ import annotations

from ..tokens import Language, SourceUnit, Token, TokenKind
from . import ast_nodes as ast


KEYWORDS = frozenset({"if", "else", "while", "print", "continue", "break",
                      "in", "in_len"})

_INT_MAX = 2**63 - 1

# binding level of each binary operator, loosest (0) to tightest (9)
_LEVELS = {"||": 0, "&&": 1, "|": 2, "^": 3, "&": 4, "==": 5, "!=": 5,
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
        self.variables: set[str] = set()

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

    # ---- statements ----

    def parse_program(self) -> ast.MiniProgram:
        body = []
        while self.peek() is not None:
            body.append(self.statement())
        return ast.MiniProgram(body=tuple(body),
                               variables=tuple(sorted(self.variables)))

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
            return ast.AugAssign(name, op_tok.lexeme, value, name_tok.line)
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
        then_body = self.block()
        else_body: tuple[ast.Stmt, ...] = ()
        if self.at("else"):
            self.take()
            if self.at("if"):
                else_body = (self.if_stmt(),)
            else:
                else_body = self.block()
        return ast.If(cond, then_body, else_body)

    def while_stmt(self) -> ast.While:
        self.take()
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        self.loop_depth += 1
        body = self.block()
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

    def expression(self, min_level: int = 0) -> ast.Expr:
        """Precedence climbing: the operand and every following operator
        that binds at ``min_level`` or tighter, grouped to the left."""
        node = self.unary()
        while True:
            tok = self.peek()
            level = -1 if tok is None else _LEVELS.get(tok.lexeme, -1)
            if level < min_level:
                return node
            self.take()
            node = ast.BinOp(tok.lexeme, node, self.expression(level + 1), tok.line)

    def unary(self) -> ast.Expr:
        tok = self.peek()
        if tok is not None and tok.lexeme == "-":
            self.take()
            return ast.UnaryOp("-", self.unary())
        return self.primary()

    def primary(self) -> ast.Expr:
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
            return ast.IntLit(value)
        if tok.lexeme == "(":
            self.take()
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.lexeme == "in":
            self.take()
            self.expect("[")
            index = self.expression()
            self.expect("]")
            return ast.ArrayRead(index, tok.line)
        if tok.lexeme == "in_len":
            self.take()
            return ast.InLen()
        if tok.kind is TokenKind.IDENTIFIER:
            if tok.lexeme in KEYWORDS:
                raise CompileError(f"{tok.lexeme!r} is not a value", tok.line, tok.col)
            self.take()
            self.variables.add(tok.lexeme)  # reads default to 0, so declare it
            return ast.Var(tok.lexeme)
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
