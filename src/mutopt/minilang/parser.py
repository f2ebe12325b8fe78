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
                node = ast.Continue if tok.lexeme == "continue" else ast.Break
                return node(tok.line, tok.col)
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
            return ast.Assign(name, value, name_tok.line, name_tok.col)
        if op_tok.kind is TokenKind.SHORTCUT_ASSIGN:
            self.take()
            value = self.expression()
            self.expect(";")
            return ast.AugAssign(name, op_tok.lexeme, value,
                                 name_tok.line, name_tok.col)
        raise self.error("expected '=' or shortcut assignment")

    def print_stmt(self) -> ast.Print:
        kw = self.take()
        self.expect("(")
        value = self.expression()
        self.expect(")")
        self.expect(";")
        return ast.Print(value, kw.line, kw.col)

    def if_stmt(self) -> ast.If:
        kw = self.take()
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
        return ast.If(cond, then_body, else_body, kw.line, kw.col)

    def while_stmt(self) -> ast.While:
        kw = self.take()
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        self.loop_depth += 1
        body = self.block()
        self.loop_depth -= 1
        return ast.While(cond, body, kw.line, kw.col)

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

    _LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def expression(self) -> ast.Expr:
        return self.binary(0)

    def binary(self, level: int) -> ast.Expr:
        if level == len(self._LEVELS):
            return self.unary()
        ops = self._LEVELS[level]
        node = self.binary(level + 1)
        while True:
            tok = self.peek()
            if tok is None or tok.lexeme not in ops:
                return node
            self.take()
            right = self.binary(level + 1)
            node = ast.BinOp(tok.lexeme, node, right, tok.line, tok.col)

    def unary(self) -> ast.Expr:
        tok = self.peek()
        if tok is not None and tok.lexeme == "-":
            self.take()
            return ast.UnaryOp("-", self.unary(), tok.line, tok.col)
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
            return ast.IntLit(value, tok.line, tok.col)
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
            return ast.ArrayRead(index, tok.line, tok.col)
        if tok.lexeme == "in_len":
            self.take()
            return ast.InLen(tok.line, tok.col)
        if tok.kind is TokenKind.IDENTIFIER:
            if tok.lexeme in KEYWORDS:
                raise CompileError(f"{tok.lexeme!r} is not a value", tok.line, tok.col)
            self.take()
            self.variables.add(tok.lexeme)  # reads default to 0, so declare it
            return ast.Var(tok.lexeme, tok.line, tok.col)
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
