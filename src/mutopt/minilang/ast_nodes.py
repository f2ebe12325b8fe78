"""AST node types for MiniImp."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class InLen:
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class ArrayRead:
    index: "Expr"
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class UnaryOp:
    op: str
    operand: "Expr"
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    line: int
    col: int


Expr = Union[IntLit, Var, InLen, ArrayRead, UnaryOp, BinOp]


@dataclass(frozen=True, slots=True)
class Assign:
    name: str
    value: Expr
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class AugAssign:
    name: str
    op: str  # shortcut lexeme, e.g. "+="
    value: Expr
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class Print:
    value: Expr
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class If:
    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...]
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class While:
    cond: Expr
    body: tuple["Stmt", ...]
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class Continue:
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class Break:
    line: int
    col: int


Stmt = Union[Assign, AugAssign, Print, If, While, Continue, Break]


@dataclass(eq=False)
class MiniProgram:
    """A parsed program plus the set of variables it assigns."""

    body: tuple[Stmt, ...]
    variables: tuple[str, ...]
