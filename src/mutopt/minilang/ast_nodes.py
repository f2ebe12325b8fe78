"""AST node types for MiniImp.

Only the nodes whose evaluation can raise MiniRuntimeError keep the line
that codegen reports (``ArrayRead``, ``BinOp``, ``AugAssign``); compile
errors take their positions from tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class InLen:
    pass


@dataclass(frozen=True, slots=True)
class ArrayRead:
    index: "Expr"
    line: int


@dataclass(frozen=True, slots=True)
class UnaryOp:
    op: str
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    line: int


Expr = Union[IntLit, Var, InLen, ArrayRead, UnaryOp, BinOp]


@dataclass(frozen=True, slots=True)
class Assign:
    name: str
    value: Expr


@dataclass(frozen=True, slots=True)
class AugAssign:
    name: str
    op: str  # shortcut lexeme, e.g. "+="
    value: Expr
    line: int


@dataclass(frozen=True, slots=True)
class Print:
    value: Expr


@dataclass(frozen=True, slots=True)
class If:
    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...]


@dataclass(frozen=True, slots=True)
class While:
    cond: Expr
    body: tuple["Stmt", ...]


@dataclass(frozen=True, slots=True)
class Continue:
    pass


@dataclass(frozen=True, slots=True)
class Break:
    pass


Stmt = Union[Assign, AugAssign, Print, If, While, Continue, Break]


@dataclass(eq=False)
class MiniProgram:
    """A parsed program plus the set of variables it assigns."""

    body: tuple[Stmt, ...]
    variables: tuple[str, ...]
