"""AST node types for MiniImp.

Only the nodes whose evaluation can raise MiniRuntimeError keep the line
that codegen reports (``ArrayRead``, ``BinOp``, ``AugAssign``); compile
errors take their positions from tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
Node = Union[Expr, Stmt]


@dataclass(eq=False)
class MiniProgram:
    """A parsed program, the variables it names, the byte span in the source
    of each top-level statement, from its first token to its last, the node
    each binary or shortcut-assignment operator token built, by the token's
    start, and the binding levels another operator may take in place of
    each binary one and parse to the same tree (``parser.LEVELS``; the rule
    is ``_Parser.climb``'s), by the token's start too."""

    body: tuple[Stmt, ...]
    variables: tuple[str, ...]
    spans: tuple[tuple[int, int], ...]
    operators: dict[int, Node] = field(default_factory=dict)
    levels: dict[int, range] = field(default_factory=dict)
