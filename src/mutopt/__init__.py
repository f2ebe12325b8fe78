"""mutopt: source-level optimization by equivalent-mutant search."""

from .tokens import Language, MalformedSource, SourceUnit, Token, TokenKind, tokenize
from .mutation import AOR, ASR, OPERATOR_REGISTRY, ROR, Mutant, MutationOperator, apply_all
from .backend import (
    Cost,
    ExecBackendConfig,
    RunResult,
    ToolchainError,
    UnitMismatch,
    make_backend,
    overall_time,
)
from .minilang import BudgetExceeded, CompileError, MiniRuntimeError, eval_mini, parse_mini
from .optimizer import (
    InputEntry,
    InputSet,
    InvalidBaseline,
    OptimizationReport,
    OptimizeConfig,
    confirm_equivalence,
    improvement_test,
    optimize,
)

__version__ = "0.1.0"

__all__ = [
    "Language", "MalformedSource", "SourceUnit", "Token", "TokenKind", "tokenize",
    "ROR", "ASR", "AOR", "OPERATOR_REGISTRY", "Mutant", "MutationOperator",
    "apply_all",
    "Cost", "ExecBackendConfig", "RunResult", "ToolchainError",
    "UnitMismatch", "make_backend", "overall_time",
    "BudgetExceeded", "CompileError", "MiniRuntimeError", "eval_mini", "parse_mini",
    "InputEntry", "InputSet", "InvalidBaseline", "OptimizationReport",
    "OptimizeConfig", "confirm_equivalence", "improvement_test", "optimize",
    "__version__",
]
