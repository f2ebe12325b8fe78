"""First-order operator-replacement mutants: ROR, ASR and AOR.

Each eligible token site yields one mutant per replacement lexeme, in a
deterministic order (ascending byte span, then the canonical lexeme order),
so mutant ids and reports are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .tokens import (
    ARITHMETIC_LEXEMES,
    RELATIONAL_LEXEMES,
    SHORTCUT_ASSIGN_LEXEMES,
    SourceUnit,
    TokenKind,
)


@dataclass(frozen=True)
class MutationOperator:
    """A rule mapping operator occurrences to their replacement sets."""

    kind: str
    token_kind: TokenKind
    domain: tuple[str, ...]

    def codomain(self, lexeme: str) -> tuple[str, ...]:
        if lexeme not in self.domain:
            raise ValueError(f"{lexeme!r} not in {self.kind} domain")
        return tuple(lex for lex in self.domain if lex != lexeme)


ROR = MutationOperator("ROR", TokenKind.RELATIONAL, RELATIONAL_LEXEMES)
ASR = MutationOperator("ASR", TokenKind.SHORTCUT_ASSIGN, SHORTCUT_ASSIGN_LEXEMES)
AOR = MutationOperator("AOR", TokenKind.ARITHMETIC, ARITHMETIC_LEXEMES)

# Registry keyed by the lowercase names used on the command line.  Ships
# with the three replacement operators; new entries plug in here.
OPERATOR_REGISTRY: dict[str, MutationOperator] = {
    "ror": ROR,
    "asr": ASR,
    "aor": AOR,
}


@dataclass(frozen=True)
class Mutant:
    id: str
    operator: str
    line: int
    col: int
    start: int
    end: int
    original: str
    replacement: str
    mutated_text: bytes

    def filename(self, source_name: str) -> str:
        """``source_name`` with the mutant id before its extension; a name
        without one gets ``.src``."""
        stem, dot, ext = source_name.rpartition(".")
        if not dot:
            stem, ext = source_name, "src"
        return f"{stem}.{self.id}.{ext}"


def apply_all(operators: Sequence[MutationOperator], source: SourceUnit,
              line_range: tuple[int, int] | None = None) -> list[Mutant]:
    """All first-order mutants of ``source`` under the operators, in their
    given order, restricted to sites on lines in ``line_range`` (inclusive;
    None keeps all).

    Ids count from 1 per operator in emission order, over the whole unit, so
    a mutant keeps its id whatever ``line_range`` is.  A duplicated operator
    continues its counter instead of restarting, so the duplicates are
    distinct.
    """
    out: list[Mutant] = []
    next_index: dict[str, int] = {}
    for op in operators:
        for tok in source.tokens:
            if tok.kind is not op.token_kind or tok.lexeme not in op.domain:
                continue
            for replacement in op.codomain(tok.lexeme):
                n = next_index.get(op.kind, 1)
                next_index[op.kind] = n + 1
                out.append(Mutant(
                    id=f"{op.kind}_{n}",
                    operator=op.kind,
                    line=tok.line,
                    col=tok.col,
                    start=tok.start,
                    end=tok.end,
                    original=tok.lexeme,
                    replacement=replacement,
                    mutated_text=(source.text[:tok.start]
                                  + replacement.encode("utf-8")
                                  + source.text[tok.end:]),
                ))
    if line_range is None:
        return out
    lo, hi = line_range
    return [m for m in out if lo <= m.line <= hi]
