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
    Token,
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

    def filename(self, stem: str, ext: str) -> str:
        return f"{stem}.{self.id}.{ext.lstrip('.')}"


def _eligible_sites(operator: MutationOperator, source: SourceUnit) -> list[Token]:
    return [t for t in source.tokens
            if t.kind is operator.token_kind and t.lexeme in operator.domain]


def _generate(operator: MutationOperator, source: SourceUnit,
              first_index: int) -> list[Mutant]:
    mutants = []
    n = first_index
    for tok in _eligible_sites(operator, source):
        for replacement in operator.codomain(tok.lexeme):
            mutated = (source.text[:tok.start]
                       + replacement.encode("utf-8")
                       + source.text[tok.end:])
            mutants.append(Mutant(
                id=f"{operator.kind}_{n}",
                operator=operator.kind,
                line=tok.line,
                col=tok.col,
                start=tok.start,
                end=tok.end,
                original=tok.lexeme,
                replacement=replacement,
                mutated_text=mutated,
            ))
            n += 1
    return mutants


def mutate(operator: MutationOperator, source: SourceUnit) -> list[Mutant]:
    """All first-order mutants of ``source`` under one operator.

    Empty list when the unit has no eligible sites.  Ids count from 1 in
    emission order.
    """
    return _generate(operator, source, 1)


def apply_all(operators: Sequence[MutationOperator],
              source: SourceUnit) -> list[Mutant]:
    """Concatenation of ``mutate`` over the operators, in their given order.

    Ids stay unique across the whole list: a duplicated operator continues
    its counter instead of restarting, so the duplicates are distinct.
    """
    out: list[Mutant] = []
    next_index: dict[str, int] = {}
    for op in operators:
        start = next_index.get(op.kind, 1)
        block = _generate(op, source, start)
        next_index[op.kind] = start + len(block)
        out.extend(block)
    return out

