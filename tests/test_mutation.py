"""Mutation engine tests: domains, ordering, ids, and text surgery."""

import json

import pytest

from mutopt import AOR, ASR, Language, ROR, apply_all, tokenize
from mutopt.tokens import TokenKind

from conftest import DATA, FIXTURES, load_unit

CANONICAL_ORDER = ("<", "<=", ">", ">=", "==", "!=",
                   "+=", "-=", "*=", "/=", "%=",
                   "+", "-", "*", "/", "%")


@pytest.mark.parametrize("operator,size", [(ROR, 5), (ASR, 4), (AOR, 4)])
def test_codomain_complements(operator, size):
    for lexeme in operator.domain:
        codomain = operator.codomain(lexeme)
        assert len(codomain) == size
        assert lexeme not in codomain
        assert set(codomain) | {lexeme} == set(operator.domain)


def test_codomain_rejects_foreign_lexeme():
    with pytest.raises(ValueError):
        ROR.codomain("+=")


def test_asr_on_single_shortcut_site():
    unit = tokenize(b"i += 2", Language.MINI)
    mutants = apply_all([ASR], unit)
    assert len(mutants) == 4
    star = [m for m in mutants if m.replacement == "*="]
    assert len(star) == 1
    assert star[0].mutated_text == b"i *= 2"
    assert star[0].original == "+="


def test_ror_on_max_snippet_produces_strict_comparison():
    unit = load_unit("snippets/max_snippet.c", Language.C_LIKE)
    mutants = apply_all([ROR], unit)
    texts = [m.mutated_text for m in mutants]
    assert any(b"if (arr[i] > max)" in t for t in texts)


def test_ror_with_no_relational_sites():
    unit = tokenize(b"x = a + b;", Language.MINI)
    assert apply_all([ROR], unit) == []


def test_census_counts_13():
    unit = load_unit("census.mini")
    counts = {op.kind: len(apply_all([op], unit)) for op in (ROR, ASR, AOR)}
    assert counts == {"ROR": 5, "ASR": 4, "AOR": 4}
    assert len(apply_all([ROR, ASR, AOR], unit)) == 13


def test_apply_all_empty_operator_list():
    unit = load_unit("census.mini")
    assert apply_all([], unit) == []


def test_apply_all_duplicate_operator_keeps_ids_unique():
    unit = load_unit("census.mini")
    mutants = apply_all([ASR, ASR], unit)
    assert len(mutants) == 8
    ids = [m.id for m in mutants]
    assert len(set(ids)) == 8
    assert ids[:4] == ["ASR_1", "ASR_2", "ASR_3", "ASR_4"]
    assert ids[4:] == ["ASR_5", "ASR_6", "ASR_7", "ASR_8"]
    # the duplicates mutate the same sites in the same order
    assert [m.mutated_text for m in mutants[:4]] == [m.mutated_text for m in mutants[4:]]


def test_emission_order_and_ids():
    unit = load_unit("b2tob10.mini")
    for op in (ROR, ASR, AOR):
        mutants = apply_all([op], unit)
        assert [m.id for m in mutants] == [f"{op.kind}_{n}"
                                           for n in range(1, len(mutants) + 1)]
        spans = [(m.start, CANONICAL_ORDER.index(m.replacement)) for m in mutants]
        assert spans == sorted(spans)


def test_golden_census_b2tob10():
    golden = json.loads((DATA / "b2tob10_census.json").read_text())
    unit = load_unit("b2tob10.mini")
    mutants = apply_all([ROR, ASR, AOR], unit)
    by_op = {}
    for m in mutants:
        by_op[m.operator] = by_op.get(m.operator, 0) + 1
    assert by_op == golden["mutant_counts"]
    assert len(mutants) == golden["total"]
    # site lines match the hand audit
    audited = {(s["line"], s["lexeme"])
               for group in golden["sites"].values() for s in group}
    produced = {(m.line, m.original) for m in mutants}
    assert produced == audited


def test_count_formula_by_independent_site_enumeration():
    # enumerate eligible sites straight off the token stream, without the
    # engine's helpers
    unit = load_unit("b2tob10.mini")
    expected = 0
    for t in unit.tokens:
        if t.kind is TokenKind.RELATIONAL:
            expected += 5
        elif t.kind is TokenKind.SHORTCUT_ASSIGN:
            expected += 4
        elif t.kind is TokenKind.ARITHMETIC:
            expected += 4
    assert len(apply_all([ROR, ASR, AOR], unit)) == expected


@pytest.mark.parametrize("name", ["b2tob10.mini", "max_search.mini",
                                  "hostile.mini", "census.mini", "powsum.mini"])
def test_inverse_replacement_restores_original(name):
    unit = load_unit(name)
    for m in apply_all([ROR, ASR, AOR], unit):
        restored = (m.mutated_text[:m.start]
                    + m.original.encode()
                    + m.mutated_text[m.start + len(m.replacement.encode()):])
        assert restored == unit.text, m.id


@pytest.mark.parametrize("name", ["b2tob10.mini", "max_search.mini",
                                  "census.mini", "powsum.mini"])
def test_mutants_differ_only_within_site_span(name):
    unit = load_unit(name)
    for m in apply_all([ROR, ASR, AOR], unit):
        assert m.mutated_text[:m.start] == unit.text[:m.start]
        assert m.mutated_text[m.start + len(m.replacement.encode()):] == unit.text[m.end:]


def test_mutated_text_always_tokenizes():
    for name in ("b2tob10.mini", "census.mini", "b2tob10.c"):
        lang = Language.MINI if name.endswith(".mini") else Language.C_LIKE
        unit = load_unit(name, lang)
        for m in apply_all([ROR, ASR, AOR], unit):
            tokenize(m.mutated_text, lang)  # must not raise


def test_strings_and_comments_are_never_mutated():
    text = b'x = a + b; // c += d\ns = "p *= q";\n'
    unit = tokenize(text, Language.C_LIKE)
    mutants = apply_all([ROR, ASR, AOR], unit)
    # only the one real arithmetic site is eligible
    assert {m.original for m in mutants} == {"+"}
    comment_start = text.index(b"//")
    string_start = text.index(b'"')
    for m in mutants:
        assert m.end <= comment_start and m.end <= string_start


def test_mutant_filename():
    unit = tokenize(b"i += 2", Language.MINI)
    m = apply_all([ASR], unit)[0]
    assert m.filename("b2tob10.mini") == f"b2tob10.{m.id}.mini"
    assert m.filename("b2tob10") == f"b2tob10.{m.id}.src"
