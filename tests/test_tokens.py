"""Tokenizer tests: maximal munch, operator classification, round-trips,
and agreement with the reference lexer in ``oracle.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from mutopt import AOR, ASR, ROR, Language, MalformedSource, TokenKind, apply_all, tokenize
from mutopt.tokens import apart

from conftest import FIXTURES, PERFBENCH, load_unit
from oracle import reference_tokenize

_ARITHMETIC = ("+", "-", "*", "/", "%")


def rebuild_text(unit) -> bytes:
    """Token lexemes plus inter-token gaps, byte-for-byte."""
    parts = []
    pos = 0
    for tok in unit.tokens:
        parts.append(unit.text[pos:tok.start])
        parts.append(tok.lexeme.encode("utf-8"))
        pos = tok.end
    parts.append(unit.text[pos:])
    return b"".join(parts)


def kinds_of(text, kind):
    unit = tokenize(text)
    return [t.lexeme for t in unit.tokens if t.kind is kind]


def test_shortcut_assign_maximal_munch():
    unit = tokenize("i += 2")
    kinds = [(t.kind, t.lexeme) for t in unit.tokens]
    assert kinds == [
        (TokenKind.IDENTIFIER, "i"),
        (TokenKind.SHORTCUT_ASSIGN, "+="),
        (TokenKind.LITERAL, "2"),
    ]


def test_relational_maximal_munch():
    assert kinds_of("arr[i] >= max", TokenKind.RELATIONAL) == [">="]
    # never > then =
    assert kinds_of("a >= b", TokenKind.OTHER) == []


def test_increment_is_one_token():
    unit = tokenize("i++")
    assert [t.lexeme for t in unit.tokens] == ["i", "++"]
    assert unit.tokens[1].kind is TokenKind.INCREMENT
    assert kinds_of("i++", TokenKind.ARITHMETIC) == []


def test_comments_and_strings_are_opaque():
    assert kinds_of("x + 1 // a + b", TokenKind.ARITHMETIC) == ["+"]
    assert kinds_of('s = "a+b";', TokenKind.ARITHMETIC) == []
    assert kinds_of("/* x += 1 */", TokenKind.SHORTCUT_ASSIGN) == []


@pytest.mark.parametrize("text,expected", [
    ("a - b", True),
    ("x = -5", False),
    ("f(a) * 2", True),
])
def test_classify_binary_context_spec_cases(text, expected):
    unit = tokenize(text)
    tok = next(t for t in unit.tokens if t.lexeme in _ARITHMETIC)
    assert (tok.kind is TokenKind.ARITHMETIC) is expected


# Hand-built classification table over corpus-style snippets: one entry per
# arithmetic-candidate occurrence, in token order.
_BINARY_TABLE = [
    ("a - b", [True]),
    ("x = -5", [False]),
    ("f(a) * 2", [True]),
    ("in[0] + 1", [True]),          # closing bracket before +
    ("(a + b) % 3", [True, True]),
    ("y = -x + 4", [False, True]),
    ("a * -b", [True, False]),
    ("p /* c */ / q", [True]),      # comment is trivia
    ("-5", [False]),
    ("a + + b", [True, False]),     # second + follows an operator
]


@pytest.mark.parametrize("text,expected", _BINARY_TABLE)
def test_classify_binary_context_table(text, expected):
    unit = tokenize(text)
    got = [t.kind is TokenKind.ARITHMETIC
           for t in unit.tokens
           if t.kind in (TokenKind.ARITHMETIC, TokenKind.OTHER)
           and t.lexeme in _ARITHMETIC]
    assert got == expected


def census(unit):
    out = {}
    for t in unit.tokens:
        if t.kind in (TokenKind.RELATIONAL, TokenKind.SHORTCUT_ASSIGN,
                      TokenKind.ARITHMETIC):
            out.setdefault(t.kind, []).append(t.lexeme)
    return out


def test_max_snippet_census():
    unit = load_unit("snippets/max_snippet.c", Language.C_LIKE)
    c = census(unit)
    assert sorted(c[TokenKind.RELATIONAL]) == ["<", ">="]
    assert TokenKind.SHORTCUT_ASSIGN not in c
    assert TokenKind.ARITHMETIC not in c


def test_pow3_snippet_census():
    unit = load_unit("snippets/pow3_snippet.c", Language.C_LIKE)
    c = census(unit)
    assert sorted(c[TokenKind.RELATIONAL]) == ["<=", ">"]
    assert c[TokenKind.SHORTCUT_ASSIGN] == ["+="]
    assert c[TokenKind.ARITHMETIC] == ["%"]


@pytest.mark.parametrize("name", [
    "b2tob10.mini", "max_search.mini", "hostile.mini", "census.mini",
    "powsum.mini", "b2tob10.c", "snippets/max_snippet.c",
    "snippets/pow3_snippet.c",
])
def test_fixture_round_trip(name):
    raw = (FIXTURES / name).read_bytes()
    lang = Language.MINI if name.endswith(".mini") else Language.C_LIKE
    unit = tokenize(raw, lang)
    assert rebuild_text(unit) == raw


@pytest.mark.parametrize("name", ["b2tob10.mini", "b2tob10.c"])
def test_spans_strictly_increasing(name):
    unit = load_unit(name, Language.MINI if name.endswith("mini") else Language.C_LIKE)
    last_end = 0
    for t in unit.tokens:
        assert t.start >= last_end and t.end > t.start
        assert unit.text[t.start:t.end].decode("utf-8") == t.lexeme
        last_end = t.end


def test_line_and_col_are_1_based():
    unit = tokenize("a\n  b += 1\n")
    b = next(t for t in unit.tokens if t.lexeme == "b")
    plus = next(t for t in unit.tokens if t.lexeme == "+=")
    assert (b.line, b.col) == (2, 3)
    assert (plus.line, plus.col) == (2, 5)


def test_utf8_content_round_trips():
    raw = "// überschüssig\nx = 1; // naïve\ns = \"π+τ\";\n".encode("utf-8")
    unit = tokenize(raw)
    assert rebuild_text(unit) == raw
    assert kinds_of(raw.decode(), TokenKind.ARITHMETIC) == []


@pytest.mark.parametrize("bad", [
    's = "unterminated',
    "/* never closed",
    's = "broken\nx = 1;',
    b"x = 1;\n\xff = 2;",  # not UTF-8
])
def test_malformed_source(bad):
    with pytest.raises(MalformedSource):
        tokenize(bad)


def test_scientific_float_literal_is_one_token():
    unit = tokenize("y = 1e-5 + x", Language.C_LIKE)
    lits = [t.lexeme for t in unit.tokens if t.kind is TokenKind.LITERAL]
    assert lits == ["1e-5"]
    assert kinds_of("y = 1e-5 + x", TokenKind.ARITHMETIC) == ["+"]


_SOURCE_ALPHABET = st.sampled_from(
    list("abxy01 \n\t;(){}[]<>=!+-*/%&|^~,.") + ["+=", ">=", "==", "++", "//", '"s"']
)


@given(st.lists(_SOURCE_ALPHABET, max_size=60))
def test_round_trip_property(parts):
    text = "".join(parts).encode("utf-8")
    try:
        unit = tokenize(text)
    except MalformedSource:
        return
    assert rebuild_text(unit) == text
    last_end = 0
    for t in unit.tokens:
        assert t.start >= last_end
        last_end = t.end


def _outcome(lex, data):
    """The token tuple, or the MalformedSource message, line and column."""
    try:
        return lex(data).tokens
    except MalformedSource as exc:
        return (exc.message, exc.line, exc.col)


def assert_matches_reference(data: bytes):
    try:
        expected = _outcome(reference_tokenize, data)
    except UnicodeDecodeError as exc:
        # the reference lets the decode error escape; tokenize reports the
        # first bad byte's line and byte column
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        expected = ("invalid UTF-8", data.count(b"\n", 0, exc.start) + 1,
                    exc.start - line_start + 1)
    assert _outcome(tokenize, data) == expected


@pytest.mark.parametrize("name", sorted(
    str(p.relative_to(FIXTURES)) for p in FIXTURES.rglob("*") if p.is_file()))
def test_fixture_matches_reference_tokenizer(name):
    assert_matches_reference((FIXTURES / name).read_bytes())


def test_wide_program_matches_reference_tokenizer(monkeypatch):
    # the benchmark's generated program, seed 1
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import widegen

    assert_matches_reference(widegen.generate_program(1).encode("utf-8"))


# Pieces that exercise every token class boundary: quotes, escaped newlines,
# comment openers and closers, exponent signs, non-ASCII and stray bytes.
_LEXER_ALPHABET = st.sampled_from([
    '"', "'", "\\", "\\\n", "\n", " ", "\t", "/*", "*/", "//", "/", "*",
    "1e+5", ".5", "0xE+1", "1", ".", "...", "e", "E", "a", "_x",
    "+", "-", "%", "+=", "++", ">>=", "<", "(", ")", "[", "]", ";",
    "é", "π", "$", "`", "\x00",
])


@settings(max_examples=500)
@given(st.one_of(
    st.lists(_LEXER_ALPHABET, max_size=40).map(lambda parts: "".join(parts).encode()),
    st.binary(max_size=40),
))
def test_matches_reference_tokenizer(data):
    assert_matches_reference(data)


# ---- apart: a swap that keeps every other token ----

def spans(tokens) -> list[tuple]:
    return [(t.kind, t.lexeme, t.start, t.end) for t in tokens]


def swapped(unit, start, new) -> list[tuple]:
    """``spans`` of ``unit``'s tokens with ``new`` in place of the lexeme of
    the token at ``start``, its kind kept, and every later token moved by
    the change in length."""
    old, = [t for t in unit.tokens if t.start == start]
    delta = len(new.encode()) - (old.end - old.start)
    return [(t.kind, new if t is old else t.lexeme,
             t.start + delta * (t.start > start), t.end + delta * (t.start >= start))
            for t in unit.tokens]


@pytest.mark.parametrize("name, language", [
    ("b2tob10.mini", Language.MINI), ("census.mini", Language.MINI),
    ("hostile.mini", Language.MINI), ("max_search.mini", Language.MINI),
    ("powsum.mini", Language.MINI), ("merges.mini", Language.MINI),
    ("b2tob10.c", Language.C_LIKE),
    ("snippets/max_snippet.c", Language.C_LIKE),
    ("snippets/pow3_snippet.c", Language.C_LIKE),
])
def test_apart_matches_tokenize_on_every_mutant(name, language):
    # a swap is apart exactly when the mutant lexes as the unit with that
    # one lexeme swapped; the swaps of merges.mini that merge two tokens
    # or open a comment are not
    unit = load_unit(name, language)
    kept = 0
    for m in apply_all([ROR, ASR, AOR], unit):
        want = (spans(tokenize(m.mutated_text, language).tokens)
                == swapped(unit, m.start, m.replacement))
        assert apart(unit, m.start, m.replacement) == want, m.id
        kept += want
    assert kept > 0


@pytest.mark.parametrize("text, start, new", [
    (b"x = a+-b;", 5, "-"),      # "--" is one token
    (b"x = a*/*c*/b;", 5, "/"),  # "//" opens a line comment
    (b"x = a <= b;", 7, "<"),    # inside a token
    (b"x = a + b;", 5, "-"),     # between two tokens
    (b"< a + b;", 0, ">"),       # the first token
    (b"x = a + b <", 10, ">"),   # the last token
], ids=["merges", "comment", "inside", "between", "first", "last"])
def test_apart_rejects(text, start, new):
    assert not apart(tokenize(text, Language.MINI), start, new)
