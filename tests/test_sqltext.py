from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlgov.sqltext import normalize_tokens, normalized_text, \
    same_normalized_tokens, scan, templatize, tokenize


def test_templatize_masks_identifiers_and_literals():
    assert templatize("SELECT name FROM users WHERE id = 5") == \
        "SELECT [COL] FROM [TBL] WHERE [COL] = [VAL]"


def test_templatize_single_literal():
    assert templatize("SELECT 1") == "SELECT [VAL]"


def test_templatize_preserves_structure_and_keywords():
    out = templatize("select a, count(*) from t group by a having count(*) > 2")
    assert out == ("SELECT [COL] , COUNT ( * ) FROM [TBL] GROUP BY [COL] "
                   "HAVING COUNT ( * ) > [VAL]")


def test_templatize_strips_comments():
    assert templatize("SELECT a -- trailing\nFROM t") == \
        templatize("SELECT a FROM t")
    assert templatize("SELECT /* block */ a FROM t") == \
        templatize("SELECT a FROM t")


def test_templatize_qualified_names():
    assert templatize("SELECT u.name FROM users u") == \
        "SELECT [TBL] . [COL] FROM [TBL] [TBL]"


def test_templatize_masks_a_derived_alias_as_a_column():
    assert templatize("SELECT AVG(d) FROM (SELECT * FROM u1 UNION ALL "
                      "SELECT * FROM u2) z") == (
        "SELECT AVG ( [COL] ) FROM ( SELECT * FROM [TBL] UNION ALL "
        "SELECT * FROM [TBL] ) [COL]")
    assert templatize("WITH c AS (SELECT 1) SELECT x FROM c AS a, d b") \
        == ("WITH [TBL] AS ( SELECT [VAL] ) SELECT [COL] FROM [TBL] AS [TBL] "
            ", [TBL] [TBL]")


_sql_atoms = st.sampled_from([
    "SELECT", "FROM", "WHERE", "AND", "OR", "=", ">", "<", ",", "(", ")",
    "*", "users", "orders", "name", "id", "ds", "'x'", "'1016'", "42",
    "COUNT", "AVG", "JOIN", "ON", "GROUP", "BY",
])


@st.composite
def random_sql(draw):
    words = draw(st.lists(_sql_atoms, min_size=1, max_size=30))
    return "SELECT " + " ".join(words)


@given(random_sql())
@settings(max_examples=100)
def test_templatize_idempotent(sql):
    once = templatize(sql)
    assert templatize(once) == once


@given(random_sql())
@settings(max_examples=50)
def test_templatize_deterministic(sql):
    assert templatize(sql) == templatize(sql)


@given(st.text(max_size=120))
@settings(max_examples=150, deadline=None)
def test_templatize_total_and_idempotent_on_arbitrary_text(text):
    once = templatize(text)
    assert templatize(once) == once


def test_scan_reports_unterminated_string():
    tokens, diagnostic = scan("SELECT 'oops FROM t")
    assert diagnostic is not None and "unterminated string" in diagnostic
    assert tokens[0].text == "SELECT"


def test_scan_reports_unterminated_block_comment():
    _, diagnostic = scan("SELECT a /* never closed")
    assert diagnostic is not None and "block comment" in diagnostic


def test_token_spans_index_into_source():
    sql = "SELECT a, b FROM t WHERE x = 'v'"
    for tok in tokenize(sql):
        assert sql[tok.start:tok.end] == tok.text


def test_normalized_text_ignores_whitespace_and_comments():
    left = "SELECT  a FROM t -- c\nWHERE x=1"
    right = "select a from t where x = 1"
    assert normalized_text(left) == normalized_text(right)


def test_normalized_text_distinguishes_identifiers():
    assert normalized_text("SELECT a FROM t") != normalized_text("SELECT b FROM t")


W, S, N, O, P = "WORD", "STRING", "NUMBER", "OP", "PUNCT"


@pytest.mark.parametrize("sql, tokens, diagnostic", [
    # a doubled quote never closes a literal
    ("'ab''", [(S, "'ab''")], "unterminated string literal at offset 0"),
    ("'ab'''", [(S, "'ab'''")], None),
    ("'it''s' x", [(S, "'it''s'"), (W, "x")], None),
    # the '*' of an opener does not close it
    ("/*/", [], "unterminated block comment at offset 0"),
    # each unclosed form, with what it leaves
    ("SELECT 'a", [(W, "SELECT"), (S, "'a")],
     "unterminated string literal at offset 7"),
    ('SELECT "a', [(W, "SELECT"), (W, '"a')],
     "unterminated quoted identifier at offset 7"),
    ("SELECT `a", [(W, "SELECT"), (W, "`a")],
     "unterminated quoted identifier at offset 7"),
    ("SELECT a /* x", [(W, "SELECT"), (W, "a")],
     "unterminated block comment at offset 9"),
    # the first unclosed form ends the scan
    ("'a /* b", [(S, "'a /* b")], "unterminated string literal at offset 0"),
    ("/* a */ 'b", [(S, "'b")], "unterminated string literal at offset 8"),
    # line comments, also at the end of input
    ("SELECT a --", [(W, "SELECT"), (W, "a")], None),
    ("a--b\nc", [(W, "a"), (W, "c")], None),
    # placeholders are atomic; other brackets are punctuation
    ("[TBL]", [("PLACEHOLDER", "[TBL]")], None),
    ("[X]", [(P, "["), (W, "X"), (P, "]")], None),
    # operators take the longest match
    ("a<=>b", [(W, "a"), (O, "<=>"), (W, "b")], None),
    ("x::int", [(W, "x"), (O, "::"), (W, "int")], None),
    ("-5", [(O, "-"), (N, "5")], None),
    # numbers
    (".5", [(N, ".5")], None),
    ("1.5e-3", [(N, "1.5e-3")], None),
    ("1.e5", [(N, "1"), (P, "."), (W, "e5")], None),
    # words: ASCII letters and '_', then also digits and '$'
    ("a$b", [(W, "a$b")], None),
    # Unicode whitespace separates; other non-ASCII letters are punctuation
    ("a\xa0b\x1cc", [(W, "a"), (W, "b"), (W, "c")], None),
    ("naïve é", [(W, "na"), (P, "ï"), (W, "ve"), (P, "é")],
     None),
])
def test_scan_edge_cases(sql, tokens, diagnostic):
    got, diag = scan(sql)
    assert [(tok.kind, tok.text) for tok in got] == tokens
    assert diag == diagnostic


_GAP = re.compile(r"(?:\s|--[^\n]*|/\*.*?\*/)*", re.DOTALL)
_lexemes = st.sampled_from([
    "'", "''", '"', "`", "/*", "*/", "--", "\n", " ", "\t", "\xa0",
    " ", "\x1c", "/", "*", "-", "[TBL]", "[VAL]", "[X]", "[", "]",
    "<=>", "<>", "!=", ">=", "<=", "||", "::", "<", "=", "+", "%", "!",
    "0", "7", ".", ".5", "e", "1.5e-3", "a", "_", "$", "SELECT", "FROM",
    "(", ")", ",", ";", "é", "中", "٣",
])


@given(st.one_of(st.lists(_lexemes, max_size=40).map("".join),
                 st.text(max_size=60)))
@settings(max_examples=400, deadline=None)
def test_tokens_tile_the_source(sql):
    """Tokens index the source in order without overlap, and what lies
    between them is whitespace and comments; an unclosed block comment may
    take the rest of the input. A word's upper form is its text upper-cased,
    any other token's its text."""
    tokens, diagnostic = scan(sql)
    pos = 0
    for tok in tokens:
        assert tok.text == sql[tok.start:tok.end] and tok.start < tok.end
        assert tok.upper == (tok.text.upper() if tok.kind == "WORD"
                             else tok.text)
        assert _GAP.fullmatch(sql, pos, tok.start)
        pos = tok.end
    end = len(sql)
    if diagnostic is not None and "block comment" in diagnostic:
        end = int(diagnostic.rsplit(" ", 1)[1])
        assert sql.startswith("/*", end)
    assert _GAP.fullmatch(sql, pos, end)


# --- the identity test, token by token ----------------------------------------

_query_pieces = st.sampled_from([
    "SELECT", "select", "From", "WHERE", "and", "Join", "AS", "a", "A", "t",
    "tb1.ds", "'x y'", "'X Y'", '"a b"', "`c d`", "'it''s'", "42", "4.2",
    "(", ")", ",", "*", "=", "<=", "[VAL]",
])
_gaps = st.sampled_from([" ", "  ", "\n", "\t ", " /* c */ ", " -- c\n"])


@st.composite
def edited_pairs(draw):
    """A query of pieces, and the same pieces with some case swapped,
    whitespace and comments between them, and at most one piece replaced,
    inserted or deleted."""
    pieces = draw(st.lists(st.one_of(_query_pieces, _lexemes), min_size=1,
                           max_size=30))
    other = list(pieces)
    for i in draw(st.lists(st.integers(0, len(other) - 1), max_size=4)):
        other[i] = other[i].swapcase()
    at = draw(st.integers(0, len(other)))
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    if edit == "insert" or edit == "replace" and at == len(other):
        other.insert(at, draw(_query_pieces))
    elif edit == "replace":
        other[at] = draw(_query_pieces)
    elif edit == "delete" and at < len(other):
        del other[at]
    rest = "".join(draw(_gaps) + piece for piece in other)
    return " ".join(pieces), rest


@given(edited_pairs())
@example(("SELECT a FROM t", "select  a /* c */ from\nt"))
@example(("SELECT a FROM t", "SELECT A FROM t"))
@example(("SELECT 'x y'", "SELECT 'x  y'"))
@settings(max_examples=500, deadline=None)
def test_the_token_by_token_identity_test_agrees_with_the_joined_forms(pair):
    a, b = (scan(text)[0] for text in pair)
    assert same_normalized_tokens(a, b) \
        == (normalize_tokens(a) == normalize_tokens(b))
