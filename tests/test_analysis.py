"""Facts in ``analysis``: table attribution by the one-pass owner map
against a per-fragment reference count, the invariants that tie own and
subtree counts together, aliases, which are not tables, and every other
fact of the one walk per fragment against per-fragment reference
definitions."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlgov.fragmenter as fragmenter
from sqlgov.analysis import _table_refs, analyze_tree, referenced_tables
from sqlgov.equivalence import _skeleton_mismatch, parse_select
from sqlgov.errors import EmptyQueryError
from sqlgov.fragmenter import SITE_SELECT_LIST, SUBQUERY, decompose, \
    decompose_lenient
from sqlgov.rewriter import passes_efficiency_screen
from sqlgov.sqltext import iter_table_context, normalize_tokens, templatize
from test_fragmenter import _assign_markers, _render, damaged_sql, gen_trees

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_queries() -> list[str]:
    queries = [p.read_text() for p in sorted(FIXTURES.glob("*.sql"))]
    for line in (FIXTURES / "bench_pairs.jsonl").read_text().splitlines():
        pair = json.loads(line)
        queries += [pair["original"], pair["rewritten"]]
    return queries


def _reference_counts(tree):
    """(own, subtree) counts per fragment the long way: the table-reference
    helper over each fragment's whole token range, and own counts the
    subtree counts minus the direct children's."""
    cte_names = tree.cte_names()
    subtree = {}
    for f in tree.fragments:
        tokens = tree.tokens[slice(*f.token_range)]
        positions = [idx for idx, _ in iter_table_context(tokens)]
        subtree[f.id] = Counter(
            name for _, name in _table_refs(tokens, positions, cte_names))
    own = {}
    for f in tree.fragments:
        counts = Counter(subtree[f.id])
        for child in tree.children(f.id):
            counts.subtract(subtree[child.id])
        assert all(v >= 0 for v in counts.values())
        own[f.id] = +counts
    return own, subtree


def _assert_attribution(tree):
    facts = analyze_tree(tree)
    own, subtree = _reference_counts(tree)
    for f in tree.fragments:
        assert facts[f.id].table_counts_own == own[f.id], f.text
        assert facts[f.id].table_counts_subtree == subtree[f.id], f.text
    # own tokens partition the query's tokens, in order within a fragment
    owned = sorted((tok.start, tok) for f in tree.fragments
                   for tok in facts[f.id].own_tokens)
    assert [tok for _, tok in owned] == list(tree.tokens)
    # subtree counts are own counts plus the children's subtree counts
    for f in tree.fragments:
        total = Counter(facts[f.id].table_counts_own)
        for child in tree.children(f.id):
            total.update(facts[child.id].table_counts_subtree)
        assert facts[f.id].table_counts_subtree == total
    assert referenced_tables(tree) == sorted(
        facts[tree.root_id].table_counts_subtree)


@pytest.mark.parametrize("sql", _fixture_queries())
def test_attribution_matches_the_reference_on_fixtures(sql):
    _assert_attribution(decompose(sql))


@given(gen_trees())
@settings(max_examples=100, deadline=None)
def test_attribution_matches_the_reference_on_nested_queries(root):
    _assign_markers(root, [0])
    _assert_attribution(decompose(_render(root)))


@pytest.mark.parametrize("sql, tables", [
    ("SELECT a.x FROM t a", ["t"]),
    ("SELECT a.x FROM t AS a", ["t"]),
    ('SELECT a.x FROM "T" a, u AS b', ["t", "u"]),
    ("SELECT * FROM t1 a JOIN t2 b ON a.k = b.k", ["t1", "t2"]),
    ("SELECT * FROM (SELECT y FROM u) d", ["u"]),
    ("SELECT * FROM db.s.t x", ["db", "s", "t"]),
])
def test_aliases_are_not_tables(sql, tables):
    tree = decompose(sql)
    assert referenced_tables(tree) == tables
    _assert_attribution(tree)


@pytest.mark.parametrize("sql, tables", [
    ("SELECT * FROM ONLY t", ["t"]),
    ("SELECT * FROM t1, LATERAL (SELECT * FROM t2) x", ["t1", "t2"]),
    ("SELECT * FROM t1 JOIN LATERAL (SELECT * FROM t2) x ON TRUE",
     ["t1", "t2"]),
])
def test_lateral_and_only_are_not_tables(sql, tables):
    tree = decompose(sql)
    assert referenced_tables(tree) == tables
    _assert_attribution(tree)


@pytest.mark.parametrize("sql", [
    "WITH t1 AS ( ( WITH ) ) , c2 AS ( t3 ) SELECT 1",
    "( WITH t1 AS ( WITH SELECT UPDATE ) , x AS ( b ) VALUES )",
])
def test_a_with_list_ends_at_its_closing_parenthesis(sql):
    """A WITH never closed by a clause at its depth, or one nested in a CTE
    body, leaves no table context behind its parenthesis: the outer WITH
    list resumes, so the CTE bodies ``t3`` and ``b`` are not tables."""
    tree = decompose(sql)
    assert referenced_tables(tree) == []
    _assert_attribution(tree)


def test_a_derived_table_alias_is_owned_by_nobody():
    tree = decompose("SELECT x FROM t JOIN (SELECT DISTINCT y FROM u) d "
                     "ON t.y = d.y")
    facts = analyze_tree(tree)
    (child,) = tree.children(tree.root_id)
    assert facts[tree.root_id].table_counts_own == {"t": 1}
    assert facts[child.id].table_counts_own == {"u": 1}
    assert facts[tree.root_id].table_counts_subtree == {"t": 1, "u": 1}


@pytest.mark.parametrize("a, b", [
    ("SELECT a.x FROM t a", "SELECT b.x FROM t b"),
    ("SELECT x FROM t WHERE y IN (SELECT y FROM u)",
     "SELECT x FROM t JOIN (SELECT DISTINCT y FROM u) d ON t.y = d.y"),
])
def test_renamed_aliases_pass_the_skeleton_prefilter(a, b):
    assert _skeleton_mismatch(parse_select(a), parse_select(b)) is None


def test_an_aliased_single_scan_passes_the_efficiency_screen():
    tree = decompose("SELECT a.x FROM t a WHERE a.y = 1")
    assert passes_efficiency_screen(tree.root_id, analyze_tree(tree), tree)


# --- one shared, read-only analysis per tree ------------------------------------

def test_one_memoized_tree_is_analyzed_once(nested_query):
    facts = analyze_tree(decompose(nested_query))
    assert analyze_tree(decompose(nested_query)) is facts
    assert analyze_tree(parse_select(nested_query)) is facts


def test_a_shared_analysis_is_read_only(nested_query):
    tree = decompose(nested_query)
    facts = analyze_tree(tree)
    root = facts[tree.root_id]
    with pytest.raises(TypeError):
        facts[tree.root_id] = root
    with pytest.raises(TypeError):
        del facts[tree.root_id]
    for counts in (root.table_counts_own, root.table_counts_subtree):
        with pytest.raises(TypeError):
            counts["tb9"] = 1
    assert "tb9" not in analyze_tree(tree)[tree.root_id].table_counts_subtree


def test_analysis_templatize_and_tables_walk_a_tree_once(monkeypatch,
                                                        nested_query):
    walks = []

    def counting(tokens):
        walks.append(len(tokens))
        return iter_table_context(tokens)

    monkeypatch.setattr(fragmenter, "iter_table_context", counting)
    tree = decompose(nested_query)
    analyze_tree(tree)
    templatize(nested_query)
    assert referenced_tables(tree) == ["tb0", "tb1", "tb2", "tb3", "tb4"]
    assert walks == [len(tree.tokens)]


# --- every fact against a per-fragment reference ------------------------------
#
# The definitions below compute each fact the long way, each on its own pass
# over the fragment's own tokens, upper-casing token text as they go.

_REF_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}
_REF_CLAUSE_BREAK = {"FROM", "WHERE", "GROUP", "ORDER", "HAVING",
                     "LIMIT"} | _REF_SET_OPS
_REF_WHERE_BREAK = {"GROUP", "ORDER", "HAVING", "LIMIT",
                    "WINDOW"} | _REF_SET_OPS
_REF_OUTER_JOINS = {"LEFT", "RIGHT", "FULL"}
_REF_JOIN_MODIFIERS = _REF_OUTER_JOINS | {"INNER", "OUTER", "CROSS", "NATURAL"}


def _ref_top_level(tokens):
    depth = 0
    for idx, tok in enumerate(tokens):
        if tok.text == "(":
            depth += 1
        elif tok.text == ")":
            depth -= 1
        elif depth == 0:
            yield idx, tok


def _ref_clause_region(tokens, head, enders):
    start = None
    for idx, tok in _ref_top_level(tokens):
        if tok.kind != "WORD":
            continue
        if start is None:
            if tok.text.upper() == head:
                start = idx + 1
        elif tok.text.upper() in enders:
            return tokens[start:idx]
    return None if start is None else tokens[start:]


def _ref_count_items(region):
    top = list(_ref_top_level(region))
    commas = sum(1 for _, tok in top if tok.text == ",")
    star = any(
        tok.text == "*" and (idx == 0 or region[idx - 1].text in (",", ".")
                             or region[idx - 1].text.upper() == "DISTINCT")
        for idx, tok in top)
    return (commas + 1 if top else 0), star


def _ref_has_is_not_null(tokens):
    uppers = [t.text.upper() for t in tokens]
    return any(uppers[i:i + 3] == ["IS", "NOT", "NULL"]
               for i in range(len(uppers) - 2))


def _ref_has_outer_join(tokens):
    uppers = [t.text.upper() for t in tokens]
    for i, upper in enumerate(uppers):
        if upper != "JOIN":
            continue
        kind = None
        j = i - 1
        while j >= 0 and uppers[j] in _REF_JOIN_MODIFIERS:
            if uppers[j] in _REF_OUTER_JOINS or uppers[j] == "CROSS":
                kind = uppers[j]
            j -= 1
        if kind in _REF_OUTER_JOINS:
            return True
    return False


def _ref_set_op_facts(tokens):
    words = [(idx, tok.text.upper()) for idx, tok in _ref_top_level(tokens)
             if tok.kind == "WORD"]
    has_op = any(upper in _REF_SET_OPS for _, upper in words)
    arm_star = has_op and any(
        _ref_count_items(_ref_clause_region(tokens[idx:], "SELECT",
                                            _REF_CLAUSE_BREAK))[1]
        for idx, upper in words if upper == "SELECT")
    return has_op, arm_star


def _reference_facts(tree, fragment) -> dict:
    children = [f for f in tree.fragments if f.parent_id == fragment.id]
    lo, hi = fragment.token_range
    own = tuple(tok for idx, tok in enumerate(tree.tokens[lo:hi], lo)
                if not any(c.token_range[0] <= idx < c.token_range[1]
                           for c in children))
    select_region = _ref_clause_region(own, "SELECT", _REF_CLAUSE_BREAK)
    items, star = (None, False) if select_region is None \
        else _ref_count_items(select_region)
    has_op, arm_star = _ref_set_op_facts(own)
    return {
        "own_tokens": own,
        "select_items": items,
        "select_has_star": star,
        "has_set_op": has_op,
        "set_op_arm_star": arm_star,
        "has_outer_join": _ref_has_outer_join(own),
        "where_has_is_not_null": _ref_has_is_not_null(
            _ref_clause_region(own, "WHERE", _REF_WHERE_BREAK) or []),
        "in_subquery": any(
            c.token_range[0] - 2 >= lo
            and tree.tokens[c.token_range[0] - 2].text.upper() == "IN"
            for c in children),
        "scalar_subquery_in_select": any(
            c.kind == SUBQUERY and c.clause_site == SITE_SELECT_LIST
            for c in children),
    }


def _assert_facts_match_the_reference(tree):
    facts = analyze_tree(tree)
    for f in tree.fragments:
        expected = _reference_facts(tree, f)
        got = {name: getattr(facts[f.id], name) for name in expected}
        assert got == expected, f.text


_FACT_PIECES = [
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "WINDOW", "UNION", "ALL", "INTERSECT", "EXCEPT", "DISTINCT", "JOIN",
    "LEFT", "right", "FULL", "OUTER", "INNER", "CROSS", "NATURAL", "ON",
    "IS", "not", "NULL", "IN", "WITH", "AS", "(", "(", ")", ")", ",", ".",
    "*", "*", "t", "x", "1", "'s'", "-- c\n", "/* ( */",
    "IS NOT NULL", "LEFT JOIN", "SELECT *", "SELECT DISTINCT *", "WHERE x",
    "SELECT x", "UNION ALL", "IN (SELECT x)", "(SELECT *)", "CROSS LEFT",
]


@st.composite
def fact_soup(draw):
    """SQL pieces that the facts look for, in any order and nesting."""
    return " ".join(draw(st.lists(st.sampled_from(_FACT_PIECES),
                                  min_size=1, max_size=50)))


@pytest.mark.parametrize("sql", _fixture_queries())
def test_every_fact_matches_the_reference_on_fixtures(sql):
    _assert_facts_match_the_reference(decompose(sql))


@given(gen_trees())
@settings(max_examples=100, deadline=None)
def test_every_fact_matches_the_reference_on_nested_queries(root):
    _assign_markers(root, [0])
    _assert_facts_match_the_reference(decompose(_render(root)))


@given(st.one_of(fact_soup(), damaged_sql(), st.text(min_size=1,
                                                     max_size=120)))
@settings(max_examples=400, deadline=None)
def test_every_fact_matches_the_reference_on_lenient_trees(text):
    try:
        tree, _ = decompose_lenient(text)
    except EmptyQueryError:
        return
    _assert_facts_match_the_reference(tree)


@pytest.mark.parametrize("sql, facts", [
    ("SELECT a, b * 2, * FROM t LEFT OUTER JOIN u ON TRUE "
     "WHERE a IS NOT NULL GROUP BY a",
     {"select_items": 3, "select_has_star": True, "has_outer_join": True,
      "where_has_is_not_null": True, "has_set_op": False}),
    ("SELECT a * b FROM t CROSS LEFT JOIN u GROUP BY a IS NOT NULL",
     {"select_items": 1, "select_has_star": False, "has_outer_join": False,
      "where_has_is_not_null": False}),
    ("SELECT a FROM t UNION ALL SELECT DISTINCT * FROM u",
     {"select_items": 1, "select_has_star": False, "has_set_op": True,
      "set_op_arm_star": True}),
    ("SELECT a FROM t WHERE a IN (SELECT b FROM u)",
     {"in_subquery": True, "scalar_subquery_in_select": False}),
    ("SELECT a, (SELECT b FROM u) FROM t WHERE a IS NOT NULL WHERE b = 1",
     {"select_items": 2, "in_subquery": False,
      "scalar_subquery_in_select": True, "where_has_is_not_null": True}),
    ("SELECT a SELECT * FROM t UNION SELECT b FROM u",
     {"select_items": 1, "select_has_star": False, "has_set_op": True,
      "set_op_arm_star": True}),
])
def test_facts_of_worked_examples(sql, facts):
    root = analyze_tree(decompose(sql))[decompose(sql).root_id]
    assert {name: getattr(root, name) for name in facts} == facts


@pytest.mark.parametrize("sql,expected", [
    ("SELECT a, (SELECT MAX(b) FROM u) AS m FROM t WHERE x > 1",
     "a , ( ) AS m"),
    ("WITH c AS (SELECT 1 AS z) select distinct c.z from c", "DISTINCT c . z"),
    ("SELECT a FROM t UNION SELECT b FROM u", "a"),
    ("SELECT 1", "1"),
    ("SELECT COALESCE(a, (SELECT 1)) AS v FROM t", "COALESCE ( a , ( ) ) AS v"),
], ids=["scalar-subquery", "with-prelude", "set-operation", "no-from",
        "nested-subquery"])
def test_select_list_is_the_normalized_projection(sql, expected):
    """The facts keep the first SELECT region's own tokens: each child in
    it shows as its parentheses."""
    tree = decompose(sql)
    assert normalize_tokens(analyze_tree(tree)[tree.root_id].projection) \
        == expected
