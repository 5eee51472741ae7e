"""Table attribution in ``analysis``: the one-pass owner map against a
per-fragment reference count, the invariants that tie own and subtree
counts together, and aliases, which are not tables."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

from sqlgov.analysis import _table_refs, analyze_tree, referenced_tables
from sqlgov.equivalence import _skeleton_mismatch, skeleton
from sqlgov.fragmenter import decompose
from sqlgov.rewriter import passes_efficiency_screen
from test_fragmenter import _assign_markers, _render, gen_trees

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
    subtree = {
        f.id: Counter(name for _, name in _table_refs(
            tree.tokens[slice(*f.token_range)], cte_names))
        for f in tree.fragments
    }
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
    assert _skeleton_mismatch(skeleton(a), skeleton(b)) is None


def test_an_aliased_single_scan_passes_the_efficiency_screen():
    tree = decompose("SELECT a.x FROM t a WHERE a.y = 1")
    assert passes_efficiency_screen(tree.root_id, analyze_tree(tree), tree)
