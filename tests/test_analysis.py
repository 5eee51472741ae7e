"""Facts in ``analysis``: table attribution by each fragment's token range
and the query's one reading of table references, against a per-fragment
reference count, the invariants that tie own and
subtree counts together, aliases, which are not tables, and every other
fact of the one walk per fragment against per-fragment reference
definitions."""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlgov.fragmenter as fragmenter
from sqlgov.analysis import MATCHER_PREDICATES, analyze_tree, \
    correlated_subquery, fragment_facts, matcher_holds, referenced_tables
from sqlgov.equivalence import _skeleton_mismatch, parse_select
from sqlgov.errors import EmptyQueryError
from sqlgov.fragmenter import SITE_FROM, SITE_SELECT_LIST, SUBQUERY, \
    decompose, decompose_lenient
from sqlgov.rewriter import passes_efficiency_screen
from sqlgov.sqltext import KEYWORDS, normalize_tokens, normalized_text, \
    templatize
from test_fragmenter import _assign_markers, _render, damaged_sql, gen_trees

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_queries() -> list[str]:
    queries = [p.read_text() for p in sorted(FIXTURES.glob("*.sql"))]
    for line in (FIXTURES / "bench_pairs.jsonl").read_text().splitlines():
        pair = json.loads(line)
        queries += [pair["original"], pair["rewritten"]]
    return queries


# --- a reference reading of FROM items ----------------------------------------
#
# The FROM-item rules once more, read group by group with recursion in place
# of the walk's stack of levels, from each token's text.

_REF_OPENERS = {"FROM", "JOIN", "INTO", "UPDATE", "TABLE"}
_REF_CLAUSE_WORDS = {"SELECT", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT",
                     "SET", "UNION", "INTERSECT", "EXCEPT", "VALUES", "WINDOW"}
_REF_NOT_ALIASES = _REF_CLAUSE_WORDS | {"FETCH", "FOR", "TABLESAMPLE",
                                       "RETURNING"}


def _ref_name_word(tok):
    return tok.kind == "WORD" and tok.text.upper() not in KEYWORDS


def _ref_alias_word(tok):
    return _ref_name_word(tok) and tok.text.upper() not in _REF_NOT_ALIASES


def _ref_alias(tokens, j):
    if j < len(tokens) and tokens[j].text.upper() == "AS":
        j += 1
    return j if j < len(tokens) and _ref_alias_word(tokens[j]) else None


def _ref_group(tokens, i, lst, out):
    """Read one parenthesis level from ``tokens[i]`` up to its ')', which
    it returns the index of (``len(tokens)`` when none comes), appending
    each item to ``out`` as (kind, indices of its name words, alias index).
    ``lst`` is the list the level opens in: "FROM", with an item due, for a
    parenthesized join, "ARGS", where no list opens, for a function's
    arguments, and None otherwise."""
    due = lst == "FROM"
    while i < len(tokens) and tokens[i].text != ")":
        tok = tokens[i]
        word = tok.text.upper()
        if tok.text == "(":
            query = i + 1 < len(tokens) \
                and tokens[i + 1].text.upper() in ("SELECT", "WITH", "VALUES")
            join = lst == "FROM" and due and not query
            args = not query and i > 0 and _ref_name_word(tokens[i - 1])
            close = _ref_group(tokens, i + 1, "FROM" if join
                               else "ARGS" if args else None, out)
            if lst == "FROM" and due:
                due = False
                if query and close < len(tokens):
                    alias = _ref_alias(tokens, close + 1)
                    out.append(("derived", [close], alias))
                    close = alias or close
            i = close
        elif lst == "ARGS":
            pass
        elif word in _REF_OPENERS and not (
                word == "UPDATE" and i > 0 and tokens[i - 1].text.upper() == "FOR"):
            lst, due = "FROM", True
        elif word == "WITH":
            lst, due = "WITH", True
        elif word in _REF_CLAUSE_WORDS:
            lst, due = None, False
        elif lst is None:
            pass
        elif word == ",":
            lst, due = ("WITH" if lst == "WITH" else "FROM"), True
        elif word in ("ON", "USING"):
            lst, due = "ON", False
        elif due and _ref_name_word(tok):
            words = [i]
            if lst == "FROM":
                while i + 2 < len(tokens) and tokens[i + 1].text == "." \
                        and tokens[i + 2].kind == "WORD":
                    i += 2
                    words.append(i)
                alias = _ref_alias(tokens, i + 1)
                out.append(("table", words, alias))
                i = alias or i
            else:
                out.append(("cte", words, None))
            due = False
        elif due and tok.kind != "WORD":
            due = False
        i += 1
    return min(i, len(tokens))


def _ref_from_items(tokens):
    """Every item of the query, in the order read; a ')' that closes no
    group leaves no list open."""
    out, i = [], 0
    while i < len(tokens):
        i = _ref_group(tokens, i, None, out) + 1
    return out


def _ref_name(tokens, words):
    return ".".join(tokens[k].text.strip('`"').lower() for k in words)


def _reference_counts(tree):
    """(own, subtree) counts per fragment the long way: the reference
    reading's named items whose names no WITH list defines, counted in each
    fragment's token range, and own counts the subtree counts minus the
    direct children's."""
    tokens = tree.tokens
    items = _ref_from_items(tokens)
    ctes = {_ref_name(tokens, words) for kind, words, _ in items
            if kind == "cte"}
    refs = [(words[0], _ref_name(tokens, words)) for kind, words, _ in items
            if kind == "table" and _ref_name(tokens, words) not in ctes]
    subtree = {f.id: Counter(name for idx, name in refs
                             if f.token_range[0] <= idx < f.token_range[1])
               for f in tree.fragments}
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
    ("SELECT * FROM db.s.t x", ["db.s.t"]),
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


@pytest.mark.parametrize("sql, tables", [
    ("SELECT w.k FROM (SELECT u.k FROM u WHERE u.k > 1) d, w", ["u", "w"]),
    ("SELECT c.x FROM a JOIN b ON a.k = b.k, c", ["a", "b", "c"]),
    ("SELECT * FROM a JOIN b USING (k), c x", ["a", "b", "c"]),
    ("SELECT * FROM (a JOIN b ON a.k = b.k) JOIN c ON TRUE, d", ["a", "b", "c",
                                                                 "d"]),
    ("SELECT * FROM a WHERE a.k IN (SELECT k FROM b WHERE b.x = 1), c",
     ["a", "b"]),
    ("SELECT * FROM a JOIN b ON a.k IN (SELECT k FROM c), d", ["a", "b", "c",
                                                               "d"]),
])
def test_an_item_after_a_condition_or_a_derived_table_is_read(sql, tables):
    """A comma in a FROM list starts an item, after a JOIN's condition or a
    derived table that ends in a clause as anywhere else; a comma after a
    WHERE is no item's."""
    tree = decompose(sql)
    assert referenced_tables(tree) == tables
    _assert_attribution(tree)


@pytest.mark.parametrize("sql, tables", [
    ("SELECT EXTRACT(YEAR FROM o.ds) AS y FROM orders o", ["orders"]),
    ("SELECT TRIM(BOTH ' ' FROM s) FROM t", ["t"]),
    ("SELECT SUBSTRING(s FROM 1 FOR 2) FROM t", ["t"]),
    ("SELECT COALESCE((SELECT MAX(k) FROM u), 0) FROM t", ["t", "u"]),
    ("SELECT a FROM t FOR UPDATE OF t", ["t"]),
])
def test_a_from_in_a_function_call_or_for_update_opens_no_list(sql, tables):
    """A group that holds no query and follows a function name holds
    arguments, and the UPDATE of FOR UPDATE opens no FROM list; a query
    in the arguments reads as anywhere else. Each root reads one table of
    its own, so it passes the efficiency screen."""
    tree = decompose(sql)
    assert referenced_tables(tree) == tables
    assert passes_efficiency_screen(tree.root_id, tree)
    _assert_attribution(tree)


def test_the_reference_reads_no_list_in_a_function_call():
    tokens = decompose_lenient("x ( FROM t")[0].tokens
    assert _ref_from_items(tokens) == []


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


def test_a_qualified_table_counts_once_by_its_whole_name():
    sql = "SELECT a.x, b.y FROM sales.orders a JOIN sales.items b ON a.k = b.k"
    tree = decompose(sql)
    assert referenced_tables(tree) == ["sales.items", "sales.orders"]
    assert not matcher_holds([{"pred": "same_table_scanned"}], tree,
                             tree.root_id)
    one = decompose("SELECT x FROM sales.orders")
    assert fragment_facts(one, one.root_id).table_counts_own \
        == {"sales.orders": 1}
    assert passes_efficiency_screen(one.root_id, one)


def test_an_aliased_single_scan_passes_the_efficiency_screen():
    tree = decompose("SELECT a.x FROM t a WHERE a.y = 1")
    assert passes_efficiency_screen(tree.root_id, tree)


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


def test_records_are_immutable_tuples(nested_query):
    tree = decompose(nested_query)
    root, facts = tree.root, analyze_tree(tree)[tree.root_id]
    assert isinstance(root, tuple) and isinstance(facts, tuple)
    with pytest.raises(AttributeError):
        root.id = 2
    with pytest.raises(AttributeError):
        facts.select_items = 2
    assert "source" not in repr(root) and nested_query not in repr(root)


@pytest.fixture
def from_item_walks(monkeypatch):
    """The token count of each walk for FROM items, in call order."""
    walks = []
    real = fragmenter.iter_from_items

    def counting(tokens):
        walks.append(len(tokens))
        return real(tokens)

    monkeypatch.setattr(fragmenter, "iter_from_items", counting)
    return walks


def test_analysis_templatize_and_tables_walk_a_tree_once(from_item_walks,
                                                        nested_query):
    tree = decompose(nested_query)
    analyze_tree(tree)
    templatize(nested_query)
    assert referenced_tables(tree) == ["tb0", "tb1", "tb2", "tb3", "tb4"]
    assert from_item_walks == [len(tree.tokens)]


def test_table_references_are_read_once_per_tree(from_item_walks,
                                                 nested_query):
    """Table counts, the tables of the whole query and the binders of the
    correlation check all read the one walk."""
    tree = decompose(nested_query)
    fragment_facts(tree, tree.root_id)
    analyze_tree(tree)
    fragment_facts(tree, 1)
    assert referenced_tables(tree) == ["tb0", "tb1", "tb2", "tb3", "tb4"]
    assert correlated_subquery(tree, tree.root_id, {})
    assert from_item_walks == [len(tree.tokens)]


def test_a_chain_past_the_recursion_limit_analyzes():
    depth = sys.getrecursionlimit() + 100
    sql = ("SELECT a FROM (" * depth + f"SELECT a FROM t{depth}"
           + "".join(f") s JOIN t{i} ON s.a = t{i}.a"
                     for i in reversed(range(depth))))
    tree = decompose(sql)
    facts = analyze_tree(tree)
    names = [f"t{i}" for i in range(depth + 1)]
    root = facts[tree.root_id]
    assert len(facts) == depth + 1
    assert root.table_counts_subtree == dict.fromkeys(names, 1)
    assert root.table_counts_own == {"t0": 1}
    assert referenced_tables(tree) == sorted(names)

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


# --- the structural predicates and the screen against per-fragment references ---
#
# Each reference below is the formula the rule matchers and the efficiency
# screen used before they shared one vocabulary, over ``_reference_facts``
# and ``_reference_counts``; the screen's subquery clause has since become
# "a subquery child outside FROM with an outer reference", read by walking
# scopes over the fragment tree.

_OPS = ["JOIN", "left join", "IN", "UNION ALL", "IS NOT NULL", "SELECT *",
        "CROSS JOIN", "( )"]


def _reference_duplicated(tree, fragment_id, subtree, min_count):
    child_counts = [subtree[c.id] for c in tree.children(fragment_id)]
    return any(count >= min_count
               and all(cc.get(table, 0) < min_count for cc in child_counts)
               for table, count in subtree[fragment_id].items())


def _ref_dotted(tokens, first, stop):
    """The lower-cased words at ``first``, ``first + 2``, ... before
    ``stop``, joined by '.'."""
    return ".".join(tokens[k].text.strip('`"').lower()
                    for k in range(first, stop, 2))


def _reference_scopes(tree):
    """Per fragment id, the names its FROM items bind and the qualifiers of
    its column references, each read from its own tokens: the tokens of
    its range outside every child's range. An item is where its first name
    word is, or a derived table's ')'; it binds its alias, or else a named
    item's whole name and that name's last part."""
    tokens = tree.tokens
    items = _ref_from_items(tokens)
    table_words = {k for kind, words, alias in items if kind != "derived"
                   for k in words + ([alias] if alias else [])}
    binders = {}  # token index: the names the item there binds
    for kind, words, alias in items:
        if alias:
            binders[words[0]] = {tokens[alias].text.strip('`"').lower()}
        elif kind == "table":
            whole = _ref_name(tokens, words)
            binders[words[0]] = {whole, whole.split(".")[-1]}
    binds, quals = {}, {}
    for f in tree.fragments:
        children = tree.children(f.id)
        names, used = set(), []
        for i in range(*f.token_range):
            if any(c.token_range[0] <= i < c.token_range[1] for c in children):
                continue
            names |= binders.get(i, set())
            if tokens[i].text == "." and i and tokens[i - 1].kind == "WORD" \
                    and i - 1 not in table_words \
                    and not (i + 2 < len(tokens)
                             and tokens[i + 1].kind == "WORD"
                             and tokens[i + 2].text == "."):
                first = i - 1
                while first >= 2 and tokens[first - 1].text == "." \
                        and tokens[first - 2].kind == "WORD":
                    first -= 2
                used.append(_ref_dotted(tokens, first, i))
        binds[f.id], quals[f.id] = names, used
    return binds, quals


def _reference_correlated(tree, child, binds, quals):
    """Some qualifier used in ``child``'s subtree is bound neither where it
    is used nor in any scope above that one that it sees, up to and
    including ``child``. A derived table does not see its parent's FROM
    items, unless it is LATERAL."""
    for g in tree.subtree(child.id):
        for q in quals[g.id]:
            scope, sees = g, True
            while not (sees and q in binds[scope.id]):
                if scope.id == child.id:
                    return True
                sees = scope.clause_site != SITE_FROM or tree.tokens[
                    scope.token_range[0] - 2].text.upper() == "LATERAL"
                scope = tree.by_id(scope.parent_id)
    return False


def _reference_answers(tree, f, own_counts, subtree, scopes):
    """(clauses and what each should answer, what the screen should answer)
    for fragment ``f``."""
    ref = _reference_facts(tree, f)
    own_text = f" {normalize_tokens(ref['own_tokens'])} "
    null_filter = ref["has_outer_join"] and ref["where_has_is_not_null"]
    arm_star = ref["has_set_op"] and ref["set_op_arm_star"]
    answers = [({"pred": "contains_operator", "op": op},
                f" {normalized_text(op)} " in own_text) for op in _OPS]
    answers += [({"pred": "same_table_scanned", "min_count": n},
                 _reference_duplicated(tree, f.id, subtree, n))
                for n in (1, 2, 3)]
    answers += [
        ({"pred": "same_table_scanned"},
         _reference_duplicated(tree, f.id, subtree, 2)),
        ({"pred": "outer_join_with_null_filter"}, null_filter),
        ({"pred": "in_subquery"}, ref["in_subquery"]),
        ({"pred": "union_all_unprojected"}, arm_star),
        ({"pred": "scalar_subquery_in_select"},
         ref["scalar_subquery_in_select"]),
    ]
    correlated = any(c.kind == SUBQUERY and c.clause_site != SITE_FROM
                     and _reference_correlated(tree, c, *scopes)
                     for c in tree.children(f.id))
    answers.append(({"pred": "correlated_subquery"}, correlated))
    screen = not (
        sum(own_counts[f.id].values()) > 1
        or correlated
        or null_filter or _reference_duplicated(tree, f.id, subtree, 2)
        or ref["select_has_star"] or arm_star)
    return answers, screen


def _assert_predicates_match_the_reference(tree):
    own_counts, subtree = _reference_counts(tree)
    scopes = _reference_scopes(tree)
    for f in reversed(tree.fragments):  # the root first: facts built on read
        answers, screen = _reference_answers(tree, f, own_counts, subtree,
                                             scopes)
        assert {clause["pred"] for clause, _ in answers} \
            == set(MATCHER_PREDICATES)
        for clause, expected in answers:
            params = {k: v for k, v in clause.items() if k != "pred"}
            predicate, _ = MATCHER_PREDICATES[clause["pred"]]
            assert predicate(tree, f.id, params) is expected, (clause, f.text)
            assert matcher_holds([clause], tree, f.id) is expected
        assert passes_efficiency_screen(f.id, tree) is screen, f.text


@pytest.mark.parametrize("sql", _fixture_queries())
def test_predicates_and_screen_match_the_reference_on_fixtures(sql):
    _assert_predicates_match_the_reference(decompose_lenient.__wrapped__(sql)[0])


@given(gen_trees(), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_predicates_and_screen_match_the_reference_on_nested_queries(
        root, tables):
    """Each fragment scans its own table, one of ``tables`` names, so
    scans repeat across fragments."""
    _assign_markers(root, [0])
    sql = re.sub(r"tbl_mk(\d+)",
                 lambda m: f"tbl_{int(m.group(1)) % tables}", _render(root))
    _assert_predicates_match_the_reference(decompose_lenient.__wrapped__(sql)[0])


@given(fact_soup())
@settings(max_examples=300, deadline=None)
def test_predicates_and_screen_match_the_reference_on_fact_soup(text):
    try:
        tree, _ = decompose_lenient.__wrapped__(text)
    except EmptyQueryError:
        return
    _assert_predicates_match_the_reference(tree)


# --- facts, local segments and local texts built one fragment at a time ---------

_PRODUCTS = ("facts", "segments", "text")


def _read(tree, product, fragment_id):
    if product == "facts":
        return fragment_facts(tree, fragment_id)
    if product == "segments":
        return tree.local_segments(fragment_id)
    return tree.local_text(fragment_id)


def _assert_built_on_read(text, data):
    """Reads in any order and subset, on a tree parsed past the memo, give
    what the whole-tree builds give on another fresh parse: ``analyze_tree``
    and every fragment's segments and text in id order. Each read is kept:
    a later read, and ``analyze_tree`` for facts, return the same object.
    An id the tree does not have raises KeyError."""
    try:
        tree, _ = decompose_lenient.__wrapped__(text)
    except EmptyQueryError:
        return
    fresh, _ = decompose_lenient.__wrapped__(text)
    whole = {
        "segments": {f.id: fresh.local_segments(f.id) for f in fresh.fragments},
        "text": {f.id: fresh.local_text(f.id) for f in fresh.fragments},
        "facts": analyze_tree(fresh),
    }
    ids = [f.id for f in tree.fragments]
    bad = [0, -1, len(ids) + 1]
    reads = data.draw(st.lists(st.tuples(st.sampled_from(_PRODUCTS),
                                         st.sampled_from(ids + bad)),
                               max_size=2 * len(ids) + 3))
    got = {}
    for product, fragment_id in reads:
        if fragment_id in bad:
            with pytest.raises(KeyError):
                _read(tree, product, fragment_id)
            continue
        value = _read(tree, product, fragment_id)
        assert value == whole[product][fragment_id]
        assert got.setdefault((product, fragment_id), value) is value
    facts = analyze_tree(tree)
    assert facts is analyze_tree(tree) and facts == whole["facts"]
    assert list(facts) == ids
    for (product, fragment_id), value in got.items():
        assert _read(tree, product, fragment_id) is value
        if product == "facts":
            assert facts[fragment_id] is value
    for fragment_id in bad:
        with pytest.raises(KeyError):
            fragment_facts(tree, fragment_id)
        with pytest.raises(KeyError):
            facts[fragment_id]


def _rendered(root):
    _assign_markers(root, [0])
    return _render(root)


@given(gen_trees().map(_rendered), st.data())
@settings(max_examples=150, deadline=None)
def test_products_built_on_read_match_the_whole_tree_on_generated_trees(
        sql, data):
    _assert_built_on_read(sql, data)


@given(st.one_of(damaged_sql(), fact_soup(), st.text(min_size=1,
                                                     max_size=120)),
       st.data())
@settings(max_examples=300, deadline=None)
def test_products_built_on_read_match_the_whole_tree_on_lenient_trees(
        text, data):
    _assert_built_on_read(text, data)
