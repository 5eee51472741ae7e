from __future__ import annotations

import json
import re
import sys
import tracemalloc
from dataclasses import dataclass, field

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqlgov import cli
from sqlgov.errors import EmptyQueryError, OutOfRangeError, UnparseableQueryError
from sqlgov.fragmenter import (
    CTE,
    MAIN,
    SUBQUERY,
    decompose,
    decompose_lenient,
    fragment_at,
)
from sqlgov.sqltext import Token, scan


# --- nested exemplar fidelity -------------------------------------------------

def test_nested_query_has_seven_fragments(nested_query):
    tree = decompose(nested_query)
    assert len(tree.fragments) == 7


def test_nested_query_max_depth_is_four(nested_query):
    tree = decompose(nested_query)
    assert max(f.depth for f in tree.fragments) == 4


def test_nested_query_reference_numbering(nested_query):
    tree = decompose(nested_query)
    by_id = {f.id: f for f in tree.fragments}
    # 1-3 nested under 4, which sits at the main query's WHERE site
    assert by_id[4].clause_site == "WHERE"
    assert by_id[4].parent_id == 7
    assert by_id[1].parent_id == 2
    assert by_id[2].parent_id == 4
    assert by_id[3].parent_id == 4
    # 5-6 are the scalar subqueries in the select list
    assert by_id[5].clause_site == "SELECT_LIST"
    assert by_id[6].clause_site == "SELECT_LIST"
    assert by_id[5].parent_id == 7 and by_id[6].parent_id == 7
    assert by_id[5].span[0] < by_id[6].span[0]
    # 7 is the main query, numbered last
    assert by_id[7].kind == MAIN
    assert tree.root_id == 7


def test_nested_query_fragment_texts_anchor_expected_content(nested_query):
    tree = decompose(nested_query)
    by_id = {f.id: f for f in tree.fragments}
    assert "GROUP BY ds" in by_id[1].text
    assert "MIN(c)" in by_id[2].text
    assert "ds = '1016'" in by_id[3].text
    assert "IFNULL" in by_id[4].text
    assert "tb3.c1 - tb3.c2" in by_id[5].text
    assert "AVG(tb4.c3)" in by_id[6].text


def test_fragment_at_nested_query_offsets(nested_query):
    tree = decompose(nested_query)
    assert fragment_at(tree, nested_query.index("WHERE ds = '1016'")).id == 3
    assert fragment_at(tree, nested_query.index("GROUP BY ds")).id == 1
    assert fragment_at(tree, nested_query.index("LEFT JOIN")).id == 7


def test_fragment_at_single_fragment_tree():
    tree = decompose("SELECT 1")
    for offset in range(len("SELECT 1")):
        assert fragment_at(tree, offset).id == 1


def test_fragment_at_out_of_range():
    tree = decompose("SELECT 1")
    with pytest.raises(OutOfRangeError):
        fragment_at(tree, -1)
    with pytest.raises(OutOfRangeError):
        fragment_at(tree, len("SELECT 1"))


# --- trivial and error cases --------------------------------------------------

def test_select_1_single_main_fragment():
    tree = decompose("SELECT 1")
    assert len(tree.fragments) == 1
    frag = tree.fragments[0]
    assert frag.id == 1 and frag.kind == MAIN and frag.depth == 1


def test_empty_query_raises():
    with pytest.raises(EmptyQueryError):
        decompose("   \n  ")
    with pytest.raises(EmptyQueryError):
        decompose("-- only a comment\n")


def test_unparseable_carries_partial_tree():
    with pytest.raises(UnparseableQueryError) as err:
        decompose("SELECT a FROM (SELECT b FROM t WHERE x = 1")
    tree = err.value.partial_tree
    assert tree is not None
    assert any(f.kind == SUBQUERY for f in tree.fragments)


def test_lenient_decomposition_of_invalid_sql():
    tree, diagnostic = decompose_lenient("SELECT a, FROM t WHERE 'open")
    assert diagnostic is not None
    assert tree.root.kind == MAIN


def test_cte_fragments():
    sql = "WITH c1 AS (SELECT a FROM t1), c2 AS (SELECT b FROM t2) SELECT * FROM c1, c2"
    tree = decompose(sql)
    ctes = [f for f in tree.fragments if f.kind == CTE]
    assert [f.name for f in ctes] == ["c1", "c2"]
    assert all(f.clause_site == "CTE_BODY" for f in ctes)
    # CTEs numbered after main-body subqueries (none here), main last
    assert [f.id for f in ctes] == [1, 2]
    assert tree.root_id == 3


def test_ctes_numbered_after_main_subqueries():
    sql = ("WITH c AS (SELECT a FROM t1) "
           "SELECT x, (SELECT MAX(b) FROM t2) FROM t3 "
           "WHERE y <= (SELECT MIN(z) FROM t4)")
    tree = decompose(sql)
    by_id = {f.id: f for f in tree.fragments}
    assert by_id[1].clause_site == "WHERE"          # WHERE before SELECT_LIST
    assert by_id[2].clause_site == "SELECT_LIST"
    assert by_id[3].kind == CTE
    assert by_id[4].kind == MAIN


def test_union_arms_are_not_fragments():
    sql = "SELECT a FROM t1 UNION ALL SELECT b FROM t2"
    tree = decompose(sql)
    assert len(tree.fragments) == 1
    sql2 = "(SELECT a FROM t1) UNION ALL (SELECT b FROM t2)"
    tree2 = decompose(sql2)
    assert len(tree2.fragments) == 1


def test_subquery_inside_union_arm_attaches_to_enclosing():
    sql = ("SELECT a FROM t1 WHERE x IN (SELECT y FROM t2) "
           "UNION ALL SELECT b FROM t3")
    tree = decompose(sql)
    kinds = sorted(f.kind for f in tree.fragments)
    assert kinds == [MAIN, SUBQUERY]


def test_a_values_group_in_from_is_a_derived_table_and_no_fragment():
    """A VALUES group holds nothing to rewrite: it makes no fragment, and
    the FROM items read it as a derived table, at its ')'."""
    sql = "SELECT v.a FROM (VALUES (1), (2)) v WHERE v.a IN (SELECT k FROM t)"
    tree = decompose(sql)
    assert [(f.kind, f.clause_site) for f in tree.fragments] == \
        [(SUBQUERY, "WHERE"), (MAIN, "NONE")]
    assert [(tree.tokens[item.first].text, item.name, item.cte)
            for item in tree.from_items] == [(")", None, False),
                                              ("t", "t", False)]


@pytest.mark.parametrize("sql, names", [
    ("WITH order AS (SELECT 1 AS k) SELECT k FROM order", ["order"]),
    ("WITH a AS (SELECT 1), order AS (SELECT 2), b AS (SELECT 3) "
     "SELECT * FROM b", ["a", "order", "b"]),
    ("INSERT INTO t WITH c AS (SELECT 1) SELECT * FROM c", ["c"]),
])
def test_a_with_list_defines_ctes_wherever_it_stands(sql, names):
    """A group after ``name AS`` in a WITH list is a CTE body, whatever the
    name spells and wherever the WITH stands."""
    tree = decompose(sql)
    assert [(f.kind, f.clause_site, f.name)
            for f in tree.children(tree.root_id)] == \
        [(CTE, "CTE_BODY", name) for name in names]


# --- invariants --------------------------------------------------------------

def _assert_invariants(tree):
    ids = sorted(f.id for f in tree.fragments)
    assert ids == list(range(1, len(tree.fragments) + 1))
    by_id = {f.id: f for f in tree.fragments}
    mains = [f for f in tree.fragments if f.kind == MAIN]
    assert len(mains) == 1
    assert mains[0].id == max(ids)
    assert tree.root_id == mains[0].id
    for frag in tree.fragments:
        assert tree.source[frag.span[0]:frag.span[1]] == frag.text
        if frag.parent_id is None:
            assert frag.kind == MAIN
            continue
        parent = by_id[frag.parent_id]
        assert frag.id < parent.id
        assert parent.span[0] <= frag.span[0] and frag.span[1] <= parent.span[1]
        assert (frag.span[0], frag.span[1]) != (parent.span[0], parent.span[1])
        assert frag.depth == parent.depth + 1
    _assert_token_ranges(tree)


def _assert_token_ranges(tree):
    """Each fragment's token range holds its text's tokens, in source
    offsets; a child's range nests inside its parent's, right after the '('
    that opens it; the id and parent lookups agree with the fragment list."""
    assert [f.id for f in tree.fragments] == \
        list(range(1, len(tree.fragments) + 1))
    for frag in tree.fragments:
        assert tree.by_id(frag.id) is frag
        assert tree.children(frag.id) == \
            [f for f in tree.fragments if f.parent_id == frag.id]
        lo, hi = frag.token_range
        base = frag.span[0]
        assert list(tree.tokens[lo:hi]) == [
            Token(t.kind, t.text, t.start + base, t.end + base, t.upper)
            for t in scan(frag.text)[0]]
        if frag.parent_id is not None:
            parent_lo, parent_hi = tree.by_id(frag.parent_id).token_range
            assert parent_lo < lo and hi <= parent_hi
            assert tree.tokens[lo - 1].text == "("


def test_nested_query_invariants(nested_query):
    _assert_invariants(decompose(nested_query))


def test_nested_rewrite_invariants(nested_rewrite):
    _assert_invariants(decompose(nested_rewrite))


def test_a_query_nested_past_the_recursion_limit_decomposes(tmp_path, capsys):
    depth = sys.getrecursionlimit() + 100
    sql = "SELECT a FROM (" * depth + "SELECT a FROM t" + ") s" * depth
    tree = decompose(sql)
    assert len(tree.fragments) == depth + 1
    assert tree.by_id(1).text == "SELECT a FROM t"
    assert tree.by_id(1).depth == depth + 1
    assert [f.parent_id for f in tree.fragments] == \
        list(range(2, depth + 2)) + [None]
    path = tmp_path / "deep.sql"
    path.write_text(sql)
    assert cli.main(["fragment", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["fragments"]) == depth + 1


def test_a_deep_tree_holds_its_query_once():
    """Fragments read their text from the tree's one source string, so the
    bytes a tree holds grow with the query's length, not length x depth."""
    depth = 3000
    sql = "SELECT a FROM (" * depth + "SELECT a FROM t" + ") s" * depth
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree, _ = decompose_lenient.__wrapped__(sql)  # past the parse memo
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held / len(sql) < 200, held / len(sql)
    assert tree.by_id(2).text == "SELECT a FROM (SELECT a FROM t) s"


# --- randomized numbering oracle ----------------------------------------------

@dataclass
class GenNode:
    marker: str
    site: str = "NONE"
    children: list["GenNode"] = field(default_factory=list)


_SITE_PRIORITY = {"FROM": 0, "WHERE": 1, "SELECT_LIST": 3}


@st.composite
def gen_trees(draw, depth=0):
    if depth >= 4:
        n_children = 0
    else:
        n_children = draw(st.integers(min_value=0, max_value=3))
    children = []
    for _ in range(n_children):
        child = draw(gen_trees(depth=depth + 1))
        child.site = draw(st.sampled_from(["FROM", "WHERE", "SELECT_LIST"]))
        children.append(child)
    return GenNode(marker="", children=children)


def _assign_markers(node: GenNode, counter: list[int]) -> None:
    node.marker = f"mk{counter[0]:03d}"
    counter[0] += 1
    for child in node.children:
        _assign_markers(child, counter)


def _render(node: GenNode) -> str:
    by_site = {"FROM": [], "WHERE": [], "SELECT_LIST": []}
    for child in node.children:
        by_site[child.site].append(child)
    select_items = [node.marker] + [
        f"({_render(c)})" for c in by_site["SELECT_LIST"]]
    from_items = [f"tbl_{node.marker}"] + [
        f"({_render(c)}) AS d_{c.marker}" for c in by_site["FROM"]]
    where_terms = [f"{node.marker} > 0"] + [
        f"{node.marker} <= ({_render(c)})" for c in by_site["WHERE"]]
    return (f"SELECT {', '.join(select_items)} "
            f"FROM {', '.join(from_items)} "
            f"WHERE {' AND '.join(where_terms)}")


def _oracle_ids(node: GenNode, counter: list[int], out: dict[str, int]) -> None:
    """Independent post-order walk: FROM, WHERE, SELECT_LIST by clause
    priority, textual (generation) order within a clause, node last."""
    ordered = sorted(
        enumerate(node.children),
        key=lambda ic: (_SITE_PRIORITY[ic[1].site], ic[0]),
    )
    for _, child in ordered:
        _oracle_ids(child, counter, out)
    counter[0] += 1
    out[node.marker] = counter[0]


@given(gen_trees())
@settings(max_examples=150, deadline=None)
def test_numbering_matches_post_order_oracle(root):
    _assign_markers(root, [0])
    sql = _render(root)
    tree = decompose(sql)
    expected: dict[str, int] = {}
    _oracle_ids(root, [0], expected)
    assert len(tree.fragments) == len(expected)
    for marker, expected_id in expected.items():
        offset = sql.index(marker)
        assert fragment_at(tree, offset).id == expected_id, \
            f"marker {marker} in\n{sql}"
    _assert_invariants(tree)


@given(gen_trees())
@settings(max_examples=100, deadline=None)
def test_token_ranges_index_the_fragment_text(root):
    _assign_markers(root, [0])
    tree = decompose(_render(root))
    _assert_token_ranges(tree)
    for frag in tree.fragments:
        if frag.parent_id is not None:  # closed groups: strictly inside
            assert frag.token_range[1] < tree.by_id(frag.parent_id).token_range[1]
            assert tree.tokens[frag.token_range[1]].text == ")"


@given(st.text(min_size=1, max_size=120))
@settings(max_examples=150, deadline=None)
def test_lenient_decomposition_is_total(text):
    """Arbitrary text either raises EmptyQueryError or yields a tree whose
    structural invariants hold, with an optional diagnostic."""
    try:
        tree, _ = decompose_lenient(text)
    except EmptyQueryError:
        return
    _assert_invariants(tree)


@given(gen_trees())
@settings(max_examples=60, deadline=None)
def test_decompose_idempotent_on_subfragments(root):
    _assign_markers(root, [0])
    tree = decompose(_render(root))

    def shape(t, fragment_id):
        children = sorted(t.children(fragment_id), key=lambda f: f.id)
        return tuple(
            (c.clause_site, shape(t, c.id)) for c in children
        )

    for frag in tree.fragments:
        if frag.kind != SUBQUERY:
            continue
        subtree = decompose(frag.text)
        assert subtree.root.kind == MAIN
        assert shape(subtree, subtree.root_id) == shape(tree, frag.id)


# --- local texts ----------------------------------------------------------------

_PLACEHOLDER = re.compile(r"\[fragment (\d+)\]")


def _expand(tree, fragment_id: int) -> str:
    """The fragment's local text with each ``[fragment k]`` replaced,
    recursively, by child k's expansion; every child is named once."""
    children = [c.id for c in tree.children(fragment_id)]
    local = tree.local_text(fragment_id)
    named = [int(k) for k in _PLACEHOLDER.findall(local)]
    assert sorted(named) == sorted(children), local
    return _PLACEHOLDER.sub(lambda m: _expand(tree, int(m.group(1))), local)


def _assert_local_texts_rebuild(tree):
    for frag in tree.fragments:
        assert _expand(tree, frag.id) == frag.text


def test_local_texts_of_the_fixtures_rebuild_their_texts(
        nested_query, nested_rewrite, union_query, union_rewrite):
    for sql in (nested_query, nested_rewrite, union_query, union_rewrite):
        _assert_local_texts_rebuild(decompose(sql))


def test_a_local_text_names_its_children_in_place():
    tree = decompose("SELECT a, (SELECT MAX(b) FROM u) FROM "
                     "(SELECT a FROM t) AS s WHERE a IN (SELECT c FROM v)")
    assert tree.local_text(tree.root_id) == (
        "SELECT a, ([fragment 3]) FROM ([fragment 1]) AS s "
        "WHERE a IN ([fragment 2])")
    assert tree.local_text(1) == tree.by_id(1).text == "SELECT a FROM t"
    assert tree.local_text(tree.root_id) is tree.local_text(tree.root_id)


@given(gen_trees())
@settings(max_examples=100, deadline=None)
def test_local_texts_rebuild_every_fragment_text(root):
    _assign_markers(root, [0])
    _assert_local_texts_rebuild(decompose(_render(root)))


_DAMAGE_PIECES = ["SELECT", "FROM", "WHERE", "WITH", "AS", "UNION", "ALL",
                  "(", "(", ")", ",", "x", "t", "c1", "'s(", "-- (\n",
                  "/* ) */", " ", "\n"]


@st.composite
def damaged_sql(draw):
    """A generated query cut short and with some ')' dropped, or a soup of
    SQL pieces: texts whose trees the lenient parse builds from damage."""
    if draw(st.booleans()):
        root = draw(gen_trees())
        _assign_markers(root, [0])
        sql = _render(root)
        sql = sql[:draw(st.integers(min_value=1, max_value=len(sql)))]
        closes = [i for i, ch in enumerate(sql) if ch == ")"]
        drop = set(draw(st.lists(st.sampled_from(closes), unique=True))
                   if closes else [])
        return "".join(ch for i, ch in enumerate(sql) if i not in drop)
    return " ".join(draw(st.lists(st.sampled_from(_DAMAGE_PIECES),
                                  min_size=1, max_size=40)))


@given(st.one_of(damaged_sql(), st.text(min_size=1, max_size=120)))
@settings(max_examples=200, deadline=None)
def test_local_texts_rebuild_lenient_trees(text):
    assume("[fragment " not in text)  # a literal label could not be told apart
    try:
        tree, _ = decompose_lenient(text)
    except EmptyQueryError:
        return
    _assert_local_texts_rebuild(tree)


def _assert_segments_and_subtrees(tree):
    """Each fragment's text is its local segments with its children's texts
    between them, in text order, and its subtree is itself and its
    descendants in id order."""
    for frag in tree.fragments:
        children = sorted(tree.children(frag.id), key=lambda c: c.span[0])
        segments = tree.local_segments(frag.id)
        assert len(segments) == len(children) + 1
        rebuilt = segments[0] + "".join(
            c.text + s for c, s in zip(children, segments[1:]))
        assert rebuilt == frag.text
        below, pending = [], [frag.id]
        while pending:
            below.append(pending.pop())
            pending += [c.id for c in tree.children(below[-1])]
        assert [f.id for f in tree.subtree(frag.id)] == sorted(below)


@given(st.one_of(damaged_sql(), st.text(min_size=1, max_size=120)))
@settings(max_examples=200, deadline=None)
def test_local_segments_and_subtrees_of_lenient_trees(text):
    """Unlike the labelled local text, segments need no label, so a literal
    ``[fragment k]`` in the text is kept apart from a child."""
    try:
        tree, _ = decompose_lenient(text)
    except EmptyQueryError:
        return
    _assert_segments_and_subtrees(tree)


@given(gen_trees())
@settings(max_examples=100, deadline=None)
def test_local_segments_and_subtrees_of_generated_trees(root):
    _assign_markers(root, [0])
    _assert_segments_and_subtrees(decompose(_render(root)))


def test_local_segments_keep_a_literal_label_apart_from_a_child():
    left = decompose("SELECT ([fragment 1]), (SELECT 2) FROM t")
    right = decompose("SELECT (SELECT 2), ([fragment 1]) FROM t")
    assert left.local_text(2) == right.local_text(2)
    assert left.local_segments(2) == ("SELECT ([fragment 1]), (", ") FROM t")
    assert right.local_segments(2) == ("SELECT (", "), ([fragment 1]) FROM t")
