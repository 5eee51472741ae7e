"""``analysis.correlated_subquery`` and the efficiency screen's subquery
clause: against SQLite's ``EXPLAIN QUERY PLAN`` on generated queries whose
columns are all qualified, on the nested fixture's correlated scalar
subqueries, on worked examples of what binds a qualifier, and on a chain
nested past the recursion limit. ``analysis.referenced_tables``: against
the tables SQLite's authorizer sees read, on generated queries with CTEs."""

from __future__ import annotations

import re
import sqlite3
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlgov.analysis import correlated_subquery, matcher_holds, \
    referenced_tables
from sqlgov.fragmenter import SITE_FROM, SITE_SELECT_LIST, SUBQUERY, \
    decompose
from sqlgov.knowledge_base import REWRITER, VERIFIED, KnowledgeStore, \
    RuleEntry
from sqlgov.providers import ScriptedLLM
from sqlgov.rewriter import RULE_GUIDED, evaluate, passes_efficiency_screen
from sqlgov.seeds import seed_snapshot

# --- generated queries against SQLite ---------------------------------------
#
# Every table has columns k and x. ``t`` and ``u`` always carry an alias
# (a0, a1, ...) and are read only through it, since an alias hides the name
# it renames; ``v`` and ``w`` never do, and may be spelled ``main.v`` in
# FROM. A FROM list holds one to three items, each after the first joined
# by a comma or by JOIN ... ON, so an item may follow a derived table's
# comma or a JOIN's condition. Where the caller names CTEs, an item may be
# one of them.

_TABLES = ("t", "u", "v", "w")
_MAX_DEPTH = 3


def _column(draw, names, column):
    return f"{draw(st.sampled_from(names))}.{column}"


@st.composite
def _select(draw, outer, depth, shape, aliases, subqueries=True, ctes=()):
    """A SELECT whose columns name its own FROM items or those of the
    enclosing scopes ``outer``. ``shape`` is what it projects: "list" one
    column, "scalar" a MAX, "derived" the columns k and x, "root" a column
    and at most one subquery. The root's WHERE and SELECT list hold exactly
    one subquery between them, and a root derived table holds none, since
    SQLite may flatten it into the root. A FROM item may name one of
    ``ctes``."""
    items, names = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kinds = ["aliased", "bare"]
        if depth < _MAX_DEPTH:
            kinds.append("derived")
        unused = [c for c in ctes if c not in names]
        if unused:
            kinds.append("cte")
        kind = draw(st.sampled_from(kinds))
        bare = [t for t in ("v", "w") if t not in names]
        if kind == "cte":
            items.append(draw(st.sampled_from(unused)))
            names.append(items[-1])
        elif kind == "bare" and bare:
            table = draw(st.sampled_from(bare))
            items.append(draw(st.sampled_from([table, f"main.{table}"])))
            names.append(table)
        else:
            alias = f"a{len(aliases)}"
            aliases.append(alias)
            if kind == "derived":
                body = draw(_select(outer, depth + 1, "derived", aliases,
                                    subqueries and depth > 0, ctes))
                items.append(f"({body}) AS {alias}")
            else:
                table = draw(st.sampled_from(("t", "u")))
                items.append(draw(st.sampled_from([f"{table} {alias}",
                                                   f"{table} AS {alias}"])))
            names.append(alias)
        if len(items) > 1 and draw(st.booleans()):
            items[-2:] = [f"{items[-2]}, {items[-1]}"]
        elif len(items) > 1:
            on = f"{_column(draw, names, 'k')} = {_column(draw, names, 'k')}"
            items[-2:] = [f"{items[-2]} JOIN {items[-1]} ON {on}"]
    visible = names * 4 + outer  # own names weighted, for both verdicts
    scope = outer + names

    def nested(sub_shape):
        return draw(_select(scope, depth + 1, sub_shape, aliases,
                            ctes=ctes))

    terms = [draw(st.sampled_from([
        f"{_column(draw, visible, 'k')} > 1",
        f"{_column(draw, visible, 'k')} = {_column(draw, visible, 'k')}",
    ]))]
    # a column of each item: SQLite's authorizer reports a table that no
    # column names only where it compiles the expression, and it compiles
    # no CTE column that nothing reads
    terms += [f"{name}.x IS NOT NULL" for name in names]
    if shape == "root":
        site = draw(st.sampled_from(["IN", "<", "EXISTS", "SELECT"]))
        wanted = 1
    else:
        site = None
        wanted = draw(st.integers(min_value=0, max_value=2)) \
            if subqueries and depth < _MAX_DEPTH else 0
    projection = []
    forms = ["IN", "<", "EXISTS"] + (["SELECT"] if shape == "derived" else [])
    for _ in range(wanted):
        form = site or draw(st.sampled_from(forms))
        if form == "IN":
            terms.append(f"{_column(draw, visible, 'k')} IN ({nested('list')})")
        elif form == "<":
            terms.append(f"{_column(draw, visible, 'x')} < "
                         f"({nested('scalar')})")
        elif form == "EXISTS":
            terms.append(f"EXISTS ({nested('list')})")
        else:
            projection.append(f"({nested('scalar')}) AS s{len(aliases)}")
    if shape == "list":
        head = [_column(draw, visible, "k")]
    elif shape == "scalar":
        head = [f"MAX({_column(draw, names, 'x')})"]
    elif shape == "derived":
        head = [f"{_column(draw, visible, 'k')} AS k",
                f"{_column(draw, visible, 'x')} AS x"]
    else:
        head = [_column(draw, names, "k")]
    return (f"SELECT {', '.join(head + projection)} FROM {items[0]} "
            f"WHERE {' AND '.join(terms)}")


def qualified_queries():
    """Generated queries in which every column is qualified."""
    return st.builds(list).flatmap(
        lambda aliases: _select([], 0, "root", aliases))


@st.composite
def queries_with_ctes(draw):
    """A generated query that may name the CTEs c0 and c1, with a WITH
    list that defines each one it names: SQLite reads no table of a CTE
    that no FROM item names."""
    aliases = []
    body = draw(_select([], 0, "root", aliases, ctes=("c0", "c1")))
    named = [c for c in ("c0", "c1") if re.search(rf"\b{c}\b", body)]
    if not named:
        return body
    ctes = [f"{c} AS ({draw(_select([], 1, 'derived', aliases))})"
            for c in named]
    return f"WITH {', '.join(ctes)} {body}"


@pytest.fixture(scope="module")
def engine():
    db = sqlite3.connect(":memory:")
    for table in _TABLES:
        db.execute(f"CREATE TABLE {table} (k INTEGER, x INTEGER)")
    yield db
    db.close()


def _root_subquery_plan(engine, sql) -> str:
    """The detail of the one plan line for a subquery of the root query."""
    (detail,) = [detail for _, parent, _, detail
                 in engine.execute("EXPLAIN QUERY PLAN " + sql)
                 if parent == 0 and "SUBQUERY" in detail]
    return detail


@given(sql=qualified_queries())
@settings(max_examples=200, deadline=None)
def test_correlation_agrees_with_sqlite(engine, sql):
    tree = decompose(sql)
    (child,) = [c for c in tree.children(tree.root_id)
                if c.kind == SUBQUERY and c.clause_site != SITE_FROM]
    correlated = _root_subquery_plan(engine, sql).startswith("CORRELATED")
    assert correlated_subquery(tree, tree.root_id, {}) is correlated
    assert matcher_holds([{"pred": "correlated_subquery"}], tree,
                         tree.root_id) is correlated


def test_an_unqualified_outer_column_is_taken_as_inner():
    """The heuristic's known miss: ``u`` has no ``b``, so ``b`` is the
    outer ``t.b`` and SQLite calls the subquery correlated."""
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE u (c INTEGER)")
    sql = "SELECT a FROM t WHERE b > (SELECT MAX(c) FROM u WHERE a = b)"
    assert _root_subquery_plan(db, sql) == "CORRELATED SCALAR SUBQUERY 1"
    db.close()
    tree = decompose(sql)
    assert not correlated_subquery(tree, tree.root_id, {})
    assert passes_efficiency_screen(tree.root_id, tree)


def test_a_name_after_a_derived_table_comma_binds(engine):
    """``w`` after the comma that follows a derived table ending in a WHERE
    is a FROM item of the subquery, so ``w.x`` is inner and the subquery is
    uncorrelated, as SQLite plans it."""
    sql = ("SELECT t.k FROM t WHERE t.k IN (SELECT w.k FROM "
           "(SELECT u.k FROM u WHERE u.k > 1) d, w WHERE w.x = d.k)")
    assert _root_subquery_plan(engine, sql) == "LIST SUBQUERY 2"
    tree = decompose(sql)
    assert not correlated_subquery(tree, tree.root_id, {})


@pytest.mark.parametrize("call", [
    "EXTRACT(YEAR FROM o.ds)", "SUBSTRING(o.ds FROM 1 FOR 4)",
    "substr(o.ds, 1, 4)"])
def test_a_clause_word_in_function_arguments_sites_no_subquery(call):
    """The FROM inside a function's arguments is no clause of the query, so
    the scalar subquery after it sits in the select list, and it is
    correlated, as SQLite plans the form it can read: the root fails the
    efficiency screen."""
    sql = (f"SELECT {call} AS y, (SELECT MAX(u.k) FROM u "
           "WHERE u.oid = o.id) AS m FROM orders o")
    if call.startswith("substr"):
        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE orders (id INTEGER, ds TEXT)")
        db.execute("CREATE TABLE u (k INTEGER, oid INTEGER)")
        assert _root_subquery_plan(db, sql) == "CORRELATED SCALAR SUBQUERY 1"
        db.close()
    tree = decompose(sql)
    (child,) = tree.children(tree.root_id)
    assert child.clause_site == SITE_SELECT_LIST
    assert correlated_subquery(tree, tree.root_id, {})
    assert matcher_holds([{"pred": "scalar_subquery_in_select"}], tree,
                         tree.root_id)
    assert not passes_efficiency_screen(tree.root_id, tree)


def _tables_read(engine, sql) -> set[str]:
    """The schema's tables that SQLite's authorizer sees read while it
    prepares ``EXPLAIN sql``. It also reports reads of a CTE that SQLite
    materializes, by the CTE's name, which is no table of the schema."""
    read = set()

    def authorize(action, table, *_):
        if action == sqlite3.SQLITE_READ and table in _TABLES:
            read.add(table)
        return sqlite3.SQLITE_OK

    engine.set_authorizer(authorize)
    try:
        engine.execute("EXPLAIN " + sql)
    finally:
        engine.set_authorizer(None)
    return read


@pytest.mark.parametrize("sql, tables", [
    ("SELECT w.k FROM (SELECT u.k FROM u WHERE u.k > 1) d, w", ["u", "w"]),
    ("SELECT c.x FROM t a JOIN u b ON a.k = b.k, v c", ["t", "u", "v"]),
    ("WITH c AS (SELECT u.k FROM u) SELECT c.k FROM c, v", ["u", "v"]),
    ("SELECT COUNT(*) FROM t", ["t"]),
])
def test_referenced_tables_of_worked_examples(engine, sql, tables):
    assert sorted(_tables_read(engine, sql)) == tables
    assert referenced_tables(decompose(sql)) == tables


@given(sql=queries_with_ctes())
@settings(max_examples=200, deadline=None)
def test_referenced_tables_agree_with_the_sqlite_authorizer(engine, sql):
    """Each referenced table, by its name's last part, is a table SQLite
    reads, and SQLite reads no other."""
    names = referenced_tables(decompose(sql))
    assert {name.rpartition(".")[2] for name in names} \
        == _tables_read(engine, sql)


# --- what binds a qualifier ---------------------------------------------------

@pytest.mark.parametrize("sql, holders", [
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u)", set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u WHERE u.x = t.x)",
     {2}),
    ("SELECT a.k FROM t a WHERE a.k IN (SELECT b.k FROM t AS b)", set()),
    ("SELECT a.k FROM t a WHERE a.k IN (SELECT b.k FROM t AS b "
     "WHERE b.x = a.x)", {2}),
    ("SELECT o.k FROM sales.orders o WHERE o.k > "
     "(SELECT MAX(sales.items.k) FROM sales.items)", set()),
    ("SELECT o.k FROM sales.orders o WHERE o.k > "
     "(SELECT MAX(items.k) FROM sales.items)", set()),
    ("SELECT o.k FROM sales.orders o WHERE o.k > "
     "(SELECT MAX(sales.items.k) FROM items)", {2}),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT d.k FROM (SELECT u.k FROM u) d)",
     set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT d.k FROM (SELECT u.k FROM u) "
     "AS d WHERE d.x = 1.5)", set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT d.k FROM "
     "(SELECT u.k FROM u WHERE u.x = t.x) d)", {3}),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u WHERE u.k IN "
     "(SELECT w.k FROM w WHERE w.x = u.x))", {2}),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u WHERE u.k IN "
     "(SELECT w.k FROM w WHERE w.x = t.x))", {2, 3}),
    ("WITH c AS (SELECT u.k FROM u) SELECT t.k FROM t "
     "WHERE t.k IN (SELECT c.k FROM c)", set()),
    ("SELECT t.k, (SELECT MAX(u.x) FROM u WHERE u.k = t.k) FROM t", {2}),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u WHERE u.s = 'a.b')",
     set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT pg.now() FROM u)", {2}),
    ("SELECT t.k FROM t, (SELECT u.k FROM u WHERE u.x = t.x) d", set()),
    ("SELECT v.k FROM v WHERE v.k IN (SELECT v.k FROM v "
     "JOIN (SELECT u.k, v.x FROM u) d ON d.k = v.k)", {3}),
    ("SELECT v.k FROM v WHERE v.k IN (SELECT v.k FROM v "
     "JOIN LATERAL (SELECT u.k, v.x FROM u) d ON d.k = v.k)", set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT c.k FROM u a "
     "JOIN v b ON a.k = b.k, w c WHERE c.x = a.x)", set()),
    ("SELECT a.k FROM t a WHERE a.k IN (SELECT u.k FROM u WHERE u.x = t.x)",
     {2}),
    ("SELECT v.k FROM v WHERE v.k IN (SELECT t.k FROM t a)", {2}),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT d.column1 FROM (VALUES (1)) d)",
     set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u "
     "WINDOW w AS (ORDER BY u.x))", set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u "
     "FETCH FIRST 1 ROWS ONLY)", set()),
    ("SELECT t.k FROM t WHERE t.k IN (SELECT u.k FROM u "
     "TABLESAMPLE SYSTEM (10))", set()),
])
def test_what_binds_a_qualifier(sql, holders):
    """A FROM item binds a base table's whole dotted name and its last
    part, its alias with or without AS, a derived table's alias and a CTE
    name; a qualifier no scope binds, as ``pg`` of a function, is outer. A
    derived table does not see its parent's FROM items unless it is
    LATERAL: the first ``v.x`` inside ``d`` is the root's ``v``. Only
    subqueries outside FROM count. ``holders`` are the fragments holding a
    correlated one."""
    tree = decompose(sql)
    assert {f.id for f in tree.fragments
            if correlated_subquery(tree, f.id, {})} == holders


def test_a_rule_can_name_correlated_subquery(embedder):
    snapshot = seed_snapshot(embedder)
    snapshot.rules.append(RuleEntry(
        index="CORRELATED", description="a correlated subquery",
        matcher=[{"pred": "correlated_subquery"}], tool=REWRITER,
        status=VERIFIED))
    store = KnowledgeStore(snapshot, embedder)
    tree = decompose("SELECT t.k FROM t WHERE t.k IN "
                     "(SELECT u.k FROM u WHERE u.x = t.x)")
    hits = {f.id: [r.index for r in store.match_rules(f, REWRITER, tree)]
            for f in tree.fragments}
    assert "CORRELATED" in hits[2] and "CORRELATED" not in hits[1]


# --- the nested fixture's correlated scalar subqueries --------------------------

def test_the_fixture_scalar_subqueries_still_reach_the_llm(
        nested_query, seeded_store, playbook_llm):
    """Fragments 5 and 6 (``tb3.ds = tb1.ds``, ``tb4.ds = tb1.ds``) read
    the root's ``tb1``. The root they sit in reaches its rule, and each,
    alone in a one-table parent, still fails the screen and reaches
    SCENARIO_2."""
    tree = decompose(nested_query)
    scalar = [tree.by_id(5), tree.by_id(6)]
    assert all(f.parent_id == tree.root_id for f in scalar)
    assert correlated_subquery(tree, tree.root_id, {})
    assert not passes_efficiency_screen(tree.root_id, tree)
    by_fragment = {s.fragment_id: s
                   for s in evaluate(nested_query, seeded_store, playbook_llm)}
    assert by_fragment[tree.root_id].scenario == RULE_GUIDED
    for fragment in scalar:
        sql = f"SELECT tb1.ds, ({fragment.text}) FROM tb1"
        alone = decompose(sql)
        assert correlated_subquery(alone, alone.root_id, {})
        assert not passes_efficiency_screen(alone.root_id, alone)
        llm = ScriptedLLM([], strict=False)
        evaluate(sql, seeded_store, llm)
        assert llm.calls == {"SCENARIO_2": 1}


def test_a_correlated_chain_past_the_recursion_limit_screens():
    """Each level's WHERE subquery but the innermost compares its own
    table's column with its parent's: every fragment above the innermost
    two holds a correlated subquery, and nothing recurses."""
    depth = sys.getrecursionlimit() + 100
    sql = "SELECT t0.k FROM t0 WHERE t0.k IN (" + "".join(
        f"SELECT t{i}.k FROM t{i} WHERE t{i}.x = t{i - 1}.x AND t{i}.k IN ("
        for i in range(1, depth)) + f"SELECT t{depth}.k FROM t{depth}" \
        + ")" * depth
    tree = decompose(sql)
    assert len(tree.fragments) == depth + 1
    for fragment in tree.fragments:  # the innermost is fragment 1
        correlated = fragment.id > 2
        assert correlated_subquery(tree, fragment.id, {}) is correlated
        assert passes_efficiency_screen(fragment.id, tree) is not correlated
