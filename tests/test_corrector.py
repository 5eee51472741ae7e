from __future__ import annotations

import pytest

from sqlgov.corrector import (
    SCHEMA_FULL,
    SCOPE_GLOBAL,
    SCOPE_LOCAL,
    CorrectionPlan,
    _line_col_to_offset,
    build_error_key,
    clarify,
    correct,
    parse_error_log,
    prepare_data,
)
from sqlgov.errors import StillInvalidError
from sqlgov.fragmenter import decompose, decompose_lenient
from sqlgov.knowledge_base import KnowledgeSnapshot, KnowledgeStore
from sqlgov.prompts import correction_prompt
from sqlgov.providers import ScriptedLLM

_CATALOG = {
    "t1": ["a", "b", "c"],
    "t2": [{"name": "k", "description": "key"}, {"name": "v"}],
    "tb0": ["ds", "c0"],
}


# --- error log parsing --------------------------------------------------------

def test_parse_validator_exception_with_clause_list():
    log = ("org.apache.calcite.sql.validate.SqlValidatorException: INNER, "
           "LEFT, RIGHT or FULL join requires a condition (NATURAL keyword "
           "or ON or USING clause)\n\tat stack frame 1")
    parsed = parse_error_log(log)
    assert parsed.exception_type == "SqlValidatorException"
    assert "NATURAL keyword or ON or USING clause" in parsed.message


def test_parse_line_column_location():
    parsed = parse_error_log("ERROR at line 3, column 7: syntax error")
    assert parsed.location == (3, 7)
    assert parsed.message == "syntax error"


def test_parse_unstructured_log_degrades_to_unknown():
    parsed = parse_error_log("something went sideways")
    assert parsed.exception_type == "UNKNOWN"
    assert parsed.message == "something went sideways"


def test_parse_near_token():
    parsed = parse_error_log('syntax error at or near "GROPU"')
    assert parsed.near_token == "GROPU"


@pytest.mark.parametrize("log, near, location", [
    ('sqlite3.OperationalError: near "c": syntax error', "c", None),
    ("OperationalError: near 'GROPU': syntax error", "GROPU", None),
    ('ERROR: syntax error at or near "FORM" at character 10', "FORM", 10),
    ("ParseException: syntax error, missing comma between select list "
     "items near 'k_q01n002' at line 1, column 20", "k_q01n002", (1, 20)),
], ids=["sqlite", "sqlite-single-quotes", "at-or-near", "located"])
def test_a_near_token_is_read_with_or_without_at_or(log, near, location):
    """SQLite writes ``near "X": syntax error``; PostgreSQL writes ``at or
    near "X"``."""
    parsed = parse_error_log(log)
    assert (parsed.near_token, parsed.location) == (near, location)


def test_parse_rejects_empty_log():
    with pytest.raises(ValueError):
        parse_error_log("   ")


def test_error_key_masks_numbers_and_quoted_names():
    parsed = parse_error_log(
        "SqlValidatorException: Column 'user_id' not found at line 12")
    key = build_error_key(parsed)
    assert "[ID]" in key and "[N]" in key
    assert "user_id" not in key and "12" not in key
    assert key.startswith("SqlValidatorException: ")


# --- clarification --------------------------------------------------------------

def _broken_tree():
    sql = "SELECT x, (SELECT a b FROM t2 WHERE k = 1) FROM t1\n"
    tree, _ = decompose_lenient(sql)
    return sql, tree


def test_localized_strategy_with_location_targets_fragment(seeded_store):
    sql, tree = _broken_tree()
    column = sql.index("a b") + 3  # points at 'b' inside the subquery
    log = (f"ParseException: syntax error, missing comma between select "
           f"list items near 'b' at line 1, column {column + 1}")
    plan = clarify(parse_error_log(log), seeded_store, tree)
    assert plan.scope == SCOPE_LOCAL
    assert plan.target_fragment == 1
    assert plan.strategy is not None
    assert plan.strategy.index == "strat-missing-comma"
    assert plan.schema_slice is None  # strategy needs no schema


def test_empty_strategy_store_falls_back_to_global_full(embedder):
    sql, tree = _broken_tree()
    store = KnowledgeStore(KnowledgeSnapshot(), embedder)
    log = "ParseException: missing comma near 'b' at line 1, column 12"
    plan = clarify(parse_error_log(log), store, tree)
    assert plan.scope == SCOPE_GLOBAL
    assert plan.schema_slice == SCHEMA_FULL
    assert plan.strategy is None
    assert plan.guidance  # fallback always carries guidance


def test_localized_strategy_without_location_degrades(seeded_store):
    sql, tree = _broken_tree()
    log = "ParseException: syntax error, missing comma between select list items near nothing"
    plan = clarify(parse_error_log(log), seeded_store, tree)
    assert plan.scope == SCOPE_GLOBAL
    assert plan.schema_slice == SCHEMA_FULL
    assert plan.strategy is not None  # the hit is kept for its guidance


@pytest.mark.parametrize("line, col, offset", [
    (1, 1, 0), (1, 8, 7), (1, 9, 8), (2, 1, 9), (2, 19, 27),
    (1, 0, None), (2, 0, None), (1, 10, None), (1, 12, None), (2, 20, None),
    (0, 1, None), (3, 1, None),
])
def test_a_location_maps_to_an_offset_only_on_its_own_line(line, col, offset):
    """A column counts within its line, the line break included; one before
    the line's start or past its end is no location."""
    assert _line_col_to_offset("SELECT a\nFROM t WHERE x = 1\n",
                               line, col) == offset



@pytest.mark.parametrize("separator", ["\u2028", "\x0c", "\x85"])
def test_lines_are_counted_at_line_feeds_only(separator):
    """A DBMS breaks lines at '\n' alone, so other line separators in a
    literal leave the location on its line."""
    source = f"SELECT 'a{separator}b' AS v,\nx y FROM t\n"
    assert _line_col_to_offset(source, 2, 3) == source.index("y")


_MISSING_COMMA = "ParseException: missing comma between select list items"


@pytest.mark.parametrize("sql, log, target", [
    ("SELECT tb1.x, (SELECT a b FROM t2) FROM tb1",
     f"{_MISSING_COMMA} near 'b'", 1),
    ("SELECT PLATFORM FROM (SELECT a FORM t) s",
     'syntax error at or near "FORM"', 1),
    ("SELECT tb1.x FROM tb1", f"{_MISSING_COMMA} near 'b'", None),
])
def test_a_near_token_matches_a_whole_token(seeded_store, sql, log, target):
    """A near token names the first token that is that text, never a part
    of a longer word; with no such token the plan falls back."""
    tree, _ = decompose_lenient(sql)
    plan = clarify(parse_error_log(log), seeded_store, tree)
    assert plan.strategy.index == "strat-missing-comma"
    assert plan.target_fragment == target
    assert plan.scope == (SCOPE_GLOBAL if target is None else SCOPE_LOCAL)

def test_a_column_past_its_line_end_degrades(seeded_store):
    """Line 1 has 10 characters, so column 30 would run on into the
    subquery on line 2; it names no place, and the plan falls back."""
    sql = "SELECT x,\n(SELECT a b FROM t2 WHERE k = 1) FROM t1\n"
    tree, _ = decompose_lenient(sql)
    log = ("ParseException: syntax error, missing comma between select "
           "list items near 'b' at line 1, column 30")
    plan = clarify(parse_error_log(log), seeded_store, tree)
    assert plan.strategy is not None
    assert plan.strategy.index == "strat-missing-comma"
    assert (plan.scope, plan.schema_slice, plan.target_fragment) \
        == (SCOPE_GLOBAL, SCHEMA_FULL, None)


def test_schema_needing_strategy_slices_referenced_tables(seeded_store):
    sql = "SELECT unknown_col FROM t1 JOIN t2 ON t1.a = t2.k"
    tree, _ = decompose_lenient(sql)
    log = "SqlValidatorException: Column 'unknown_col' not found in any table"
    plan = clarify(parse_error_log(log), seeded_store, tree)
    assert plan.strategy is not None
    assert plan.strategy.index == "strat-unknown-column"
    assert plan.schema_slice == ["t1", "t2"]


# --- data preparation ------------------------------------------------------------

def test_local_prompt_contains_only_target_fragment(seeded_store, nested_query):
    tree = decompose(nested_query)
    column = nested_query.index("ds = '1016'")
    line = nested_query[:column].count("\n") + 1
    col = column - nested_query.rfind("\n", 0, column)
    log = (f"ParseException: syntax error, missing comma between select list "
           f"items near 'ds' at line {line}, column {col}")
    plan = clarify(parse_error_log(log), seeded_store, tree)
    assert plan.scope == SCOPE_LOCAL and plan.target_fragment == 3
    inputs = prepare_data(plan, parse_error_log(log), nested_query, tree, _CATALOG)
    rendered = correction_prompt(inputs).render()
    assert "ds = '1016'" in rendered                 # fragment 3 text
    assert "GROUP BY ds" not in rendered             # fragment 1 text absent
    assert "MIN(c)" not in rendered                  # fragment 2 text absent
    assert inputs.splice_span == tree.by_id(3).span


def test_global_full_prompt_contains_whole_query_and_schema(embedder):
    sql, tree = _broken_tree()
    store = KnowledgeStore(KnowledgeSnapshot(), embedder)
    plan = clarify(parse_error_log("totally unknown failure"), store, tree)
    inputs = prepare_data(plan, parse_error_log("totally unknown failure"),
                          sql, tree, _CATALOG)
    rendered = correction_prompt(inputs).render()
    assert sql.strip() in rendered
    for table in _CATALOG:
        assert table in rendered


def test_no_schema_prompt_is_strictly_smaller(seeded_store):
    sql, tree = _broken_tree()
    error = parse_error_log("ParseException: anything at line 1, column 2")
    base_plan = clarify(error, seeded_store, tree)
    from dataclasses import replace
    no_schema = prepare_data(replace(base_plan, schema_slice=None), error,
                             sql, tree, _CATALOG)
    full_schema = prepare_data(replace(base_plan, schema_slice="FULL"), error,
                               sql, tree, _CATALOG)
    assert len(correction_prompt(no_schema).render()) < \
        len(correction_prompt(full_schema).render())
    assert "Schema:" not in correction_prompt(no_schema).render()


def test_schema_lines_render_list_dict_and_described_columns():
    catalog = {
        "t1": ["a", "b"],
        "t2": [{"name": "k", "description": "key"}, {"name": "v"}],
        "t3": {"description": "facts",
               "columns": ["x", {"name": "y", "description": "why"}]},
        "t4": {"p": "int", "q": "text"},
    }
    sql = "SELECT a FROM t1"
    tree = decompose(sql)
    error = parse_error_log("ParseException: boom")

    def schema(slice_):
        plan = CorrectionPlan(strategy=None, scope=SCOPE_GLOBAL,
                              schema_slice=slice_, target_fragment=None,
                              guidance="fix it")
        return prepare_data(plan, error, sql, tree, catalog).schema_lines

    assert schema(SCHEMA_FULL) == ("t1: a, b", "t2: k (key), v",
                                   "t3: x, y (why)", "t4: p, q")
    assert schema(["t3", "missing", "t1"]) == ("t3: x, y (why)", "t1: a, b")
    assert schema(None) == ()


def test_a_dotted_table_slices_the_schema_whole_then_by_its_last_part():
    catalog = {"sales.orders": ["k", "x"], "items": ["k", "y"], "other": ["z"]}
    sql = "SELECT a.x, b.y FROM sales.orders a JOIN sales.items b ON a.k = b.k"
    tree = decompose(sql)
    error = parse_error_log("ParseException: boom")
    plan = CorrectionPlan(strategy=None, scope=SCOPE_GLOBAL,
                          schema_slice=["sales.items", "sales.orders"],
                          target_fragment=None, guidance="fix it")
    assert prepare_data(plan, error, sql, tree, catalog).schema_lines \
        == ("sales.items: k, y", "sales.orders: k, x")


def test_schema_lines_and_modify_metadata_read_an_entry_alike():
    """A described entry without columns has no columns, in the fix-syntax
    schema and in the modify metadata alike; a column map is columns in
    both."""
    from sqlgov.modifier import prepare_metadata

    catalog = {"t": {"description": "daily sales"},
               "u": {"p": "int", "q": "text"}}
    sql = "SELECT a FROM t JOIN u ON t.a = u.p"
    plan = CorrectionPlan(strategy=None, scope=SCOPE_GLOBAL,
                          schema_slice=SCHEMA_FULL, target_fragment=None,
                          guidance="fix it")
    lines = prepare_data(plan, parse_error_log("ParseException: boom"), sql,
                         decompose(sql), catalog).schema_lines
    assert lines == ("t: ", "u: p, q")
    metadata = prepare_metadata(sql, "", catalog, [], now=0.0)
    assert metadata.referenced_metadata == {
        "t": "daily sales; columns: ", "u": "columns: p, q"}


def test_missing_fragment_falls_back_to_global(seeded_store):
    sql, tree = _broken_tree()
    error = parse_error_log("ParseException: x at line 1, column 2")
    from dataclasses import replace
    plan = clarify(error, seeded_store, tree)
    bad = replace(plan, scope=SCOPE_LOCAL, target_fragment=99)
    inputs = prepare_data(bad, error, sql, tree, _CATALOG)
    assert inputs.scope == SCOPE_GLOBAL
    assert inputs.sql_text == sql


# --- correction ---------------------------------------------------------------

def test_local_correction_preserves_bytes_outside_span(seeded_store,
                                                       playbook_llm,
                                                       fixtures_dir):
    sql = (fixtures_dir / "broken.sql").read_text()
    log = (fixtures_dir / "broken.log").read_text()
    tree, _ = decompose_lenient(sql)
    plan = clarify(parse_error_log(log), seeded_store, tree)
    inputs = prepare_data(plan, parse_error_log(log), sql, tree, {})
    corrected = correct(sql, inputs, playbook_llm)
    start, end = inputs.splice_span
    assert corrected[:start] == sql[:start]
    assert corrected[len(corrected) - (len(sql) - end):] == sql[end:]
    assert "SELECT a, b FROM t2" in corrected
    tree2, diag = decompose_lenient(corrected)
    assert diag is None


def test_global_correction_returned_verbatim(embedder):
    sql, tree = _broken_tree()
    store = KnowledgeStore(KnowledgeSnapshot(), embedder)
    error = parse_error_log("unknown failure")
    plan = clarify(error, store, tree)
    inputs = prepare_data(plan, error, sql, tree, {})
    fixed = "SELECT x, (SELECT a, b FROM t2 WHERE k = 1) FROM t1"
    env = correction_prompt(inputs)
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": fixed}])
    assert correct(sql, inputs, llm) == fixed


def test_still_invalid_when_output_unparseable(embedder):
    sql, tree = _broken_tree()
    store = KnowledgeStore(KnowledgeSnapshot(), embedder)
    error = parse_error_log("unknown failure")
    plan = clarify(error, store, tree)
    inputs = prepare_data(plan, error, sql, tree, {})
    env = correction_prompt(inputs)
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": "SELECT ( FROM (((("}])
    with pytest.raises(StillInvalidError) as err:
        correct(sql, inputs, llm)
    assert err.value.original == sql
    assert "((((" in err.value.corrected


def test_clarify_fallback_totality_fuzz(seeded_store):
    """Every log, however mangled, yields a usable plan."""
    import random
    rng = random.Random(23)
    fragments = ["Exception", "error", "at line", "column", "'tok'", ":",
                 "SqlValidatorException:", "join", "requires", "99",
                 "mismatch", "near", "\n", "\tstack"]
    sql, tree = _broken_tree()
    for _ in range(60):
        log = " ".join(rng.choices(fragments, k=rng.randint(1, 8)))
        if not log.strip():
            continue
        plan = clarify(parse_error_log(log), seeded_store, tree)
        assert plan.scope in (SCOPE_LOCAL, SCOPE_GLOBAL)
        assert plan.guidance
        if plan.scope == SCOPE_LOCAL:
            assert plan.target_fragment is not None


def test_union_count_guidance_reaches_the_prompt(seeded_store):
    sql = "SELECT a FROM t1 UNION ALL SELECT a, b FROM t2"
    tree, _ = decompose_lenient(sql)
    log = "SqlValidatorException: Column count mismatch in UNION"
    plan = clarify(parse_error_log(log), seeded_store, tree)
    assert plan.strategy is not None
    assert plan.strategy.index == "strat-union-count"
    inputs = prepare_data(plan, parse_error_log(log), sql, tree, _CATALOG)
    rendered = correction_prompt(inputs).render()
    assert ("SELECT clauses connected by UNION or UNION ALL contain a "
            "different number of fields") in rendered
