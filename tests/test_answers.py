"""Provider answers: every template's consumer ends in a result or a
``SqlGovError``, whatever the answer, and a result never carries a value of
the wrong JSON type or blank SQL."""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlgov.corrector import repair
from sqlgov.equivalence import (check_equivalence, extract_intent,
                                parse_select, skeleton)
from sqlgov.errors import RejectedResponseError, SqlGovError
from sqlgov.knowledge_base import REWRITER, KnowledgeSnapshot, KnowledgeStore
from sqlgov.modifier import REALIZE_SEMANTICS, modify, prepare_metadata
from sqlgov.prompts import ANSWER_SHAPES, strip_fences
from sqlgov.providers import (
    ALIGNMENT,
    CORRECT,
    INTENT_EXTRACT,
    KNOWN_TEMPLATES,
    MODIFY_PREFIX,
    REWRITE,
    RULE_GEN,
    SCENARIO_1,
    SCENARIO_2,
    HashingEmbedding,
)
from sqlgov.rewriter import evaluate, rewrite
from sqlgov.seeds import seed_snapshot
from sqlgov.self_learning import ExecutionRecord, generate_rules

_EMBEDDER = HashingEmbedding(64)
_SEEDED = KnowledgeStore(seed_snapshot(_EMBEDDER), _EMBEDDER)
_EMPTY = KnowledgeStore(KnowledgeSnapshot(), _EMBEDDER)

SAME_TABLE_JOIN_QUERY = "SELECT t1.a FROM t t1 JOIN t t2 ON t1.k = t2.k"
STAR_QUERY = "SELECT * FROM t"
NESTED = "SELECT a FROM (SELECT a FROM t) s"
PAIR = ("SELECT a FROM t", "SELECT a + 0 FROM t")
MODIFY_TEMPLATE = MODIFY_PREFIX + REALIZE_SEMANTICS
BROKEN = "SELECT x, (SELECT a b FROM t2 WHERE k = 1) FROM t1"
# A log the seeded store's missing-comma strategy places in the subquery,
# and one no strategy knows, which asks for the whole query.
LOGS = {"LOCAL": "ParseException: syntax error, missing comma between "
                 "select list items near 'b' at line 1, column 20",
        "GLOBAL": "unknown failure"}

VALID = {
    SCENARIO_1: {"applicable": [{"rule": "SAME_TABLE_JOIN",
                                 "action": "scan t once",
                                 "rationale": "t is joined to itself"}]},
    SCENARIO_2: {"efficient": False,
                 "suggestions": [{"action": "list the columns",
                                  "rationale": "a star reads every column"}]},
    INTENT_EXTRACT: {"fields": [{"output_name": "a", "source_tables": ["t"],
                                 "transformation": "", "conditions": []}],
                     "narrative": "a from t"},
    ALIGNMENT: {"mappings": [{"left": 0, "right": 0, "equivalent": True,
                              "confidence": 0.9, "counterexample": None}]},
    MODIFY_TEMPLATE: {"sql": "SELECT a FROM t WHERE x = 2",
                      "explanation": "changed the filter"},
    RULE_GEN: {"MINED": "scan once", "NESTED": {"why": ["a", 1]}},
    REWRITE: "SELECT a FROM t",
    CORRECT: "SELECT a, b FROM t2 WHERE k = 1",
}

# Keys of every shape, so arbitrary objects often carry a known key.
_KEYS = ["applicable", "rule", "action", "rationale", "efficient",
         "suggestions", "fields", "output_name", "source_tables",
         "transformation", "conditions", "narrative", "mappings", "left",
         "right", "equivalent", "confidence", "counterexample", "sql",
         "explanation"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=8)


@st.composite
def mutations(draw, valid):
    """``valid`` with one value replaced by arbitrary JSON or one key
    dropped."""
    value = copy.deepcopy(valid)
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in list(items):
            slots.append((node, key))
            walk(child)

    walk(value)
    if not slots:
        return draw(json_values)
    node, key = draw(st.sampled_from(slots))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(json_values)
    return value


def sql_answers(valid):
    """SQL answer texts: blank, whitespace, ``valid``, arbitrary text, or
    one of these in a code fence, the fence alone or after spaces."""
    body = st.one_of(st.just(""), st.text(" \t\n", max_size=4),
                     st.just(valid), st.text(max_size=12))
    fenced = st.tuples(st.text(" \n", max_size=3), body).map(
        lambda parts: f"{parts[0]}```sql\n{parts[1]}\n```")
    return body | fenced


def answers(template_id):
    """Answer texts: for SQL text, ``sql_answers``; for JSON, arbitrary
    JSON, a mutated valid answer, or not JSON, and for a modify answer,
    which may be bare SQL, ``sql_answers`` too."""
    valid = VALID[template_id]
    if isinstance(valid, str):
        return sql_answers(valid)
    json_answers = st.one_of(
        json_values.map(json.dumps),
        mutations(valid).map(json.dumps),
        st.text(max_size=12),
    )
    if "sql" in valid:
        return json_answers | sql_answers(valid["sql"])
    return json_answers


class _Provider:
    """Answers ``template_id`` (at the fragment whose section starts with
    ``fragment``, if given) with ``answer``, every other prompt validly."""

    def __init__(self, template_id, answer, fragment=None):
        self.template_id = template_id
        self.answer = answer
        self.fragment = fragment

    def complete(self, env):
        tid = env.template_id
        hit = tid == self.template_id and (
            self.fragment is None
            or env.section("Fragment").startswith(self.fragment))
        if hit:
            return self.answer
        if tid == INTENT_EXTRACT:
            body = env.section("Fragment").split("\n", 1)[1]
            name = "a + 0" if "a + 0" in body else "a"
            return json.dumps({"fields": [{"output_name": name,
                                           "source_tables": ["t"]}]})
        valid = VALID[tid]
        return valid if isinstance(valid, str) else json.dumps(valid)


def _outcome(consume, check):
    """Run ``consume``: a SqlGovError is an outcome, and a result must pass
    ``check``; anything else escapes and fails the test."""
    try:
        result = consume()
    except SqlGovError:
        return
    check(result)


def _check_suggestions(suggestions):
    for s in suggestions:
        assert type(s.action) is str and type(s.rationale) is str
        assert s.rule_index is None or type(s.rule_index) is str


def _check_intent(summary):
    assert type(summary.narrative) is str
    for f in summary.fields:
        assert type(f.output_name) is str and type(f.transformation) is str
        assert all(type(t) is str for t in f.source_tables + f.conditions)


def _check_verdict(verdict):
    assert type(verdict.confidence) in (int, float)
    assert math.isfinite(verdict.confidence)
    assert verdict.counterexample is None or \
        type(verdict.counterexample) is str
    for pair in verdict.field_mapping or ():
        assert all(type(p) is int for p in pair)


def _check_modification(outcome):
    assert type(outcome.sql) is str and type(outcome.explanation) is str
    assert outcome.sql.strip()


def _check_rewrite(result):
    assert type(result.rewritten) is str and result.rewritten.strip()
    parse_select(result.rewritten)


def _check_correction(report, scope):
    assert report.output["scope"] == scope
    corrected = report.output["corrected"]
    assert type(corrected) is str and corrected.strip()


def _check_rules(batch):
    assert all(type(r.index) is str and type(r.description) is str
               for r in batch.rules)


@settings(max_examples=150, deadline=None)
@given(answers(SCENARIO_1))
@example('{"applicable": "x"}')
@example('{"applicable": [1]}')
@example('{"applicable": [{"rule": ["x"]}]}')
def test_scenario1_answers(answer):
    provider = _Provider(SCENARIO_1, answer)
    _outcome(lambda: evaluate(SAME_TABLE_JOIN_QUERY, _SEEDED, provider),
             _check_suggestions)


@settings(max_examples=150, deadline=None)
@given(answers(SCENARIO_2))
@example('{"suggestions": "abc"}')
@example('{"suggestions": [1]}')
def test_scenario2_answers(answer):
    provider = _Provider(SCENARIO_2, answer)
    _outcome(lambda: evaluate(STAR_QUERY, _EMPTY, provider),
             _check_suggestions)


@pytest.mark.parametrize("fragment", ["[fragment 1]", "[fragment 2]"],
                         ids=["child", "root"])
@settings(max_examples=100, deadline=None)
@given(answer=answers(INTENT_EXTRACT))
def test_intent_answers_at_child_and_root(fragment, answer):
    provider = _Provider(INTENT_EXTRACT, answer, fragment)
    _outcome(lambda: extract_intent(skeleton(NESTED), provider),
             _check_intent)


@settings(max_examples=150, deadline=None)
@given(answers(ALIGNMENT))
def test_alignment_answers(answer):
    provider = _Provider(ALIGNMENT, answer)
    _outcome(lambda: check_equivalence(*PAIR, provider), _check_verdict)


@settings(max_examples=150, deadline=None)
@given(answers(MODIFY_TEMPLATE))
def test_modify_answers(answer):
    provider = _Provider(MODIFY_TEMPLATE, answer)
    context = prepare_metadata(PAIR[0], "", {}, [], now=0.0)
    _outcome(lambda: modify("filter to x = 2", context, REALIZE_SEMANTICS,
                            provider),
             _check_modification)


@settings(max_examples=150, deadline=None)
@given(answers(REWRITE))
def test_rewrite_answers(answer):
    provider = _Provider(REWRITE, answer)
    suggestions = evaluate(STAR_QUERY, _EMPTY, provider)
    _outcome(lambda: rewrite(STAR_QUERY, suggestions, _EMPTY, provider),
             _check_rewrite)


@pytest.mark.parametrize("scope", ["LOCAL", "GLOBAL"])
@settings(max_examples=100, deadline=None)
@given(answer=answers(CORRECT))
def test_correction_answers(scope, answer):
    provider = _Provider(CORRECT, answer)
    store = _SEEDED if scope == "LOCAL" else _EMPTY
    _outcome(lambda: repair(BROKEN, LOGS[scope], store, provider),
             lambda report: _check_correction(report, scope))


@settings(max_examples=100, deadline=None)
@given(answers(RULE_GEN))
def test_rule_generation_answers(answer):
    provider = _Provider(RULE_GEN, answer)
    records = [ExecutionRecord(sql="SELECT q FROM v1", status="ERROR",
                               elapsed=3.0, error_log="boom")]
    _outcome(lambda: generate_rules(records, provider, REWRITER, now=0.0),
             _check_rules)


def test_every_json_template_has_a_valid_answer_and_a_shape():
    """Every template, SQL text ones too, has an answer contract and a
    valid answer drawn on here."""
    assert set(VALID) - {MODIFY_TEMPLATE} | {MODIFY_PREFIX} == \
        set(ANSWER_SHAPES) == KNOWN_TEMPLATES | {MODIFY_PREFIX}


_BLANK_SQL = ["", "  \n\t", "```sql\n\n```", "\n```\n   \n```\n"]


@pytest.mark.parametrize("answer", _BLANK_SQL)
@pytest.mark.parametrize("scope", ["LOCAL", "GLOBAL"])
def test_a_blank_correction_is_rejected_without_a_second_round(scope,
                                                                answer):
    store = _SEEDED if scope == "LOCAL" else _EMPTY
    with pytest.raises(RejectedResponseError, match=f"{CORRECT} response"):
        repair(BROKEN, LOGS[scope], store, _Provider(CORRECT, answer),
               max_rounds=2)


@pytest.mark.parametrize("answer", _BLANK_SQL + [
    " \n```\n \n```", json.dumps({"sql": "  "}),
    json.dumps({"sql": "", "explanation": "x"})])
def test_a_blank_modify_answer_is_rejected(answer):
    context = prepare_metadata(PAIR[0], "", {}, [], now=0.0)
    with pytest.raises(RejectedResponseError, match="blank SQL"):
        modify("filter to x = 2", context, REALIZE_SEMANTICS,
               _Provider(MODIFY_TEMPLATE, answer))


@pytest.mark.parametrize("answer", _BLANK_SQL)
def test_a_blank_rewrite_is_rejected(answer):
    provider = _Provider(REWRITE, answer)
    suggestions = evaluate(STAR_QUERY, _EMPTY, provider)
    with pytest.raises(RejectedResponseError, match="blank SQL"):
        rewrite(STAR_QUERY, suggestions, _EMPTY, provider)


@pytest.mark.parametrize("answer", [
    "```sql\nSELECT a FROM t WHERE a > 1\n```",
    "  \n```\nSELECT a FROM t WHERE a > 1\n```  \n"])
def test_a_fenced_bare_modify_answer_loses_its_fence(answer):
    context = prepare_metadata(PAIR[0], "", {}, [], now=0.0)
    outcome = modify("filter to a > 1", context, REALIZE_SEMANTICS,
                     _Provider(MODIFY_TEMPLATE, answer))
    assert outcome.sql == "SELECT a FROM t WHERE a > 1"


# SQL answers fenced after leading whitespace, each a format of its SQL.
_FENCED_AFTER_SPACES = [" \n```sql\n{}\n```", "  ```\n{}\n```  \n"]


@pytest.mark.parametrize("fence", _FENCED_AFTER_SPACES)
def test_a_rewrite_fenced_after_spaces_loses_its_fence(fence):
    provider = _Provider(REWRITE, fence.format(VALID[REWRITE]))
    suggestions = evaluate(STAR_QUERY, _EMPTY, provider)
    result = rewrite(STAR_QUERY, suggestions, _EMPTY, provider)
    assert result.rewritten == VALID[REWRITE]


@pytest.mark.parametrize("fence", _FENCED_AFTER_SPACES)
@pytest.mark.parametrize("scope", ["LOCAL", "GLOBAL"])
def test_a_correction_fenced_after_spaces_loses_its_fence(scope, fence):
    """The fenced answer is spliced as the bare one is: into the subquery
    (LOCAL), or in place of the whole query (GLOBAL)."""
    store = _SEEDED if scope == "LOCAL" else _EMPTY
    bare = repair(BROKEN, LOGS[scope], store,
                  _Provider(CORRECT, VALID[CORRECT]))
    fenced = repair(BROKEN, LOGS[scope], store,
                    _Provider(CORRECT, fence.format(VALID[CORRECT])))
    assert fenced.output["scope"] == bare.output["scope"] == scope
    assert fenced.output["corrected"] == bare.output["corrected"]
    assert "`" not in fenced.output["corrected"]


@pytest.mark.parametrize("answer", [
    "SELECT a FROM t", "\n SELECT a\nFROM t\n\n", "  SELECT '```' FROM t",
    "\t\nSELECT a FROM t -- ```"])
def test_an_unfenced_sql_answer_loses_only_its_outer_newlines(answer):
    assert strip_fences(answer) == answer.strip("\n")


# Answers the consumers once took in with a coerced value, now rejected.
@pytest.mark.parametrize("template_id, answer", [
    (SCENARIO_1, {"applicable": [{"rule": "SAME_TABLE_JOIN",
                                  "action": None}]}),
    (MODIFY_TEMPLATE, {"sql": None}),
    (MODIFY_TEMPLATE, {"explanation": "x"}),
    (ALIGNMENT, {"mappings": [{"left": 0, "right": 0, "equivalent": False,
                               "confidence": 0.9, "counterexample": 7}]}),
    (SCENARIO_2, {"efficient": "no", "suggestions": []}),
], ids=["action-null", "sql-null", "sql-missing", "counterexample-a-number",
        "efficient-a-string"])
def test_coerced_answers_are_rejected(template_id, answer):
    provider = _Provider(template_id, json.dumps(answer))
    consume = {
        SCENARIO_1: lambda: evaluate(SAME_TABLE_JOIN_QUERY, _SEEDED, provider),
        SCENARIO_2: lambda: evaluate(STAR_QUERY, _EMPTY, provider),
        ALIGNMENT: lambda: check_equivalence(*PAIR, provider),
        MODIFY_TEMPLATE: lambda: modify(
            "filter to x = 2", prepare_metadata(PAIR[0], "", {}, [], now=0.0),
            REALIZE_SEMANTICS, provider),
    }[template_id]
    with pytest.raises(RejectedResponseError, match=template_id):
        consume()


def test_unknown_keys_are_ignored_and_a_bare_sql_answer_stays():
    answer = dict(VALID[SCENARIO_2], extra=[1, {"x": None}])
    suggestions = evaluate(STAR_QUERY, _EMPTY,
                           _Provider(SCENARIO_2, json.dumps(answer)))
    assert suggestions[0].action == "list the columns"
    context = prepare_metadata(PAIR[0], "", {}, [], now=0.0)
    outcome = modify("filter to x = 2", context, REALIZE_SEMANTICS,
                     _Provider(MODIFY_TEMPLATE, "SELECT a FROM t WHERE x = 2"))
    assert outcome.sql == "SELECT a FROM t WHERE x = 2"
    assert outcome.explanation == ""


def test_a_rule_generation_answer_may_hold_any_values():
    batch = generate_rules(
        [ExecutionRecord(sql="SELECT q FROM v1", status="ERROR", elapsed=3.0,
                         error_log="boom")],
        _Provider(RULE_GEN, json.dumps(VALID[RULE_GEN])), REWRITER, now=0.0)
    assert [r.index for r in batch.rules] == ["MINED", "NESTED"]


def test_a_malformed_child_intent_is_rejected():
    """A child's summary is checked before it feeds its parent's prompt."""
    answer = {"fields": [{"output_name": "a", "conditions": "a > 0"}]}
    provider = _Provider(INTENT_EXTRACT, json.dumps(answer), "[fragment 1]")
    with pytest.raises(RejectedResponseError,
                       match=r"at \.fields\[0\]\.conditions$"):
        extract_intent(skeleton(NESTED), provider)


def test_an_answer_nested_past_the_recursion_limit_is_not_json():
    answer = "[" * 100_000
    with pytest.raises(RejectedResponseError, match="not valid JSON"):
        evaluate(STAR_QUERY, _EMPTY, _Provider(SCENARIO_2, answer))
    context = prepare_metadata(PAIR[0], "", {}, [], now=0.0)
    outcome = modify("filter to x = 2", context, REALIZE_SEMANTICS,
                     _Provider(MODIFY_TEMPLATE, answer))
    assert outcome.sql == answer  # bare SQL, for the tool to judge
