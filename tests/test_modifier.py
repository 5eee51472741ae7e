from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlgov.errors import ContractViolationError
from sqlgov.modifier import (
    ADOPT_SYNTAX,
    EXPLAIN_SQL,
    OTHER,
    REALIZE_SEMANTICS,
    IntentCategory,
    ModifierConfig,
    bootstrap_centroids,
    build_centroids,
    classify_intent,
    default_categories,
    keyword_score,
    modify,
    prepare_metadata,
)
from sqlgov.prompts import modify_prompt
from sqlgov.providers import HashingEmbedding, ScriptedLLM


class StubEmbedding:
    """Fixed text -> unit vector table (instruction-blind, like the mock)."""

    def __init__(self, table: dict[str, list[float]]):
        self.table = table

    def embed(self, text: str) -> np.ndarray:
        vec = np.asarray(self.table[text], dtype=float)
        return vec / np.linalg.norm(vec)


# --- weighted keyword score ---------------------------------------------------

def test_keyword_score_all_matched_unit_weights():
    category = IntentCategory("X", [("alpha", 1.0), ("beta", 1.0)])
    assert keyword_score("alpha then beta", category) == pytest.approx(1.0)


def test_keyword_score_nothing_matched():
    category = IntentCategory("X", [("alpha", 1.0), ("beta", 1.0)])
    assert keyword_score("gamma delta", category) == 0.0


def test_keyword_score_one_of_four():
    category = IntentCategory("X", [("a1", 1.0), ("a2", 1.0), ("a3", 1.0),
                                    ("hit me", 0.8)])
    assert keyword_score("please hit me now", category) == \
        pytest.approx(0.2, abs=1e-12)


def test_keyword_match_requires_whole_phrase():
    category = IntentCategory("X", [("comment", 1.0)])
    assert keyword_score("add a comment", category) == 1.0
    assert keyword_score("commentary only", category) == 0.0
    assert keyword_score("COMMENT this", category) == 1.0  # case-insensitive


@given(st.lists(st.tuples(st.sampled_from(["k1", "k2", "k3", "k4"]),
                          st.floats(0.05, 1.0)), min_size=1, max_size=6),
       st.sets(st.sampled_from(["k1", "k2", "k3", "k4"])))
def test_keyword_score_bounded_by_one(keywords, present):
    category = IntentCategory("X", keywords)
    request = " ".join(sorted(present)) or "nothing"
    score = keyword_score(request, category)
    assert 0.0 <= score <= 1.0


# --- combined keyword + embedding classification ------------------------------

def test_classify_keyword_only_path():
    categories = [
        IntentCategory(REALIZE_SEMANTICS, [("filter", 1.0), ("change", 1.0)]),
        IntentCategory(EXPLAIN_SQL, [("explain", 1.0)]),
    ]
    cfg = ModifierConfig(alpha=1.0, beta_sim=0.0, theta=0.5)
    got = classify_intent("filter and change the rows", categories, None, cfg)
    assert got == (REALIZE_SEMANTICS, pytest.approx(1.0))


def test_classify_embedding_only_path():
    centroid = (1.0, 0.0, 0.0)
    categories = [
        IntentCategory(REALIZE_SEMANTICS, [("x", 1.0)], centroid=centroid),
        IntentCategory(EXPLAIN_SQL, [("y", 1.0)], centroid=(0.0, 1.0, 0.0)),
    ]
    provider = StubEmbedding({"do the thing": [1.0, 0.0, 0.0]})
    cfg = ModifierConfig(alpha=0.0, beta_sim=1.0, theta=0.5)
    category, score = classify_intent("do the thing", categories, provider, cfg)
    assert category == REALIZE_SEMANTICS
    assert score == pytest.approx(1.0, abs=1e-9)


def test_classify_hand_computed_combination():
    # alpha=0.4, beta=0.6; kw = 0.5 (one of two weight-1 keywords matched);
    # sim = cos(e_Q, centroid) = 0.8 exactly -> F = 0.4*0.5 + 0.6*0.8 = 0.68
    categories = [
        IntentCategory("A", [("alpha", 1.0), ("beta", 1.0)],
                       centroid=(0.8, 0.6, 0.0)),
        IntentCategory("B", [("nope", 1.0)], centroid=(0.0, 0.0, 1.0)),
    ]
    provider = StubEmbedding({"alpha request": [1.0, 0.0, 0.0]})
    cfg = ModifierConfig(alpha=0.4, beta_sim=0.6, theta=0.1)
    category, score = classify_intent("alpha request", categories, provider, cfg)
    assert category == "A"
    assert score == pytest.approx(0.4 * 0.5 + 0.6 * 0.8, abs=1e-9)


def test_classify_rejects_below_theta():
    categories = [IntentCategory("A", [("nomatch", 1.0)],
                                 centroid=(0.0, 1.0))]
    provider = StubEmbedding({"orthogonal": [1.0, 0.0]})
    cfg = ModifierConfig(alpha=0.5, beta_sim=0.5, theta=0.35)
    assert classify_intent("orthogonal", categories, provider, cfg) is None


def test_classify_deterministic_with_deterministic_provider(embedder):
    categories = bootstrap_centroids(default_categories(), embedder,
                                     ModifierConfig())
    request = "convert to cte style and tidy the formatting"
    first = classify_intent(request, categories, embedder)
    second = classify_intent(request, categories, embedder)
    assert first == second


def test_classify_tie_prefers_declaration_order():
    categories = [
        IntentCategory("FIRST", [("word", 1.0)]),
        IntentCategory("SECOND", [("word", 1.0)]),
    ]
    cfg = ModifierConfig(alpha=1.0, beta_sim=0.0, theta=0.1)
    category, _ = classify_intent("word", categories, None, cfg)
    assert category == "FIRST"


_WORDS = ["filter", "change", "explain", "comment", "style", "syntax",
          "polish", "tidy", "rows", "totals", "query", "join"]


@given(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8),
       st.floats(min_value=0.01, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_argmax_invariant_under_positive_scaling(words, c):
    request = " ".join(words)
    embedder = HashingEmbedding(64)
    categories = bootstrap_centroids(default_categories(), embedder,
                                     ModifierConfig())
    base = ModifierConfig(alpha=0.4, beta_sim=0.6, theta=0.35)
    scaled = ModifierConfig(alpha=0.4 * c, beta_sim=0.6 * c, theta=0.35 * c)
    got_base = classify_intent(request, categories, embedder, base)
    got_scaled = classify_intent(request, categories, embedder, scaled)
    if got_base is None:
        assert got_scaled is None
    else:
        assert got_scaled is not None
        assert got_base[0] == got_scaled[0]
        assert got_scaled[1] == pytest.approx(c * got_base[1], rel=1e-9)


# --- centroids ----------------------------------------------------------------

def test_centroid_single_example_is_that_embedding():
    provider = StubEmbedding({"only": [3.0, 4.0]})
    categories = [IntentCategory("A", [("k", 1.0)])]
    updated = build_centroids([("only", "A")], provider, categories)
    assert np.allclose(updated[0].centroid, [0.6, 0.8])


def test_centroid_identical_examples_unchanged():
    provider = StubEmbedding({"same": [1.0, 0.0]})
    categories = [IntentCategory("A", [("k", 1.0)])]
    updated = build_centroids([("same", "A"), ("same", "A")], provider,
                              categories)
    assert np.allclose(updated[0].centroid, [1.0, 0.0])


def test_centroid_matches_mean_normalize_oracle():
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(10, 6))
    table = {f"req{i}": vectors[i].tolist() for i in range(10)}
    provider = StubEmbedding(table)
    categories = [IntentCategory("A", [("k", 1.0)])]
    updated = build_centroids([(f"req{i}", "A") for i in range(10)],
                              provider, categories)
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    mean = unit.mean(axis=0)
    expected = mean / np.linalg.norm(mean)
    assert np.allclose(updated[0].centroid, expected, atol=1e-9)


def test_empty_category_keeps_prior_centroid():
    prior = (0.0, 1.0)
    categories = [IntentCategory("A", [("k", 1.0)], centroid=prior),
                  IntentCategory("B", [("k", 1.0)])]
    provider = StubEmbedding({"x": [1.0, 0.0]})
    updated = build_centroids([("x", "B")], provider, categories)
    assert updated[0].centroid == prior
    assert updated[1].centroid is not None


# --- metadata preparation ---------------------------------------------------

_CATALOG = {
    "t1": {"description": "orders", "columns": [
        {"name": "id", "description": "primary key"}, {"name": "total"}]},
    "t2": ["a", "b"],
}


def test_prepare_metadata_collects_referenced_tables():
    context = prepare_metadata("SELECT id FROM t1 JOIN t2 ON t1.id = t2.a",
                               "", _CATALOG, [], now=0.0)
    assert set(context.referenced_metadata) == {"t1", "t2"}
    assert "orders" in context.referenced_metadata["t1"]
    assert "primary key" in context.referenced_metadata["t1"]


def test_prepare_metadata_missing_catalog_entry_is_name_only():
    context = prepare_metadata("SELECT x FROM unknown_table", "", _CATALOG,
                               [], now=0.0)
    assert context.referenced_metadata["unknown_table"] == "(not in catalog)"


def test_a_dotted_table_meets_the_catalog_whole_then_by_its_last_part():
    catalog = {"sales.orders": ["k", "x"], "items": ["k", "y"]}
    context = prepare_metadata(
        "SELECT a.x, b.y FROM sales.orders a JOIN sales.items b ON a.k = b.k",
        "", catalog, [], now=0.0)
    assert context.referenced_metadata == {"sales.items": "columns: k, y",
                                           "sales.orders": "columns: k, x"}


def test_prepare_metadata_empty_history():
    context = prepare_metadata("SELECT 1", "", {}, [], now=0.0)
    assert context.frequent_tables == []
    assert context.timestamp.startswith("1970-01-01")


def test_prepare_metadata_frequency_ranked_top_k():
    history = {"t1": 5, "t2": 3, "t3": 1}
    cfg = ModifierConfig(top_k_tables=2)
    context = prepare_metadata("SELECT 1", "", _CATALOG, history, cfg, now=0.0)
    assert [t for t, _ in context.frequent_tables] == ["t1", "t2"]


# --- modification -------------------------------------------------------------

def _context(sql="SELECT a FROM t WHERE x = 1"):
    return prepare_metadata(sql, "", {}, [], now=0.0)


def test_explain_sql_keeps_logic_and_adds_comments():
    context = _context()
    env = modify_prompt(EXPLAIN_SQL, "add comments", context)
    response = json.dumps({
        "sql": "-- fetch a\nSELECT a\nFROM t -- source\nWHERE x = 1",
        "explanation": "annotated each clause"})
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": response}])
    outcome = modify("add comments", context, EXPLAIN_SQL, llm)
    assert "-- fetch a" in outcome.sql
    assert outcome.explanation == "annotated each clause"


def test_explain_sql_contract_violation_detected():
    context = _context()
    env = modify_prompt(EXPLAIN_SQL, "add comments", context)
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": json.dumps({
                            "sql": "SELECT a, b FROM t WHERE x = 1",
                            "explanation": "oops, changed the projection"})}])
    with pytest.raises(ContractViolationError):
        modify("add comments", context, EXPLAIN_SQL, llm)


def test_realize_semantics_round_trip():
    context = _context()
    env = modify_prompt(REALIZE_SEMANTICS, "filter to x = 2", context)
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": json.dumps({
                            "sql": "SELECT a FROM t WHERE x = 2",
                            "explanation": "changed the filter"})}])
    outcome = modify("filter to x = 2", context, REALIZE_SEMANTICS, llm)
    assert outcome.sql == "SELECT a FROM t WHERE x = 2"


def test_other_category_uses_generic_prompt():
    context = _context()
    env = modify_prompt(OTHER, "polish this", context)
    assert env.template_id == "MODIFY_OTHER"
    assert "minimal" in env.render()


def test_default_categories_cover_the_four_ids():
    ids = [c.id for c in default_categories()]
    assert ids == [REALIZE_SEMANTICS, EXPLAIN_SQL, ADOPT_SYNTAX, OTHER]
