from __future__ import annotations

import copy
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlgov.knowledge_base as kb
from sqlgov.errors import (
    DimensionMismatchError,
    IoFailure,
    SchemaVersionMismatchError,
    ZeroVectorError,
)
from sqlgov.fragmenter import decompose
from sqlgov.knowledge_base import (
    CANDIDATE,
    REWRITER,
    VERIFIED,
    ErrorStrategy,
    HistoricalCase,
    KnowledgeSnapshot,
    KnowledgeStore,
    RuleEntry,
    ToolStats,
    check_integrity,
    copy_snapshot,
    cosine_similarity,
    load_snapshot,
    save_snapshot,
)
from sqlgov.seeds import seed_snapshot
from sqlgov.self_learning import (
    CandidateRuleBatch,
    ExecutionRecord,
    apply_verification,
    dedupe_snapshot,
)
from sqlgov.sqltext import templatize
from conftest import store_file


# --- cosine similarity ------------------------------------------------------

def test_cosine_self_similarity():
    v = [0.3, -0.4, 0.5]
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_cosine_closed_form():
    assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == \
        pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_zero_vector():
    with pytest.raises(ZeroVectorError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


# --- rule matching on the nested exemplar --------------------------------------

def test_nested_query_rule_matches(nested_query, seeded_store):
    tree = decompose(nested_query)
    hits = {
        f.id: [r.index for r in seeded_store.match_rules(f, REWRITER, tree)]
        for f in tree.fragments
    }
    assert hits[4] == ["SAME_TABLE_JOIN"]
    assert hits[7] == ["OUTER_JOIN_NULL_FILTER"]
    for fid in (1, 2, 3, 5, 6):
        assert hits[fid] == []


def test_match_rules_is_pure(nested_query, seeded_store):
    tree = decompose(nested_query)
    frag = tree.by_id(4)
    first = seeded_store.match_rules(frag, REWRITER, tree)
    second = seeded_store.match_rules(frag, REWRITER, tree)
    assert [r.index for r in first] == [r.index for r in second]


def test_matcherless_rules_never_match(embedder, nested_query):
    snapshot = seed_snapshot(embedder)
    snapshot.rules.append(RuleEntry(
        index="PROMPT_ONLY", description="retrieval-only guidance",
        matcher=None, tool=REWRITER, status=VERIFIED))
    store = KnowledgeStore(snapshot, embedder)
    tree = decompose(nested_query)
    for frag in tree.fragments:
        assert all(r.index != "PROMPT_ONLY"
                   for r in store.match_rules(frag, REWRITER, tree))


# --- case retrieval ------------------------------------------------------------

def _random_cases(embedder, n=50, seed=7):
    rng = random.Random(seed)
    words = ["users", "orders", "items", "events", "logs", "daily", "sum",
             "count", "avg", "join", "filter", "window"]
    cases = []
    for i in range(n):
        sql = (f"SELECT {rng.choice(words)} FROM {rng.choice(words)} "
               f"WHERE {rng.choice(words)} = {rng.randint(1, 9)}")
        template = templatize(sql + f" -- {i}")
        text = f"{rng.choice(words)} {rng.choice(words)} case {i}"
        vec = embedder.embed(text)
        cases.append(HistoricalCase(
            index=f"case-{i:03d}", details=f"case {i}", tag=["SAME_TABLE_JOIN"],
            template=template, embedding=tuple(float(x) for x in vec)))
    return cases


def _oracle_rank(query_vec, cases, k):
    """Exhaustive scan with sequential-sum cosine, independent of numpy."""
    scored = []
    for case in cases:
        dot = sum(a * b for a, b in zip(query_vec, case.embedding))
        na = math.sqrt(sum(a * a for a in query_vec))
        nb = math.sqrt(sum(b * b for b in case.embedding))
        scored.append((case.index, dot / (na * nb)))
    scored.sort(key=lambda s: (-s[1], s[0]))
    return [index for index, _ in scored[:k]]


def test_retrieval_matches_brute_force_oracle(embedder):
    cases = _random_cases(embedder)
    store = KnowledgeStore(
        KnowledgeSnapshot(rules=[RuleEntry("SAME_TABLE_JOIN", "d", None,
                                           REWRITER, VERIFIED)],
                          cases=cases), embedder)
    query = "SELECT users FROM events WHERE logs = 3"
    got = [c.index for c, _ in store.retrieve_cases(query, k=5)]
    query_vec = [float(x) for x in embedder.embed(templatize(query))]
    assert got == _oracle_rank(query_vec, cases, 5)


def test_retrieval_tie_break_by_index(embedder):
    vec = tuple(float(x) for x in embedder.embed("identical text"))
    cases = [
        HistoricalCase("case-b", "b", [], "T", vec),
        HistoricalCase("case-a", "a", [], "T", vec),
    ]
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases), embedder)
    got = [c.index for c, _ in store.retrieve_cases("SELECT 1", k=2)]
    assert got == ["case-a", "case-b"]


def test_signed_zeros_share_an_index_row_and_tie_break_by_index():
    cases = [HistoricalCase("case-b", "b", [], "T", (0.6, 0.0, -0.0, 0.8)),
             HistoricalCase("case-a", "a", [], "T", (0.6, -0.0, 0.0, 0.8))]
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases),
                           _FixedEmbedder([1.0, 0.5, -0.5, 0.0]))
    hits = store.retrieve_cases("SELECT 1", k=2)
    assert store._case_index.entry_rows.tolist() == [0, 0]
    assert [c.index for c, _ in hits] == ["case-a", "case-b"]
    assert hits[0][1].hex() == hits[1][1].hex()


def test_retrieval_self_similarity(embedder):
    query = "SELECT name FROM users WHERE id = 5"
    template = templatize(query)
    case = HistoricalCase("case-self", "self", [], template,
                          tuple(float(x) for x in embedder.embed(template)))
    store = KnowledgeStore(KnowledgeSnapshot(cases=[case]), embedder)
    results = store.retrieve_cases(query, k=3)
    assert results[0][0].index == "case-self"
    assert results[0][1] == pytest.approx(1.0, abs=1e-6)


def test_retrieval_empty_store(embedder):
    store = KnowledgeStore(KnowledgeSnapshot(), embedder)
    assert store.retrieve_cases("SELECT 1", k=5) == []


def test_retrieval_respects_k_and_is_prefix_monotone(embedder):
    cases = _random_cases(embedder, n=20)
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases), embedder)
    query = "SELECT items FROM logs WHERE sum = 2"
    previous = None
    for k in (1, 3, 5, 10, 20, 40):
        got = [c.index for c, _ in store.retrieve_cases(query, k=k)]
        assert len(got) <= k
        if previous is not None:
            assert got[:len(previous)] == previous
        previous = got


@pytest.mark.parametrize("k", [0, -1, -2])
@pytest.mark.parametrize("tags", [None, ["SAME_TABLE_JOIN"]])
def test_a_k_below_one_is_refused_before_any_work(embedder, counting_embedder,
                                                  k, tags):
    for snapshot in (seed_snapshot(embedder), KnowledgeSnapshot()):
        store = KnowledgeStore(snapshot, counting_embedder)
        with pytest.raises(ValueError, match="k must be at least 1"):
            store.retrieve_cases("SELECT a FROM t", tags, k)
        assert "_case_index" not in vars(store)
        assert store._tag_positions == {}
    assert counting_embedder.calls == 0


def test_tag_filter_soundness(embedder):
    cases = _random_cases(embedder, n=10)
    for i, case in enumerate(cases):
        case.tag.clear()
        case.tag.append("TAG_A" if i % 2 == 0 else "TAG_B")
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases), embedder)
    results = store.retrieve_cases("SELECT a FROM b", tag_filter=["TAG_A"], k=10)
    assert results
    assert all("TAG_A" in case.tag for case, _ in results)


class _FixedEmbedder:
    """Embeds every text as one given vector."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def embed(self, text):
        return self.vec


@st.composite
def planted_stores(draw):
    """Cases over a few distinct random embeddings (so duplicates are
    planted), with random tag sets and indices out of position order."""
    n_distinct = draw(st.integers(1, 5))
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = [tuple(float(x) for x in rng.normal(size=12))
             for _ in range(n_distinct)]
    rows = draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))
    names = draw(st.permutations(range(n)))
    tags = draw(st.lists(st.sets(st.sampled_from(["A", "B", "C"])),
                         min_size=n, max_size=n))
    cases = [HistoricalCase(f"case-{names[i]:02d}", "d", sorted(tags[i]), "T",
                            bases[rows[i]]) for i in range(n)]
    return cases, rng.normal(size=12)


_FILTERS = st.sampled_from([None, [], ["A"], ["UNKNOWN"], ["A", "B"],
                            ["A", "A"], ["B", "UNKNOWN"]])


@settings(max_examples=200, deadline=None)
@given(planted_stores(), _FILTERS, _FILTERS, st.data())
def test_retrieval_equals_reference_loop(store_and_query, tag_filter,
                                         second_filter, data):
    cases, query_vec = store_and_query
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases),
                           _FixedEmbedder(query_vec))
    # one view, two filters in turn: the second reuses the positions of
    # any tag the first one read
    for tags in (tag_filter, second_filter):
        k = data.draw(st.integers(1, len(cases) + 2))
        got = store.retrieve_cases("SELECT 1", tags, k)
        reference = sorted(
            ((c, cosine_similarity(query_vec, c.embedding)) for c in cases
             if tags is None or set(c.tag) & set(tags)),
            key=lambda cs: (-cs[1], cs[0].index))[:k]
        assert [c.index for c, _ in got] == [c.index for c, _ in reference]
        for (_, score), (_, expected) in zip(got, reference):
            assert abs(score - expected) <= 1e-12
        by_embedding: dict[tuple, list] = {}
        for case, score in got:
            by_embedding.setdefault(tuple(case.embedding), []).append(
                (case.index, score))
        for hits in by_embedding.values():
            assert len({score for _, score in hits}) == 1
            assert [index for index, _ in hits] == sorted(
                index for index, _ in hits)
    for positions in store._tag_positions.values():
        assert positions.dtype == np.intp and not positions.flags.writeable


def test_retrieval_zero_query_raises():
    cases = [HistoricalCase("c1", "d", ["A"], "T", (1.0, 0.0))]
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases),
                           _FixedEmbedder([0.0, 0.0]))
    with pytest.raises(ZeroVectorError):
        store.retrieve_cases("SELECT 1")


def test_retrieval_zero_case_raises_only_when_scored():
    cases = [HistoricalCase("c1", "d", ["A"], "T", (1.0, 0.0)),
             HistoricalCase("c2", "d", ["B"], "T", (0.0, 0.0))]
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases),
                           _FixedEmbedder([1.0, 1.0]))
    with pytest.raises(ZeroVectorError):
        store.retrieve_cases("SELECT 1")
    with pytest.raises(ZeroVectorError):
        store.retrieve_cases("SELECT 1", tag_filter=["B"])
    hits = store.retrieve_cases("SELECT 1", tag_filter=["A"])
    assert [c.index for c, _ in hits] == ["c1"]
    assert hits[0][1] == cosine_similarity([1.0, 1.0], [1.0, 0.0])


def test_retrieval_query_dimension_mismatch_raises():
    cases = [HistoricalCase("c1", "d", ["A"], "T", (1.0, 0.0))]
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases),
                           _FixedEmbedder([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        store.retrieve_cases("SELECT 1")


def test_ragged_store_raises_even_when_filtered_out():
    cases = [HistoricalCase("c1", "d", ["A"], "T", (1.0, 0.0)),
             HistoricalCase("c2", "d", ["B"], "T", (1.0, 0.0, 0.0))]
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases),
                           _FixedEmbedder([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        store.retrieve_cases("SELECT 1", tag_filter=["A"])


def test_strategy_retrieval_typed_errors():
    def strategy(index, vec):
        return ErrorStrategy(index, "p", False, False, "g", vec)

    zero = KnowledgeStore(
        KnowledgeSnapshot(strategies=[strategy("s1", (0.0, 0.0))]),
        _FixedEmbedder([1.0, 0.0]))
    with pytest.raises(ZeroVectorError):
        zero.retrieve_strategy("AnyException: x")
    ragged = KnowledgeStore(
        KnowledgeSnapshot(strategies=[strategy("s1", (1.0, 0.0)),
                                      strategy("s2", (1.0, 0.0, 0.0))]),
        _FixedEmbedder([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        ragged.retrieve_strategy("AnyException: x")
    wrong_query = KnowledgeStore(
        KnowledgeSnapshot(strategies=[strategy("s1", (1.0, 0.0))]),
        _FixedEmbedder([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        wrong_query.retrieve_strategy("AnyException: x")


# --- strategies ----------------------------------------------------------------

def test_retrieve_strategy_seeded_join_condition(seeded_store):
    key = ("SqlValidatorException: INNER, LEFT, RIGHT or FULL join requires "
           "a condition (NATURAL keyword or ON or USING clause)")
    hit = seeded_store.retrieve_strategy(key)
    assert hit is not None
    strategy, similarity = hit
    assert strategy.index == "strat-join-condition"
    assert similarity == pytest.approx(1.0, abs=1e-6)


def test_retrieve_strategy_empty_store(embedder):
    store = KnowledgeStore(KnowledgeSnapshot(), embedder)
    assert store.retrieve_strategy("AnyException: whatever") is None


def test_retrieve_strategy_below_threshold_returns_none(seeded_store):
    assert seeded_store.retrieve_strategy(
        "CompletelyUnrelatedThing: zz qq xx yy ww vv") is None


def test_retrieve_strategy_matches_exhaustive_scan(embedder):
    rng = random.Random(3)
    strategies = []
    for i in range(30):
        pattern = f"Exception{i}: problem {rng.random():.4f} in section {i}"
        vec = tuple(float(x) for x in embedder.embed(pattern))
        strategies.append(ErrorStrategy(
            index=f"s{i:02d}", message_pattern=pattern, needs_schema=False,
            localized=False, guidance="g", embedding=vec))
    store = KnowledgeStore(KnowledgeSnapshot(strategies=strategies), embedder,
                           strategy_threshold=0.0)
    key = "Exception7: problem somewhere in section 7"
    hit = store.retrieve_strategy(key)
    key_vec = [float(x) for x in embedder.embed(key)]
    best = max(
        strategies,
        key=lambda s: (sum(a * b for a, b in zip(key_vec, s.embedding)),
                       [-ord(ch) for ch in s.index]),
    )
    assert hit is not None and hit[0].index == best.index


# --- persistence ----------------------------------------------------------------

def test_empty_snapshot_round_trip(tmp_path):
    snapshot = KnowledgeSnapshot()
    save_snapshot(snapshot, tmp_path / "kb")
    assert load_snapshot(tmp_path / "kb") == snapshot


def test_populated_snapshot_round_trip_100_entries(tmp_path, embedder):
    rng = random.Random(19)
    snapshot = seed_snapshot(embedder, now=123.5)
    snapshot.cases.extend(_random_cases(embedder, n=60))
    for i in range(30):
        status = rng.choice(["CANDIDATE", "VERIFIED", "RETIRED"])
        snapshot.rules.append(RuleEntry(
            index=f"extra-{i:02d}", description=f"rule body {i}",
            matcher=[{"pred": "in_subquery"}] if i % 3 == 0 else None,
            tool=rng.choice(["REWRITER", "CORRECTOR"]), status=status,
            created_at=float(i), verified_at=float(i) if status == "VERIFIED"
            else None))
    snapshot.stats["REWRITER"] = ToolStats(update_times=[1.0, 11.0, 29.5])
    assert (len(snapshot.rules) + len(snapshot.cases)
            + len(snapshot.strategies)) >= 100
    before = copy.deepcopy(snapshot)
    save_snapshot(snapshot, tmp_path / "kb")
    loaded = load_snapshot(tmp_path / "kb")
    assert loaded == before


def test_unknown_schema_version_rejected(tmp_path, embedder):
    save_snapshot(seed_snapshot(embedder), tmp_path / "kb")
    meta = tmp_path / "kb" / "meta.json"
    meta.write_text(meta.read_text().replace(
        f'"schema_version": {kb.SCHEMA_VERSION}', '"schema_version": 99'))
    with pytest.raises(SchemaVersionMismatchError):
        load_snapshot(tmp_path / "kb")


def test_seed_snapshot_integrity(embedder):
    assert check_integrity(seed_snapshot(embedder)) == []


def test_integrity_reports_norms_as_the_reference_loop():
    rng = random.Random(11)
    cases = [HistoricalCase(f"c{i}", "d", ["NOPE"] if i == 2 else [], "T",
                            tuple(rng.uniform(-2, 2) for _ in range(6)))
             for i in range(5)]
    expected = []
    for case in cases:
        expected += [f"case {case.index} tags unknown rule {t}" for t in case.tag]
        norm = math.sqrt(sum(x * x for x in case.embedding))
        expected.append(f"case {case.index} embedding norm {norm:.8f}")
    assert check_integrity(KnowledgeSnapshot(cases=cases)) == expected
    ragged = [HistoricalCase("c1", "d", [], "T", (1.0, 0.0)),
              HistoricalCase("c2", "d", [], "T", (1.0,))]
    assert check_integrity(KnowledgeSnapshot(cases=ragged)) == \
        ["case stored embeddings differ in length: [1, 2]"]


def test_embeddings_are_unit_norm(embedder):
    snapshot = seed_snapshot(embedder)
    for case in snapshot.cases:
        assert np.linalg.norm(case.embedding) == pytest.approx(1.0, abs=1e-6)
    for strategy in snapshot.strategies:
        assert np.linalg.norm(strategy.embedding) == pytest.approx(1.0, abs=1e-6)


# --- snapshot copies and atomic writes -------------------------------------------

def _populated_snapshot(embedder):
    snapshot = seed_snapshot(embedder, now=5.0)
    snapshot.cases.extend(_random_cases(embedder, n=12))
    snapshot.stats["REWRITER"] = ToolStats(update_times=[1.0])
    return snapshot


def test_copy_snapshot_copies_state_and_shares_embeddings(embedder):
    snapshot = _populated_snapshot(embedder)
    before = copy.deepcopy(snapshot)
    clone = copy_snapshot(snapshot)
    assert clone == snapshot
    clone.rules[0].status = "RETIRED"
    clone.rules[1].matcher.append({"pred": "in_subquery"})
    clone.rules.append(RuleEntry("NEW", "d", None, REWRITER, VERIFIED))
    clone.cases[0].tag.append("NEW")
    clone.cases[-1].tag.clear()
    clone.stats["REWRITER"].update_times.append(2.0)
    assert snapshot == before
    for copied, original in zip(clone.cases + clone.strategies,
                                snapshot.cases + snapshot.strategies):
        assert copied.embedding is original.embedding


def test_store_paths_read_no_entry_through_vars(embedder, tmp_path,
                                               monkeypatch):
    """Copying, comparing and saving entries read their fields through
    per-class plans: ``vars()`` would give each entry a dict of its own."""
    def no_vars(*args):
        raise AssertionError("vars() read an entry")

    monkeypatch.setattr(kb, "vars", no_vars, raising=False)
    snapshot = _populated_snapshot(embedder)
    clone = copy_snapshot(snapshot)
    assert clone == snapshot
    save_snapshot(clone, tmp_path)
    assert load_snapshot(tmp_path) == snapshot


def test_embedded_entries_compare_every_field_and_the_row(embedder):
    case = HistoricalCase("c", "d", ["T"], "SELECT 1", [1.0, 2.0])
    assert case == HistoricalCase("c", "d", ["T"], "SELECT 1", [1.0, 2.0])
    assert case != HistoricalCase("c", "d", ["U"], "SELECT 1", [1.0, 2.0])
    assert case != HistoricalCase("c", "d", ["T"], "SELECT 1", [1.0, 2.5])
    assert case != ErrorStrategy("c", "d", True, True, "g", [1.0, 2.0])


_CLAUSES = st.sampled_from([
    {"pred": "in_subquery"},
    {"pred": "contains_operator", "op": "JOIN"},
    {"pred": "same_table_scanned", "min_count": 3},
])
_LABELS = st.text("ABC_", min_size=1, max_size=4)
_ROWS = st.lists(st.floats(-2, 2), min_size=1, max_size=4)


@st.composite
def snapshots(draw):
    """Snapshots of every entry kind: rules with and without matchers,
    cases with tag lists, strategies, and per-tool stats."""
    rules = [RuleEntry(index, "d", draw(st.none() | st.lists(_CLAUSES, max_size=3)),
                       draw(st.sampled_from(kb.TOOLS)),
                       draw(st.sampled_from([kb.CANDIDATE, VERIFIED, kb.RETIRED])),
                       draw(st.floats(0, 9)), draw(st.none() | st.floats(0, 9)))
             for index in draw(st.lists(_LABELS, max_size=4))]
    cases = [HistoricalCase(index, "d", draw(st.lists(_LABELS, max_size=3)), "T",
                            draw(_ROWS))
             for index in draw(st.lists(_LABELS, max_size=4))]
    strategies = [ErrorStrategy(index, "p", draw(st.booleans()), draw(st.booleans()),
                                "g", draw(_ROWS))
                  for index in draw(st.lists(_LABELS, max_size=3))]
    stats = draw(st.dictionaries(st.sampled_from(kb.TOOLS), st.lists(
        st.floats(0, 9), max_size=3).map(lambda times: ToolStats(times)), max_size=2))
    return KnowledgeSnapshot(rules, cases, strategies, stats)


def _mutate_every_container(snapshot):
    for rule in snapshot.rules:
        rule.status, rule.verified_at = "CHANGED", -1.0
        for clause in rule.matcher or ():
            clause["pred"] = "changed"
            clause["extra"] = 1
        if rule.matcher is not None:
            rule.matcher.append({"pred": "in_subquery"})
    for case in snapshot.cases:
        case.tag.append("NEW")
    for stats in snapshot.stats.values():
        stats.update_times.append(-1.0)
    snapshot.stats["NEW"] = ToolStats()
    snapshot.rules.append(RuleEntry("NEW", "d", None, REWRITER))
    snapshot.cases.clear()
    snapshot.strategies.reverse()


@settings(max_examples=100, deadline=None)
@given(snapshots())
def test_copy_snapshot_is_a_deep_copy_that_shares_embeddings(snapshot):
    before = copy.deepcopy(snapshot)
    clone = copy_snapshot(snapshot)
    assert clone == before
    for copied, original in zip(clone.cases + clone.strategies,
                                snapshot.cases + snapshot.strategies):
        assert copied.embedding is original.embedding
    _mutate_every_container(clone)
    assert snapshot == before


# --- one embedding index per snapshot ------------------------------------------------

def _retrieve(snapshot, embedder):
    """Every case by a new view, as (index, score bits), unfiltered and by tag."""
    store = KnowledgeStore(snapshot, embedder)
    return [[(c.index, score.hex()) for c, score in
             store.retrieve_cases("SELECT 1", tags, k=len(snapshot.cases))]
            for tags in (None, ["SAME_TABLE_JOIN"])]


def _fresh(snapshot, embedder):
    """As ``_retrieve``, over an index built afresh for the same entries."""
    return _retrieve(KnowledgeSnapshot(cases=list(snapshot.cases)), embedder)


def test_views_over_a_snapshot_and_its_copy_build_each_index_once(
        embedder, index_builds):
    def use(store):
        store.retrieve_cases("SELECT a FROM t", k=3)
        store.retrieve_strategy("column not found")

    snapshot = _populated_snapshot(embedder)
    use(KnowledgeStore(snapshot, embedder))
    use(KnowledgeStore(snapshot, embedder))
    use(KnowledgeStore(copy_snapshot(snapshot), embedder))
    assert index_builds == [[c.index for c in snapshot.cases],
                            [s.index for s in snapshot.strategies]]


def _twinned_cases(embedder):
    """Cases where ``case-twin`` shares ``case-000``'s embedding object, so
    their order in a ranking is decided by index alone."""
    cases = _random_cases(embedder, n=8)
    cases.append(HistoricalCase("case-twin", "twin", ["SAME_TABLE_JOIN"], "T",
                                cases[0].embedding))
    return cases


def _append(cases):
    cases.append(HistoricalCase("case-new", "new", ["SAME_TABLE_JOIN"], "T",
                                cases[4].embedding[::-1].copy()))


def _pop(cases):
    cases.pop(2)


def _swap(cases):
    cases[1], cases[2] = cases[2], cases[1]


def _rename_twin(cases):
    cases[-1].index = "case-"  # now ranks before case-000, its tie


def _equal_new_row(cases):
    cases[3].embedding = np.array(cases[3].embedding)


def _different_row(cases):
    cases[3].embedding = cases[5].embedding[::-1].copy()


def _retag(cases):
    for case in cases[::2]:  # in place, as dedupe_snapshot retags its copy
        tags = [tag for tag in case.tag if tag != "SAME_TABLE_JOIN"]
        if len(tags) == len(case.tag):
            tags.append("SAME_TABLE_JOIN")
        case.tag.clear()
        case.tag.extend(tags)


@pytest.mark.parametrize("change", [_append, _pop, _swap, _rename_twin,
                                    _equal_new_row, _different_row, _retag])
def test_a_view_after_an_in_place_change_ranks_as_a_fresh_index(embedder, change):
    snapshot = KnowledgeSnapshot(cases=_twinned_cases(embedder))
    query = _FixedEmbedder(np.random.default_rng(5).normal(size=768))
    _retrieve(snapshot, query)  # the snapshot now holds an index
    change(snapshot.cases)
    assert _retrieve(snapshot, query) == _fresh(snapshot, query)


def test_a_ragged_snapshot_fails_every_retrieval():
    cases = [HistoricalCase("c1", "d", ["A"], "T", (1.0, 0.0)),
             HistoricalCase("c2", "d", ["A"], "T", (1.0,))]
    strategies = [ErrorStrategy("s1", "p", False, True, "g", (1.0, 0.0)),
                  ErrorStrategy("s2", "p", False, True, "g", (1.0,))]
    snapshot = KnowledgeSnapshot(cases=cases, strategies=strategies)
    store = KnowledgeStore(snapshot, _FixedEmbedder([1.0, 0.0]))
    for view in (store, store, KnowledgeStore(snapshot, store.embedder)):
        for tags in (None, ["A"]):
            with pytest.raises(DimensionMismatchError):
                view.retrieve_cases("SELECT 1", tags)
        with pytest.raises(DimensionMismatchError):
            view.retrieve_strategy("error")


def _store_files(directory):
    return sorted(p.name for p in directory.iterdir())


def test_failed_save_leaves_previous_store(tmp_path, embedder, monkeypatch):
    directory = tmp_path / "kb"
    previous = _populated_snapshot(embedder)
    save_snapshot(previous, directory)
    files = _store_files(directory)
    changed = copy.deepcopy(previous)
    changed.cases.pop()
    changed.rules[0].status = "RETIRED"
    changed.stats["REWRITER"].update_times.append(2.0)

    calls = []
    write = kb.write_jsonl

    def failing_write(records, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write(records, path)

    monkeypatch.setattr(kb, "write_jsonl", failing_write)
    with pytest.raises(IoFailure):
        save_snapshot(changed, directory)
    assert len(calls) == 2
    assert _store_files(directory) == files
    assert load_snapshot(directory) == previous


def test_unserializable_save_leaves_previous_store(tmp_path, embedder):
    directory = tmp_path / "kb"
    previous = _populated_snapshot(embedder)
    save_snapshot(previous, directory)
    files = _store_files(directory)
    broken = copy.deepcopy(previous)
    broken.stats["REWRITER"].update_times.append({1.0})
    with pytest.raises(IoFailure):
        save_snapshot(broken, directory)
    assert _store_files(directory) == files
    assert load_snapshot(directory) == previous


# --- failures during a save -----------------------------------------------------

class _FailingWrites:
    """An open file whose every write, and its flush, fails."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._fh.__exit__(*exc_info)

    def write(self, *args):
        raise OSError("disk full")

    flush = write


def _fail_at(monkeypatch, step, k):
    """Make the ``k``-th call of ``step`` in the store module fail:
    "write" fails the writes to the k-th file it opens, and "fsync",
    "replace" and "unlink" fail that ``os`` function's k-th call. The
    calls, as they are made."""
    calls = []
    if step == "write":
        def failing_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            calls.append(Path(file).name)
            return _FailingWrites(fh) if len(calls) == k else fh

        monkeypatch.setattr(kb, "open", failing_open, raising=False)
        return calls
    real = getattr(os, step)

    def failing(*args):
        calls.append(args)
        if len(calls) == k:
            raise OSError(f"{step} failed")
        return real(*args)

    monkeypatch.setattr(kb.os, step, failing)
    return calls


def _assert_a_failed_save_leaves_the_previous_store(
        monkeypatch, directory, previous, changed, step, k):
    """A save of ``changed`` failing at the ``k``-th ``step`` raises, leaves
    the store loading as ``previous`` with no new file, and the same save
    then succeeds. The calls made up to the failure."""
    files = _store_files(directory)
    calls = _fail_at(monkeypatch, step, k)
    with pytest.raises(IoFailure):
        save_snapshot(changed, directory)
    monkeypatch.undo()
    assert len(calls) == k
    assert _store_files(directory) == files
    assert load_snapshot(directory) == previous
    return calls


# The files a save of a deep copy writes, in order: every kind, since the
# copy's embedding rows are writable, so no kind can be taken to be on disk
# already, and then meta.json's temp file. Each is written, then fsynced.
_FILES_PER_SAVE = 6


def _grown(snapshot, embedder):
    snapshot.cases.append(_random_cases(embedder, n=1)[0])
    snapshot.rules.append(RuleEntry("R-new", "new rule", None, REWRITER))
    return snapshot


@pytest.mark.parametrize("previous_store", [True, False])
@pytest.mark.parametrize("k", range(1, _FILES_PER_SAVE + 1))
def test_a_save_failing_at_any_move_leaves_the_previous_store(
        tmp_path, embedder, monkeypatch, k, previous_store):
    """A save puts each of its files in place by writing it under a name of
    its own; a write or the fsync of its ``k``-th file fails."""
    directory = tmp_path / "kb"
    directory.mkdir()
    previous = KnowledgeSnapshot()
    if previous_store:
        previous = _populated_snapshot(embedder)
        save_snapshot(previous, directory)
    changed = _grown(copy.deepcopy(previous), embedder)
    for step in ("write", "fsync"):
        _assert_a_failed_save_leaves_the_previous_store(
            monkeypatch, directory, previous, changed, step, k)
    assert len(_written_by_save(changed, directory)) == _FILES_PER_SAVE
    assert load_snapshot(directory) == changed


# The files of a save of a loaded store whose rules and cases changed: its
# strategies are skipped, and meta.json's temp file comes last.
_PARTIAL_FILES = ["rules.jsonl", "cases.jsonl", "cases.npy", "meta.json"]


@pytest.mark.parametrize("k", range(1, len(_PARTIAL_FILES) + 1))
def test_a_partial_save_failing_at_any_move_leaves_the_previous_store(
        tmp_path, embedder, monkeypatch, k):
    """As for a full save: a write or the fsync of the ``k``-th file fails;
    the files are the rules' and the cases', at generation 2."""
    directory = tmp_path / "kb"
    previous = _populated_snapshot(embedder)
    save_snapshot(previous, directory)
    changed = _grown(copy_snapshot(load_snapshot(directory)), embedder)
    opened = _assert_a_failed_save_leaves_the_previous_store(
        monkeypatch, directory, previous, changed, "write", k)
    assert opened == ["rules.2.jsonl", "cases.2.jsonl", "cases.2.npy",
                      ".meta.json.tmp"][:k]
    _assert_a_failed_save_leaves_the_previous_store(
        monkeypatch, directory, previous, changed, "fsync", k)
    assert _written_by_save(changed, directory) == sorted(_PARTIAL_FILES)
    assert load_snapshot(directory) == changed


@pytest.mark.parametrize("step", ["directory fsync", "commit"])
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_a_save_failing_at_its_commit_leaves_the_previous_store(
        tmp_path, embedder, monkeypatch, partial, step):
    """The directory is fsynced after the last file, and then the replace of
    meta.json commits; a failure at either leaves the previous store."""
    directory = tmp_path / "kb"
    previous = _populated_snapshot(embedder)
    save_snapshot(previous, directory)
    changed = _grown(copy_snapshot(load_snapshot(directory)) if partial
                     else copy.deepcopy(previous), embedder)
    files = len(_PARTIAL_FILES) if partial else _FILES_PER_SAVE
    _assert_a_failed_save_leaves_the_previous_store(
        monkeypatch, directory, previous, changed,
        *(("fsync", files + 1) if step == "directory fsync" else ("replace", 1)))
    _written_by_save(changed, directory)
    assert load_snapshot(directory) == changed


@pytest.mark.parametrize("step, k", [("fsync", len(_PARTIAL_FILES) + 2),
                                     ("unlink", 1)],
                         ids=["directory fsync", "cleanup"])
def test_a_save_failing_after_its_commit_leaves_the_new_store(
        tmp_path, embedder, monkeypatch, step, k):
    """After the commit the directory is fsynced again, and then the files
    meta.json no longer names are removed. A failure there is not the
    save's: the store loads as the new one, and the next save removes what
    is left."""
    directory = tmp_path / "kb"
    save_snapshot(_populated_snapshot(embedder), directory)
    old = _store_files(directory)
    changed = _grown(copy_snapshot(load_snapshot(directory)), embedder)
    calls = _fail_at(monkeypatch, step, k)
    save_snapshot(changed, directory)
    monkeypatch.undo()
    assert len(calls) == k
    assert load_snapshot(directory) == changed
    new = _named(directory)
    assert set(_store_files(directory)) > set(new)
    assert set(_store_files(directory)) <= set(old) | set(new)
    assert _written_by_save(load_snapshot(directory), directory) == ["meta.json"]
    assert load_snapshot(directory) == changed


def test_a_save_does_not_overwrite_a_name_another_save_created(
        tmp_path, embedder, monkeypatch):
    """Two saves into one directory at once can pick the same generation:
    the second to create a name fails rather than overwrite it, and removes
    only the files it wrote."""
    directory = tmp_path / "kb"
    previous = _populated_snapshot(embedder)
    save_snapshot(previous, directory)
    changed = _grown(copy_snapshot(load_snapshot(directory)), embedder)
    listdir = os.listdir

    def listdir_then_another_save(path):
        names = listdir(path)
        (directory / "cases.2.jsonl").write_text("another save's\n")
        return names

    monkeypatch.setattr(kb.os, "listdir", listdir_then_another_save)
    with pytest.raises(IoFailure):
        save_snapshot(changed, directory)
    monkeypatch.undo()
    assert (directory / "cases.2.jsonl").read_text() == "another save's\n"
    assert not (directory / "rules.2.jsonl").exists()
    assert load_snapshot(directory) == previous


def test_a_stale_snapshot_does_not_keep_a_generation_another_save_left(
        tmp_path, embedder, monkeypatch):
    """X and Y load one store. X changes its rules and saves, but its
    cleanup fails, so rules.1.jsonl stays. Y saves unchanged, Z loads,
    changes its rules and saves, and X saves again unchanged. A save keeps
    a kind only while the committed meta.json names the generation it
    recorded, so Y and X write their rules anew, and no generation name is
    written twice: the store loads as X."""
    directory = tmp_path / "kb"
    save_snapshot(_populated_snapshot(embedder), directory)
    x, y = load_snapshot(directory), load_snapshot(directory)
    x.rules[0].status = "RETIRED"
    calls = _fail_at(monkeypatch, "unlink", 1)
    save_snapshot(x, directory)
    monkeypatch.undo()
    assert len(calls) == 1
    assert (directory / "rules.1.jsonl").exists()
    assert load_snapshot(directory) == x
    save_snapshot(y, directory)
    assert load_snapshot(directory) == y
    z = load_snapshot(directory)
    z.rules.pop()
    save_snapshot(z, directory)
    assert load_snapshot(directory) == z
    save_snapshot(x, directory)
    assert load_snapshot(directory) == x


_KILLED_SAVE = """
import os, sys
import sqlgov.knowledge_base as kb
from sqlgov.knowledge_base import load_snapshot, save_snapshot

directory, when = sys.argv[1:]
snapshot = load_snapshot(directory)
snapshot.rules[0].status = "RETIRED"
snapshot.cases.pop()
replace = os.replace

def killed(*args):
    if when == "after the commit":
        replace(*args)
    os._exit(9)

kb.os.replace = killed
save_snapshot(snapshot, directory)
"""


@pytest.mark.parametrize("when", ["at the commit", "after the commit"])
def test_a_killed_save_leaves_the_old_store_or_the_new_one(tmp_path,
                                                           embedder, when):
    """A process killed at the commit leaves files of a generation that no
    meta.json names, and its temp meta.json: they are never read, and the
    next save removes the files and overwrites the temp file, which it then
    replaces meta.json with. One killed just after it leaves the new
    store."""
    directory = tmp_path / "kb"
    previous = _populated_snapshot(embedder)
    save_snapshot(previous, directory)
    (directory / "pending").mkdir()
    others = ["categories.json", ".meta.json.1.tmp", "rules.jsonl.bak"]
    for name in others:
        (directory / name).write_text("[]")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", _KILLED_SAVE, str(directory),
                           when], env=env, capture_output=True, timeout=120)
    assert done.returncode == 9, done.stderr
    loaded = load_snapshot(directory)
    expected = copy.deepcopy(previous)
    if when == "after the commit":
        expected.rules[0].status = "RETIRED"
        expected.cases.pop()
    assert loaded == expected
    killed_tmp = directory / ".meta.json.tmp"
    assert killed_tmp.exists() == (when == "at the commit")
    assert set(_store_files(directory)) > {*_named(directory), *others, "pending"}
    loaded.rules[1].status = "RETIRED"
    assert _written_by_save(loaded, directory) == ["meta.json", "rules.jsonl"]
    assert json.loads((directory / "meta.json").read_text())["generations"] \
        == {"rules": 3, "cases": 2 if when == "after the commit" else 1,
            "strategies": 1}
    assert not killed_tmp.exists()
    assert _store_files(directory) == sorted(
        [*_named(directory), *others, "pending"])
    assert load_snapshot(directory) == loaded


# --- saves that skip what the store already holds -----------------------------

_KIND_FILES = ["rules.jsonl", "cases.jsonl", "cases.npy", "strategies.jsonl",
               "strategies.npy"]
_ALL_FILES = sorted(_KIND_FILES + ["meta.json"])
_STORE_FILE = re.compile(r"(rules|cases|strategies)(\.\d+)?\.(jsonl|npy)|meta\.json")


def _kind_name(name):
    """A store file's name without its generation: ``cases.npy`` for
    ``cases.3.npy``."""
    kind, *_, suffix = name.split(".")
    return f"{kind}.{suffix}"


def _named(directory):
    """``meta.json`` and the names of the files it names."""
    return sorted(["meta.json",
                   *(store_file(directory, name).name for name in _KIND_FILES)])


def _inodes(directory):
    return {p.name: p.stat().st_ino for p in directory.iterdir() if p.is_file()}


def _written_by_save(snapshot, directory):
    """Save ``snapshot`` at ``directory``; the files the save wrote, each
    named without its generation: every kind file whose name is new, and
    ``meta.json``, replaced under a new inode. No other store file is left
    than those the new ``meta.json`` names."""
    before = _inodes(directory) if directory.exists() else {}
    save_snapshot(snapshot, directory)
    after = _inodes(directory)
    assert sorted(name for name in after if _STORE_FILE.fullmatch(name)) \
        == _named(directory)
    return sorted(_kind_name(name) for name in after
                  if before.get(name) != after[name])


def _meta_without_generations(directory):
    meta = json.loads((directory / "meta.json").read_text())
    del meta["generations"]
    return meta


def _assert_as_saved_afresh(snapshot, directory, tmp_path):
    """Each store file at ``directory`` holds the bytes that a save of
    ``snapshot`` into a new directory, which writes every file, writes, and
    ``meta.json`` the same but for the generations."""
    fresh = tmp_path / f"fresh-{len(list(tmp_path.iterdir()))}"
    assert _written_by_save(snapshot, fresh) == _ALL_FILES
    for name in _KIND_FILES:
        assert store_file(directory, name).read_bytes() \
            == store_file(fresh, name).read_bytes(), name
    assert _meta_without_generations(directory) \
        == _meta_without_generations(fresh)


def _learned_batch(snapshot, now):
    """A candidate batch of a new rule and of one that repeats the
    description of the snapshot's first rule, so dedup has a merge to make."""
    records = [ExecutionRecord(sql=f"SELECT a{i} FROM big{i} WHERE x = {i}",
                               status="ERROR", elapsed=2.0, error_log=f"log {i}")
               for i in range(2)]
    rules = [RuleEntry("NEW_RULE", "a newly mined rule", None, REWRITER,
                       CANDIDATE, created_at=now),
             RuleEntry("NEW_COPY", snapshot.rules[0].description,
                       [{"pred": "in_subquery"}], REWRITER, CANDIDATE,
                       created_at=now)]
    return CandidateRuleBatch(rules=rules,
                              source_records=[r.record_id for r in records],
                              generated_at=now, records=records)


def test_a_lifecycle_writes_only_what_changed_and_what_a_fresh_save_writes(
        tmp_path, embedder):
    """learn, verify with dedup, and a dedup that finds nothing, as the
    self-learning loop runs them: each save writes the kinds that changed,
    and leaves the store as a save into a new directory would."""
    store_dir = tmp_path / "kb"
    save_snapshot(_populated_snapshot(embedder), store_dir)
    snapshot = load_snapshot(store_dir)
    batch = _learned_batch(snapshot, now=60.0)

    learned = apply_verification(snapshot, batch, {}, embedder, now=60.0)
    assert _written_by_save(learned, store_dir) == ["meta.json", "rules.jsonl"]
    _assert_as_saved_afresh(learned, store_dir, tmp_path)

    verified = apply_verification(
        load_snapshot(store_dir), batch,
        {"NEW_RULE": "ACCEPT", "NEW_COPY": "ACCEPT"}, embedder, now=120.0)
    verified, merges = dedupe_snapshot(verified, embedder, REWRITER)
    assert merges
    assert _written_by_save(verified, store_dir) == [
        "cases.jsonl", "cases.npy", "meta.json", "rules.jsonl"]
    _assert_as_saved_afresh(verified, store_dir, tmp_path)

    deduped, merges = dedupe_snapshot(load_snapshot(store_dir), embedder,
                                      REWRITER)
    assert merges == []
    assert _written_by_save(deduped, store_dir) == ["meta.json"]
    _assert_as_saved_afresh(deduped, store_dir, tmp_path)
    assert load_snapshot(store_dir) == verified


@pytest.mark.parametrize("change", ["replaced", "removed"])
@pytest.mark.parametrize("name", _KIND_FILES)
def test_a_kind_file_changed_by_another_process_is_written(
        tmp_path, embedder, name, change):
    """``removed``: the file is gone. ``replaced``: another snapshot, with
    the file's kind changed, saves to the same directory between this
    snapshot's load and its save, so the kind's files are of another
    generation. This save writes that kind and no other, since the files
    it named of every other kind are still there, and the directory loads
    as the snapshot that saved last."""
    store_dir = tmp_path / "kb"
    save_snapshot(_populated_snapshot(embedder), store_dir)
    snapshot = load_snapshot(store_dir)
    kind = name.split(".")[0]
    kind_files = sorted([n for n in _KIND_FILES if n.startswith(f"{kind}.")]
                        + ["meta.json"])
    if change == "replaced":
        other = load_snapshot(store_dir)
        getattr(other, kind).pop()
        assert _written_by_save(other, store_dir) == kind_files
    else:
        store_file(store_dir, name).unlink()
    assert _written_by_save(snapshot, store_dir) == kind_files
    _assert_as_saved_afresh(snapshot, store_dir, tmp_path)
    assert load_snapshot(store_dir) == snapshot


def _append_tag(snapshot):
    snapshot.cases[3].tag.append("SAME_TABLE_JOIN")


def _retire(snapshot):
    snapshot.rules[1].status = "RETIRED"


def _set_an_equal_status(snapshot):
    snapshot.rules[1].status = "".join(snapshot.rules[1].status)  # a new str
    assert snapshot.rules[1].status is not VERIFIED


def _rewrite_a_row(snapshot):
    snapshot.strategies[0].embedding[0] += 1.0


@pytest.mark.parametrize("change, deep, written", [
    (_append_tag, False, ["cases.jsonl", "cases.npy"]),
    (_retire, False, ["rules.jsonl"]),
    (_set_an_equal_status, False, ["rules.jsonl"]),
    # a deep copy's rows are new and writable: its embedded kinds are written
    (_rewrite_a_row, True, ["cases.jsonl", "cases.npy", "strategies.jsonl",
                            "strategies.npy"]),
], ids=["tag-appended", "status-set", "status-set-equal", "deepcopy-row-written"])
def test_an_entry_changed_in_place_gets_its_kind_written(
        tmp_path, embedder, change, deep, written):
    store_dir = tmp_path / "kb"
    save_snapshot(_populated_snapshot(embedder), store_dir)
    snapshot = load_snapshot(store_dir)
    if deep:
        snapshot = copy.deepcopy(snapshot)
    change(snapshot)
    assert _written_by_save(snapshot, store_dir) == sorted(written + ["meta.json"])
    _assert_as_saved_afresh(snapshot, store_dir, tmp_path)
    assert load_snapshot(store_dir) == snapshot


def test_a_store_saved_elsewhere_is_written_whole(tmp_path, embedder):
    """Even into a directory of hard links to the very files it read."""
    save_snapshot(_populated_snapshot(embedder), tmp_path / "kb")
    snapshot = load_snapshot(tmp_path / "kb")
    links = tmp_path / "links"
    links.mkdir()
    for name in os.listdir(tmp_path / "kb"):
        os.link(tmp_path / "kb" / name, links / name)
    assert _written_by_save(snapshot, links) == _ALL_FILES
    assert _written_by_save(snapshot, tmp_path / "kb") == _ALL_FILES
    assert _written_by_save(snapshot, tmp_path / "kb") == ["meta.json"]


def test_a_schema1_store_is_written_whole_as_schema_3(tmp_path, embedder,
                                                      write_old_store):
    store_dir = tmp_path / "kb"
    write_old_store(_populated_snapshot(embedder), store_dir)
    snapshot = load_snapshot(store_dir)
    assert _written_by_save(snapshot, store_dir) == _ALL_FILES
    assert json.loads((store_dir / "meta.json").read_text())[
        "schema_version"] == 3
    _assert_as_saved_afresh(snapshot, store_dir, tmp_path)
    assert _written_by_save(load_snapshot(store_dir), store_dir) == ["meta.json"]
