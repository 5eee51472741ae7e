from __future__ import annotations

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlgov.knowledge_base as kb
from sqlgov.analysis import analyze_tree
from sqlgov.errors import (
    DimensionMismatchError,
    IoFailure,
    SchemaVersionMismatchError,
    ZeroVectorError,
)
from sqlgov.fragmenter import decompose
from sqlgov.knowledge_base import (
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
from sqlgov.sqltext import templatize


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
    facts = analyze_tree(tree)
    hits = {
        f.id: [r.index for r in seeded_store.match_rules(f, REWRITER, tree, facts)]
        for f in tree.fragments
    }
    assert hits[4] == ["SAME_TABLE_JOIN"]
    assert hits[7] == ["OUTER_JOIN_NULL_FILTER"]
    for fid in (1, 2, 3, 5, 6):
        assert hits[fid] == []


def test_match_rules_is_pure(nested_query, seeded_store):
    tree = decompose(nested_query)
    facts = analyze_tree(tree)
    frag = tree.by_id(4)
    first = seeded_store.match_rules(frag, REWRITER, tree, facts)
    second = seeded_store.match_rules(frag, REWRITER, tree, facts)
    assert [r.index for r in first] == [r.index for r in second]


def test_matcherless_rules_never_match(embedder, nested_query):
    snapshot = seed_snapshot(embedder)
    snapshot.rules.append(RuleEntry(
        index="PROMPT_ONLY", description="retrieval-only guidance",
        matcher=None, tool=REWRITER, status=VERIFIED))
    store = KnowledgeStore(snapshot, embedder)
    tree = decompose(nested_query)
    facts = analyze_tree(tree)
    for frag in tree.fragments:
        assert all(r.index != "PROMPT_ONLY"
                   for r in store.match_rules(frag, REWRITER, tree, facts))


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


@settings(max_examples=200, deadline=None)
@given(planted_stores(), st.sampled_from([None, [], ["A"], ["UNKNOWN"]]),
       st.data())
def test_retrieval_equals_reference_loop(store_and_query, tag_filter, data):
    cases, query_vec = store_and_query
    k = data.draw(st.integers(1, len(cases) + 2))
    store = KnowledgeStore(KnowledgeSnapshot(cases=cases),
                           _FixedEmbedder(query_vec))
    got = store.retrieve_cases("SELECT 1", tag_filter, k)
    reference = sorted(
        ((c, cosine_similarity(query_vec, c.embedding)) for c in cases
         if tag_filter is None or set(c.tag) & set(tag_filter)),
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
        assert [index for index, _ in hits] == sorted(index for index, _ in hits)


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


@pytest.mark.parametrize("change", [_append, _pop, _swap, _rename_twin,
                                    _equal_new_row, _different_row])
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


_MOVES_PER_SAVE = 6  # three JSONL files, two matrices and meta.json


@pytest.mark.parametrize("previous_store", [True, False])
@pytest.mark.parametrize("k", range(1, _MOVES_PER_SAVE + 1))
def test_a_save_failing_at_any_move_leaves_the_previous_store(
        tmp_path, embedder, monkeypatch, k, previous_store):
    directory = tmp_path / "kb"
    directory.mkdir()
    previous = KnowledgeSnapshot()
    if previous_store:
        previous = _populated_snapshot(embedder)
        save_snapshot(previous, directory)
    files = _store_files(directory)
    changed = copy.deepcopy(previous)
    changed.cases.append(_random_cases(embedder, n=1)[0])
    changed.rules.append(RuleEntry("R-new", "new rule", None, REWRITER))

    calls = []
    replace = kb.os.replace

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == k:
            raise OSError("device busy")
        replace(src, dst)

    monkeypatch.setattr(kb.os, "replace", failing_replace)
    with pytest.raises(IoFailure):
        save_snapshot(changed, directory)
    monkeypatch.undo()
    assert len(calls) >= k
    assert _store_files(directory) == files
    assert load_snapshot(directory) == previous
    save_snapshot(changed, directory)
    assert load_snapshot(directory) == changed
