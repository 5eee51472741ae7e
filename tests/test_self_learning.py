from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqlgov.errors import NoHistoryError, RejectedResponseError, UnknownRuleError
from sqlgov.knowledge_base import (
    CANDIDATE,
    RETIRED,
    REWRITER,
    VERIFIED,
    KnowledgeSnapshot,
    KnowledgeStore,
    RuleEntry,
    check_integrity,
    load_snapshot,
    save_snapshot,
)
from sqlgov.providers import ScriptedLLM
from sqlgov.prompts import rule_generation_prompt
from sqlgov.seeds import seed_snapshot
from sqlgov.self_learning import (
    DBSCAN_EPS,
    DBSCAN_MIN_PTS,
    SLOW_MIN_BATCH,
    SLOW_PERCENTILE,
    CandidateRuleBatch,
    ExecutionRecord,
    apply_verification,
    cluster_rules,
    count_threshold,
    dedupe_snapshot,
    filter_records,
    generate_rules,
    merge_cluster,
    should_trigger_verification,
    time_threshold,
)

DAY = 86_400.0


# --- thresholds (count and time triggers) -------------------------------------

def test_count_threshold_at_100():
    assert count_threshold(100) == 25


def test_count_threshold_at_10():
    assert count_threshold(10) == 7


def test_count_threshold_at_zero():
    assert count_threshold(0) == 0


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000))
def test_count_threshold_monotone(n, m):
    lo, hi = sorted((n, m))
    assert count_threshold(lo) <= count_threshold(hi)


def test_time_threshold_two_equal_intervals():
    assert time_threshold([10 * DAY, 10 * DAY]) == \
        pytest.approx(13 * DAY, rel=1e-9)


def test_time_threshold_single_interval():
    assert time_threshold([7 * DAY]) == pytest.approx(9.1 * DAY, rel=1e-9)


def test_time_threshold_no_history():
    with pytest.raises(NoHistoryError):
        time_threshold([])


def test_trigger_on_count_strict_inequality():
    assert should_trigger_verification(26, 0.0, 100, []) is True
    assert should_trigger_verification(25, 0.0, 100, []) is False


def test_trigger_on_time():
    times = [0.0, 10 * DAY, 20 * DAY]
    assert should_trigger_verification(0, 14 * DAY, 0, times) is True
    assert should_trigger_verification(0, 13 * DAY, 0, times) is False


def test_trigger_without_history_uses_count_only():
    assert should_trigger_verification(0, 999 * DAY, 0, []) is False
    assert should_trigger_verification(1, 0.0, 0, []) is True


# --- record filtering -----------------------------------------------------------

def _record(sql, status="OK", elapsed=1.0, log=None):
    return ExecutionRecord(sql=sql, status=status, elapsed=elapsed,
                           error_log=log)


def test_all_ok_fast_records_filtered_out():
    records = [_record(f"SELECT {i} FROM t", elapsed=1.0) for i in range(5)]
    assert filter_records(records) == []


def test_duplicate_templates_deduplicated():
    records = [
        _record("SELECT a FROM t WHERE x = 1", "ERROR", log="boom"),
        _record("SELECT b FROM u WHERE y = 2", "ERROR", log="boom"),
    ]
    # same masked template -> one survivor (first wins)
    survivors = filter_records(records)
    assert survivors == [records[0]]


def _oracle_filter(records):
    from sqlgov.sqltext import templatize
    threshold = None
    if len(records) >= SLOW_MIN_BATCH:
        values = sorted(r.elapsed for r in records)
        pos = (len(values) - 1) * SLOW_PERCENTILE / 100.0
        lo, hi = math.floor(pos), math.ceil(pos)
        threshold = values[lo] + (values[hi] - values[lo]) * (pos - lo)
    kept, seen = [], set()
    for r in records:
        if not (r.status in ("ERROR", "SLOW")
                or (threshold is not None and r.elapsed > threshold)):
            continue
        t = templatize(r.sql)
        if t in seen:
            continue
        seen.add(t)
        kept.append(r)
    return kept


def test_filter_matches_oracle_on_mixed_batch():
    records = []
    for i in range(20):
        status = "ERROR" if i % 7 == 0 else ("SLOW" if i % 5 == 0 else "OK")
        records.append(ExecutionRecord(
            sql=f"SELECT c{i} FROM t{i} WHERE k{i} > {i}",
            status=status, elapsed=float(i * 3 % 17),
            error_log="log" if status == "ERROR" else None))
    assert filter_records(records) == _oracle_filter(records)


def test_small_batch_keeps_errors_only():
    records = [
        _record("SELECT a FROM t1", "OK", elapsed=500.0),
        _record("SELECT b FROM t2", "ERROR", elapsed=1.0, log="x"),
    ]
    assert filter_records(records) == [records[1]]


# --- rule generation -------------------------------------------------------------

def _error_records():
    return [_record("SELECT a FROM t JOIN u", "ERROR",
                    log="SqlValidatorException: join requires a condition")]


def test_generate_rules_scripted(embedder):
    records = _error_records()
    env = rule_generation_prompt(records)
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": '{"SAME_TABLE_JOIN": "merge the scans"}'}])
    batch = generate_rules(records, llm, REWRITER, now=5.0)
    assert len(batch.rules) == 1
    rule = batch.rules[0]
    assert rule.index == "SAME_TABLE_JOIN"
    assert rule.status == CANDIDATE
    assert rule.tool == REWRITER
    assert batch.source_records == [records[0].record_id]


def test_generate_rules_rejects_after_one_retry():
    records = _error_records()

    class Garbage:
        def __init__(self):
            self.count = 0

        def complete(self, env):
            self.count += 1
            return "not json at all"

    provider = Garbage()
    with pytest.raises(RejectedResponseError):
        generate_rules(records, provider, REWRITER, now=0.0)
    assert provider.count == 2


def test_rule_generation_prompt_has_five_sections_in_order():
    rendered = rule_generation_prompt(_error_records()).render()
    headers = ["Task Description:", "Instruction:", "Demonstration:",
               "Question:", "Execution Outputs:"]
    positions = [rendered.index(h) for h in headers]
    assert positions == sorted(positions)


# --- clustering and medoid merge ----------------------------------------------

def _oracle_dbscan(dist, eps, min_pts):
    """Independent DFS-based DBSCAN over the same distance matrix."""
    n = len(dist)
    neighbors = [[j for j in range(n) if dist[i][j] <= eps] for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    labels = [None] * n
    cluster = 0
    for i in range(n):
        if labels[i] is not None or not core[i]:
            continue
        labels[i] = cluster
        stack = [i]
        while stack:
            p = stack.pop()
            for q in neighbors[p]:
                if labels[q] is None:
                    labels[q] = cluster
                    if core[q]:
                        stack.append(q)
        cluster += 1
    return [-1 if lab is None else lab for lab in labels]


def _planted_rules():
    groups = {
        "dup-scan": "duplicate table scan wastes io effort",
        "null-join": "outer join null filter equals inner join",
        "union-star": "union arms project star columns needlessly",
    }
    rules = []
    i = 0
    for (label, base), count in zip(groups.items(), (7, 6, 5)):
        for v in range(count):
            rules.append(RuleEntry(
                index=f"{label}-{v}",
                description=f"{base} variant {v}",
                matcher=None, tool=REWRITER, status=CANDIDATE,
                created_at=float(i)))
            i += 1
    rules.append(RuleEntry("odd-one", "quantum flux capacitor misaligned",
                           None, REWRITER, CANDIDATE, created_at=100.0))
    rules.append(RuleEntry("odd-two", "zebra crossing painted wrong colour",
                           None, REWRITER, CANDIDATE, created_at=101.0))
    return rules


def test_cluster_rules_matches_oracle(embedder):
    rules = _planted_rules()
    assert len(rules) == 20
    clusters = cluster_rules(rules, embedder)
    embeddings = [embedder.embed(r.description) for r in rules]
    n = len(rules)
    dist = [[1.0 - float(np.dot(embeddings[i], embeddings[j]))
             for j in range(n)] for i in range(n)]
    labels = _oracle_dbscan(dist, DBSCAN_EPS, DBSCAN_MIN_PTS)
    expected = {}
    singletons = []
    for rule, label in zip(rules, labels):
        if label == -1:
            singletons.append(frozenset([rule.index]))
        else:
            expected.setdefault(label, set()).add(rule.index)
    oracle_clusters = [frozenset(v) for v in expected.values()] + singletons
    assert sorted(map(sorted, clusters)) == \
        sorted(map(sorted, (sorted(c) for c in oracle_clusters)))
    # the three planted groups really did come back as three clusters
    assert sorted(len(c) for c in clusters) == [1, 1, 5, 6, 7]


def test_single_rule_is_singleton(embedder):
    rule = RuleEntry("solo", "only one rule", None, REWRITER, CANDIDATE)
    assert cluster_rules([rule], embedder) == [["solo"]]


def test_identical_descriptions_cluster_together(embedder):
    rules = [RuleEntry(f"r{i}", "same words here", None, REWRITER, CANDIDATE)
             for i in range(2)]
    assert cluster_rules(rules, embedder) == [["r0", "r1"]]


def test_merge_cluster_medoid_matches_exhaustive_argmin():
    members = [RuleEntry(f"r{i}", f"d{i}", None, REWRITER, CANDIDATE,
                         created_at=float(i)) for i in range(5)]
    embeddings = [np.array([x, 0.0]) for x in (0.0, 1.0, 2.0, 3.0, 10.0)]
    got = merge_cluster(members, embeddings)
    sums = [sum(float(np.linalg.norm(embeddings[i] - embeddings[j]))
                for j in range(5)) for i in range(5)]
    best = min(range(5), key=lambda i: (sums[i], members[i].created_at))
    assert got.index == members[best].index == "r2"


def test_merge_cluster_singleton_is_itself():
    member = RuleEntry("solo", "d", None, REWRITER, CANDIDATE)
    assert merge_cluster([member], [np.array([1.0, 0.0])]) is member


def test_merge_cluster_tie_breaks_to_older():
    members = [
        RuleEntry("young", "d", None, REWRITER, CANDIDATE, created_at=10.0),
        RuleEntry("old", "d", None, REWRITER, CANDIDATE, created_at=1.0),
    ]
    embeddings = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert merge_cluster(members, embeddings).index == "old"


def test_dedupe_retires_duplicates_and_retags_cases(embedder, counting_embedder):
    snapshot = seed_snapshot(embedder)
    snapshot.rules.append(RuleEntry(
        index="SAME_TABLE_JOIN_COPY",
        description=snapshot.rules[0].description,  # identical text
        matcher=None, tool=REWRITER, status=VERIFIED, created_at=999.0))
    snapshot.cases[1].tag.append("SAME_TABLE_JOIN_COPY")
    deduped, merges = dedupe_snapshot(snapshot, counting_embedder, REWRITER)
    active = [r for r in snapshot.rules
              if r.tool == REWRITER and r.status != RETIRED]
    assert counting_embedder.calls == len(active)  # one embedding per rule
    assert merges == [{"survivor": "SAME_TABLE_JOIN",
                       "absorbed": ["SAME_TABLE_JOIN_COPY"]}]
    retired = [r for r in deduped.rules if r.index == "SAME_TABLE_JOIN_COPY"]
    assert retired[0].status == RETIRED
    assert "SAME_TABLE_JOIN_COPY" not in deduped.cases[1].tag
    assert "SAME_TABLE_JOIN" in deduped.cases[1].tag
    assert check_integrity(deduped) == []


def test_dedupe_is_idempotent_on_clean_store(embedder):
    snapshot = seed_snapshot(embedder)
    once, merges1 = dedupe_snapshot(snapshot, embedder, REWRITER)
    assert merges1 == []
    twice, merges2 = dedupe_snapshot(once, embedder, REWRITER)
    assert merges2 == []
    assert once == twice


# --- expert verification ---------------------------------------------------------

def _candidate_batch(now=50.0):
    records = [
        _record("SELECT a FROM big1 WHERE x = 1", "ERROR", 2.0, "log a"),
        _record("SELECT b, c FROM big2 WHERE y = 2 AND z = 3", "ERROR", 3.0,
                "log b"),
    ]
    rules = [RuleEntry("NEW_RULE", "a newly mined rule", None, REWRITER,
                       CANDIDATE, created_at=now)]
    return CandidateRuleBatch(rules=rules,
                              source_records=[r.record_id for r in records],
                              generated_at=now, records=records)


def test_accept_adds_rule_and_cases(embedder):
    snapshot = seed_snapshot(embedder)
    n0, c0 = snapshot.n_current(REWRITER), len(snapshot.cases)
    batch = _candidate_batch()
    updated = apply_verification(snapshot, batch, {"NEW_RULE": "ACCEPT"},
                                 embedder, now=60.0)
    assert updated.n_current(REWRITER) == n0 + 1
    assert len(updated.cases) == c0 + 2
    new_cases = updated.cases[c0:]
    assert all(case.tag == ["NEW_RULE"] for case in new_cases)
    assert updated.stats[REWRITER].update_times[-1] == 60.0
    assert check_integrity(updated) == []
    # the input snapshot is untouched (copy-on-write)
    assert snapshot.n_current(REWRITER) == n0


def test_reject_retires_without_touching_cases(embedder):
    snapshot = seed_snapshot(embedder)
    c0 = len(snapshot.cases)
    updated = apply_verification(snapshot, _candidate_batch(),
                                 {"NEW_RULE": "REJECT"}, embedder, now=60.0)
    assert len(updated.cases) == c0
    statuses = [r.status for r in updated.rules if r.index == "NEW_RULE"]
    assert statuses == [RETIRED]


def test_undecided_rules_stay_candidate(embedder):
    snapshot = seed_snapshot(embedder)
    updated = apply_verification(snapshot, _candidate_batch(), {}, embedder,
                                 now=60.0)
    statuses = [r.status for r in updated.rules if r.index == "NEW_RULE"]
    assert statuses == [CANDIDATE]
    assert len(updated.rules_for(REWRITER, CANDIDATE)) == 1


def test_unknown_decision_key_raises(embedder):
    snapshot = seed_snapshot(embedder)
    with pytest.raises(UnknownRuleError):
        apply_verification(snapshot, _candidate_batch(),
                           {"NOPE": "ACCEPT"}, embedder, now=0.0)


def test_batch_rejects_non_candidate_rules():
    with pytest.raises(ValueError):
        CandidateRuleBatch(
            rules=[RuleEntry("x", "d", None, REWRITER, VERIFIED)],
            source_records=[], generated_at=0.0)


def _batch_with_a_duplicate(snapshot, now=50.0):
    """The candidate batch plus a rule, with a matcher, that repeats a seed
    rule's description, so dedup has a merge to make."""
    batch = _candidate_batch(now)
    batch.rules.append(RuleEntry("NEW_COPY", snapshot.rules[0].description,
                                 [{"pred": "in_subquery"}], REWRITER, CANDIDATE,
                                 created_at=now))
    return batch


def test_verification_leaves_the_batch_rules_alone(embedder):
    snapshot = seed_snapshot(embedder)
    batch = _batch_with_a_duplicate(snapshot)
    updated = apply_verification(snapshot, batch, {"NEW_COPY": "ACCEPT"},
                                 embedder, now=60.0)
    [added] = [r for r in updated.rules if r.index == "NEW_COPY"]
    added.matcher[0]["pred"] = "contains_operator"
    added.matcher.append({"pred": "in_subquery"})
    assert added.status == VERIFIED
    assert batch.rules[1] == RuleEntry("NEW_COPY", snapshot.rules[0].description,
                                       [{"pred": "in_subquery"}], REWRITER,
                                       CANDIDATE, created_at=50.0)


def _reads(snapshot, embedder):
    """Three reads, each through a new view: cases unfiltered and by tag, and
    a strategy lookup, as (index, score bits)."""
    results = []
    for i, sql in enumerate(["SELECT a FROM big1 WHERE x = 9",
                             "SELECT o.id FROM orders o JOIN orders p ON o.id = p.id",
                             "SELECT b FROM big2 WHERE y IN (SELECT y FROM t)"]):
        store = KnowledgeStore(snapshot, embedder)
        for tags in (None, ["NEW_RULE"], ["SAME_TABLE_JOIN"]):
            results.append([(c.index, score.hex()) for c, score in
                            store.retrieve_cases(sql, tags, k=len(snapshot.cases))])
        strategy, score = store.retrieve_strategy(f"column {i} not found") \
            or (None, 0.0)
        results.append((strategy and strategy.index, score.hex()))
    return results


def test_a_lifecycle_builds_one_case_index_per_case_list(embedder, tmp_path,
                                                        index_builds):
    store_dir = tmp_path / "kb"
    save_snapshot(seed_snapshot(embedder), store_dir)
    snapshot = load_snapshot(store_dir)
    batch = _batch_with_a_duplicate(snapshot)

    learned = apply_verification(snapshot, batch, {}, embedder, now=60.0)
    save_snapshot(learned, store_dir)
    after_learn = _reads(learned, embedder)

    verified = apply_verification(load_snapshot(store_dir), batch,
                                  {"NEW_RULE": "ACCEPT", "NEW_COPY": "ACCEPT"},
                                  embedder, now=120.0)
    verified, merges = dedupe_snapshot(verified, embedder, REWRITER)
    save_snapshot(verified, store_dir)
    after_verify = _reads(verified, embedder)

    assert merges == [{"survivor": "SAME_TABLE_JOIN", "absorbed": ["NEW_COPY"]}]
    case_lists = [[c.index for c in s.cases] for s in (learned, verified)]
    assert case_lists[0] != case_lists[1]
    strategies = [s.index for s in learned.strategies]  # loaded anew to verify
    assert index_builds == [case_lists[0], strategies, case_lists[1], strategies]
    fresh = [KnowledgeSnapshot(cases=list(s.cases), strategies=list(s.strategies))
             for s in (learned, verified)]
    assert [_reads(s, embedder) for s in fresh] == [after_learn, after_verify]
