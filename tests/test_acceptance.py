"""Acceptance gate: each test pins one release criterion at a fixed
tolerance and prints a PASS line on success. Criterion 10 records the
evaluations that are out of desk-scale reach and what replaces them.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np
import pytest

from sqlgov.analysis import analyze_tree
from sqlgov.bench import bench
from sqlgov.cli import main
from sqlgov.equivalence import EQUIVALENT, NOT_EQUIVALENT, check_equivalence
from sqlgov.fragmenter import decompose
from sqlgov.knowledge_base import (
    CANDIDATE,
    REWRITER,
    HistoricalCase,
    KnowledgeSnapshot,
    KnowledgeStore,
    RuleEntry,
)
from sqlgov.modifier import (
    IntentCategory,
    ModifierConfig,
    bootstrap_centroids,
    classify_intent,
    default_categories,
    keyword_score,
)
from sqlgov.providers import ScriptedLLM, SimulatedExecutor
from sqlgov.self_learning import (
    DBSCAN_EPS,
    DBSCAN_MIN_PTS,
    cluster_rules,
    count_threshold,
    merge_cluster,
    time_threshold,
)
from sqlgov.sqltext import templatize

PLAYBOOK = str(Path(__file__).parent / "fixtures" / "playbook.jsonl")


def _ok(n: int, text: str) -> None:
    print(f"[ACCEPTANCE {n}] PASS: {text}")


def test_criterion_1_fragment_decomposition_fidelity(nested_query):
    tree = decompose(nested_query)
    assert len(tree.fragments) == 7
    assert max(f.depth for f in tree.fragments) == 4
    by_id = {f.id: f for f in tree.fragments}
    assert by_id[1].parent_id == 2
    assert by_id[2].parent_id == 4
    assert by_id[3].parent_id == 4
    assert by_id[4].parent_id == 7 and by_id[4].clause_site == "WHERE"
    assert by_id[5].clause_site == "SELECT_LIST" and by_id[5].parent_id == 7
    assert by_id[6].clause_site == "SELECT_LIST" and by_id[6].parent_id == 7
    assert by_id[7].kind == "MAIN" and tree.root_id == 7
    _ok(1, "nested exemplar decomposes to 7 fragments, depth 4, reference "
           "numbering")


def test_criterion_2_rule_match_fidelity(nested_query, seeded_store):
    tree = decompose(nested_query)
    facts = analyze_tree(tree)
    matches = {
        f.id: [r.index for r in seeded_store.match_rules(f, REWRITER, tree,
                                                         facts)]
        for f in tree.fragments
    }
    assert matches[4] == ["SAME_TABLE_JOIN"]
    assert matches[7] == ["OUTER_JOIN_NULL_FILTER"]
    assert all(matches[fid] == [] for fid in (1, 2, 3, 5, 6))
    _ok(2, "seed rules hit exactly fragments 4 (SAME_TABLE_JOIN) and 7 "
           "(outer-join null filter)")


def test_criterion_3_threshold_arithmetic():
    assert count_threshold(100) == 25
    assert count_threshold(10) == 7
    day = 86_400.0
    assert time_threshold([10 * day, 10 * day]) == \
        pytest.approx(13 * day, rel=1e-9)
    _ok(3, "count_threshold(100)=25, count_threshold(10)=7, "
           "time_threshold([10d,10d])=13d")


def _planted_rules():
    bases = [
        "duplicate table scan wastes io effort",
        "outer join null filter equals inner join",
        "union arms project star columns needlessly",
    ]
    rules = []
    for g, (base, count) in enumerate(zip(bases, (7, 6, 5))):
        for v in range(count):
            rules.append(RuleEntry(f"g{g}-r{v}", f"{base} variant {v}",
                                   None, REWRITER, CANDIDATE,
                                   created_at=float(len(rules))))
    rules.append(RuleEntry("noise-a", "quantum flux capacitor misaligned",
                           None, REWRITER, CANDIDATE, created_at=90.0))
    rules.append(RuleEntry("noise-b", "zebra crossing painted wrong colour",
                           None, REWRITER, CANDIDATE, created_at=91.0))
    return rules


def _oracle_dbscan(dist, eps, min_pts):
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


def test_criterion_4_dedup_oracle_equivalence(embedder):
    rules = _planted_rules()
    assert len(rules) == 20
    clusters = cluster_rules(rules, embedder)

    embeddings = [embedder.embed(r.description) for r in rules]
    n = len(rules)
    dist = [[1.0 - sum(float(a * b) for a, b in
                       zip(embeddings[i], embeddings[j]))
             for j in range(n)] for i in range(n)]
    labels = _oracle_dbscan(dist, DBSCAN_EPS, DBSCAN_MIN_PTS)
    oracle: dict[int, list[str]] = {}
    oracle_singletons = []
    for rule, label in zip(rules, labels):
        if label == -1:
            oracle_singletons.append([rule.index])
        else:
            oracle.setdefault(label, []).append(rule.index)
    expected = sorted(map(sorted, list(oracle.values()) + oracle_singletons))
    assert sorted(map(sorted, clusters)) == expected
    assert sorted(len(c) for c in clusters) == [1, 1, 5, 6, 7]

    by_index = {r.index: (r, e) for r, e in zip(rules, embeddings)}
    for indices in clusters:
        members = [by_index[i][0] for i in indices]
        vecs = [by_index[i][1] for i in indices]
        medoid = merge_cluster(members, vecs)
        sums = [sum(float(np.linalg.norm(vecs[i] - vecs[j]))
                    for j in range(len(vecs))) for i in range(len(vecs))]
        best = min(range(len(members)),
                   key=lambda i: (sums[i], members[i].created_at,
                                  members[i].index))
        assert medoid.index == members[best].index
    _ok(4, "DBSCAN clustering and medoid merges equal brute-force oracles "
           "on 20 rules in 3 planted groups")


def test_criterion_5_retrieval_oracle_equivalence(embedder):
    rng = random.Random(42)
    words = ["users", "orders", "events", "daily", "count", "join", "sum",
             "filter", "logs", "window", "avg", "items"]
    cases = []
    for i in range(50):
        text = " ".join(rng.choices(words, k=4)) + f" case {i}"
        vec = embedder.embed(text)
        if i % 10 == 0 and cases:  # planted exact ties to exercise the order
            vec = np.asarray(cases[-1].embedding)
        cases.append(HistoricalCase(
            index=f"case-{i:03d}", details=f"c{i}", tag=["SAME_TABLE_JOIN"],
            template=f"T{i}", embedding=tuple(float(x) for x in vec)))
    store = KnowledgeStore(
        KnowledgeSnapshot(
            rules=[RuleEntry("SAME_TABLE_JOIN", "d", None, REWRITER,
                             "VERIFIED")],
            cases=cases),
        embedder)
    query = "SELECT users FROM events WHERE daily = 5"
    got = [(c.index, s) for c, s in store.retrieve_cases(query, k=5)]

    qv = [float(x) for x in embedder.embed(templatize(query))]
    scored = []
    for case in cases:
        dot = sum(a * b for a, b in zip(qv, case.embedding))
        na = math.sqrt(sum(a * a for a in qv))
        nb = math.sqrt(sum(b * b for b in case.embedding))
        scored.append((case.index, dot / (na * nb)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    assert [i for i, _ in got] == [i for i, _ in scored[:5]]
    _ok(5, "top-5 retrieval over 50 cases equals the full-scan cosine "
           "oracle including tie-break order")


def test_criterion_6_intent_classification(embedder):
    # keyword-score fixture: weights (1.0, 0.5, 0.25, 0.25), two matched
    category = IntentCategory("A", [("add filter", 1.0), ("change", 0.5),
                                    ("zzz", 0.25), ("qqq", 0.25)])
    score = keyword_score("please add filter then change it", category)
    assert score == pytest.approx((1.0 + 0.5) / 4.0, abs=1e-9)

    # combined-score fixture with a known cosine: e_Q=(1,0), centroid=(0.6,0.8)
    class Stub:
        def embed(self, text):
            return np.array([1.0, 0.0])

    cats = [IntentCategory("A", [("add filter", 1.0), ("change", 0.5),
                                 ("zzz", 0.25), ("qqq", 0.25)],
                           centroid=(0.6, 0.8)),
            IntentCategory("B", [("nope", 1.0)], centroid=(0.0, 1.0))]
    cfg = ModifierConfig(alpha=0.4, beta_sim=0.6, theta=0.1)
    winner, f_score = classify_intent("please add filter then change it",
                                      cats, Stub(), cfg)
    assert winner == "A"
    assert f_score == pytest.approx(0.4 * 0.375 + 0.6 * 0.6, abs=1e-9)

    # engineered below-theta request is rejected
    high_theta = ModifierConfig(alpha=0.4, beta_sim=0.6, theta=0.99)
    assert classify_intent("totally unrelated words", cats, Stub(),
                           high_theta) is None

    # argmax invariance under positive scaling over a 100-request fuzz corpus
    rng = random.Random(7)
    pool = ["filter", "change", "explain", "comment", "style", "syntax",
            "polish", "tidy", "rows", "join", "totals", "convert to"]
    categories = bootstrap_centroids(default_categories(), embedder,
                                     ModifierConfig())
    base = ModifierConfig(alpha=0.4, beta_sim=0.6, theta=0.35)
    for _ in range(100):
        request = " ".join(rng.choices(pool, k=rng.randint(1, 6)))
        c = rng.uniform(0.05, 20.0)
        scaled = ModifierConfig(alpha=base.alpha * c,
                                beta_sim=base.beta_sim * c,
                                theta=base.theta * c)
        got_base = classify_intent(request, categories, embedder, base)
        got_scaled = classify_intent(request, categories, embedder, scaled)
        if got_base is None:
            assert got_scaled is None
        else:
            assert got_scaled is not None and got_base[0] == got_scaled[0]
    _ok(6, "hand-computed classification fixtures reproduce the combined "
           "score to 1e-9; below-theta requests rejected; argmax "
           "scale-invariant over 100 fuzz requests")


def test_criterion_7_equivalence_prefilter(nested_query):
    strict = ScriptedLLM([], strict=True)
    verdict = check_equivalence("SELECT a FROM t", "SELECT a, b FROM t",
                                strict)
    assert verdict.verdict == NOT_EQUIVALENT
    assert strict.call_count == 0

    verdict = check_equivalence("SELECT a FROM t1 WHERE x = 1",
                                "SELECT a FROM t2 WHERE x = 1", strict)
    assert verdict.verdict == NOT_EQUIVALENT
    assert strict.call_count == 0

    verdict = check_equivalence(nested_query, nested_query, strict)
    assert verdict.verdict == EQUIVALENT and verdict.confidence == 1.0
    assert strict.call_count == 0
    _ok(7, "mismatched pairs rejected with zero provider calls; identical "
           "queries short-circuit to EQUIVALENT")


def test_criterion_8_end_to_end_golden_pipeline(capsys, fixtures_dir):
    golden = (fixtures_dir / "nested_rewrite_golden.sql").read_bytes()
    code = main(["rewrite", str(fixtures_dir / "nested_query.sql"),
                 "--playbook", PLAYBOOK])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == golden  # byte-identical to the golden file

    code = main(["verify",
                 "--left", str(fixtures_dir / "nested_query.sql"),
                 "--right", str(fixtures_dir / "nested_rewrite_golden.sql"),
                 "--playbook", PLAYBOOK])
    out = capsys.readouterr().out
    assert code == 0
    assert "EQUIVALENT" in out
    _ok(8, "sqlgov rewrite reproduces the golden rewrite byte-for-byte and "
           "sqlgov verify returns EQUIVALENT")


def test_criterion_9_benchmark_algebra():
    q_pre = "SELECT a FROM warehouse_facts WHERE ds = '1'"
    q_post = "SELECT a FROM warehouse_facts_opt WHERE ds = '1' AND part = 2"
    executor = SimulatedExecutor({
        templatize(q_pre): {"status": "OK", "elapsed": 100.0},
        templatize(q_post): {"status": "OK", "elapsed": 60.0},
    })
    report = bench([(q_pre, q_post)], executor, trials=3)
    result = report.results[0]
    assert result.ets == pytest.approx(40.0, rel=1e-9)
    assert result.etog == pytest.approx(40.0, rel=1e-9)

    rng = random.Random(5)
    for i in range(25):
        pre = rng.uniform(0.01, 500.0)
        post = rng.uniform(0.01, 500.0)
        qp = f"SELECT x{i} FROM pre WHERE k > {i} GROUP BY x{i}"
        qr = f"SELECT x{i} FROM post WHERE k > {i} ORDER BY x{i}"
        ex = SimulatedExecutor({
            templatize(qp): {"status": "OK", "elapsed": pre},
            templatize(qr): {"status": "OK", "elapsed": post},
        })
        r = bench([(qp, qr)], ex, trials=1).results[0]
        assert r.ets == pytest.approx(r.et_pre - r.et_post, rel=1e-9)
        assert r.etog == pytest.approx(r.ets / r.et_pre * 100.0, rel=1e-9)
    _ok(9, "ETS/ETOG satisfy both identities to 1e-9; 100s/60s fixture "
           "reports 40s and 40%")


def test_criterion_10_out_of_scope_reproductions_declared():
    """Desk-scale substitute for hosted-scale evaluations.

    Text-to-SQL accuracy gains, issue-resolution success rates, production
    rewriting-time statistics, and learning-curve studies all need hosted
    LLMs, multi-GB databases, or a production warehouse. They are replaced
    here by criteria 1-9 plus the per-module invariant suites (splice
    locality, comment-only modification preservation, snapshot round-trip,
    provider determinism).
    """
    _ok(10, "hosted-scale evaluations declared out of scope; replaced by "
            "criteria 1-9 and the module invariant suites")
