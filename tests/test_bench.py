from __future__ import annotations

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlgov.bench import bench, route
from sqlgov.knowledge_base import CORRECTOR, MODIFIER, REWRITER
from sqlgov.providers import SimulatedExecutor
from sqlgov.sqltext import templatize

Q_PRE = "SELECT a FROM slow_table WHERE x = 1"
Q_POST = "SELECT a FROM slow_table_opt WHERE x = 1 AND y = 2"


def _executor(pre=100.0, post=60.0, jitter=0.0, seed=0):
    return SimulatedExecutor({
        templatize(Q_PRE): {"status": "OK", "elapsed": pre, "jitter": jitter},
        templatize(Q_POST): {"status": "OK", "elapsed": post, "jitter": jitter},
    }, seed=seed)


# --- time-saved metrics ------------------------------------------------------

def test_ets_and_etog_basic():
    report = bench([(Q_PRE, Q_POST)], _executor(), trials=3)
    result = report.results[0]
    assert result.ets == pytest.approx(40.0, rel=1e-9)
    assert result.etog == pytest.approx(40.0, rel=1e-9)


def test_zero_gain():
    report = bench([(Q_PRE, Q_POST)], _executor(pre=50.0, post=50.0), trials=1)
    result = report.results[0]
    assert result.ets == 0.0
    assert result.etog == 0.0


@given(st.floats(0.001, 1e4), st.floats(0.001, 1e4))
@settings(max_examples=100, deadline=None)
def test_etog_algebra_identities(pre, post):
    report = bench([(Q_PRE, Q_POST)], _executor(pre=pre, post=post), trials=1)
    result = report.results[0]
    assert result.ets == pytest.approx(result.et_pre - result.et_post,
                                       rel=1e-9)
    assert result.etog == pytest.approx(result.ets / result.et_pre * 100.0,
                                        rel=1e-9)


def test_aggregate_matches_hand_computation():
    pairs = []
    fixtures = {}
    expected_etogs = []
    specs = [(100.0, 60.0), (80.0, 20.0), (10.0, 9.0)]
    for i, (pre, post) in enumerate(specs):
        # structurally distinct per pair so masked templates stay distinct
        cols = ", ".join(f"c{j}" for j in range(i + 1))
        qp = f"SELECT {cols} FROM pre_{i} GROUP BY {cols}"
        qr = f"SELECT {cols} FROM post_{i} ORDER BY {cols} DESC"
        fixtures[templatize(qp)] = {"status": "OK", "elapsed": pre}
        fixtures[templatize(qr)] = {"status": "OK", "elapsed": post}
        pairs.append({"id": f"q{i}", "original": qp, "rewritten": qr})
        expected_etogs.append((pre - post) / pre * 100.0)
    assert len(fixtures) == 6  # no template collisions across pairs
    report = bench(pairs, SimulatedExecutor(fixtures), trials=3)
    assert report.mean_etog == pytest.approx(
        sum(expected_etogs) / len(expected_etogs), rel=1e-9)
    assert report.total_ets == pytest.approx(
        sum(pre - post for pre, post in specs), rel=1e-9)


def test_first_trial_discarded_median_of_rest():
    executor = _executor(pre=100.0, post=60.0, jitter=0.2, seed=9)
    report = bench([(Q_PRE, Q_POST)], executor, trials=5)
    result = report.results[0]
    assert len(result.trials["original"]) == 5
    assert result.et_pre == pytest.approx(
        statistics.median(result.trials["original"][1:]))
    assert result.et_post == pytest.approx(
        statistics.median(result.trials["rewritten"][1:]))


def test_single_trial_uses_that_run():
    report = bench([(Q_PRE, Q_POST)], _executor(), trials=1)
    result = report.results[0]
    assert result.trials["original"] == [100.0]
    assert result.et_pre == 100.0


def test_exec_error_pair_excluded_and_reported():
    executor = SimulatedExecutor({
        templatize(Q_PRE): {"status": "OK", "elapsed": 10.0},
    })
    report = bench([(Q_PRE, Q_POST), (Q_PRE, Q_PRE)], executor, trials=1)
    assert len(report.results) == 1
    assert len(report.errors) == 1
    assert report.errors[0]["side"] == "rewritten"


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        bench([(Q_PRE, Q_POST)], _executor(), trials=0)


# --- routing ---------------------------------------------------------------------

def test_route_error_log_to_corrector():
    assert route({"sql": "SELECT 1", "error_log": "boom"}) == CORRECTOR


def test_route_efficiency_to_rewriter():
    assert route({"sql": "SELECT 1", "intent_hint": "efficiency"}) == REWRITER
    assert route({"sql": "SELECT 1",
                  "request": "this query is too slow"}) == REWRITER


def test_route_default_to_modifier():
    assert route({"sql": "SELECT 1", "request": "add a comment"}) == MODIFIER
    assert route({"sql": "SELECT 1"}) == MODIFIER


def test_route_error_log_wins_over_hints():
    issue = {"sql": "SELECT 1", "error_log": "x",
             "intent_hint": "efficiency"}
    assert route(issue) == CORRECTOR


def test_route_requires_sql():
    with pytest.raises(ValueError):
        route({"request": "no sql here"})


@given(st.fixed_dictionaries({
    "sql": st.just("SELECT 1"),
    "request": st.one_of(st.none(), st.text(max_size=40)),
    "error_log": st.one_of(st.none(), st.text(max_size=20)),
    "intent_hint": st.one_of(st.none(), st.sampled_from(
        ["efficiency", "semantics", "style", "performance", ""])),
}))
@settings(max_examples=100, deadline=None)
def test_route_total_and_deterministic(issue):
    first = route(issue)
    assert first in (CORRECTOR, REWRITER, MODIFIER)
    assert route(issue) == first
