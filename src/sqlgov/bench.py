"""Rewriting benchmark (execution-time saved / optimization gain) and issue
routing.

Both sides of a pair run on the same executor; the first run of each side is
discarded as cache warm-up and the median of the remaining runs is the
measurement, so scripted timing spreads do not leak into the metrics.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field

from .knowledge_base import CORRECTOR, MODIFIER, REWRITER
from .shapes import check, naming

_EFFICIENCY_MARKERS = (
    "efficien", "performance", "slow", "optimiz", "optimis", "speed",
    "faster", "too long", "latency", "runtime", "run time",
)


@dataclass(frozen=True)
class BenchResult:
    query_id: str
    et_pre: float
    et_post: float
    ets: float
    etog: float
    trials: dict[str, list[float]]


@dataclass
class BenchReport:
    results: list[BenchResult] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    @property
    def total_ets(self) -> float:
        return sum(r.ets for r in self.results)

    @property
    def mean_etog(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.etog for r in self.results) / len(self.results)


@dataclass
class ToolReport:
    tool: str
    input_digest: str
    output: dict
    rules_used: list[str] = field(default_factory=list)
    cases_used: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


def input_digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _measure(executor, sql: str, trials: int) -> tuple[float | None, list[float], str | None]:
    """(measurement, raw timings, error log). First run discarded when
    trials > 1; median of the rest."""
    timings: list[float] = []
    for _ in range(trials):
        outcome = executor.execute(sql)
        if outcome.status == "ERROR":
            return None, timings, outcome.error_log or "execution error"
        timings.append(outcome.elapsed)
    if trials == 1:
        return timings[0], timings, None
    return statistics.median(timings[1:]), timings, None


def _bench_pair(pair: dict, executor, trials: int) -> BenchResult | dict:
    query_id = pair["id"]
    et_pre, pre_times, pre_err = _measure(executor, pair["original"], trials)
    if pre_err is not None:
        return {"id": query_id, "code": "EXEC_ERROR", "side": "original",
                "error": pre_err}
    et_post, post_times, post_err = _measure(executor, pair["rewritten"], trials)
    if post_err is not None:
        return {"id": query_id, "code": "EXEC_ERROR", "side": "rewritten",
                "error": post_err}
    ets = et_pre - et_post
    etog = (ets / et_pre * 100.0) if et_pre > 0 else 0.0
    return BenchResult(query_id=query_id, et_pre=et_pre, et_post=et_post,
                       ets=ets, etog=etog,
                       trials={"original": pre_times, "rewritten": post_times})


def normalize_pair(pair) -> dict:
    """``pair`` as an object with string ``original`` and ``rewritten``: it
    is such an object or a sequence of two strings, else a ValueError."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        pair = {"original": pair[0], "rewritten": pair[1]}
    return check(pair, {"original": "required str", "rewritten": "required str"})


def bench(pairs, executor, trials: int = 3) -> BenchReport:
    """Benchmark (original, rewritten) pairs: ETS = pre - post, ETOG =
    ETS/pre * 100. Erroring pairs are excluded from aggregates and reported.
    A pair without an ``id`` is named ``q<n>``, n counted from 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = [normalize_pair(pair) for pair in pairs]  # all checked before any runs
    report = BenchReport()
    for i, pair in enumerate(pairs, 1):
        outcome = _bench_pair({"id": f"q{i}", **pair}, executor, trials)
        if isinstance(outcome, BenchResult):
            report.results.append(outcome)
        else:
            report.errors.append(outcome)
    return report


def route(issue: dict) -> str:
    """Send an issue to the right tool: execution errors to the corrector,
    performance complaints to the rewriter, everything else to the modifier."""
    with naming("issue"):
        check(issue, {"sql": "required str", "error_log": "str | None",
                      "intent_hint": "str | None", "request": "str | None"})
    if not issue["sql"]:
        raise ValueError("issue carries an empty 'sql'")
    if issue.get("error_log"):
        return CORRECTOR
    hint = (issue.get("intent_hint") or "").lower()
    request = (issue.get("request") or "").lower()
    if any(marker in hint for marker in _EFFICIENCY_MARKERS):
        return REWRITER
    if any(marker in request for marker in _EFFICIENCY_MARKERS):
        return REWRITER
    return MODIFIER
