"""Seed knowledge: expert rewrite rules, exemplar cases, and correction
strategies that a fresh store starts from."""

from __future__ import annotations

from pathlib import Path

from .corrector import ParsedError, build_error_key
from .knowledge_base import (
    CANDIDATE,
    REWRITER,
    VERIFIED,
    ErrorStrategy,
    HistoricalCase,
    KnowledgeSnapshot,
    RuleEntry,
    ToolStats,
    load_snapshot,
)
from .shapes import check, entry_from_json
from .sqltext import templatize

SAME_TABLE_JOIN = "SAME_TABLE_JOIN"
OUTER_JOIN_NULL_FILTER = "OUTER_JOIN_NULL_FILTER"
IN_SELECT = "IN(SELECT)"
UNION_ALL_UNPROJECTED = "UNION_ALL_UNPROJECTED"


def seed_rules(now: float = 0.0) -> list[RuleEntry]:
    common = dict(tool=REWRITER, status=VERIFIED, created_at=now, verified_at=now)
    return [
        RuleEntry(
            index=SAME_TABLE_JOIN,
            description=(
                "The same base table is scanned more than once inside one "
                "fragment. Merge the scans into a single pass, typically a "
                "shared CTE with conditional aggregation (CASE WHEN over the "
                "combined filter range), to cut I/O."),
            matcher=[{"pred": "same_table_scanned", "min_count": 2}],
            **common),
        RuleEntry(
            index=OUTER_JOIN_NULL_FILTER,
            description=(
                "An outer join whose WHERE clause demands the joined side IS "
                "NOT NULL is equivalent to an INNER JOIN: the filter discards "
                "exactly the padded rows. Replace the outer join with an "
                "INNER JOIN and drop the redundant null filter."),
            matcher=[{"pred": "outer_join_with_null_filter"}],
            **common),
        RuleEntry(
            index=IN_SELECT,
            description=(
                "An IN predicate over a subquery often forces repeated "
                "evaluation. Rewrite as a semi-join (EXISTS with a "
                "correlated predicate) or a join against a deduplicated "
                "derived table."),
            matcher=[{"pred": "in_subquery"}],
            **common),
        RuleEntry(
            index=UNION_ALL_UNPROJECTED,
            description=(
                "UNION ALL arms that project * drag every column through the "
                "set operation. Stage the union in a WITH clause and project "
                "only the columns later steps actually use."),
            matcher=[{"pred": "union_all_unprojected"}],
            **common),
    ]


_CASE_SPECS = [
    {
        "index": "case-inner-join-filter",
        "sql": ("SELECT a.x FROM a LEFT JOIN b ON a.k = b.k "
                "WHERE b.k IS NOT NULL"),
        "details": (
            "sql: SELECT a.x FROM a LEFT JOIN b ON a.k = b.k WHERE b.k IS "
            "NOT NULL\naction: replaced LEFT JOIN + IS NOT NULL with INNER "
            "JOIN and removed the null filter\noutcome: identical results, "
            "join cost reduced"),
        "tag": [OUTER_JOIN_NULL_FILTER],
    },
    {
        "index": "case-single-scan-merge",
        "sql": ("SELECT (SELECT COUNT(*) FROM t WHERE ds = '1') / "
                "(SELECT COUNT(*) FROM t WHERE ds = '2') FROM dual"),
        "details": (
            "sql: SELECT (SELECT COUNT(*) FROM t WHERE ds = '1') / (SELECT "
            "COUNT(*) FROM t WHERE ds = '2') FROM dual\naction: merged two "
            "scans of t into one CTE scanning ds IN ('1','2') with "
            "conditional SUM(CASE WHEN ...) aggregates\noutcome: one scan "
            "instead of two"),
        "tag": [SAME_TABLE_JOIN],
    },
    {
        "index": "case-union-projection",
        "sql": ("SELECT AVG(d) FROM (SELECT * FROM u1 UNION ALL "
                "SELECT * FROM u2) z"),
        "details": (
            "sql: SELECT AVG(d) FROM (SELECT * FROM u1 UNION ALL SELECT * "
            "FROM u2) z\naction: hoisted the UNION ALL into a WITH clause "
            "projecting only the columns used downstream\noutcome: narrower "
            "rows through the union, less data movement"),
        "tag": [UNION_ALL_UNPROJECTED],
    },
]


def _case(spec: dict, embedder) -> HistoricalCase:
    """A case from the fields of ``HistoricalCase`` but those made of ``sql``."""
    check(spec, {"sql": "required str"})
    template = templatize(spec["sql"])
    case = entry_from_json(HistoricalCase, {"tag": [], **spec},
                           template=template, embedding=embedder.embed(template))
    case.tag = list(case.tag)  # a copy: edits to the case leave the spec alone
    return case


def seed_cases(embedder) -> list[HistoricalCase]:
    return [_case(spec, embedder) for spec in _CASE_SPECS]


_STRATEGY_SPECS = [
    {
        "index": "strat-join-condition",
        "message_pattern": (
            "SqlValidatorException: INNER, LEFT, RIGHT or FULL join requires "
            "a condition (NATURAL keyword or ON or USING clause)"),
        "needs_schema": False,
        "localized": True,
        "guidance": (
            "The join is missing its condition. Add an ON clause equating "
            "the join keys (or USING for identically named keys)."),
    },
    {
        "index": "strat-missing-comma",
        "message_pattern": (
            "ParseException: syntax error, missing comma between select "
            "list items near [ID]"),
        "needs_schema": False,
        "localized": True,
        "guidance": (
            "Two adjacent column expressions are not separated. Insert the "
            "missing comma between them."),
    },
    {
        "index": "strat-union-count",
        "message_pattern": (
            "SqlValidatorException: Column count mismatch in UNION"),
        "needs_schema": False,
        "localized": False,
        "guidance": (
            "This error occurs when SELECT clauses connected by UNION or "
            "UNION ALL contain a different number of fields. Align the "
            "projected column lists of every arm."),
    },
    {
        "index": "strat-unknown-column",
        "message_pattern": (
            "SqlValidatorException: Column [ID] not found in any table"),
        "needs_schema": True,
        "localized": True,
        "guidance": (
            "A referenced column does not exist. Check the schema for the "
            "intended column name and replace the unknown reference."),
    },
]


def _strategy(spec: dict, embedder) -> ErrorStrategy:
    """A strategy from the fields of ``ErrorStrategy`` but the embedding,
    made through the same masking applied to extracted error keys."""
    check(spec, {"message_pattern": "required str"})
    pattern = spec["message_pattern"]
    exc, _, message = pattern.partition(": ")
    key = build_error_key(ParsedError(
        exception_type=exc, location=None, message=message or pattern,
        raw_log=pattern))
    return entry_from_json(ErrorStrategy,
                           {"needs_schema": False, "localized": False, **spec},
                           embedding=embedder.embed(key))


def seed_strategies(embedder) -> list[ErrorStrategy]:
    return [_strategy(spec, embedder) for spec in _STRATEGY_SPECS]


def seed_snapshot(embedder, now: float = 0.0) -> KnowledgeSnapshot:
    rules = seed_rules(now)
    cases = seed_cases(embedder)
    strategies = seed_strategies(embedder)
    return KnowledgeSnapshot(rules=rules, cases=cases, strategies=strategies,
                             stats={REWRITER: ToolStats()})


def load_or_seed(path: str | Path, embedder) -> KnowledgeSnapshot:
    """The store saved at ``path``, or the seed knowledge if none is."""
    if (Path(path) / "meta.json").exists():
        return load_snapshot(path)
    return seed_snapshot(embedder)


def add_entry(snapshot: KnowledgeSnapshot, kind: str, data: dict, embedder,
              now: float) -> None:
    """Append a rule, case or strategy given in the seeds' JSON form; a case
    carries its ``sql``, which is stored as its masked template. ValueError
    says what in ``data`` does not fit."""
    check(data, "dict")
    if kind == "rule":
        snapshot.rules.append(entry_from_json(RuleEntry, {
            "matcher": None, "tool": REWRITER, "status": CANDIDATE,
            "created_at": now, **data}))
    elif kind == "case":
        snapshot.cases.append(_case(
            {"index": f"case-{len(snapshot.cases) + 1}", **data}, embedder))
    else:
        snapshot.strategies.append(_strategy(data, embedder))
