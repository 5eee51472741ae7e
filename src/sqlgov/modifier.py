"""Natural-language SQL modification: metadata prep, intent classification,
category-specific prompting.

Classification blends a weighted keyword score with cosine similarity to
per-category centroid embeddings; requests whose best score falls below the
confidence threshold are rejected as unsupported rather than guessed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .analysis import referenced_tables
from .bench import ToolReport, input_digest
from .errors import ContractViolationError, EmptyQueryError
from .fragmenter import decompose_lenient
from .knowledge_base import MODIFIER, cosine_similarity
from .lazy import np
from .prompts import ask, catalog_entry, catalog_key, modify_prompt, \
    render_columns
from .shapes import check, entry_from_json, read_json, read_jsonl
from .sqltext import templatize

REALIZE_SEMANTICS = "REALIZE_SEMANTICS"
EXPLAIN_SQL = "EXPLAIN_SQL"
ADOPT_SYNTAX = "ADOPT_SYNTAX"
OTHER = "OTHER"

@dataclass
class IntentCategory:
    id: str
    keywords: list[tuple[str, float]]
    centroid: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ModifierConfig:
    alpha: float = 0.4
    beta_sim: float = 0.6
    theta: float = 0.35
    top_k_tables: int = 5

    def __post_init__(self):
        if self.alpha + self.beta_sim <= 0:
            raise ValueError("alpha + beta_sim must be positive")


@dataclass(frozen=True)
class ModificationContext:
    target_sql: str
    surrounding_context: str
    referenced_metadata: dict[str, str]
    frequent_tables: list[tuple[str, str]]
    timestamp: str


@dataclass(frozen=True)
class ModifyOutcome:
    sql: str
    explanation: str
    category: str


def default_categories() -> list[IntentCategory]:
    return [
        IntentCategory(REALIZE_SEMANTICS, [
            ("change", 0.6), ("instead of", 0.7), ("filter", 0.8),
            ("only include", 0.9), ("add a condition", 1.0),
            ("make it return", 0.9), ("group by", 0.7), ("exclude", 0.8),
        ]),
        IntentCategory(EXPLAIN_SQL, [
            ("explain", 1.0), ("comment", 1.0), ("annotate", 0.9),
            ("document", 0.8), ("what does", 0.9), ("add comments", 1.0),
        ]),
        IntentCategory(ADOPT_SYNTAX, [
            ("rewrite using", 0.9), ("convert to", 0.9), ("use cte", 1.0),
            ("syntax", 0.9), ("style", 0.7), ("ansi", 0.8), ("format", 0.6),
        ]),
        IntentCategory(OTHER, [
            ("polish", 0.8), ("clean up", 0.8), ("tidy", 0.7),
            ("improve readability", 0.9),
        ]),
    ]


def _load_categories(path: str | Path) -> list[IntentCategory]:
    """Categories from a JSON list of ``IntentCategory`` objects, keywords as
    [phrase, weight] pairs; a ValueError names a file that does not fit."""
    categories = read_json(path, lambda raw: [
        entry_from_json(IntentCategory, entry)
        for entry in check(raw, "list[dict]")])
    for category in categories:
        category.keywords = [(k, float(w)) for k, w in category.keywords]
        category.centroid = category.centroid or None
    return categories


def read_history(path: str | Path) -> dict[str, int]:
    """Access counts by table from a JSON-Lines history whose lines are table
    names or ``{"table", "count"}`` objects (count 1 if absent); a
    ValueError names a file that does not fit."""
    records = read_jsonl(path, lambda r: check(
        {"table": r} if type(r) is str else r,
        {"table": "required str", "count": "int"}))
    counts: dict[str, int] = {}
    for record in records:
        table, n = record["table"], record.get("count", 1)
        if n > 0:
            counts[table] = counts.get(table, 0) + n
    return counts


def keyword_score(request: str, category: IntentCategory) -> float:
    """Weighted keyword matching: mean over the category's keywords of
    weight * [whole phrase appears in the request, case-insensitive]."""
    if not category.keywords:
        raise ValueError(f"category {category.id} has no keywords")
    total = 0.0
    for phrase, weight in category.keywords:
        pattern = r"(?<!\w)" + re.escape(phrase) + r"(?!\w)"
        if re.search(pattern, request, re.IGNORECASE):
            total += weight
    return total / len(category.keywords)


def classify_intent(request: str, categories: list[IntentCategory], provider,
                    cfg: ModifierConfig = ModifierConfig()) -> tuple[str, float] | None:
    """Winning (category id, score) by the combined score, or None when every
    score falls below theta (the request is treated as unsupported)."""
    query_vec = None
    if cfg.beta_sim > 0:
        query_vec = provider.embed(request)
    best: tuple[str, float] | None = None
    for category in categories:
        score = cfg.alpha * keyword_score(request, category)
        if cfg.beta_sim > 0:
            if category.centroid is None:
                raise ValueError(f"category {category.id} has no centroid")
            score += cfg.beta_sim * cosine_similarity(query_vec, category.centroid)
        if best is None or score > best[1]:  # ties keep declaration order
            best = (category.id, score)
    if best is None or best[1] < cfg.theta:
        return None
    return best


def bootstrap_centroids(categories: list[IntentCategory], provider,
                        cfg: ModifierConfig = ModifierConfig()) -> list[IntentCategory]:
    """Deterministic cold-start: treat each category's keyword phrases as
    labeled examples and build centroids from them; ``cfg`` is unused."""
    labeled = [(phrase, category.id)
               for category in categories
               for phrase, _ in category.keywords]
    return build_centroids(labeled, provider, categories)


def build_centroids(labeled_requests: list[tuple[str, str]], provider,
                    categories: list[IntentCategory]) -> list[IntentCategory]:
    """Centroid = normalized mean of member embeddings; categories without
    examples keep their prior centroid."""
    grouped: dict[str, list[np.ndarray]] = {}
    for text, category_id in labeled_requests:
        grouped.setdefault(category_id, []).append(provider.embed(text))
    updated = []
    for category in categories:
        members = grouped.get(category.id)
        if not members:
            updated.append(category)
            continue
        mean = np.mean(np.vstack(members), axis=0)
        norm = float(np.linalg.norm(mean))
        if norm == 0.0:
            updated.append(category)
            continue
        centroid = tuple(float(x) for x in mean / norm)
        updated.append(IntentCategory(id=category.id,
                                      keywords=list(category.keywords),
                                      centroid=centroid))
    return updated


def prepare_metadata(target_sql: str, surrounding_context: str,
                     catalog: dict, user_history: list[str] | dict[str, int],
                     cfg: ModifierConfig = ModifierConfig(),
                     now: float | None = None) -> ModificationContext:
    """Collect referenced tables/columns with catalog descriptions, the user's
    most frequent tables with schema info, and a current timestamp."""
    referenced: dict[str, str] = {}
    try:
        tables = referenced_tables(decompose_lenient(target_sql)[0])
    except EmptyQueryError:
        tables = []
    for table in tables:
        referenced[table] = _describe_table(table, catalog)
    counts: dict[str, int] = {}
    if isinstance(user_history, dict):
        counts = dict(user_history)
    else:
        for table in user_history:
            counts[table] = counts.get(table, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    frequent = [(table, _describe_table(table, catalog))
                for table, _ in ranked[:cfg.top_k_tables]]
    moment = datetime.now(timezone.utc) if now is None else \
        datetime.fromtimestamp(now, tz=timezone.utc)
    return ModificationContext(
        target_sql=target_sql,
        surrounding_context=surrounding_context,
        referenced_metadata=referenced,
        frequent_tables=frequent,
        timestamp=moment.isoformat(),
    )


def _describe_table(table: str, catalog: dict) -> str:
    key = catalog_key(catalog, table)
    if key is None:
        return "(not in catalog)"
    columns, description = catalog_entry(catalog[key])
    text = render_columns(columns)
    return f"{description}; columns: {text}" if description else f"columns: {text}"


def modify(request: str, context: ModificationContext, category_id: str,
           provider) -> ModifyOutcome:
    """Run the category-tailored prompt. EXPLAIN_SQL output must keep the SQL
    logic unchanged apart from whitespace and comments (checked by comparing
    masked templates, which drop comments)."""
    data = ask(provider, modify_prompt(category_id, request, context))
    if category_id == EXPLAIN_SQL and \
            templatize(data["sql"]) != templatize(context.target_sql):
        raise ContractViolationError(
            "EXPLAIN_SQL output altered the SQL logic (masked templates differ)")
    return ModifyOutcome(sql=data["sql"], explanation=data.get("explanation", ""),
                         category=category_id)


def modify_query(query: str, request: str, provider, embedder,
                 catalog: dict | None = None,
                 history: list[str] | dict[str, int] | None = None,
                 context: str = "", categories_path: str | Path | None = None,
                 now: float | None = None) -> ToolReport | None:
    """The modify tool end to end: load the intent categories (the file at
    ``categories_path``, else the defaults), classify the request, prepare
    metadata and run the category prompt. None when the request is rejected.

    ``history`` holds accessed table names or access counts by table.
    """
    cfg = ModifierConfig()
    categories = _load_categories(categories_path) if categories_path \
        else default_categories()
    if any(c.centroid is None for c in categories) and cfg.beta_sim > 0:
        categories = bootstrap_centroids(categories, embedder, cfg)
    decision = classify_intent(request, categories, embedder, cfg)
    if decision is None:
        return None
    category_id, score = decision
    metadata = prepare_metadata(query, context, catalog or {}, history or [],
                                cfg, now=now)
    outcome = modify(request, metadata, category_id, provider)
    return ToolReport(
        tool=MODIFIER,
        input_digest=input_digest(query, request),
        output={"sql": outcome.sql, "explanation": outcome.explanation,
                "category": category_id, "score": score},
    )
