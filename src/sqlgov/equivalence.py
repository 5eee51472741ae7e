"""Semantic equivalence checking for SELECT-based queries.

Stage one summarizes each query's field provenance (innermost fragments
first, child summaries feeding parent prompts). One check summarizes each
distinct fragment envelope once: a fragment the rewrite left alone renders
the same prompt on both sides, so both walks share one answer. A prompt
shows the fragment's local text, with each child as ``[fragment k]``, so an
ancestor of a rewritten fragment shares its answer too when its own text
and its child summaries are unchanged. A structural pre-filter rejects
pairs with mismatched output arity or base-table sets before any provider
call; surviving pairs go through an LLM field-alignment prompt with
per-field confidences. UNDECIDED is a first-class outcome: low-confidence
answers are never upgraded.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from .analysis import FragmentFacts, analyze_tree
from .errors import (
    EmptyQueryError,
    RejectedResponseError,
    UnparseableQueryError,
    UnsupportedStatementError,
)
from .fragmenter import FragmentTree, decompose_lenient
from .prompts import alignment_prompt, ask_json, intent_extract_prompt
from .providers import PromptEnvelope
from .sqltext import SELECT_HEADS, normalize_tokens, statement_head

EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
UNDECIDED = "UNDECIDED"

DEFAULT_CONFIDENCE_FLOOR = 0.7


@dataclass(frozen=True)
class FieldProvenance:
    output_name: str
    source_tables: tuple[str, ...]
    transformation: str
    conditions: tuple[str, ...]


@dataclass(frozen=True)
class IntentSummary:
    fields: tuple[FieldProvenance, ...]
    narrative: str

    def render(self) -> str:
        payload = {
            "fields": [
                {
                    "output_name": f.output_name,
                    "source_tables": sorted(f.source_tables),
                    "transformation": f.transformation,
                    "conditions": list(f.conditions),
                }
                for f in self.fields
            ],
            "narrative": self.narrative,
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)

    def all_source_tables(self) -> set[str]:
        tables: set[str] = set()
        for f in self.fields:
            tables.update(t.lower() for t in f.source_tables)
        return tables


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str
    confidence: float
    field_mapping: tuple[tuple[int, int], ...] | None = None
    counterexample: str | None = None
    reason: str | None = None


@dataclass(frozen=True)
class QuerySkeleton:
    """One side of a pair, parsed and analyzed once for every later stage."""

    arity: int | None  # None when the projection contains a star
    base_tables: frozenset[str]
    tree: FragmentTree
    facts: Mapping[int, FragmentFacts]


def parse_select(query: str) -> FragmentTree:
    """The fragment tree of a SELECT-based statement; UnsupportedStatementError
    for no statement or another kind, UnparseableQueryError if it does not parse."""
    try:
        tree, diagnostic = decompose_lenient(query)
    except EmptyQueryError:
        raise UnsupportedStatementError("no statement found") from None
    head = statement_head(tree.tokens)
    if head is None:
        raise UnsupportedStatementError("no statement found")
    if head not in SELECT_HEADS:
        raise UnsupportedStatementError(
            f"only SELECT-based DML is supported, got leading token {head!r}")
    if diagnostic is not None:
        raise UnparseableQueryError(diagnostic, partial_tree=tree)
    return tree


def skeleton(query: str) -> QuerySkeleton:
    """Parse and analyze ``query`` once: the structural facts the pre-filter
    needs, and the tree and facts intent extraction reads. No provider."""
    tree = parse_select(query)
    facts = analyze_tree(tree)
    root_facts = facts[tree.root_id]
    arity = None if root_facts.select_has_star else root_facts.select_items
    return QuerySkeleton(
        arity=arity,
        base_tables=frozenset(root_facts.table_counts_subtree),
        tree=tree,
        facts=facts,
    )


def extract_intent(side: QuerySkeleton, provider,
                   answers: dict[PromptEnvelope, dict] | None = None,
                   ) -> IntentSummary:
    """Summarize field provenance, walking fragments innermost-first.

    Analysis order already numbers children before parents, so feeding
    summaries forward needs no extra bookkeeping. ``answers`` maps each
    envelope already answered to its checked answer; only new envelopes
    reach the provider.
    """
    tree = side.tree
    answers = {} if answers is None else answers
    summaries: dict[int, dict] = {}
    for fragment in tree.fragments:
        child_rendered = [
            f"fragment {c.id}: {json.dumps(summaries[c.id], sort_keys=True)}"
            for c in tree.children(fragment.id)
        ]
        env = intent_extract_prompt(tree, fragment, child_rendered)
        if env not in answers:
            answers[env] = ask_json(provider, env)
        summaries[fragment.id] = answers[env]
    main = summaries[tree.root_id]
    fields = tuple(
        FieldProvenance(
            output_name=f.get("output_name", ""),
            source_tables=tuple(f.get("source_tables", [])),
            transformation=f.get("transformation", ""),
            conditions=tuple(f.get("conditions", [])),
        )
        for f in main.get("fields", [])
    )
    root_facts = side.facts[tree.root_id]
    if not root_facts.select_has_star and root_facts.select_items \
            and len(fields) != root_facts.select_items:
        raise RejectedResponseError(
            f"intent summary carries {len(fields)} fields but the outermost "
            f"SELECT projects {root_facts.select_items}")
    return IntentSummary(fields=fields, narrative=main.get("narrative", ""))


def prefilter(a: IntentSummary, b: IntentSummary) -> EquivalenceVerdict | None:
    """Schema-level heuristics: mismatched field count or source-table union
    rejects the pair outright; otherwise the pair proceeds."""
    if len(a.fields) != len(b.fields):
        return EquivalenceVerdict(
            verdict=NOT_EQUIVALENT, confidence=1.0,
            reason=f"output arity differs: {len(a.fields)} vs {len(b.fields)}")
    ta, tb = a.all_source_tables(), b.all_source_tables()
    if ta != tb:
        return EquivalenceVerdict(
            verdict=NOT_EQUIVALENT, confidence=1.0,
            reason=f"source tables differ: {sorted(ta)} vs {sorted(tb)}")
    return None


def _skeleton_mismatch(a: QuerySkeleton, b: QuerySkeleton) -> str | None:
    if a.arity is not None and b.arity is not None and a.arity != b.arity:
        return f"output arity differs: {a.arity} vs {b.arity}"
    if a.base_tables != b.base_tables:
        return (f"base tables differ: {sorted(a.base_tables)} vs "
                f"{sorted(b.base_tables)}")
    return None


def check_equivalence(a: str, b: str, provider,
                      confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR) -> EquivalenceVerdict:
    """Full pipeline: identity short-circuit, structural pre-filter (zero
    provider calls on rejection), then intent extraction and field alignment."""
    ska = skeleton(a)
    skb = skeleton(b)
    if normalize_tokens(ska.tree.tokens) == normalize_tokens(skb.tree.tokens):
        return EquivalenceVerdict(  # no mapping when a star hides the arity
            verdict=EQUIVALENT, confidence=1.0,
            field_mapping=tuple((i, i) for i in range(ska.arity))
            if ska.arity else None,
            reason="identical normalized text")
    mismatch = _skeleton_mismatch(ska, skb)
    if mismatch is not None:
        return EquivalenceVerdict(verdict=NOT_EQUIVALENT, confidence=1.0,
                                  reason=mismatch)
    answers: dict[PromptEnvelope, dict] = {}
    intent_a = extract_intent(ska, provider, answers)
    intent_b = extract_intent(skb, provider, answers)
    rejected = prefilter(intent_a, intent_b)
    if rejected is not None:
        return rejected
    return _align(intent_a, intent_b, provider, confidence_floor)


def _align(intent_a: IntentSummary, intent_b: IntentSummary, provider,
           confidence_floor: float) -> EquivalenceVerdict:
    data = ask_json(provider,
                    alignment_prompt(intent_a.render(), intent_b.render()))
    mappings = data.get("mappings", [])
    n = len(intent_a.fields)
    if n == 0:
        return EquivalenceVerdict(verdict=UNDECIDED, confidence=0.0,
                                  reason="no output fields extracted")
    confidences = [m.get("confidence", 0.0) for m in mappings]

    for m in mappings:
        if not m.get("equivalent", False):
            counterexample = m.get("counterexample")
            conf = m.get("confidence", 0.0)
            if counterexample:
                return EquivalenceVerdict(
                    verdict=NOT_EQUIVALENT, confidence=conf,
                    counterexample=counterexample,
                    reason=f"field pair ({m['left']}, {m['right']}) "
                           f"not equivalent")
            return EquivalenceVerdict(
                verdict=UNDECIDED, confidence=conf,
                reason="provider reported a non-equivalent field without a "
                       "counterexample")

    lefts = [m["left"] for m in mappings]
    rights = [m["right"] for m in mappings]
    bijective = (
        sorted(lefts) == list(range(n)) and sorted(rights) == list(range(n))
    )
    if not bijective:
        return EquivalenceVerdict(
            verdict=UNDECIDED,
            confidence=min(confidences) if confidences else 0.0,
            reason="field mapping is not a bijection over all output positions")
    low = [c for c in confidences if c < confidence_floor]
    if low:
        return EquivalenceVerdict(
            verdict=UNDECIDED, confidence=min(confidences),
            reason=f"confidence below floor {confidence_floor}")
    return EquivalenceVerdict(
        verdict=EQUIVALENT,
        confidence=min(confidences) if confidences else 0.0,
        field_mapping=tuple(sorted(zip(lefts, rights))),
    )
