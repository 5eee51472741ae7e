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

When a rewrite leaves the outermost query's own text alone, only what it
changed is checked first: each topmost pair of fragments whose own text
differs is summarized and aligned as a pair of queries of its own. A
subquery swapped for an equivalent one with the same output columns leaves
the query equivalent (the congruence step of UDP and SPES), so the pair is
EQUIVALENT when every changed pair is, position for position, and both
sides of each name their outputs alike: the same own select list, read off
the analysis, with each child in it shown as its parentheses. A changed
subquery inside a select list is checked with its pair, and a column from
an unaliased one has no name a parent reads. Any other local outcome goes
on to the whole-query check, which reuses every summary already made: the
outer query may hide a local difference, so a local NOT_EQUIVALENT is
never the answer. One step gives every verdict past the short-circuits,
local or whole: both intents, the pre-filter, then the provider's
alignment. The verifier parses each side once and reads the facts that
the analysis holds on its tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .analysis import FragmentFacts, analyze_tree
from .errors import (
    EmptyQueryError,
    RejectedResponseError,
    UnparseableQueryError,
    UnsupportedStatementError,
)
from .fragmenter import FragmentTree, decompose_lenient
from .prompts import alignment_prompt, ask, intent_extract_prompt
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


def extract_intent(tree: FragmentTree, provider,
                   answers: dict[PromptEnvelope, dict] | None = None,
                   root: int | None = None) -> IntentSummary:
    """Summarize field provenance, walking fragments innermost-first.

    Analysis order already numbers children before parents, so feeding
    summaries forward needs no extra bookkeeping. ``answers`` maps each
    envelope already answered to its checked answer; only new envelopes
    reach the provider. ``root`` names a fragment whose subtree alone is
    summarized, as the query's own fragments; by default the whole query.
    """
    root = tree.root_id if root is None else root
    answers = {} if answers is None else answers
    summaries: dict[int, dict] = {}
    for fragment in tree.subtree(root):
        child_rendered = [
            f"fragment {c.id}: {json.dumps(summaries[c.id], sort_keys=True)}"
            for c in tree.children(fragment.id)
        ]
        env = intent_extract_prompt(tree, fragment, child_rendered)
        if env not in answers:
            answers[env] = ask(provider, env)
        summaries[fragment.id] = answers[env]
    main = summaries[root]
    fields = tuple(
        FieldProvenance(
            output_name=f.get("output_name", ""),
            source_tables=tuple(f.get("source_tables", [])),
            transformation=f.get("transformation", ""),
            conditions=tuple(f.get("conditions", [])),
        )
        for f in main.get("fields", [])
    )
    root_facts = analyze_tree(tree)[root]
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


def _arity(facts: FragmentFacts) -> int | None:
    """The fragment's output count; None when a star hides it."""
    return None if facts.select_has_star else facts.select_items


def _skeleton_mismatch(a: FragmentTree, b: FragmentTree) -> str | None:
    """Why the outermost queries of ``a`` and ``b`` cannot agree, read off
    their facts: a different output arity, or different base tables."""
    fa, fb = analyze_tree(a)[a.root_id], analyze_tree(b)[b.root_id]
    arity_a, arity_b = _arity(fa), _arity(fb)
    if None not in (arity_a, arity_b) and arity_a != arity_b:
        return f"output arity differs: {arity_a} vs {arity_b}"
    if fa.table_counts_subtree.keys() != fb.table_counts_subtree.keys():
        return (f"base tables differ: {sorted(fa.table_counts_subtree)} vs "
                f"{sorted(fb.table_counts_subtree)}")
    return None


def check_equivalence(a: str, b: str, provider,
                      confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR) -> EquivalenceVerdict:
    """Full pipeline: identity short-circuit, structural pre-filter (zero
    provider calls on rejection), the scoped check of each changed fragment
    pair when the outermost query's own text is unchanged, then the check
    of the whole pair. Only a scoped EQUIVALENT is final; any other scoped
    outcome goes on to the whole pair, which shares its intent answers."""
    ta, tb = parse_select(a), parse_select(b)
    facts_a, facts_b = analyze_tree(ta), analyze_tree(tb)
    identity = _identity(_arity(facts_a[ta.root_id]))
    if normalize_tokens(ta.tokens) == normalize_tokens(tb.tokens):
        return EquivalenceVerdict(verdict=EQUIVALENT, confidence=1.0,
                                  field_mapping=identity,
                                  reason="identical normalized text")
    mismatch = _skeleton_mismatch(ta, tb)
    if mismatch is not None:
        return EquivalenceVerdict(verdict=NOT_EQUIVALENT, confidence=1.0,
                                  reason=mismatch)
    answers: dict[PromptEnvelope, dict] = {}
    pairs = _changed_pairs(ta, tb)
    # Only what changed, when each changed pair names its outputs alike: a
    # parent reads a derived table's or a CTE's columns by name.
    if pairs and pairs != [(ta.root_id, tb.root_id)] and all(
            _output_names(facts_a[fa]) is not None
            and _output_names(facts_a[fa]) == _output_names(facts_b[fb])
            for fa, fb in pairs):
        confidence = 1.0
        for fa, fb in pairs:
            verdict = _verdict(ta, tb, fa, fb, provider, answers,
                               confidence_floor)
            if verdict.verdict != EQUIVALENT \
                    or verdict.field_mapping != _identity(_arity(facts_a[fa])):
                break
            confidence = min(confidence, verdict.confidence)
        else:
            return EquivalenceVerdict(
                verdict=EQUIVALENT, confidence=confidence,
                field_mapping=identity,
                reason="only fragment pairs " + ", ".join(
                    f"{fa}/{fb}" for fa, fb in pairs)
                + " differ, and each is equivalent with the same outputs")
    return _verdict(ta, tb, ta.root_id, tb.root_id, provider, answers,
                    confidence_floor)


def _verdict(ta: FragmentTree, tb: FragmentTree, fa: int, fb: int, provider,
             answers: dict[PromptEnvelope, dict],
             confidence_floor: float) -> EquivalenceVerdict:
    """The verdict on fragment ``fa`` of ``ta`` against ``fb`` of ``tb``,
    each subtree as a query of its own: both intents, the pre-filter, and
    then the field alignment."""
    intent_a = extract_intent(ta, provider, answers, fa)
    intent_b = extract_intent(tb, provider, answers, fb)
    return prefilter(intent_a, intent_b) \
        or _align(intent_a, intent_b, provider, confidence_floor)


def _identity(arity: int | None) -> tuple[tuple[int, int], ...] | None:
    """The identity mapping over ``arity`` outputs; None when a star hides
    the arity."""
    return tuple((i, i) for i in range(arity)) if arity else None


def _changed_pairs(ta: FragmentTree, tb: FragmentTree) -> list[tuple[int, int]]:
    """The topmost pairs of fragments, (left id, right id), whose own text
    differs. Both trees are walked from the root, children paired in order,
    and the walk stops at a pair whose own text segments (and so child
    counts) differ; above such a pair both sides read alike, so the pair
    differs only inside it."""
    pairs, pending = [], [(ta.root_id, tb.root_id)]
    while pending:
        fa, fb = pending.pop()
        if ta.local_segments(fa) != tb.local_segments(fb):
            pairs.append((fa, fb))
        else:
            pending += zip((c.id for c in ta.children(fa)),
                           (c.id for c in tb.children(fb)))
    return sorted(pairs)


def _output_names(facts: FragmentFacts) -> str | None:
    """The fragment's own select list, each child in it shown as its
    parentheses, which names its outputs; None when a star, or no
    projection, leaves the names to its sources."""
    if facts.select_has_star or not facts.select_items:
        return None
    return normalize_tokens(facts.projection)


def _align(intent_a: IntentSummary, intent_b: IntentSummary, provider,
           confidence_floor: float) -> EquivalenceVerdict:
    data = ask(provider, alignment_prompt(intent_a.render(), intent_b.render()))
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
