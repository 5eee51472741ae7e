"""Two-stage query optimization: per-fragment evaluation, then guided rewriting.

Every fragment gets exactly one suggestion record. A rule hit routes the
fragment through the rule-guided prompt; otherwise a static efficiency screen
either clears the fragment outright (no LLM call) or sends it through the
exploratory prompt. The rewrite stage feeds the actionable suggestions plus
retrieved historical cases to the provider and validates the result parses.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass

from .analysis import FragmentFacts, analyze_tree, duplicated_scan_tables
from .bench import ToolReport, input_digest
from .equivalence import DEFAULT_CONFIDENCE_FLOOR, check_equivalence, parse_select
from .errors import RejectedResponseError, UnparseableQueryError, UnsupportedStatementError
from .fragmenter import FragmentTree, SITE_FROM, SUBQUERY, decompose
from .knowledge_base import DEFAULT_K, REWRITER, KnowledgeStore
from .prompts import ask, rewrite_prompt, scenario1_prompt, scenario2_prompt

RULE_GUIDED = "RULE_GUIDED"
EXPLORATORY = "EXPLORATORY"
ALREADY_EFFICIENT = "ALREADY_EFFICIENT"


@dataclass(frozen=True)
class RewriteSuggestion:
    fragment_id: int
    rule_index: str | None
    action: str
    rationale: str
    scenario: str


@dataclass(frozen=True)
class RewriteResult:
    original: str
    rewritten: str
    suggestions_applied: tuple[RewriteSuggestion, ...]
    cases_consulted: tuple[str, ...]


def _efficient(suggestion_id: int) -> RewriteSuggestion:
    return RewriteSuggestion(fragment_id=suggestion_id, rule_index=None,
                             action="", rationale="", scenario=ALREADY_EFFICIENT)


def passes_efficiency_screen(fragment_id: int, facts: Mapping[int, FragmentFacts],
                             tree: FragmentTree) -> bool:
    """Negative screen: single base-table scan at most, no scalar or predicate
    subqueries at this level, no outer-join null filtering, no duplicate
    scans, explicit projection list."""
    f = facts[fragment_id]
    if sum(f.table_counts_own.values()) > 1:
        return False
    non_from_children = [
        c for c in tree.children(fragment_id)
        if c.kind == SUBQUERY and c.clause_site != SITE_FROM
    ]
    if non_from_children:
        return False
    if f.has_outer_join and f.where_has_is_not_null:
        return False
    if duplicated_scan_tables(fragment_id, facts, tree):
        return False
    if f.select_has_star or (f.has_set_op and f.set_op_arm_star):
        return False
    return True


def _merge_actions(entries: list[dict]) -> tuple[str, str]:
    if len(entries) == 1:
        return entries[0].get("action", ""), entries[0].get("rationale", "")
    actions = [f"{i}. {e.get('action', '')}" for i, e in enumerate(entries, 1)]
    rationales = [f"{i}. {e.get('rationale', '')}" for i, e in enumerate(entries, 1)]
    return "\n".join(actions), "\n".join(rationales)


def evaluate(query: str, store: KnowledgeStore, provider) -> list[RewriteSuggestion]:
    """One suggestion per fragment, in analysis order."""
    tree = decompose(query)
    facts = analyze_tree(tree)
    suggestions: list[RewriteSuggestion] = []
    for fragment in tree.fragments:
        rules = store.match_rules(fragment, REWRITER, tree, facts)
        if rules:
            data = ask(provider, scenario1_prompt(tree, fragment, rules))
            allowed = {r.index for r in rules}
            applicable = [e for e in data.get("applicable", [])
                          if e.get("rule") in allowed]
            if not applicable:
                suggestions.append(_efficient(fragment.id))
                continue
            action, rationale = _merge_actions(applicable)
            suggestions.append(RewriteSuggestion(
                fragment_id=fragment.id,
                rule_index=applicable[0]["rule"],
                action=action, rationale=rationale, scenario=RULE_GUIDED))
            continue
        if passes_efficiency_screen(fragment.id, facts, tree):
            suggestions.append(_efficient(fragment.id))
            continue
        data = ask(provider, scenario2_prompt(tree, fragment))
        entries = data.get("suggestions", [])
        if data.get("efficient") or not entries:
            suggestions.append(_efficient(fragment.id))
            continue
        action, rationale = _merge_actions(entries)
        suggestions.append(RewriteSuggestion(
            fragment_id=fragment.id, rule_index=None,
            action=action, rationale=rationale, scenario=EXPLORATORY))
    return suggestions


def rewrite(query: str, suggestions: list[RewriteSuggestion],
            store: KnowledgeStore, provider, k: int = DEFAULT_K) -> RewriteResult:
    """Synthesize the rewritten query from suggestions and retrieved cases.

    With nothing actionable the original comes back unchanged and no provider
    call is made; an answer that is no parseable SELECT is a rejected response."""
    actionable = [s for s in suggestions
                  if s.scenario != ALREADY_EFFICIENT and s.action]
    if not actionable:
        return RewriteResult(original=query, rewritten=query,
                             suggestions_applied=(), cases_consulted=())
    tags = sorted({s.rule_index for s in actionable if s.rule_index}) or None
    cases = [case for case, _ in store.retrieve_cases(query, tags, k)]
    rewritten = ask(provider, rewrite_prompt(query, actionable, cases))
    try:
        parse_select(rewritten)
    except (UnsupportedStatementError, UnparseableQueryError) as exc:
        raise RejectedResponseError(f"rewrite response: {exc}") from None
    return RewriteResult(
        original=query,
        rewritten=rewritten,
        suggestions_applied=tuple(actionable),
        cases_consulted=tuple(case.index for case in cases),
    )


def optimize(query: str, store: KnowledgeStore, provider, k: int = DEFAULT_K,
             verify: bool = False,
             confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR) -> ToolReport:
    """The rewrite tool end to end: evaluate, rewrite and, with ``verify``,
    check the rewrite's equivalence to the original."""
    t0 = time.perf_counter()
    suggestions = evaluate(query, store, provider)
    t1 = time.perf_counter()
    result = rewrite(query, suggestions, store, provider, k=k)
    t2 = time.perf_counter()
    verified = None
    if verify:
        verified = check_equivalence(result.original, result.rewritten,
                                     provider, confidence_floor).verdict
    return ToolReport(
        tool=REWRITER,
        input_digest=input_digest(query),
        output={
            "original": result.original,
            "rewritten": result.rewritten,
            "suggestions": [asdict(s) for s in suggestions],
            "verified": verified,
        },
        rules_used=sorted({s.rule_index for s in result.suggestions_applied
                           if s.rule_index}),
        cases_used=list(result.cases_consulted),
        timings={"evaluate": t1 - t0, "rewrite": t2 - t1},
    )
