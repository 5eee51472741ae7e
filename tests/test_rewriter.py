from __future__ import annotations

import gc
import json
import re
import weakref

import pytest

from sqlgov import fragmenter, sqltext
from sqlgov.analysis import analyze_tree, fragment_facts
from sqlgov.equivalence import EQUIVALENT, _changed_pairs, check_equivalence
from sqlgov.errors import RejectedResponseError
from sqlgov.knowledge_base import REWRITER, KnowledgeSnapshot, KnowledgeStore
from sqlgov.prompts import rewrite_prompt
from sqlgov.providers import ScriptedLLM
from sqlgov.fragmenter import decompose, decompose_lenient
from sqlgov.rewriter import (
    ALREADY_EFFICIENT,
    EXPLORATORY,
    RULE_GUIDED,
    RewriteSuggestion,
    evaluate,
    rewrite,
)


def _empty_store(embedder):
    return KnowledgeStore(KnowledgeSnapshot(), embedder)


# --- rule-only analysis set ---------------------------------------------------

def test_analysis_set_reports_rule_findings(nested_query, seeded_store):
    tree = decompose(nested_query)
    findings = {
        f.id: [r.index for r in seeded_store.match_rules(f, REWRITER, tree)]
        for f in tree.fragments
    }
    assert sorted(findings) == list(range(1, 8))
    assert findings[4] == ["SAME_TABLE_JOIN"]
    assert findings[7] == ["OUTER_JOIN_NULL_FILTER"]
    assert all(findings[fid] == [] for fid in (1, 2, 3, 5, 6))


# --- evaluation ------------------------------------------------------------

def test_nested_query_scenario_assignment(nested_query, seeded_store, playbook_llm):
    suggestions = evaluate(nested_query, seeded_store, playbook_llm)
    by_fragment = {s.fragment_id: s for s in suggestions}
    assert by_fragment[4].scenario == RULE_GUIDED
    assert by_fragment[4].rule_index == "SAME_TABLE_JOIN"
    assert by_fragment[7].scenario == RULE_GUIDED
    assert by_fragment[7].rule_index == "OUTER_JOIN_NULL_FILTER"
    for fid in (1, 2, 3, 5, 6):
        assert by_fragment[fid].scenario == ALREADY_EFFICIENT
        assert by_fragment[fid].action == ""


def test_fragment_coverage(nested_query, seeded_store, playbook_llm):
    suggestions = evaluate(nested_query, seeded_store, playbook_llm)
    assert len(suggestions) == 7
    assert sorted(s.fragment_id for s in suggestions) == list(range(1, 8))


def test_efficient_fragments_skip_the_provider(nested_query, seeded_store,
                                               playbook_llm):
    evaluate(nested_query, seeded_store, playbook_llm)
    # only the two rule-matched fragments reached the LLM
    assert playbook_llm.call_count == 2
    assert playbook_llm.calls == {"SCENARIO_1": 2}


def test_select_1_with_empty_store(embedder):
    llm = ScriptedLLM([], strict=True)
    suggestions = evaluate("SELECT 1", _empty_store(embedder), llm)
    assert len(suggestions) == 1
    assert suggestions[0].scenario == ALREADY_EFFICIENT
    assert llm.call_count == 0


def test_declined_rule_becomes_efficient(nested_query, seeded_store, embedder):
    llm = ScriptedLLM([], strict=False)  # permissive default declines rules
    suggestions = evaluate(nested_query, seeded_store, llm)
    assert all(s.scenario == ALREADY_EFFICIENT for s in suggestions)


def test_scenario2_exploratory_route(embedder):
    sql = "SELECT * FROM t1 JOIN t2 ON t1.k = t2.k"
    from sqlgov.prompts import scenario2_prompt
    tree = decompose(sql)
    env = scenario2_prompt(tree, tree.root)
    llm = ScriptedLLM([{
        "template_id": env.template_id, "digest": env.digest,
        "response": json.dumps({"efficient": False, "suggestions": [
            {"action": "project only the needed columns",
             "rationale": "star projection drags every column"}]}),
    }])
    suggestions = evaluate(sql, _empty_store(embedder), llm)
    assert suggestions[0].scenario == EXPLORATORY
    assert "project only" in suggestions[0].action


class _Recording:
    """The permissive scripted provider, recording every envelope."""

    def __init__(self):
        self.inner = ScriptedLLM([], strict=False)
        self.envelopes = []

    def complete(self, env):
        self.envelopes.append(env)
        return self.inner.complete(env)


_MARKERS = ("SELECT m1, (SELECT m2 FROM t2 WHERE m2 IN (SELECT m3 FROM t3)) "
            "FROM t1 WHERE m1 IN (SELECT m4 FROM t4 "
            "WHERE m4 > (SELECT MAX(m5) FROM t5))")


def _descendants(tree, fragment_id):
    for child in tree.children(fragment_id):
        yield child
        yield from _descendants(tree, child.id)


def test_scenario_prompts_show_no_descendant_text(
        nested_query, union_query, seeded_store):
    seen = set()
    for sql in (nested_query, union_query, _MARKERS):
        provider = _Recording()
        evaluate(sql, seeded_store, provider)
        tree = decompose(sql)
        for env in provider.envelopes:
            seen.add(env.template_id)
            header, body = env.section("Fragment").split("\n", 1)
            fragment_id = int(re.fullmatch(r"\[fragment (\d+)\]", header)[1])
            assert body == tree.local_text(fragment_id)
            own = set(re.findall(r"\bm\d\b", body))
            for d in _descendants(tree, fragment_id):
                assert d.text.strip() not in body
                assert not own & set(re.findall(r"\bm\d\b", d.text))
    assert seen == {"SCENARIO_1", "SCENARIO_2"}


# --- rewriting -------------------------------------------------------------

def test_nested_query_rewrite_matches_golden(nested_query, nested_rewrite, seeded_store,
                                         playbook_llm):
    suggestions = evaluate(nested_query, seeded_store, playbook_llm)
    result = rewrite(nested_query, suggestions, seeded_store, playbook_llm, k=5)
    assert result.rewritten == nested_rewrite.strip("\n")
    assert "INNER JOIN tb2" in result.rewritten
    assert result.rewritten.startswith("WITH cte AS")
    assert len(result.suggestions_applied) == 2


def test_rewrite_and_verify_parse_and_analyze_each_text_once(
        nested_query, seeded_store, playbook_llm, monkeypatch, analyzed):
    """Each text is scanned once and each fragment of each tree analyzed at
    most once. Evaluation analyzes every fragment of the original; the
    verifier analyzes only the rewrite's fragments it compares: the root,
    and the right side of each changed pair it summarizes."""
    scanned = []
    real_scan = sqltext.scan

    def counting_scan(sql):
        scanned.append(sql)
        return real_scan(sql)

    monkeypatch.setattr(sqltext, "scan", counting_scan)
    monkeypatch.setattr(fragmenter, "scan", counting_scan)
    suggestions = evaluate(nested_query, seeded_store, playbook_llm)
    result = rewrite(nested_query, suggestions, seeded_store, playbook_llm, k=5)
    verdict = check_equivalence(result.original, result.rewritten, playbook_llm)
    assert result.cases_consulted  # retrieval templatized the query
    assert verdict.verdict == EQUIVALENT
    assert scanned == [nested_query, result.rewritten]
    assert len(set(analyzed)) == len(analyzed)
    original, rewritten = decompose(nested_query), decompose(result.rewritten)
    assert {fid for text, fid in analyzed if text == nested_query} \
        == {f.id for f in original.fragments}
    read = {rewritten.root_id} | {
        fb for _, fb in _changed_pairs(original, rewritten)}
    assert {fid for text, fid in analyzed if text == result.rewritten} \
        == read == {rewritten.root_id}
    assert len(rewritten.fragments) == 6


def test_trees_are_freed_by_reference_counting(nested_query, seeded_store,
                                              playbook_llm):
    """Nothing a tree holds refers back to it: with the cycle collector
    off, clearing the parse memo frees both trees of a rewrite and its
    check, facts and local texts read."""
    gc.collect()
    gc.disable()
    try:
        suggestions = evaluate(nested_query, seeded_store, playbook_llm)
        result = rewrite(nested_query, suggestions, seeded_store,
                         playbook_llm, k=5)
        check_equivalence(result.original, result.rewritten, playbook_llm)
        original, rewritten = decompose(nested_query), \
            decompose(result.rewritten)
        analyze_tree(original)
        fragment_facts(rewritten, 1)
        for tree in (original, rewritten):
            tree.local_text(tree.root_id)
        refs = [weakref.ref(original), weakref.ref(rewritten)]
        del original, rewritten, tree
        decompose_lenient.cache_clear()
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_nested_query_rewrite_consults_tagged_cases(nested_query, seeded_store,
                                                playbook_llm):
    suggestions = evaluate(nested_query, seeded_store, playbook_llm)
    result = rewrite(nested_query, suggestions, seeded_store, playbook_llm, k=5)
    consulted = set(result.cases_consulted)
    assert consulted == {"case-inner-join-filter", "case-single-scan-merge"}


def test_union_query_rewrite_matches_golden(union_query, union_rewrite,
                                         seeded_store, playbook_llm):
    suggestions = evaluate(union_query, seeded_store, playbook_llm)
    by_fragment = {s.fragment_id: s for s in suggestions}
    assert by_fragment[1].rule_index == "UNION_ALL_UNPROJECTED"
    result = rewrite(union_query, suggestions, seeded_store, playbook_llm, k=5)
    assert result.rewritten == union_rewrite.strip("\n")
    assert result.rewritten.startswith("WITH combined_data AS")


def test_all_efficient_is_identity(nested_query, embedder):
    store = _empty_store(embedder)
    llm = ScriptedLLM([], strict=False)
    suggestions = evaluate(nested_query, store, llm)
    calls_after_evaluate = llm.call_count
    result = rewrite(nested_query, suggestions, store, llm)
    assert result.rewritten == nested_query
    assert result.suggestions_applied == ()
    assert result.cases_consulted == ()
    assert llm.call_count == calls_after_evaluate  # no rewrite call


@pytest.mark.parametrize("sql", [
    "SELECT 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a, b FROM t GROUP BY a, b",
])
def test_no_op_safety_on_simple_inputs(sql, embedder):
    store = _empty_store(embedder)
    llm = ScriptedLLM([], strict=False)
    suggestions = evaluate(sql, store, llm)
    assert rewrite(sql, suggestions, store, llm).rewritten == sql


def test_determinism_under_scripted_provider(nested_query, seeded_store, embedder,
                                             fixtures_dir):
    def run():
        llm = ScriptedLLM.from_path(fixtures_dir / "playbook.jsonl")
        suggestions = evaluate(nested_query, seeded_store, llm)
        return rewrite(nested_query, suggestions, seeded_store, llm, k=5)

    first, second = run(), run()
    assert first == second


def test_evaluate_propagates_unparseable_query(embedder, seeded_store):
    from sqlgov.errors import UnparseableQueryError
    llm = ScriptedLLM([], strict=False)
    with pytest.raises(UnparseableQueryError):
        evaluate("SELECT a FROM (SELECT b FROM t WHERE x = 'open",
                 seeded_store, llm)


def test_unparseable_rewrite_response_rejected(embedder):
    sql = "SELECT a FROM t"
    store = _empty_store(embedder)
    suggestion = RewriteSuggestion(fragment_id=1, rule_index=None,
                                   action="do something", rationale="why",
                                   scenario=EXPLORATORY)
    env = rewrite_prompt(sql, [suggestion], [])
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": "this is not ((( sql"}])
    with pytest.raises(RejectedResponseError):
        rewrite(sql, [suggestion], store, llm)


def _rewrite_answering(text, embedder):
    """``rewrite`` of a one-fragment query whose provider answers ``text``."""
    sql = "SELECT a FROM t"
    suggestion = RewriteSuggestion(fragment_id=1, rule_index=None,
                                   action="do something", rationale="why",
                                   scenario=EXPLORATORY)
    env = rewrite_prompt(sql, [suggestion], [])
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": text}])
    return rewrite(sql, [suggestion], _empty_store(embedder), llm)


@pytest.mark.parametrize("text, is_select", [
    ("-- merged scans\nSELECT a FROM t", True),
    ("/* c */ SELECT a FROM t", True),
    ("(SELECT a FROM t) UNION (SELECT a FROM u)", True),
    ("SELECTX a FROM t", False),
    ("WITHIN a", False),
    ("-- no statement", False),
])
def test_statement_check_reads_tokens(text, is_select, embedder):
    """The rewrite answer's statement check and the verifier's agree: after
    comments and opening parentheses the first token is SELECT or WITH, and
    an answer without tokens is a rejected answer."""
    from sqlgov.equivalence import parse_select
    from sqlgov.errors import UnsupportedStatementError
    if is_select:
        _rewrite_answering(text, embedder)
        parse_select(text)
    else:
        with pytest.raises(RejectedResponseError):
            _rewrite_answering(text, embedder)
        with pytest.raises(UnsupportedStatementError):
            parse_select(text)
