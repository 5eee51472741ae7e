from __future__ import annotations

import itertools
import json

import pytest

from sqlgov.analysis import analyze_tree
from sqlgov.equivalence import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNDECIDED,
    FieldProvenance,
    IntentSummary,
    check_equivalence,
    extract_intent,
    parse_select,
    prefilter,
    _skeleton_mismatch,
)
from sqlgov.errors import RejectedResponseError, UnsupportedStatementError
from sqlgov.providers import ScriptedLLM, SimulatedExecutor
from sqlgov.sqltext import templatize


def _summary(*fields):
    return IntentSummary(
        fields=tuple(FieldProvenance(name, tuple(tables), "", ())
                     for name, tables in fields),
        narrative="")


# --- prefilter ---------------------------------------------------------------

def test_prefilter_rejects_arity_mismatch():
    verdict = prefilter(_summary(("a", ["t"]), ("b", ["t"])),
                        _summary(("a", ["t"])))
    assert verdict is not None
    assert verdict.verdict == NOT_EQUIVALENT
    assert verdict.confidence == 1.0
    assert "arity" in verdict.reason


def test_prefilter_rejects_table_mismatch():
    verdict = prefilter(_summary(("a", ["t1", "t2"])),
                        _summary(("a", ["t1", "t3"])))
    assert verdict is not None and verdict.verdict == NOT_EQUIVALENT


def test_prefilter_passes_identical_summaries():
    summary = _summary(("a", ["t1"]), ("b", ["t2"]))
    assert prefilter(summary, summary) is None


# --- check_equivalence: short circuits, zero provider calls ---------------------

def test_reflexivity_short_circuit_makes_no_provider_calls(nested_query):
    llm = ScriptedLLM([], strict=True)
    verdict = check_equivalence(nested_query, nested_query, llm)
    assert verdict.verdict == EQUIVALENT
    assert verdict.confidence == 1.0
    assert llm.call_count == 0


def test_reflexivity_ignores_whitespace_and_comments():
    llm = ScriptedLLM([], strict=True)
    verdict = check_equivalence("SELECT a FROM t WHERE x=1",
                                "select a  from t -- note\nwhere x = 1", llm)
    assert verdict.verdict == EQUIVALENT
    assert llm.call_count == 0


def test_arity_mismatch_rejected_without_provider_calls():
    llm = ScriptedLLM([], strict=True)
    verdict = check_equivalence("SELECT a FROM t", "SELECT a, b FROM t", llm)
    assert verdict.verdict == NOT_EQUIVALENT
    assert llm.call_count == 0


def test_table_mismatch_rejected_without_provider_calls():
    llm = ScriptedLLM([], strict=True)
    verdict = check_equivalence("SELECT a FROM t1 WHERE x = 1",
                                "SELECT a FROM t2 WHERE x = 1", llm)
    assert verdict.verdict == NOT_EQUIVALENT
    assert llm.call_count == 0


def test_unsupported_statement():
    llm = ScriptedLLM([], strict=True)
    with pytest.raises(UnsupportedStatementError):
        check_equivalence("INSERT INTO t VALUES (1)", "SELECT 1", llm)
    with pytest.raises(UnsupportedStatementError):
        extract_intent(parse_select("UPDATE t SET a = 1"), llm)
    # a leading token that is no word is named as written
    with pytest.raises(UnsupportedStatementError, match="\"'abc'\"$"):
        parse_select("'abc' FROM t")


# --- the structural pre-filter on the root's facts -------------------------------

def test_skeleton_resolves_cte_names_to_base_tables(nested_rewrite):
    tree = parse_select(nested_rewrite)
    root = analyze_tree(tree)[tree.root_id]
    assert set(root.table_counts_subtree) == {"tb0", "tb1", "tb2", "tb3", "tb4"}
    assert root.select_items == 3 and not root.select_has_star
    assert _skeleton_mismatch(tree, parse_select(
        "SELECT a, b, c FROM tb0, tb1, tb2, tb3, tb4")) is None


def test_skeleton_arity_none_for_star():
    star = parse_select("SELECT * FROM t")
    assert analyze_tree(star)[star.root_id].select_has_star
    assert _skeleton_mismatch(star, parse_select("SELECT a, b FROM t")) is None
    assert _skeleton_mismatch(parse_select("SELECT a FROM t"),
                              parse_select("SELECT a, b FROM t")) \
        == "output arity differs: 1 vs 2"


def test_rewrite_pair_passes_skeleton_prefilter(nested_query, nested_rewrite):
    assert _skeleton_mismatch(parse_select(nested_query),
                              parse_select(nested_rewrite)) is None


# --- full pipeline on the golden rewrite pair -------------------------------------

def test_nested_query_intent_summary_structure(nested_query, playbook_llm):
    summary = extract_intent(parse_select(nested_query), playbook_llm)
    assert len(summary.fields) == 3
    assert "tb0" in summary.fields[0].source_tables
    assert "scalar subquery" in summary.fields[1].transformation
    assert "scalar subquery" in summary.fields[2].transformation
    union = summary.all_source_tables()
    assert union == {"tb0", "tb1", "tb2", "tb3", "tb4"}


def test_intent_summary_arity_guard():
    from sqlgov.errors import RejectedResponseError
    from sqlgov.prompts import intent_extract_prompt
    from sqlgov.fragmenter import decompose

    sql = "SELECT a, b FROM t"
    tree = decompose(sql)
    env = intent_extract_prompt(tree, tree.root, [])
    llm = ScriptedLLM([{"template_id": env.template_id, "digest": env.digest,
                        "response": json.dumps({
                            "fields": [{"output_name": "a",
                                        "source_tables": ["t"]}],
                            "narrative": "only one field"})}])
    with pytest.raises(RejectedResponseError):
        extract_intent(parse_select(sql), llm)


def test_check_equivalence_scans_each_side_once(
        nested_query, nested_rewrite, playbook_llm, monkeypatch):
    from sqlgov import fragmenter, sqltext

    scanned = []
    real_scan = sqltext.scan

    def counting_scan(sql):
        scanned.append(sql)
        return real_scan(sql)

    monkeypatch.setattr(sqltext, "scan", counting_scan)
    monkeypatch.setattr(fragmenter, "scan", counting_scan)
    verdict = check_equivalence(nested_query, nested_rewrite, playbook_llm)
    assert verdict.verdict == EQUIVALENT
    assert playbook_llm.calls["INTENT_EXTRACT"] > 0  # the full path ran
    assert scanned == [nested_query, nested_rewrite]


def test_nested_pair_equivalent(nested_query, nested_rewrite, playbook_llm):
    verdict = check_equivalence(nested_query, nested_rewrite, playbook_llm)
    assert verdict.verdict == EQUIVALENT
    assert verdict.confidence == pytest.approx(0.9)
    assert verdict.field_mapping == ((0, 0), (1, 1), (2, 2))


# --- alignment verdict handling ---------------------------------------------------

class _TableProvider:
    """Symmetric scripted provider: intent responses keyed by fragment text,
    one fixed alignment response regardless of direction."""

    def __init__(self, intents: dict[str, dict], alignment: dict):
        self.intents = intents
        self.alignment = alignment
        self.calls = 0

    def complete(self, env):
        self.calls += 1
        if env.template_id == "INTENT_EXTRACT":
            body = (env.section("Fragment") or "").split("\n", 1)[1].strip()
            return json.dumps(self.intents[body])
        if env.template_id == "ALIGNMENT":
            return json.dumps(self.alignment)
        raise AssertionError(env.template_id)


def _simple_intents():
    return {
        "SELECT a FROM t": {
            "fields": [{"output_name": "a", "source_tables": ["t"],
                        "transformation": "", "conditions": []}],
            "narrative": "a from t"},
        "SELECT a + 0 FROM t": {
            "fields": [{"output_name": "a + 0", "source_tables": ["t"],
                        "transformation": "identity arithmetic",
                        "conditions": []}],
            "narrative": "a plus zero from t"},
    }


def _alignment(equivalent=True, confidence=0.9, counterexample=None):
    return {"mappings": [{"left": 0, "right": 0, "equivalent": equivalent,
                          "confidence": confidence,
                          "counterexample": counterexample}]}


def test_verdict_symmetry_under_symmetric_provider():
    a, b = "SELECT a FROM t", "SELECT a + 0 FROM t"
    provider = _TableProvider(_simple_intents(), _alignment())
    forward = check_equivalence(a, b, provider)
    backward = check_equivalence(b, a, provider)
    assert forward.verdict == backward.verdict == EQUIVALENT


def test_low_confidence_is_undecided():
    a, b = "SELECT a FROM t", "SELECT a + 0 FROM t"
    provider = _TableProvider(_simple_intents(), _alignment(confidence=0.5))
    verdict = check_equivalence(a, b, provider)
    assert verdict.verdict == UNDECIDED


def test_counterexample_makes_not_equivalent():
    a, b = "SELECT a FROM t", "SELECT a + 0 FROM t"
    provider = _TableProvider(
        _simple_intents(),
        _alignment(equivalent=False, confidence=0.95,
                   counterexample="a NULL row maps differently"))
    verdict = check_equivalence(a, b, provider)
    assert verdict.verdict == NOT_EQUIVALENT
    assert verdict.counterexample == "a NULL row maps differently"


def test_non_equivalent_without_counterexample_is_undecided():
    a, b = "SELECT a FROM t", "SELECT a + 0 FROM t"
    provider = _TableProvider(_simple_intents(),
                              _alignment(equivalent=False, confidence=0.95))
    assert check_equivalence(a, b, provider).verdict == UNDECIDED


def test_incomplete_mapping_is_undecided():
    a, b = "SELECT a FROM t", "SELECT a + 0 FROM t"
    provider = _TableProvider(_simple_intents(), {"mappings": []})
    assert check_equivalence(a, b, provider).verdict == UNDECIDED


def _malformed_alignment_playbook(tmp_path, alignment) -> str:
    """Playbook for the pair (SELECT a FROM t, SELECT a + 0 FROM t) whose
    alignment answer is ``alignment``."""
    from sqlgov.fragmenter import decompose
    from sqlgov.prompts import alignment_prompt, intent_extract_prompt
    from sqlgov.providers import save_playbook

    entries = []
    for sql, intent in _simple_intents().items():
        tree = decompose(sql)
        env = intent_extract_prompt(tree, tree.root, [])
        entries.append({"template_id": env.template_id, "digest": env.digest,
                        "response": json.dumps(intent)})
    llm = ScriptedLLM(entries)
    left, right = (extract_intent(parse_select(sql), llm).render()
                   for sql in _simple_intents())
    env = alignment_prompt(left, right)
    entries.append({"template_id": env.template_id, "digest": env.digest,
                    "response": json.dumps(alignment)})
    playbook = tmp_path / "playbook.jsonl"
    save_playbook(entries, playbook)
    return str(playbook)


@pytest.mark.parametrize("alignment", [
    {"mappings": {"0": 0}},
    {"mappings": [{"left": 0, "right": 0, "equivalent": True,
                   "confidence": "high"}]},
    {"mappings": [{"right": 0, "equivalent": True, "confidence": 0.9}]},
    {"mappings": [{"left": 0, "right": 0, "equivalent": "no",
                   "confidence": 0.9}]},
    {"mappings": [{"left": True, "right": 0, "equivalent": True,
                   "confidence": 0.9}]},
    {"mappings": [{"left": 0, "right": 0, "equivalent": True,
                   "confidence": True}]},
    {"mappings": [{"left": 0, "right": 0, "equivalent": True,
                   "confidence": float("nan")}]},
], ids=["mappings-not-a-list", "confidence-not-numeric", "position-missing",
        "equivalent-a-string", "position-a-bool", "confidence-a-bool",
        "confidence-not-finite"])
def test_malformed_alignment_is_an_operational_error(capsys, tmp_path,
                                                     alignment):
    from sqlgov.cli import main

    left, right = tmp_path / "left.sql", tmp_path / "right.sql"
    left.write_text("SELECT a FROM t")
    right.write_text("SELECT a + 0 FROM t")
    code = main(["verify", "--left", str(left), "--right", str(right),
                 "--playbook", _malformed_alignment_playbook(tmp_path,
                                                             alignment)])
    assert code == 2
    assert "error[REJECTED_RESPONSE]" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    {"output_name": "a", "source_tables": "t", "conditions": []},
    {"output_name": "a", "source_tables": ["t"], "conditions": "a > 0"},
    {"output_name": "a", "source_tables": [1], "conditions": []},
], ids=["tables-a-string", "conditions-a-string", "table-a-number"])
def test_malformed_intent_is_rejected(field):
    intents = _simple_intents()
    intents["SELECT a FROM t"]["fields"] = [field]
    provider = _TableProvider(intents, _alignment())
    with pytest.raises(RejectedResponseError, match="source_tables"):
        check_equivalence("SELECT a FROM t", "SELECT a + 0 FROM t", provider)


# --- one intent answer per distinct envelope within a check --------------------

# The rewrite touches only the outer query: fragments 1 and 2 render the same
# intent envelope on both sides.
_OUTER_ONLY = (
    "SELECT o.x FROM (SELECT i.x FROM (SELECT x FROM t WHERE y > 1) i) o "
    "WHERE o.x > 0",
    "SELECT o.x FROM (SELECT i.x FROM (SELECT x FROM t WHERE y > 1) i) o "
    "WHERE o.x > 0 AND o.x < 9",
)


class _CountingProvider:
    """Answers every intent with one field and a narrative that names the
    call (or the same narrative every time, without ``named``), or with a
    malformed answer while ``broken``; records envelopes."""

    def __init__(self, broken=False, named=True):
        self.broken = broken
        self.named = named
        self.envelopes = []

    def complete(self, env):
        self.envelopes.append(env)
        if env.template_id == "ALIGNMENT":
            return json.dumps(_alignment())
        if self.broken:
            return json.dumps({"fields": "x", "narrative": ""})
        return json.dumps({
            "fields": [{"output_name": "x", "source_tables": ["t"],
                        "transformation": "", "conditions": []}],
            "narrative": f"call {len(self.envelopes)}" if self.named
            else "column x of t"})

    def intents(self):
        return [e for e in self.envelopes if e.template_id == "INTENT_EXTRACT"]


def _fragment_total(*queries):
    return sum(len(parse_select(q).fragments) for q in queries)


def test_each_distinct_intent_envelope_is_asked_once():
    provider = _CountingProvider()
    verdict = check_equivalence(*_OUTER_ONLY, provider)
    assert verdict.verdict == EQUIVALENT
    intents = provider.intents()
    assert len(intents) == len(set(intents)) == 4
    assert len(intents) < _fragment_total(*_OUTER_ONLY) == 6


def test_both_sides_see_one_summary_of_a_shared_fragment():
    provider = _CountingProvider()
    check_equivalence(*_OUTER_ONLY, provider)
    roots = [e for e in provider.intents()
             if e.section("Fragment").startswith("[fragment 3]")]
    assert len(roots) == 2
    left, right = (e.section("Child Summaries") for e in roots)
    assert "call 2" in left and left == right


def _chain(depth: int, literal: int) -> str:
    """``depth`` nested SELECTs over t; only the innermost holds ``literal``."""
    sql = f"SELECT x FROM t WHERE y > {literal}"
    for level in range(1, depth):
        sql = f"SELECT x FROM ({sql}) AS s{level}"
    return sql


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_a_pair_that_differs_in_one_leaf_asks_one_more_intent(depth):
    """Each side has N = depth fragments and only the leaf's text differs.
    From depth 2 on, the outer fragments read alike on both sides, so only
    the leaf pair is summarized and aligned: one intent call per side, 2 in
    all, whatever N. At depth 1 the leaf is the outermost query, and the
    whole-pair check asks the same 2. Without the scoped check every
    unchanged ancestor is still summarized once: N + 1 calls."""
    left, right = _chain(depth, 1), _chain(depth, 2)
    provider = _CountingProvider(named=False)
    verdict = check_equivalence(left, right, provider)
    assert verdict.verdict == EQUIVALENT
    assert verdict.field_mapping == ((0, 0),)
    intents = provider.intents()
    assert len(intents) == len(set(intents)) == 2
    assert _fragment_total(left) == depth
    if depth > 1:
        assert verdict.reason.startswith("only fragment pairs 1/1 differ")


class _AlignmentsProvider(_CountingProvider):
    """A ``_CountingProvider`` whose alignment answers come from a list, in
    order."""

    def __init__(self, alignments, **kwargs):
        super().__init__(**kwargs)
        self.alignments = list(alignments)

    def complete(self, env):
        if env.template_id != "ALIGNMENT":
            return super().complete(env)
        self.envelopes.append(env)
        return json.dumps(self.alignments.pop(0))

    def aligned(self):
        return [e for e in self.envelopes if e.template_id == "ALIGNMENT"]


@pytest.mark.parametrize("local", [
    _alignment(equivalent=False, counterexample="y = 2 passes one side"),
    _alignment(confidence=0.5),
], ids=["not-equivalent", "undecided"])
def test_a_scoped_check_that_falls_back_asks_no_intent_twice(local):
    """The leaf pair, checked alone, is not shown equivalent, so the whole
    pair is checked next. Its walks find the leaf summaries already made:
    each of the N + 1 distinct envelopes is asked once over both stages."""
    depth = 3
    provider = _AlignmentsProvider([local, _alignment()], named=False)
    verdict = check_equivalence(_chain(depth, 1), _chain(depth, 2), provider)
    assert verdict.verdict == EQUIVALENT and verdict.reason is None
    intents = provider.intents()
    assert len(intents) == len(set(intents)) == depth + 1
    assert len(provider.aligned()) == 2 and not provider.alignments


class _EchoProvider:
    """Intent answers from a table of fragment local texts to output names,
    each narrative the text itself; alignments map each left field to the
    right one at its position, equivalent unless the left narrative is in
    ``differs``. Records envelopes."""

    def __init__(self, outputs: dict[str, list[str]], differs=()):
        self.outputs = outputs
        self.differs = set(differs)
        self.envelopes = []

    def complete(self, env):
        self.envelopes.append(env)
        if env.template_id == "INTENT_EXTRACT":
            body = env.section("Fragment").split("\n", 1)[1]
            return json.dumps({"fields": [
                {"output_name": name, "source_tables": ["t"],
                 "transformation": "", "conditions": []}
                for name in self.outputs[body]], "narrative": body})
        left = json.loads(env.section("Left Intent"))
        differs = left["narrative"] in self.differs
        return json.dumps({"mappings": [
            {"left": i, "right": i, "equivalent": not differs,
             "confidence": 0.9,
             "counterexample": "x = 6" if differs else None}
            for i in range(len(left["fields"]))]})

    def aligned(self):
        return [json.loads(e.section("Left Intent"))["narrative"]
                for e in self.envelopes if e.template_id == "ALIGNMENT"]


def test_an_outer_query_that_hides_a_local_difference_reaches_the_whole_pair():
    """The inner filters differ on x = 6 and x = 7, rows the outer filter
    removes on both sides. The provider calls the inner pair not equivalent;
    that is no verdict on the pair, which the whole-pair alignment decides."""
    left = "SELECT x FROM (SELECT x FROM t WHERE x > 5) s WHERE x > 10"
    right = "SELECT x FROM (SELECT x FROM t WHERE x > 7) s WHERE x > 10"
    outer = "SELECT x FROM ([fragment 1]) s WHERE x > 10"
    provider = _EchoProvider(
        {"SELECT x FROM t WHERE x > 5": ["x"],
         "SELECT x FROM t WHERE x > 7": ["x"], outer: ["x"]},
        differs={"SELECT x FROM t WHERE x > 5"})
    verdict = check_equivalence(left, right, provider)
    assert provider.aligned() == ["SELECT x FROM t WHERE x > 5", outer]
    assert verdict.verdict == EQUIVALENT and verdict.reason is None
    intents = [e for e in provider.envelopes
               if e.template_id == "INTENT_EXTRACT"]
    assert len(intents) == len(set(intents)) == 4


def test_a_changed_pair_that_renames_its_outputs_is_not_checked_alone():
    """The outer query reads the derived table's column by name, so a
    rewrite that renames it is checked as a whole pair, with no scoped
    alignment first."""
    left = "SELECT s.v FROM (SELECT x AS v FROM t WHERE x > 1) s"
    right = "SELECT s.v FROM (SELECT x AS w FROM t WHERE x > 1) s"
    outer = "SELECT s.v FROM ([fragment 1]) s"
    provider = _EchoProvider({"SELECT x AS v FROM t WHERE x > 1": ["v"],
                              "SELECT x AS w FROM t WHERE x > 1": ["w"],
                              outer: ["v"]})
    verdict = check_equivalence(left, right, provider)
    assert provider.aligned() == [outer]
    assert verdict.reason is None


def test_a_changed_scalar_subquery_in_a_changed_projection_stays_scoped(
        analyzed):
    """The derived table changes its filter and the scalar subquery in its
    select list. That child shows in the projection as its parentheses, so
    both sides name their outputs alike: the pair is aligned on its own,
    with no whole-pair alignment and fewer intent calls than the fragments
    of the whole pair. Only the fragments compared are analyzed: both
    roots, for the short-circuits, and the changed pair; the scalar
    subquery is summarized but not analyzed, on either side."""
    left, right = (
        f"SELECT s.v FROM (SELECT x AS v, (SELECT MAX(y) FROM u WHERE y > {k})"
        f" AS m FROM t WHERE x > {k}) s" for k in (1, 2))
    middle = "SELECT x AS v, ([fragment 1]) AS m FROM t WHERE x > {}"
    provider = _EchoProvider({
        "SELECT MAX(y) FROM u WHERE y > 1": ["max_y"],
        "SELECT MAX(y) FROM u WHERE y > 2": ["max_y"],
        middle.format(1): ["v", "m"], middle.format(2): ["v", "m"],
        "SELECT s.v FROM ([fragment 2]) s": ["v"]})
    verdict = check_equivalence(left, right, provider)
    assert provider.aligned() == [middle.format(1)]
    assert verdict.verdict == EQUIVALENT and verdict.field_mapping == ((0, 0),)
    assert verdict.reason.startswith("only fragment pairs 2/2 differ")
    intents = [e for e in provider.envelopes
               if e.template_id == "INTENT_EXTRACT"]
    assert len(intents) == 4 < _fragment_total(left, right) == 6
    assert sorted(analyzed) == [(left, 2), (left, 3), (right, 2), (right, 3)]


@pytest.mark.parametrize("left,right,outputs", [
    ("SELECT [fragment 1], (SELECT 2 AS v) FROM t",
     "SELECT (SELECT 2 AS v), [fragment 1] FROM t",
     {"SELECT 2 AS v": ["v"],
      "SELECT [fragment 1], ([fragment 1]) FROM t": ["f", "v"],
      "SELECT ([fragment 1]), [fragment 1] FROM t": ["v", "f"]}),
    # joined with placeholders, both outer texts read alike
    ("SELECT ([fragment 1]), (SELECT a AS v FROM t WHERE 1 = 1) FROM t",
     "SELECT (SELECT a AS v FROM t), ([fragment 1]) FROM t",
     {"SELECT a AS v FROM t WHERE 1 = 1": ["v"], "SELECT a AS v FROM t": ["v"],
      "SELECT ([fragment 1]), ([fragment 1]) FROM t": ["f", "v"]}),
], ids=["swapped-items", "same-placeholder-text"])
def test_a_literal_fragment_placeholder_does_not_hide_a_changed_outer_query(
        left, right, outputs):
    """``[fragment 1]`` spelled in the SQL is no child: the outer texts
    differ, so the pair is aligned as a whole, never through a scoped
    check of the inner pair."""
    provider = _EchoProvider(outputs)
    verdict = check_equivalence(left, right, provider)
    tree = parse_select(left)
    assert provider.aligned() == [tree.local_text(tree.root_id)]
    assert verdict.reason is None


def test_a_rejected_intent_is_not_kept_between_checks():
    with pytest.raises(RejectedResponseError, match="fields"):
        check_equivalence(*_OUTER_ONLY, _CountingProvider(broken=True))
    provider = _CountingProvider()
    for expected in (4, 8):
        assert check_equivalence(*_OUTER_ONLY, provider).verdict == EQUIVALENT
        assert len(provider.intents()) == expected


# --- pre-filter soundness against the executor oracle ------------------------------

_CORPUS = {
    "qA": ("SELECT a FROM t1", "rows:[1, 2]"),
    "qB": ("SELECT b, a FROM t1", "rows:[(x, 1), (y, 2)]"),
    "qC": ("SELECT a FROM t2 WHERE a > 0", "rows:[3]"),
    "qD": ("SELECT a FROM t1 WHERE a >= 1", "rows:[1, 2]"),
    "qE": ("SELECT a, b FROM t1 GROUP BY a, b", "rows:[(1, x), (2, y)]"),
}


def _corpus_executor():
    fixtures = {
        templatize(sql): {"status": "OK", "elapsed": 1.0, "rows": digest}
        for sql, digest in _CORPUS.values()
    }
    assert len(fixtures) == len(_CORPUS), "corpus templates must be distinct"
    return SimulatedExecutor(fixtures)


def test_prefilter_rejections_agree_with_executor_oracle():
    executor = _corpus_executor()
    rejected_pairs = 0
    for (na, (qa, _)), (nb, (qb, _)) in itertools.combinations(
            _CORPUS.items(), 2):
        mismatch = _skeleton_mismatch(parse_select(qa), parse_select(qb))
        if mismatch is None:
            continue
        rejected_pairs += 1
        result_a = executor.execute(qa).rows
        result_b = executor.execute(qb).rows
        assert result_a != result_b, (na, nb)
    assert rejected_pairs >= 6  # the corpus really exercises the filter


def test_a_changed_pair_projecting_a_star_is_not_checked_alone():
    """A star leaves the derived table's column names to its sources, so
    equal select lists do not show that they agree."""
    left = "SELECT s.x FROM (SELECT * FROM t WHERE x > 1) s"
    right = "SELECT s.x FROM (SELECT * FROM t WHERE x > 2) s"
    outer = "SELECT s.x FROM ([fragment 1]) s"
    provider = _EchoProvider({"SELECT * FROM t WHERE x > 1": ["x"],
                              "SELECT * FROM t WHERE x > 2": ["x"],
                              outer: ["x"]})
    verdict = check_equivalence(left, right, provider)
    assert provider.aligned() == [outer]
    assert verdict.verdict == EQUIVALENT and verdict.reason is None
