#!/usr/bin/env python3
"""Regenerate the scripted playbook and benchmark fixtures under tests/fixtures.

Runs the real pipelines (rewrite, verify, fix-syntax) with an authoring
provider that answers each prompt from the response tables below and records
every (template_id, digest, response) triple. Rerun after any prompt-template
change, then commit the updated fixtures.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from sqlgov import corrector as corrector_mod
from sqlgov import equivalence as eq_mod
from sqlgov import rewriter as rewriter_mod
from sqlgov.fragmenter import decompose_lenient
from sqlgov.knowledge_base import KnowledgeStore
from sqlgov.providers import HashingEmbedding, save_playbook, write_jsonl
from sqlgov.seeds import seed_snapshot
from sqlgov.sqltext import templatize

NESTED_QUERY = (FIXTURES / "nested_query.sql").read_text()
NESTED_REWRITE = (FIXTURES / "nested_rewrite_golden.sql").read_text()
UNION_QUERY = (FIXTURES / "union_star_query.sql").read_text()
UNION_REWRITE = (FIXTURES / "union_star_rewrite_golden.sql").read_text()

BROKEN_SQL = "SELECT x, (SELECT a b FROM t2 WHERE k = 1) FROM t1\n"
BROKEN_LOG = ("ParseException: syntax error, missing comma between select "
              "list items near 'b' at line 1, column 20\n")
BROKEN_FIXED_FRAGMENT = "SELECT a, b FROM t2 WHERE k = 1"

# --- authored responses ------------------------------------------------------

SCENARIO1_RESPONSES = {
    "SAME_TABLE_JOIN": json.dumps({"applicable": [{
        "rule": "SAME_TABLE_JOIN",
        "action": ("Merge the two scans of tb0 into a single scan inside a "
                   "CTE: scan ds between '1014' and '1016' once, then derive "
                   "both counts with conditional aggregation (MIN of the "
                   "grouped counts for the range, SUM of a CASE flag for "
                   "ds = '1016')."),
        "rationale": ("Both derived tables read tb0 with adjacent ds "
                      "predicates; one pass halves the I/O."),
    }]}),
    "OUTER_JOIN_NULL_FILTER": json.dumps({"applicable": [{
        "rule": "OUTER_JOIN_NULL_FILTER",
        "action": ("Replace the LEFT JOIN of tb2 with an INNER JOIN and drop "
                   "the tb2.ds IS NOT NULL filter, which the inner join "
                   "makes redundant."),
        "rationale": ("The IS NOT NULL predicate discards exactly the rows "
                      "the outer join padded, so the combination is an "
                      "inner join."),
    }]}),
    "UNION_ALL_UNPROJECTED": json.dumps({"applicable": [{
        "rule": "UNION_ALL_UNPROJECTED",
        "action": ("Define the UNION ALL result as a WITH-clause temporary "
                   "table and project only the columns later steps use "
                   "(taskid, instanceid, scriptid, modifytime) instead "
                   "of *."),
        "rationale": ("Narrower rows flow through the union and the window "
                      "step, cutting data movement."),
    }]}),
}


def _field(name, tables, transformation, conditions):
    return {"output_name": name, "source_tables": tables,
            "transformation": transformation, "conditions": conditions}


def _summary(fields, narrative):
    return json.dumps({"fields": fields, "narrative": narrative})


# Intent summaries keyed by the fragment's stripped text; shared fragments
# between the original and the rewrite automatically share entries.
INTENT_SUMMARIES: dict[str, str] = {}


def _register_intents(source: str, summaries: dict[int, str]) -> None:
    tree, _ = decompose_lenient(source)
    for fragment in tree.fragments:
        INTENT_SUMMARIES[fragment.text.strip()] = summaries[fragment.id]


def build_intent_tables() -> None:
    _register_intents(NESTED_QUERY, {
        1: _summary([
            _field("c", ["tb0"], "COUNT(*) per ds group",
                   ["ds >= '1014' AND ds < '1016'"]),
            _field("ds", ["tb0"], "group key", ["ds >= '1014' AND ds < '1016'"]),
        ], "Per-day row counts of tb0 over the ds range ['1014', '1016')."),
        2: _summary([
            _field("c1", ["tb0"], "MIN over per-ds COUNT(*) groups",
                   ["ds >= '1014' AND ds < '1016'"]),
        ], "Smallest per-day row count of tb0 within the range."),
        3: _summary([
            _field("c2", ["tb0"], "COUNT(*)", ["ds = '1016'"]),
        ], "Row count of tb0 at ds = '1016'."),
        4: _summary([
            _field("dcrs", ["tb0"],
                   "IFNULL(min per-day count over ['1014','1016') / count at "
                   "'1016', 100)",
                   ["ds >= '1014' AND ds < '1016'", "ds = '1016'"]),
        ], "Ratio of the smallest daily tb0 volume in the range to the "
           "'1016' volume, defaulting to 100."),
        5: _summary([
            _field("tb3.c1 - tb3.c2", ["tb3", "tb1"],
                   "scalar subquery: difference c1 - c2",
                   ["tb3.ds = tb1.ds"]),
        ], "Per-row difference of tb3.c1 and tb3.c2 matched on ds."),
        6: _summary([
            _field("AVG(tb4.c3)", ["tb4", "tb1"],
                   "scalar subquery: AVG(c3) over filtered rows",
                   ["tb4.ds = tb1.ds", "tb4.c3 > 100"]),
        ], "Average of tb4.c3 above 100, matched on ds."),
        7: _summary([
            _field("tb0.c0", ["tb0", "tb1", "tb2"], "projection",
                   ["join tb1.ds = tb2.ds", "tb1.dcrs <= dcrs ratio bound"]),
            _field("tb3.c1 - tb3.c2", ["tb3", "tb1"],
                   "scalar subquery: difference c1 - c2",
                   ["tb3.ds = tb1.ds"]),
            _field("AVG(tb4.c3)", ["tb4", "tb1"],
                   "scalar subquery: AVG(c3) over filtered rows",
                   ["tb4.ds = tb1.ds", "tb4.c3 > 100"]),
        ], "Rows of tb1 joined to tb2 on ds (non-null ds both sides), kept "
           "while tb1.dcrs stays under the tb0 volume ratio; projects c0 "
           "plus two correlated scalars."),
    })
    _register_intents(NESTED_REWRITE, {
        1: _summary([
            _field("dcrs", ["tb0"],
                   "IFNULL(min per-day count over ['1014','1016') / count at "
                   "'1016', 100)",
                   ["ds >= '1014' AND ds < '1016'", "ds = '1016'"]),
        ], "Ratio of the smallest daily tb0 volume in the range to the "
           "'1016' volume, defaulting to 100, from the staged cte."),
        2: _summary([
            _field("tb3.c1 - tb3.c2", ["tb3", "tb1"],
                   "scalar subquery: difference c1 - c2",
                   ["tb3.ds = tb1.ds"]),
        ], "Per-row difference of tb3.c1 and tb3.c2 matched on ds."),
        3: _summary([
            _field("AVG(tb4.c3)", ["tb4", "tb1"],
                   "scalar subquery: AVG(c3) over filtered rows",
                   ["tb4.ds = tb1.ds", "tb4.c3 > 100"]),
        ], "Average of tb4.c3 above 100, matched on ds."),
        4: _summary([
            _field("ds", ["tb0"], "group key",
                   ["ds >= '1014' AND ds <= '1016'"]),
            _field("cnt", ["tb0"], "COUNT(*) per ds group",
                   ["ds >= '1014' AND ds <= '1016'"]),
        ], "Per-day row counts of tb0 over the widened range "
           "['1014', '1016']."),
        5: _summary([
            _field("dcrs", ["tb0"],
                   "IFNULL(min per-day count over ['1014','1016') / count at "
                   "'1016', 100)",
                   ["ds >= '1014' AND ds < '1016'", "ds = '1016'"]),
        ], "Single-scan form: conditional MIN over the range versus a "
           "conditional SUM counting ds = '1016' rows."),
        6: _summary([
            _field("tb0.c0", ["tb0", "tb1", "tb2"], "projection",
                   ["join tb1.ds = tb2.ds", "tb1.dcrs <= dcrs ratio bound"]),
            _field("tb3.c1 - tb3.c2", ["tb3", "tb1"],
                   "scalar subquery: difference c1 - c2",
                   ["tb3.ds = tb1.ds"]),
            _field("AVG(tb4.c3)", ["tb4", "tb1"],
                   "scalar subquery: AVG(c3) over filtered rows",
                   ["tb4.ds = tb1.ds", "tb4.c3 > 100"]),
        ], "Rows of tb1 inner-joined to tb2 on ds, kept while tb1.dcrs "
           "stays under the tb0 volume ratio; projects c0 plus two "
           "correlated scalars."),
    })
    union_tables = ["table0", "table1"]
    union_filter = ["ds > '0201'"]
    latest_avg = _summary([
        _field("AVG(duration)", union_tables,
               "AVG(duration) over the newest row per instanceid",
               union_filter + ["id = 1", "taskid IN (1, 12, 123)",
                               "scriptid = 666"]),
    ], "Average duration of the newest run per instance of tasks 1, 12 and "
       "123 under script 666, over table0 and table1 after '0201'.")
    numbered = [
        _field("*", union_tables, "every column of the union rows",
               union_filter),
        _field("id", union_tables,
               "ROW_NUMBER() per instanceid ordered by modifytime DESC",
               union_filter),
    ]
    _register_intents(UNION_QUERY, {
        1: _summary([
            _field("*", union_tables, "UNION ALL of every column",
                    union_filter),
        ], "All rows of table0 and table1 after '0201', concatenated."),
        2: _summary(numbered, "Union rows numbered per instanceid, newest "
                              "first."),
        3: latest_avg,
    })
    _register_intents(UNION_REWRITE, {
        1: _summary(numbered, "Rows of the combined_data CTE numbered per "
                              "instanceid, newest first."),
        2: _summary([
            _field(name, union_tables, "UNION ALL projection", union_filter)
            for name in ("taskid", "instanceid", "scriptid", "modifytime")
        ], "The four columns later steps use, from table0 and table1 rows "
           "after '0201', concatenated."),
        3: latest_avg,
    })


def _alignment(*confidences):
    return json.dumps({"mappings": [
        {"left": i, "right": i, "equivalent": True, "confidence": confidence,
         "counterexample": None}
        for i, confidence in enumerate(confidences)]})


# Alignment answers keyed by the number of output fields on the left.
ALIGNMENT_RESPONSES = {3: _alignment(0.95, 0.92, 0.9), 1: _alignment(0.9)}


class AuthoringLLM:
    """Answers prompts from the authored tables and records every exchange."""

    def __init__(self):
        self.entries: dict[tuple[str, str], str] = {}

    def complete(self, env):
        response = self._author(env)
        self.entries[(env.template_id, env.digest)] = response
        return response

    def _author(self, env) -> str:
        tid = env.template_id
        if tid == "SCENARIO_1":
            rules_section = env.section("Matched Rules") or ""
            for rule_index, response in SCENARIO1_RESPONSES.items():
                if f"- {rule_index}:" in rules_section:
                    return response
            raise KeyError(f"no authored SCENARIO_1 response:\n{rules_section}")
        if tid == "SCENARIO_2":
            return json.dumps({"efficient": True, "suggestions": []})
        if tid == "REWRITE":
            original = env.section("Original SQL") or ""
            if original.strip() == NESTED_QUERY.strip():
                return NESTED_REWRITE.strip("\n")
            if original.strip() == UNION_QUERY.strip():
                return UNION_REWRITE.strip("\n")
            raise KeyError("no authored REWRITE response for this query")
        if tid == "INTENT_EXTRACT":
            fragment_section = env.section("Fragment") or ""
            body = re.sub(r"^\[fragment \d+\]\n", "", fragment_section)
            key = body.strip()
            if key in INTENT_SUMMARIES:
                return INTENT_SUMMARIES[key]
            raise KeyError(f"no authored intent summary for:\n{key[:80]}")
        if tid == "ALIGNMENT":
            left = json.loads(env.section("Left Intent") or "{}")
            return ALIGNMENT_RESPONSES[len(left["fields"])]
        if tid == "CORRECT":
            return BROKEN_FIXED_FRAGMENT
        raise KeyError(f"unhandled template {tid}")


def run_flows(llm: AuthoringLLM) -> None:
    embedder = HashingEmbedding(768)
    store = KnowledgeStore(seed_snapshot(embedder), embedder)

    # rewrite flows; each also verifies the rewrite-output (stripped) form
    # of its golden
    report = rewriter_mod.optimize(NESTED_QUERY, store, llm, k=5, verify=True)
    assert report.output["verified"] == "EQUIVALENT", report
    report = rewriter_mod.optimize(UNION_QUERY, store, llm, k=5, verify=True)
    assert report.output["verified"] == "EQUIVALENT", report

    # verify flow on the golden file form
    verdict = eq_mod.check_equivalence(NESTED_QUERY, NESTED_REWRITE, llm)
    assert verdict.verdict == "EQUIVALENT", verdict

    # fix-syntax flow (localized splice)
    report = corrector_mod.repair(BROKEN_SQL, BROKEN_LOG, store, llm)
    assert report.output["scope"] == "LOCAL", report
    assert "SELECT a, b FROM t2" in report.output["corrected"], report


def write_bench_fixtures() -> None:
    fixtures = [
        {"template": templatize(NESTED_QUERY), "status": "OK", "elapsed": 100.0,
         "rows": 42},
        {"template": templatize(NESTED_REWRITE), "status": "OK", "elapsed": 60.0,
         "rows": 42},
    ]
    write_jsonl(fixtures, FIXTURES / "executor_fixtures.jsonl")
    write_jsonl([{"id": "nested-rewrite", "original": NESTED_QUERY,
                  "rewritten": NESTED_REWRITE}], FIXTURES / "bench_pairs.jsonl")


def write_corrector_fixtures() -> None:
    (FIXTURES / "broken.sql").write_text(BROKEN_SQL)
    (FIXTURES / "broken.log").write_text(BROKEN_LOG)


def golden_envelopes():
    """Representative envelopes rendered with pinned slot values."""
    from sqlgov import prompts
    from sqlgov.corrector import CorrectionInputs
    from sqlgov.fragmenter import decompose
    from sqlgov.knowledge_base import RuleEntry
    from sqlgov.modifier import ModificationContext
    from sqlgov.rewriter import RewriteSuggestion
    from sqlgov.self_learning import ExecutionRecord

    fragment = decompose("SELECT a FROM t WHERE x = 1").root
    rule = RuleEntry("SAMPLE_RULE", "a sample rule description", None,
                     "REWRITER", "VERIFIED")
    suggestion = RewriteSuggestion(1, "SAMPLE_RULE", "do the thing",
                                   "because", "RULE_GUIDED")
    record = ExecutionRecord(sql="SELECT a FROM t", status="ERROR",
                             elapsed=1.25, error_log="boom")
    context = ModificationContext(
        target_sql="SELECT a FROM t", surrounding_context="",
        referenced_metadata={"t": "columns: a"},
        frequent_tables=[("t", "columns: a")],
        timestamp="1970-01-01T00:00:00+00:00")
    inputs = CorrectionInputs(
        scope="GLOBAL", sql_text="SELECT a FROM t", context_header="",
        error_message="boom", schema_lines=("t: a",),
        guidance="fix it", target_fragment=None, splice_span=None)
    return [
        prompts.rule_generation_prompt([record]),
        prompts.scenario1_prompt(fragment, [rule]),
        prompts.scenario2_prompt(fragment),
        prompts.rewrite_prompt("SELECT a FROM t", [suggestion], []),
        prompts.intent_extract_prompt(fragment, []),
        prompts.alignment_prompt('{"fields": []}', '{"fields": []}'),
        prompts.modify_prompt("EXPLAIN_SQL", "add comments", context),
        prompts.correction_prompt(inputs),
    ]


def render_goldens() -> str:
    """The text of ``prompt_goldens.txt``: each golden envelope under a
    header naming its template and digest."""
    return "\n\n".join(
        f"=== {env.template_id} {env.digest} ===\n{env.render()}"
        for env in golden_envelopes()) + "\n"


def playbook_entries(llm: AuthoringLLM) -> list[dict]:
    """The playbook entries of every exchange ``llm`` recorded, sorted."""
    return [{"template_id": tid, "digest": digest, "response": response}
            for (tid, digest), response in sorted(llm.entries.items())]


def main() -> None:
    build_intent_tables()
    llm = AuthoringLLM()
    run_flows(llm)
    entries = playbook_entries(llm)
    save_playbook(entries, FIXTURES / "playbook.jsonl")
    write_bench_fixtures()
    write_corrector_fixtures()
    (FIXTURES / "prompt_goldens.txt").write_text(render_goldens())
    print(f"wrote {len(entries)} playbook entries and fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
