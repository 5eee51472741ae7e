from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from sqlgov.cli import main
from sqlgov.corrector import clarify, correct, parse_error_log, prepare_data
from sqlgov.errors import StillInvalidError
from sqlgov.fragmenter import decompose_lenient
from sqlgov.knowledge_base import (
    CANDIDATE,
    VERIFIED,
    KnowledgeStore,
    load_snapshot,
)
from sqlgov.prompts import correction_prompt, rule_generation_prompt
from sqlgov.providers import ScriptedLLM, save_playbook
from sqlgov.seeds import seed_snapshot
from sqlgov.self_learning import ExecutionRecord

PLAYBOOK = str(Path(__file__).parent / "fixtures" / "playbook.jsonl")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- fragment ---------------------------------------------------------------

def test_fragment_json_output(capsys, fixtures_dir):
    code, out, _ = run(capsys, "fragment", str(fixtures_dir / "nested_query.sql"))
    assert code == 0
    payload = json.loads(out)
    assert payload["root_id"] == 7
    assert len(payload["fragments"]) == 7
    first = payload["fragments"][0]
    assert {"id", "kind", "depth", "span", "parent_id", "clause_site"} <= \
        set(first)


def test_fragment_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("SELECT 1"))
    code, out, _ = run(capsys, "fragment", "-")
    assert code == 0
    assert json.loads(out)["root_id"] == 1


# --- rewrite / verify golden pipeline ----------------------------------------

def test_rewrite_plain_output_matches_golden(capsys, fixtures_dir, nested_rewrite):
    code, out, _ = run(capsys, "rewrite", str(fixtures_dir / "nested_query.sql"),
                       "--playbook", PLAYBOOK)
    assert code == 0
    assert out == nested_rewrite  # print() adds the newline the strip removed


def test_rewrite_json_report(capsys, fixtures_dir):
    code, out, _ = run(capsys, "rewrite", str(fixtures_dir / "nested_query.sql"),
                       "--playbook", PLAYBOOK, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["tool"] == "REWRITER"
    assert report["rules_used"] == ["OUTER_JOIN_NULL_FILTER",
                                    "SAME_TABLE_JOIN"]
    assert set(report["cases_used"]) == {"case-inner-join-filter",
                                         "case-single-scan-merge"}
    assert len(report["output"]["suggestions"]) == 7


def test_rewrite_with_verify_flag(capsys, fixtures_dir):
    code, out, _ = run(capsys, "rewrite", str(fixtures_dir / "nested_query.sql"),
                       "--playbook", PLAYBOOK, "--verify", "--json")
    assert code == 0
    assert json.loads(out)["output"]["verified"] == "EQUIVALENT"


def test_readme_rewrite_and_verify_of_the_union_pair(capsys, fixtures_dir,
                                                    monkeypatch,
                                                    union_rewrite):
    monkeypatch.chdir(fixtures_dir.parent.parent)
    code, out, err = run(capsys, "rewrite",
                         "tests/fixtures/union_star_query.sql", "--playbook",
                         "tests/fixtures/playbook.jsonl", "--verify")
    assert (code, err) == (0, "")
    assert out.startswith(union_rewrite.strip("\n"))


def test_verify_pair_equivalent(capsys, fixtures_dir):
    code, out, _ = run(capsys, "verify",
                       "--left", str(fixtures_dir / "nested_query.sql"),
                       "--right", str(fixtures_dir / "nested_rewrite_golden.sql"),
                       "--playbook", PLAYBOOK)
    assert code == 0
    assert "EQUIVALENT" in out


def test_verify_mismatch_exit_code(capsys, tmp_path):
    left = tmp_path / "left.sql"
    right = tmp_path / "right.sql"
    left.write_text("SELECT a FROM t\n")
    right.write_text("SELECT a, b FROM t\n")
    code, out, _ = run(capsys, "verify", "--left", str(left),
                       "--right", str(right), "--playbook", PLAYBOOK)
    assert code == 1
    assert "NOT_EQUIVALENT" in out


def test_verify_batch(capsys, tmp_path, nested_query, nested_rewrite):
    batch = tmp_path / "pairs.jsonl"
    batch.write_text(json.dumps({"id": "p1", "left": nested_query,
                                 "right": nested_rewrite}) + "\n")
    code, out, _ = run(capsys, "verify", "--batch", str(batch),
                       "--playbook", PLAYBOOK, "--json")
    assert code == 0
    assert json.loads(out)[0]["verdict"] == "EQUIVALENT"


@pytest.mark.parametrize("second", [
    {"original": "SELECT 1", "rewritten": "SELECT 1"},  # bench pair fields
    {"left": "SELECT 1", "right": 1},
    ["SELECT 1", "SELECT 1"],
])
def test_verify_batch_rejects_record_without_left_and_right(
        capsys, tmp_path, second):
    batch = tmp_path / "pairs.jsonl"
    batch.write_text(json.dumps({"left": "SELECT a FROM t",
                                 "right": "SELECT a, b FROM t"}) + "\n"
                     + json.dumps(second) + "\n")
    code, out, err = run(capsys, "verify", "--batch", str(batch),
                         "--playbook", PLAYBOOK)
    assert code == 2
    assert out == ""  # checked before any pair is compared
    assert "record 2" in err and "'left' and 'right'" in err


# --- modify / fix-syntax -------------------------------------------------------

def test_modify_permissive_provider(capsys, tmp_path):
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT a FROM t WHERE x = 1")
    code, out, _ = run(capsys, "modify", str(sql),
                       "--request", "explain and annotate: add comments",
                       "--provider", "scripted-permissive", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["output"]["category"] == "EXPLAIN_SQL"
    assert report["output"]["sql"] == "SELECT a FROM t WHERE x = 1"


def test_modify_rejects_untyped_request(capsys, tmp_path):
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT 1")
    code, _, err = run(capsys, "modify", str(sql),
                       "--request", "qqqq zzzz wwww vvvv",
                       "--provider", "scripted-permissive")
    assert code == 1
    assert "rejected" in err


def test_fix_syntax_end_to_end(capsys, fixtures_dir):
    code, out, _ = run(capsys, "fix-syntax", str(fixtures_dir / "broken.sql"),
                       "--log", str(fixtures_dir / "broken.log"),
                       "--playbook", PLAYBOOK)
    assert code == 0
    assert "SELECT a, b FROM t2" in out


def _repair_playbook(tmp_path, embedder, broken, log, answers):
    """Playbook answering successive repair rounds with ``answers``; each
    round's prompt follows from the previous answer's parse failure."""
    store = KnowledgeStore(seed_snapshot(embedder), embedder)
    entries = []
    sql = broken
    for answer in answers:
        tree, _ = decompose_lenient(sql)
        error = parse_error_log(log)
        inputs = prepare_data(clarify(error, store, tree), error, sql, tree, {})
        env = correction_prompt(inputs)
        entries.append({"template_id": env.template_id, "digest": env.digest,
                        "response": answer})
        try:
            correct(sql, inputs, ScriptedLLM(entries))
        except StillInvalidError as exc:
            sql, log = exc.corrected, str(exc)
    playbook = tmp_path / "repair_playbook.jsonl"
    save_playbook(entries, playbook)
    return str(playbook)


def test_fix_syntax_second_round_repairs_a_still_invalid_answer(
        capsys, tmp_path, fixtures_dir, embedder):
    broken = (fixtures_dir / "broken.sql").read_text()
    log = (fixtures_dir / "broken.log").read_text()
    fixed = "SELECT x, (SELECT a, b FROM t2 WHERE k = 1) FROM t1"
    playbook = _repair_playbook(tmp_path, embedder, broken, log,
                                ["SELECT a, b FROM (t2 WHERE k = 1", fixed])
    argv = ["fix-syntax", str(fixtures_dir / "broken.sql"),
            "--log", str(fixtures_dir / "broken.log"),
            "--playbook", playbook, "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 1  # one round is not enough
    failed = json.loads(out)
    assert failed["error"] == "STILL_INVALID"
    assert failed["original"] == broken
    assert "(t2 WHERE" in failed["corrected"]
    code, out, _ = run(capsys, *argv, "--max-rounds", "2")
    assert code == 0
    report = json.loads(out)
    assert report["output"]["original"] == broken
    assert report["output"]["corrected"] == fixed


# --- kb management ---------------------------------------------------------------

def test_kb_init_list_stats(capsys, tmp_path):
    store = str(tmp_path / "kb")
    assert run(capsys, "kb", "init", "--store", store)[0] == 0
    code, out, _ = run(capsys, "kb", "list", "--store", store, "--json")
    assert code == 0
    listed = json.loads(out)
    assert {r["index"] for r in listed["rules"]} >= {"SAME_TABLE_JOIN",
                                                     "OUTER_JOIN_NULL_FILTER"}
    code, out, _ = run(capsys, "kb", "stats", "--store", store)
    assert code == 0
    stats = json.loads(out)
    assert stats["integrity"] == []
    assert stats["rules"] == 4 and stats["strategies"] == 4


def test_kb_add_case(capsys, tmp_path):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    data = tmp_path / "case.json"
    data.write_text(json.dumps({
        "index": "case-extra", "details": "d", "tag": ["SAME_TABLE_JOIN"],
        "sql": "SELECT a FROM t"}))
    code, _, _ = run(capsys, "kb", "add", "--store", store,
                     "--kind", "case", "--data", str(data))
    assert code == 0
    snapshot = load_snapshot(store)
    assert any(c.index == "case-extra" for c in snapshot.cases)


def test_kb_add_rule_and_strategy(capsys, tmp_path):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({
        "index": "CROSS_JOIN_BLOWUP",
        "description": "comma joins without predicates explode row counts",
        "matcher": [{"pred": "contains_operator", "op": "CROSS JOIN"}],
        "tool": "REWRITER", "status": "VERIFIED"}))
    assert run(capsys, "kb", "add", "--store", store, "--kind", "rule",
               "--data", str(rule))[0] == 0
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({
        "index": "strat-order-by-alias",
        "message_pattern": "ParseException: unknown alias in ORDER BY",
        "needs_schema": False, "localized": True,
        "guidance": "Reference the underlying expression or a select alias."}))
    assert run(capsys, "kb", "add", "--store", store, "--kind", "strategy",
               "--data", str(strategy))[0] == 0
    snapshot = load_snapshot(store)
    assert any(r.index == "CROSS_JOIN_BLOWUP" for r in snapshot.rules)
    added = [s for s in snapshot.strategies
             if s.index == "strat-order-by-alias"]
    assert added and len(added[0].embedding) == 768


def test_kb_add_rejects_dangling_tag(capsys, tmp_path):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    data = tmp_path / "case.json"
    data.write_text(json.dumps({
        "index": "case-bad", "details": "d", "tag": ["NO_SUCH_RULE"],
        "sql": "SELECT a FROM t"}))
    code, _, err = run(capsys, "kb", "add", "--store", store,
                       "--kind", "case", "--data", str(data))
    assert code == 2
    assert "integrity" in err


def _learn_playbook(tmp_path, records):
    env = rule_generation_prompt(records)
    playbook = tmp_path / "learn_playbook.jsonl"
    save_playbook([{
        "template_id": env.template_id, "digest": env.digest,
        "response": json.dumps({"MINED_RULE":
                                "watch out for cartesian joins"}),
    }], playbook)
    return str(playbook)


def test_kb_learn_verify_dedup_cycle(capsys, tmp_path):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    records = [ExecutionRecord(sql="SELECT a FROM t1, t2", status="ERROR",
                               elapsed=9.0, error_log="cartesian blowup")]
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps({
        "sql": "SELECT a FROM t1, t2", "status": "ERROR", "elapsed": 9.0,
        "error_log": "cartesian blowup"}) + "\n")
    playbook = _learn_playbook(tmp_path, records)

    code, out, _ = run(capsys, "kb", "learn", "--store", store,
                       "--records", str(records_file), "--playbook", playbook)
    assert code == 0
    assert "1 candidate rules" in out
    snapshot = load_snapshot(store)
    assert any(r.index == "MINED_RULE" and r.status == "CANDIDATE"
               for r in snapshot.rules)

    decisions = tmp_path / "decisions.json"
    decisions.write_text(json.dumps({"MINED_RULE": "ACCEPT"}))
    code, out, _ = run(capsys, "kb", "verify", "--store", store,
                       "--decisions", str(decisions))
    assert code == 0
    snapshot = load_snapshot(store)
    mined = [r for r in snapshot.rules if r.index == "MINED_RULE"]
    assert mined[0].status == VERIFIED
    assert any("MINED_RULE" in c.tag for c in snapshot.cases)

    code, out, _ = run(capsys, "kb", "dedup", "--store", store)
    assert code == 0
    assert "no duplicates" in out


def test_kb_learn_auto_accept(capsys, tmp_path):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    records = [ExecutionRecord(sql="SELECT b FROM u1, u2", status="ERROR",
                               elapsed=2.0, error_log="boom")]
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps({
        "sql": "SELECT b FROM u1, u2", "status": "ERROR", "elapsed": 2.0,
        "error_log": "boom"}) + "\n")
    playbook = _learn_playbook(tmp_path, records)
    code, out, _ = run(capsys, "kb", "learn", "--store", store,
                       "--records", str(records_file), "--playbook", playbook,
                       "--auto-accept")
    assert code == 0
    snapshot = load_snapshot(store)
    assert any(r.index == "MINED_RULE" and r.status == VERIFIED
               for r in snapshot.rules)


def test_unexpected_exception_is_an_internal_error(capsys, tmp_path,
                                                   monkeypatch):
    def broken_learn(*args, **kwargs):
        raise RuntimeError("flow defect")

    monkeypatch.setattr("sqlgov.self_learning.learn", broken_learn)
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps({
        "sql": "SELECT 1", "status": "OK", "elapsed": 1}) + "\n")
    code, _, err = run(capsys, "kb", "learn", "--store", str(tmp_path / "kb"),
                       "--records", str(records_file))
    assert code == 2
    assert err.startswith("error[INTERNAL]: RuntimeError: flow defect")


def _store_bytes(store: Path) -> dict[str, bytes]:
    return {str(p.relative_to(store)): p.read_bytes()
            for p in sorted(store.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("bad_line", [
    json.dumps({"sql": "SELECT 1", "status": "OK", "elapsed": 1, "bogus": 1}),
    json.dumps({"sql": "SELECT 1", "status": "OK"}),
    json.dumps({"sql": "SELECT 1", "status": "error", "elapsed": 1,
                "error_log": "boom"}),
    json.dumps([1, 2]),
    json.dumps({"sql": "SELECT 1", "status": "OK", "elapsed": float("nan")}),
    json.dumps({"sql": "SELECT 1", "status": "SLOW",
                "elapsed": float("inf")}),
])
def test_kb_learn_rejects_a_malformed_record_before_learning(
        capsys, tmp_path, bad_line):
    store = tmp_path / "kb"
    run(capsys, "kb", "init", "--store", str(store))
    before = _store_bytes(store)
    good = ExecutionRecord(sql="SELECT a FROM t1, t2", status="ERROR",
                           elapsed=9.0, error_log="cartesian blowup")
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps(asdict(good)) + "\n" + bad_line + "\n")
    code, _, err = run(capsys, "kb", "learn", "--store", str(store),
                       "--records", str(records_file),
                       "--playbook", _learn_playbook(tmp_path, [good]),
                       "--auto-accept")
    assert code == 2
    assert err.startswith(f"error: {records_file}: record 2")
    assert _store_bytes(store) == before


# --- bench / route ----------------------------------------------------------------

def test_bench_cli(capsys, fixtures_dir):
    code, out, _ = run(capsys, "bench",
                       "--pairs", str(fixtures_dir / "bench_pairs.jsonl"),
                       "--fixtures",
                       str(fixtures_dir / "executor_fixtures.jsonl"),
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["ets"] == pytest.approx(40.0)
    assert payload["results"][0]["etog"] == pytest.approx(40.0)


def test_route_cli(capsys, tmp_path):
    issue = tmp_path / "issue.json"
    issue.write_text(json.dumps({"sql": "SELECT 1",
                                 "request": "make it faster"}))
    code, out, _ = run(capsys, "route", "--issue", str(issue))
    assert code == 0
    assert out.strip() == "REWRITER"


@pytest.mark.parametrize("issue", [
    [1],
    {"sql": "SELECT 1", "request": 5},
    {"sql": 7},
    {"sql": "SELECT 1", "error_log": ["boom"]},
], ids=["not-an-object", "request-a-number", "sql-a-number", "log-a-list"])
def test_route_rejects_a_malformed_issue(capsys, tmp_path, issue):
    issue_file = tmp_path / "issue.json"
    issue_file.write_text(json.dumps(issue))
    code, out, err = run(capsys, "route", "--issue", str(issue_file))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {issue_file}: issue")


@pytest.mark.parametrize("bad_line", [
    json.dumps(5),
    json.dumps({"id": "a"}),
    json.dumps({"original": "SELECT 1", "rewritten": None}),
    json.dumps(["SELECT 1"]),
    json.dumps(["SELECT 1", 2]),
])
def test_bench_rejects_a_malformed_pair_before_running(capsys, tmp_path,
                                                       fixtures_dir, bad_line):
    pairs = tmp_path / "pairs.jsonl"
    good = (fixtures_dir / "bench_pairs.jsonl").read_text().splitlines()[0]
    pairs.write_text(good + "\n" + bad_line + "\n")
    code, out, err = run(capsys, "bench", "--pairs", str(pairs), "--fixtures",
                         str(fixtures_dir / "executor_fixtures.jsonl"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {pairs}: record 2: ")


# --- config / env overrides ---------------------------------------------------------

def test_env_playbook_override(capsys, fixtures_dir, monkeypatch, nested_rewrite):
    monkeypatch.setenv("SQLGOV_PLAYBOOK", PLAYBOOK)
    code, out, _ = run(capsys, "rewrite", str(fixtures_dir / "nested_query.sql"))
    assert code == 0
    assert out == nested_rewrite


def test_config_file_sets_provider(capsys, tmp_path, monkeypatch):
    config = tmp_path / "sqlgov.toml"
    config.write_text('provider = "scripted-permissive"\n')
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT 1")
    code, out, _ = run(capsys, "rewrite", str(sql), "--config", str(config))
    assert code == 0
    assert out.strip() == "SELECT 1"


def test_operational_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "fragment", str(tmp_path / "missing.sql"))
    assert code == 2
    assert err


@pytest.mark.parametrize("source, named, kind, raw", [
    ("env", "SQLGOV_EMBED_DIM", "int", "abc"),
    ("file", "sqlgov.toml: embedding_dim", "int", "abc"),
    ("file", "sqlgov.toml: confidence_floor", "float", "nan"),
    ("env", "SQLGOV_EMBED_DIM", "int >= 1", "0"),
    ("file", "sqlgov.toml: embedding_dim", "int >= 1", "0"),
    ("file", "sqlgov.toml: retrieval_k", "int >= 1", "-2"),
    ("file", "sqlgov.toml: retrieval_k", "int >= 1", "0"),
    ("file", "sqlgov.toml: confidence_floor", "float in [0, 1]", "5"),
    ("file", "sqlgov.toml: confidence_floor", "float in [0, 1]", "-0.1"),
    pytest.param("file", "sqlgov.toml: embedding_dim", "int", "9" * 400,
                 id="int-beyond-float-range"),
])
def test_bad_config_value_is_an_input_error(capsys, tmp_path, monkeypatch,
                                            source, named, kind, raw):
    """A config value of the wrong type or out of its range names its key or
    env var and exits 2, never a traceback with exit 1."""
    monkeypatch.chdir(tmp_path)
    if source == "env":
        monkeypatch.setenv(named, raw)
    else:
        key = named.split(": ")[1]
        (tmp_path / "sqlgov.toml").write_text(f"{key} = {raw}\n")
    (tmp_path / "q.sql").write_text("SELECT a FROM t")
    code, out, err = run(capsys, "fragment", "q.sql")
    assert code == 2
    assert out == ""
    assert err == f"error: {named}: expected {kind}, got {raw!r}\n"


def test_fragment_reports_diagnostic_for_unparseable(capsys, tmp_path):
    sql = tmp_path / "bad.sql"
    sql.write_text("SELECT a FROM (SELECT b FROM t WHERE x = 1")
    code, out, _ = run(capsys, "fragment", str(sql))
    assert code == 0
    payload = json.loads(out)
    assert "diagnostic" in payload
    assert payload["fragments"]  # best-effort tree still emitted


def test_kb_verify_unknown_decision_is_operational_error(capsys, tmp_path):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps({
        "sql": "SELECT z FROM w1, w2", "status": "ERROR", "elapsed": 1.0,
        "error_log": "boom"}) + "\n")
    records = [ExecutionRecord(sql="SELECT z FROM w1, w2", status="ERROR",
                               elapsed=1.0, error_log="boom")]
    playbook = _learn_playbook(tmp_path, records)
    run(capsys, "kb", "learn", "--store", store,
        "--records", str(records_file), "--playbook", playbook)
    decisions = tmp_path / "decisions.json"
    decisions.write_text(json.dumps({"NO_SUCH_RULE": "ACCEPT"}))
    code, _, err = run(capsys, "kb", "verify", "--store", store,
                       "--decisions", str(decisions))
    assert code == 2
    assert "unknown rules" in err

    # a known decision beside an unknown one applies nothing
    pending = sorted((tmp_path / "kb" / "pending").iterdir())
    assert len(pending) == 1
    before = {(r.tool, r.index): r.status for r in load_snapshot(store).rules}
    decisions.write_text(json.dumps({"MINED_RULE": "ACCEPT",
                                     "NO_SUCH_RULE": "ACCEPT"}))
    code, _, err = run(capsys, "kb", "verify", "--store", store,
                       "--decisions", str(decisions))
    assert code == 2
    assert "unknown rules" in err
    assert sorted((tmp_path / "kb" / "pending").iterdir()) == pending
    after = {(r.tool, r.index): r.status for r in load_snapshot(store).rules}
    assert after == before
    assert after[("REWRITER", "MINED_RULE")] == CANDIDATE

    # so does a verdict other than ACCEPT or REJECT
    decisions.write_text(json.dumps({"MINED_RULE": "accept"}))
    code, _, err = run(capsys, "kb", "verify", "--store", store,
                       "--decisions", str(decisions))
    assert code == 2
    assert "ACCEPT or REJECT" in err
    assert sorted((tmp_path / "kb" / "pending").iterdir()) == pending


def test_kb_learn_twice_in_one_second_keeps_both_batches(capsys, tmp_path,
                                                         monkeypatch):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    records = [ExecutionRecord(sql="SELECT q FROM v1, v2", status="ERROR",
                               elapsed=3.0, error_log="boom")]
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps({
        "sql": "SELECT q FROM v1, v2", "status": "ERROR", "elapsed": 3.0,
        "error_log": "boom"}) + "\n")
    playbook = _learn_playbook(tmp_path, records)
    monkeypatch.setattr("time.time", lambda: 1_700_000_000.5)
    for _ in range(2):
        code, out, _ = run(capsys, "kb", "learn", "--store", store,
                           "--records", str(records_file),
                           "--playbook", playbook)
        assert code == 0
        assert "1 candidate rules" in out
    pending = tmp_path / "kb" / "pending"
    assert len(list(pending.iterdir())) == 2
    decisions = tmp_path / "decisions.json"
    decisions.write_text(json.dumps({"MINED_RULE": "ACCEPT"}))
    code, _, _ = run(capsys, "kb", "verify", "--store", store,
                     "--decisions", str(decisions))
    assert code == 0
    assert list(pending.iterdir()) == []
    mined = [r for r in load_snapshot(store).rules if r.index == "MINED_RULE"]
    assert [r.status for r in mined] == [VERIFIED]


def test_kb_learn_without_rules_leaves_no_batch(capsys, tmp_path):
    store = str(tmp_path / "kb")
    run(capsys, "kb", "init", "--store", store)
    records = [ExecutionRecord(sql="SELECT q FROM v1", status="ERROR",
                               elapsed=3.0, error_log="boom")]
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps({
        "sql": "SELECT q FROM v1", "status": "ERROR", "elapsed": 3.0,
        "error_log": "boom"}) + "\n")
    env = rule_generation_prompt(records)
    playbook = tmp_path / "empty_playbook.jsonl"
    save_playbook([{"template_id": env.template_id, "digest": env.digest,
                    "response": "{}"}], playbook)
    code, out, _ = run(capsys, "kb", "learn", "--store", store,
                       "--records", str(records_file),
                       "--playbook", str(playbook))
    assert code == 0
    assert "0 candidate rules" in out
    assert not (tmp_path / "kb" / "pending").exists()
