"""Store files, pending batches and operator JSON: every reader ends in a
result or a ``ValueError``/``SqlGovError``, whatever the JSON, and a result
holds values of its fields' types."""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sqlgov.errors import SqlGovError
from sqlgov.knowledge_base import ToolStats, load_snapshot, save_snapshot
from sqlgov.modifier import _load_categories
from sqlgov.providers import HashingEmbedding
from sqlgov.seeds import add_entry, seed_snapshot
from sqlgov.self_learning import PENDING_DIR, record_from_json, verify_pending

_EMBEDDER = HashingEmbedding(8)
_SEED = seed_snapshot(_EMBEDDER)

RECORD = {"sql": "SELECT a FROM t1, t2", "status": "ERROR", "elapsed": 2.5,
          "user_query": None, "error_log": "cartesian blowup",
          "result_digest": None}
RULE = {"index": "R1", "description": "d", "matcher": [{"pred": "in_subquery"}],
        "tool": "REWRITER", "status": "CANDIDATE", "created_at": 1.0,
        "verified_at": None}
STORE_FILES = {
    "rules.jsonl": vars(_SEED.rules[0]),
    "cases.jsonl": {**vars(_SEED.cases[0]),
                    "embedding": list(_SEED.cases[0].embedding)},
    "strategies.jsonl": {**vars(_SEED.strategies[0]),
                         "embedding": list(_SEED.strategies[0].embedding)},
    "meta.json": {"schema_version": 1, "stats": {"REWRITER": {
        "rule_count": 4, "case_count": 3, "update_times": [1.0, 2.0]}}},
}
BATCH = {"rules": [RULE], "source_records": ["rec-1"], "generated_at": 1.0,
         "records": [RECORD]}
ENTRIES = {
    "rule": {"index": "R2", "description": "d", "tool": "REWRITER",
             "status": "VERIFIED", "matcher": [{"pred": "in_subquery"}]},
    "case": {"details": "d", "tag": ["SAME_TABLE_JOIN"], "sql": "SELECT a FROM t"},
    "strategy": {"index": "s", "message_pattern": "ParseException: x",
                 "guidance": "g", "needs_schema": True, "localized": False},
}
CATEGORIES = [{"id": "EXPLAIN_SQL", "keywords": [["explain", 1.0], ["why", 1]],
               "centroid": None}]

# Keys of every record above, so arbitrary objects often carry a known key.
_KEYS = sorted({key for record in (RECORD, RULE, BATCH, CATEGORIES[0],
                                   *STORE_FILES.values(), *ENTRIES.values())
                for key in record})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=8)


@st.composite
def mutations(draw, valid):
    """``valid`` with one value replaced by arbitrary JSON or one key
    dropped."""
    value = copy.deepcopy(valid)
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in list(items):
            slots.append((node, key))
            walk(child)

    walk(value)
    node, key = draw(st.sampled_from(slots))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(json_values)
    return value


def inputs(valid):
    """Arbitrary JSON or a mutated valid record."""
    return st.one_of(json_values, mutations(valid))


def _outcome(consume):
    """Run ``consume``: a ValueError or SqlGovError is an outcome; anything
    else escapes and fails the test."""
    try:
        return consume()
    except (ValueError, SqlGovError):
        return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(STORE_FILES)).flatmap(
    lambda name: st.tuples(st.just(name), inputs(STORE_FILES[name]))))
def test_store_files(name_and_content):
    name, content = name_and_content
    with tempfile.TemporaryDirectory() as tmp:
        save_snapshot(_SEED, tmp)
        text = json.dumps(content)
        if name == "meta.json":
            Path(tmp, name).write_text(text)
        else:
            with open(Path(tmp, name), "a", encoding="utf-8") as fh:
                fh.write(text + "\n")
        snapshot = _outcome(lambda: load_snapshot(tmp))
    if snapshot is not None:
        assert all(type(r.index) is str and type(r.description) is str
                   for r in snapshot.rules)
        assert all(type(c.embedding) is tuple and all(
            type(t) is str for t in c.tag) for c in snapshot.cases)
        assert all(type(s.needs_schema) is bool for s in snapshot.strategies)
        assert all(type(t) in (int, float) for stats in snapshot.stats.values()
                   for t in stats.update_times)


@settings(max_examples=150, deadline=None)
@given(inputs(BATCH))
def test_pending_batches(batch):
    with tempfile.TemporaryDirectory() as tmp:
        save_snapshot(_SEED, tmp)
        Path(tmp, PENDING_DIR).mkdir()
        Path(tmp, PENDING_DIR, "batch-1-000.json").write_text(json.dumps(batch))
        _outcome(lambda: verify_pending(tmp, {"R1": "ACCEPT"}, _EMBEDDER, 5.0))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)).flatmap(
    lambda kind: st.tuples(st.just(kind), inputs(ENTRIES[kind]))))
def test_kb_add_entries(kind_and_data):
    kind, data = kind_and_data
    snapshot = copy.deepcopy(_SEED)
    if _outcome(lambda: add_entry(snapshot, kind, data, _EMBEDDER, 1.0)) \
            is None:
        return
    entry = getattr(snapshot, {"rule": "rules", "case": "cases",
                               "strategy": "strategies"}[kind])[-1]
    assert type(entry.index) is str


@settings(max_examples=100, deadline=None)
@given(inputs(CATEGORIES))
def test_category_files(categories):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "categories.json")
        path.write_text(json.dumps(categories))
        loaded = _outcome(lambda: _load_categories(path))
    for category in loaded or ():
        assert type(category.id) is str
        assert all(type(p) is str and type(w) is float
                   for p, w in category.keywords)


@settings(max_examples=150, deadline=None)
@given(inputs(RECORD))
def test_execution_records(payload):
    record = _outcome(lambda: record_from_json(payload))
    if record is not None:
        assert type(record.sql) is str and type(record.elapsed) in (int, float)


def test_a_meta_file_with_stored_counts_loads(tmp_path):
    """A store whose ``meta.json`` still holds each tool's rule and case
    counts loads; the counts are read from the entries."""
    save_snapshot(_SEED, tmp_path)
    (tmp_path / "meta.json").write_text(json.dumps(STORE_FILES["meta.json"]))
    snapshot = load_snapshot(tmp_path)
    assert snapshot.stats == {"REWRITER": ToolStats(update_times=[1.0, 2.0])}
    assert (snapshot.n_current("REWRITER"), len(snapshot.cases)) == (4, 3)
