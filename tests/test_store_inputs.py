"""Store files, pending batches and operator files: every reader ends in a
result or a ``ValueError``/``SqlGovError``, whatever the JSON or the bytes
of an embedding matrix, and a result holds values of its fields' types."""

from __future__ import annotations

import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlgov.errors import SqlGovError
from sqlgov.knowledge_base import (
    SCHEMA_VERSION,
    ToolStats,
    load_snapshot,
    save_snapshot,
)
from sqlgov.modifier import _load_categories, read_history
from sqlgov.providers import HashingEmbedding, ScriptedLLM, SimulatedExecutor
from sqlgov.seeds import add_entry, seed_snapshot
from sqlgov.self_learning import PENDING_DIR, record_from_json, verify_pending
from sqlgov.sqltext import templatize
from conftest import store_file

_EMBEDDER = HashingEmbedding(8)
_SEED = seed_snapshot(_EMBEDDER)


def _fields(entry) -> dict:
    """An entry as its JSONL record holds it: every field but the
    embedding, which is a row of the kind's ``.npy`` matrix."""
    return {k: v for k, v in vars(entry).items() if k != "embedding"}


RECORD = {"sql": "SELECT a FROM t1, t2", "status": "ERROR", "elapsed": 2.5,
          "user_query": None, "error_log": "cartesian blowup",
          "result_digest": None}
RULE = {"index": "R1", "description": "d", "matcher": [{"pred": "in_subquery"}],
        "tool": "REWRITER", "status": "CANDIDATE", "created_at": 1.0,
        "verified_at": None}
STORE_FILES = {  # "schema-1 <file>" is that file of a schema-1 store
    "rules.jsonl": vars(_SEED.rules[0]),
    "cases.jsonl": _fields(_SEED.cases[0]),
    "strategies.jsonl": _fields(_SEED.strategies[0]),
    "schema-1 cases.jsonl": {**_fields(_SEED.cases[0]),
                             "embedding": list(_SEED.cases[0].embedding)},
    "schema-1 strategies.jsonl": {
        **_fields(_SEED.strategies[0]),
        "embedding": list(_SEED.strategies[0].embedding)},
    "meta.json": {"schema_version": SCHEMA_VERSION,
                  "generations": {"rules": 1, "cases": 1, "strategies": 1},
                  "stats": {"REWRITER": {"rule_count": 4, "case_count": 3,
                                         "update_times": [1.0, 2.0]}}},
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
               "centroid": [0.6, 0.8]}]
_SQL = "SELECT a FROM t WHERE b = 1"
OPERATOR_FILES = {  # JSON-Lines operator files: lines, and a reader
    "modify --history": (["t1", {"table": "t2", "count": 2}], read_history),
    "bench --fixtures": (
        [{"template": templatize(_SQL), "status": "OK", "elapsed": 1.5,
          "jitter": 0.1, "rows": 3, "error_log": "e"}],
        lambda path: SimulatedExecutor.from_path(path).execute(_SQL)),
    "--playbook": ([{"template_id": "REWRITE", "digest": "d",
                     "response": "SELECT 1"}], ScriptedLLM.from_path),
}

# Keys of every record above, so arbitrary objects often carry a known key.
_KEYS = sorted({key for record in (
    RECORD, RULE, BATCH, CATEGORIES[0], *STORE_FILES.values(),
    *ENTRIES.values(), *(lines[-1] for lines, _ in OPERATOR_FILES.values()))
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


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(STORE_FILES)).flatmap(
    lambda name: st.tuples(st.just(name), inputs(STORE_FILES[name]))))
def test_store_files(write_old_store, name_and_content):
    name, content = name_and_content
    with tempfile.TemporaryDirectory() as tmp:
        if name.startswith("schema-1 "):
            name = name.removeprefix("schema-1 ")
            write_old_store(_SEED, Path(tmp))
        else:
            save_snapshot(_SEED, tmp)
        text = json.dumps(content)
        if name == "meta.json":
            Path(tmp, name).write_text(text)
        else:
            file = store_file(Path(tmp), name)
            with open(file, "a", encoding="utf-8") as fh:
                fh.write(text + "\n")
            matrix = file.with_suffix(".npy")
            if matrix.exists():  # a row for the new record
                rows = np.load(matrix)
                np.save(matrix, np.vstack([rows, rows[:1]]))
        snapshot = _outcome(lambda: load_snapshot(tmp))
    if snapshot is not None:
        assert all(type(r.index) is str and type(r.description) is str
                   for r in snapshot.rules)
        assert all(type(t) is str for c in snapshot.cases for t in c.tag)
        for entry in (*snapshot.cases, *snapshot.strategies):
            row = entry.embedding
            assert type(row) is np.ndarray and row.dtype == np.float64
            assert row.ndim == 1 and not row.flags.writeable
            assert np.isfinite(row).all()
        assert all(type(s.needs_schema) is bool for s in snapshot.strategies)
        assert all(type(t) in (int, float) for stats in snapshot.stats.values()
                   for t in stats.update_times)


_UNPICKLED = []


def _spring():
    _UNPICKLED.append(True)


class _Trap:
    """An object whose unpickling would be seen."""

    def __reduce__(self):
        return _spring, ()


def _npy(array, allow_pickle=False) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


@st.composite
def bad_matrices(draw):
    """A kind, and bytes for its ``.npy`` that no store may load: the saved
    matrix truncated, of another dtype, rank, row or column count, holding
    objects to unpickle, or holding NaN or inf."""
    kind = draw(st.sampled_from(["cases", "strategies"]))
    good = np.array([e.embedding for e in getattr(_SEED, kind)])
    variant = draw(st.sampled_from(["truncated", "dtype", "object", "1-D", "3-D",
                                    "rows", "columns", "non-finite"]))
    if variant == "truncated":
        raw = _npy(good)
        return kind, raw[:draw(st.integers(0, len(raw) - 1))]
    if variant == "dtype":
        dtype = draw(st.sampled_from(["<i8", "<f4", ">f8", "<c16", "|b1"]))
        return kind, _npy(good.astype(dtype))
    if variant == "object":
        trap = np.empty(good.shape, dtype=object)
        trap.fill(_Trap())
        return kind, _npy(trap, allow_pickle=True)
    if variant == "1-D":
        return kind, _npy(good.ravel())
    if variant == "3-D":
        return kind, _npy(good[None])
    if variant == "rows":
        n = draw(st.integers(0, len(good) + 2).filter(lambda n: n != len(good)))
        return kind, _npy(np.resize(good, (n, good.shape[1])))
    if variant == "columns":
        return kind, _npy(good[:, :-draw(st.integers(1, good.shape[1]))])
    spoiled = good.copy()
    spoiled[draw(st.integers(0, len(good) - 1)),
            draw(st.integers(0, good.shape[1] - 1))] = \
        draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return kind, _npy(spoiled)


@settings(max_examples=150, deadline=None)
@given(bad_matrices())
def test_store_matrices(kind_and_bytes):
    kind, raw = kind_and_bytes
    with tempfile.TemporaryDirectory() as tmp:
        save_snapshot(_SEED, tmp)
        store_file(Path(tmp), f"{kind}.npy").write_bytes(raw)
        assert _outcome(lambda: load_snapshot(tmp)) is None
    assert not _UNPICKLED


def test_a_missing_matrix_is_named(tmp_path):
    save_snapshot(_SEED, tmp_path)
    matrix = store_file(tmp_path, "cases.npy")
    matrix.unlink()
    with pytest.raises(ValueError) as excinfo:
        load_snapshot(tmp_path)
    assert str(excinfo.value) == f"{matrix}: missing, though meta.json names it"


@pytest.mark.parametrize("generation", [None, "1", 1.0, True, 0, -2])
def test_a_generation_that_is_no_positive_int_names_meta_json(tmp_path,
                                                               generation):
    save_snapshot(_SEED, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    if generation is None:
        del meta["generations"]["cases"]
    else:
        meta["generations"]["cases"] = generation
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError) as excinfo:
        load_snapshot(tmp_path)
    assert str(excinfo.value) == (f"{tmp_path / 'meta.json'}: generations.cases: "
                                  f"{generation!r} is not an int of 1 or more")


def test_a_schema3_meta_file_without_generations_is_named(tmp_path):
    save_snapshot(_SEED, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    del meta["generations"]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError) as excinfo:
        load_snapshot(tmp_path)
    assert str(excinfo.value).startswith(f"{tmp_path / 'meta.json'}: does not fit")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(OPERATOR_FILES)).flatmap(
    lambda name: st.tuples(st.just(name), inputs(OPERATOR_FILES[name][0]))))
def test_operator_files(name_and_lines):
    name, lines = name_and_lines
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input.jsonl")
        path.write_text("".join(json.dumps(line) + "\n" for line in (
            lines if isinstance(lines, list) else [lines])))
        result = _outcome(lambda: OPERATOR_FILES[name][1](path))
    if name == "modify --history" and result is not None:
        assert all(type(t) is str and type(n) is int for t, n in result.items())


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
        assert all(type(x) in (int, float) for x in category.centroid or ())


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
