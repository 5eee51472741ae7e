"""The store's on-disk layouts: a schema-1 store (embeddings inline in the
JSONL) and a schema-2 store (one float64 ``.npy`` matrix per embedded kind,
fixed file names) read as they did, and a save rewrites either in the
schema-3 layout (the files of each kind's generation, named by
``meta.json``) without changing what it holds."""

from __future__ import annotations

import json
import os
import random

import numpy as np
import pytest

from sqlgov.cli import main
from sqlgov.knowledge_base import (
    SCHEMA_VERSION,
    HistoricalCase,
    KnowledgeStore,
    ToolStats,
    load_snapshot,
    save_snapshot,
)
from sqlgov.seeds import SAME_TABLE_JOIN, UNION_ALL_UNPROJECTED, seed_snapshot
from sqlgov.sqltext import templatize
from test_providers import _embed_token_by_token
from conftest import store_file

QUERIES = ["SELECT a FROM t WHERE b = 1",
           "SELECT AVG(d) FROM (SELECT * FROM u1 UNION ALL SELECT * FROM u2) z",
           "SELECT x, COUNT(*) FROM events GROUP BY x"]
ERROR_KEYS = ["SqlValidatorException: Column count mismatch in UNION",
              "ParseException: syntax error near [ID]"]


def _snapshot(embedder):
    """The seed knowledge with some cases added, a few sharing an embedding."""
    rng = random.Random(5)
    snapshot = seed_snapshot(embedder, now=5.0)
    for i in range(12):
        sql = f"SELECT c{rng.randrange(4)} FROM t{rng.randrange(4)}"
        template = templatize(sql)
        snapshot.cases.append(HistoricalCase(
            f"case-{i:02d}", f"sql: {sql}",
            [rng.choice([SAME_TABLE_JOIN, UNION_ALL_UNPROJECTED])], template,
            embedder.embed(template)))
    snapshot.stats["REWRITER"] = ToolStats(update_times=[1.0, 7.5])
    return snapshot


def _kb_output(capsys, store) -> list[tuple[int, str]]:
    outputs = []
    for argv in (["stats"], ["list"], ["list", "--json"]):
        code = main(["kb", *argv, "--store", str(store)])
        outputs.append((code, capsys.readouterr().out))
    return outputs


def _retrievals(store: KnowledgeStore) -> list:
    """Every lookup's ids and the exact bits of its scores."""
    got = []
    for query in QUERIES:
        for tags in (None, [SAME_TABLE_JOIN]):
            got.append([(c.index, score.hex())
                        for c, score in store.retrieve_cases(query, tags, 8)])
    for key in ERROR_KEYS:
        hit = store.retrieve_strategy(key)
        got.append(hit and (hit[0].index, hit[1].hex()))
    return got


def test_a_schema1_store_reads_the_same_before_and_after_a_save(
        capsys, tmp_path, embedder, write_old_store):
    _reads_the_same_before_and_after_a_save(capsys, tmp_path, embedder,
                                            write_old_store, 1)


def test_a_schema2_store_reads_the_same_before_and_after_a_save(
        capsys, tmp_path, embedder, write_old_store):
    _reads_the_same_before_and_after_a_save(capsys, tmp_path, embedder,
                                            write_old_store, 2)


def _reads_the_same_before_and_after_a_save(capsys, tmp_path, embedder,
                                            write_old_store, version):
    """A store of schema ``version`` loads as it was written, and a save
    leaves only the files of schema 3, which load the same."""
    snapshot = _snapshot(embedder)
    store = tmp_path / "kb"
    write_old_store(snapshot, store, version)
    before = _kb_output(capsys, store)
    loaded = load_snapshot(store)
    assert loaded == snapshot
    retrieved = _retrievals(KnowledgeStore(loaded, embedder,
                                           strategy_threshold=0.0))

    save_snapshot(loaded, store)
    meta = json.loads((store / "meta.json").read_text())
    assert meta["schema_version"] == SCHEMA_VERSION == 3
    assert meta["generations"] == {"rules": 1, "cases": 1, "strategies": 1}
    assert sorted(os.listdir(store)) == [
        "cases.1.jsonl", "cases.1.npy", "meta.json", "rules.1.jsonl",
        "strategies.1.jsonl", "strategies.1.npy"]
    assert all("embedding" not in json.loads(line)
               for kind in ("cases", "strategies")
               for line in store_file(store, f"{kind}.jsonl").read_text()
               .splitlines())
    assert np.load(store_file(store, "cases.npy"), allow_pickle=False).shape == \
        (len(snapshot.cases), 768)
    assert _kb_output(capsys, store) == before
    reloaded = load_snapshot(store)
    assert reloaded == snapshot
    assert _retrievals(KnowledgeStore(reloaded, embedder,
                                      strategy_threshold=0.0)) == retrieved
    assert before[0][0] == 0 and json.loads(before[0][1])["integrity"] == []


def test_loaded_rows_are_read_only_views_of_one_matrix(tmp_path, embedder):
    save_snapshot(_snapshot(embedder), tmp_path)
    loaded = load_snapshot(tmp_path)
    rows = [case.embedding for case in loaded.cases]
    assert all(not row.flags.writeable for row in rows)
    assert all(row.base is rows[0].base for row in rows)
    with pytest.raises(ValueError):
        rows[0][0] = 1.0


def test_columns_must_agree_across_kinds(tmp_path, embedder):
    save_snapshot(_snapshot(embedder), tmp_path)
    file = store_file(tmp_path, "strategies.npy")
    np.save(file, np.load(file)[:, :100])
    with pytest.raises(ValueError) as excinfo:
        load_snapshot(tmp_path)
    assert str(excinfo.value) == f"{file}: 100 columns where cases.1.npy has 768"


def test_entries_take_any_float_sequence_and_compare_by_value():
    from_tuple = HistoricalCase("c", "d", [], "T", (1.0, -0.0, 2))
    from_array = HistoricalCase("c", "d", [], "T", np.array([1.0, 0.0, 2.0]))
    assert from_tuple == from_array
    assert from_tuple != HistoricalCase("c", "d", [], "T", (1.0, 0.0, 2.5))
    assert from_tuple != HistoricalCase("c", "d", ["A"], "T", (1.0, 0.0, 2.0))
    caller = np.array([3.0, 4.0])
    case = HistoricalCase("c", "d", [], "T", caller)
    caller[0] = 0.0  # the entry keeps its own frozen copy
    assert case.embedding.tolist() == [3.0, 4.0]
    assert caller.flags.writeable and not case.embedding.flags.writeable
    with pytest.raises(ValueError):
        HistoricalCase("c", "d", [], "T", [[1.0, 0.0]])


class _TokenByTokenEmbedding:
    """The reference embedding as a provider."""

    dim = 768

    def embed(self, text: str) -> np.ndarray:
        return _embed_token_by_token(text, self.dim)


def test_saved_matrices_match_token_by_token_embeddings_byte_for_byte(
        tmp_path, embedder):
    save_snapshot(_snapshot(embedder), tmp_path / "counted")
    save_snapshot(_snapshot(_TokenByTokenEmbedding()), tmp_path / "reference")
    for name in ("cases.npy", "strategies.npy"):
        assert store_file(tmp_path / "counted", name).read_bytes() \
            == store_file(tmp_path / "reference", name).read_bytes()
