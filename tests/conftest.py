from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from sqlgov.fragmenter import decompose_lenient
import sqlgov.knowledge_base as kb
from sqlgov.knowledge_base import KnowledgeStore
from sqlgov.providers import HashingEmbedding, ScriptedLLM
from sqlgov.seeds import seed_snapshot

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def empty_parse_memo():
    """Start every test without parses memoized by an earlier one, so tests
    that count scans see what they cause and no order between tests matters."""
    decompose_lenient.cache_clear()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def nested_query() -> str:
    return (FIXTURES / "nested_query.sql").read_text()


@pytest.fixture(scope="session")
def nested_rewrite() -> str:
    return (FIXTURES / "nested_rewrite_golden.sql").read_text()


@pytest.fixture(scope="session")
def union_query() -> str:
    return (FIXTURES / "union_star_query.sql").read_text()


@pytest.fixture(scope="session")
def union_rewrite() -> str:
    return (FIXTURES / "union_star_rewrite_golden.sql").read_text()


@pytest.fixture(scope="session")
def embedder() -> HashingEmbedding:
    return HashingEmbedding(768)


class CountingEmbedder:
    """Embeds through ``inner`` and counts the calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


@pytest.fixture()
def counting_embedder(embedder) -> CountingEmbedder:
    return CountingEmbedder(embedder)


@pytest.fixture()
def seeded_store(embedder) -> KnowledgeStore:
    return KnowledgeStore(seed_snapshot(embedder), embedder)


@pytest.fixture()
def index_builds(monkeypatch):
    """The entry lists an ``_EmbeddingIndex`` was built over, in order."""
    built = []

    class Counted(kb._EmbeddingIndex):
        def __init__(self, entries):
            built.append([e.index for e in entries])
            super().__init__(entries)

    monkeypatch.setattr(kb, "_EmbeddingIndex", Counted)
    return built


@pytest.fixture()
def playbook_llm() -> ScriptedLLM:
    return ScriptedLLM.from_path(FIXTURES / "playbook.jsonl", strict=True)


def store_file(directory: Path, name: str) -> Path:
    """The file of the store at ``directory`` that ``name`` (``rules.jsonl``,
    ``cases.npy``, ...) stands for: the file of its kind's generation that
    ``meta.json`` names, or ``name`` itself in a store without generations
    (schemas 1 and 2)."""
    kind, suffix = name.split(".")
    meta = json.loads((directory / "meta.json").read_text())
    generation = meta.get("generations", {}).get(kind)
    return directory / (f"{kind}.{generation}.{suffix}" if generation else name)


def _write_old_store(snapshot, directory: Path, version: int = 1) -> None:
    """Write ``snapshot`` in the layout of schema ``version``, 1 or 2, whose
    files have fixed names: in schema 1 JSON Lines only, with each case's
    and strategy's embedding inline as a list of numbers; in schema 2 the
    embeddings of each such kind as one float64 matrix in ``<kind>.npy``."""
    directory.mkdir(parents=True, exist_ok=True)
    for kind in ("rules", "cases", "strategies"):
        entries = getattr(snapshot, kind)
        with open(directory / f"{kind}.jsonl", "w", encoding="utf-8") as fh:
            for entry in entries:
                record = dict(vars(entry))
                if "embedding" in record:
                    embedding = record.pop("embedding")
                    if version == 1:
                        record["embedding"] = [float(x) for x in embedding]
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        if version == 2 and kind != "rules":
            np.save(directory / f"{kind}.npy",
                    np.array([e.embedding for e in entries]) if entries
                    else np.empty((0, 0)), allow_pickle=False)
    meta = {"schema_version": version,
            "stats": {tool: vars(ts) for tool, ts in snapshot.stats.items()}}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


@pytest.fixture(scope="session")
def write_old_store():
    return _write_old_store
