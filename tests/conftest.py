from __future__ import annotations

import json
from pathlib import Path

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


def _write_schema1_store(snapshot, directory: Path) -> None:
    """Write ``snapshot`` in the schema-1 layout: JSON Lines only, with each
    case's and strategy's embedding inline as a list of numbers."""
    directory.mkdir(parents=True, exist_ok=True)
    for kind in ("rules", "cases", "strategies"):
        with open(directory / f"{kind}.jsonl", "w", encoding="utf-8") as fh:
            for entry in getattr(snapshot, kind):
                record = dict(vars(entry))
                if "embedding" in record:
                    record["embedding"] = [float(x) for x in record["embedding"]]
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    meta = {"schema_version": 1,
            "stats": {tool: vars(ts) for tool, ts in snapshot.stats.items()}}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


@pytest.fixture(scope="session")
def write_schema1_store():
    return _write_schema1_store
