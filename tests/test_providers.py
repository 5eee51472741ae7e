from __future__ import annotations

import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlgov.errors import EmptyTextError, MockMiss, ProviderFailure
from sqlgov.providers import (
    HashingEmbedding,
    PromptEnvelope,
    ScriptedLLM,
    SimulatedExecutor,
    envelope,
)
from sqlgov.shapes import read_jsonl
from sqlgov.sqltext import templatize


# --- envelopes --------------------------------------------------------------

def test_envelope_render_is_stable():
    env = envelope("SCENARIO_2", ("Fragment", "SELECT 1"),
                   ("Instruction", "judge it"))
    assert env.render() == env.render()
    assert env.digest == env.digest
    assert "Fragment:\n    SELECT 1" in env.render()


def test_envelope_digest_changes_with_content():
    a = envelope("SCENARIO_2", ("Fragment", "SELECT 1"))
    b = envelope("SCENARIO_2", ("Fragment", "SELECT 2"))
    assert a.digest != b.digest


def test_envelope_requires_sections():
    with pytest.raises(ValueError):
        PromptEnvelope(template_id="RULE_GEN", sections=())


def test_envelope_rejects_unregistered_template():
    with pytest.raises(ValueError):
        envelope("NOT_A_TEMPLATE", ("Section", "text"))
    envelope("MODIFY_CUSTOM_CATEGORY", ("Section", "text"))  # prefix allowed


def test_read_jsonl_skips_blank_lines_and_reads_stdin(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": "x\u2028y"}\n', encoding="utf-8")
    assert read_jsonl(path, lambda r: r) == [{"a": 1}, {"b": "x\u2028y"}]
    monkeypatch.setattr("sys.stdin", io.StringIO('{"c": 3}\n'))
    assert read_jsonl("-", lambda r: r) == [{"c": 3}]


def test_read_jsonl_names_the_line_that_is_not_json(monkeypatch):
    """Lines count from 1 in the input, blank ones included; a separator
    inside a JSON string starts no line."""
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"a": "x\u2028y"}\n\n{"b": 2}\n{"c": }\n'))
    with pytest.raises(ValueError) as info:
        read_jsonl("-", lambda r: r)
    assert str(info.value) == "-: line 4: Expecting value"


# --- scripted LLM ---------------------------------------------------------------

def test_scripted_lookup_and_determinism():
    env = envelope("RULE_GEN", ("Question", "why"))
    llm = ScriptedLLM([{"template_id": "RULE_GEN", "digest": env.digest,
                        "response": '{"A": "b"}'}])
    assert llm.complete(env) == '{"A": "b"}'
    assert llm.complete(env) == llm.complete(env)
    assert llm.call_count == 3


def test_strict_mock_miss_reports_digest():
    env = envelope("RULE_GEN", ("Question", "why"))
    llm = ScriptedLLM([], strict=True)
    with pytest.raises(MockMiss) as err:
        llm.complete(env)
    assert env.digest in str(err.value)
    assert "RULE_GEN" in str(err.value)
    assert isinstance(err.value, ProviderFailure)


def test_permissive_defaults_per_template():
    llm = ScriptedLLM([], strict=False)
    scenario = llm.complete(envelope("SCENARIO_2", ("Fragment", "SELECT 1")))
    assert json.loads(scenario)["efficient"] is True
    rewrite = llm.complete(envelope("REWRITE",
                                    ("Original SQL", "SELECT 42"),
                                    ("Instruction", "rewrite")))
    assert rewrite == "SELECT 42"
    modify = llm.complete(envelope("MODIFY_EXPLAIN_SQL",
                                   ("Target SQL", "SELECT 1"),
                                   ("Instruction", "explain")))
    assert json.loads(modify)["sql"] == "SELECT 1"


# --- hashing embedding ------------------------------------------------------------

def test_embedding_deterministic_and_unit_norm(embedder):
    a = embedder.embed("SELECT [COL] FROM [TBL]")
    b = embedder.embed("SELECT [COL] FROM [TBL]")
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert a.shape == (768,)


@given(st.text(min_size=1, max_size=80).filter(lambda t: t.strip()))
@settings(max_examples=100, deadline=None)
def test_embedding_unit_norm_property(text):
    vec = HashingEmbedding(64).embed(text)
    assert math.isclose(float(np.linalg.norm(vec)), 1.0, abs_tol=1e-6)


def _embed_token_by_token(text: str, dim: int) -> np.ndarray:
    """The reference embedding: hash every token occurrence, add its sign."""
    vec = np.zeros(dim, dtype=float)
    for token in re.findall(r"\w+|[^\w\s]", text.lower()):
        h = int.from_bytes(hashlib.md5(token.encode("utf-8")).digest(), "big")
        vec[h % dim] += 1.0 if (h >> 64) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        h = int.from_bytes(hashlib.md5(text.encode("utf-8")).digest(), "big")
        vec[h % dim] = 1.0
        norm = 1.0
    return vec / norm


_TEMPLATE_WORDS = st.sampled_from(
    ["[COL]", "[TBL]", "[VAL]", "SELECT", "FROM", "WHERE", "=", ",", "(", ")",
     "AND", "x", "é", "a_1"])


@given(st.one_of(
    st.lists(_TEMPLATE_WORDS, min_size=1, max_size=400).map(" ".join),
    st.text(min_size=1, max_size=120)).filter(lambda t: t.strip()),
    st.sampled_from([1, 2, 7, 64, 768]))
@settings(max_examples=200, deadline=None)
def test_embedding_equals_the_token_by_token_reference(text, dim):
    got = HashingEmbedding(dim).embed(text)
    assert got.tobytes() == _embed_token_by_token(text, dim).tobytes()


def test_embedding_rejects_empty_text(embedder):
    with pytest.raises(EmptyTextError):
        embedder.embed("   ")


def test_disjoint_token_texts_are_nearly_orthogonal(embedder):
    a = embedder.embed("alpha bravo charlie delta echo")
    b = embedder.embed("foxtrot golf hotel india juliet")
    assert abs(float(np.dot(a, b))) <= 0.2


def test_shared_tokens_raise_similarity(embedder):
    a = embedder.embed("duplicate table scan wastes io")
    b = embedder.embed("duplicate table scan wastes io effort")
    assert float(np.dot(a, b)) > 0.8


# --- simulated executor --------------------------------------------------------------

def _fixture_map():
    return {
        templatize("SELECT a FROM t WHERE x = 1"):
            {"status": "OK", "elapsed": 100.0, "rows": 7},
        templatize("SELECT a FROM broken_one"):
            {"status": "ERROR", "error_log": "SyntaxException: nope"},
    }


def test_executor_scripted_outcome():
    executor = SimulatedExecutor(_fixture_map())
    outcome = executor.execute("SELECT a FROM t WHERE x = 99")  # same template
    assert outcome.status == "OK"
    assert outcome.elapsed == pytest.approx(100.0)
    assert outcome.rows == 7


def test_executor_unknown_template_errors():
    executor = SimulatedExecutor(_fixture_map())
    outcome = executor.execute("SELECT completely, different FROM thing")
    assert outcome.status == "ERROR"
    assert outcome.error_log


def test_executor_error_fixture_carries_log():
    executor = SimulatedExecutor(_fixture_map())
    outcome = executor.execute("SELECT a FROM broken_one")
    assert outcome.status == "ERROR"
    assert "SyntaxException" in outcome.error_log


def test_executor_seeded_sequences_are_reproducible():
    fixtures = {templatize("SELECT a FROM t"):
                {"status": "OK", "elapsed": 10.0, "jitter": 0.3}}
    runs = []
    for _ in range(2):
        executor = SimulatedExecutor(fixtures, seed=42)
        runs.append([executor.execute("SELECT a FROM t").elapsed
                     for _ in range(5)])
    assert runs[0] == runs[1]
    assert len(set(runs[0])) > 1  # the spread actually varies across calls


def test_executor_different_seeds_differ():
    fixtures = {templatize("SELECT a FROM t"):
                {"status": "OK", "elapsed": 10.0, "jitter": 0.3}}
    a = SimulatedExecutor(fixtures, seed=1).execute("SELECT a FROM t").elapsed
    b = SimulatedExecutor(fixtures, seed=2).execute("SELECT a FROM t").elapsed
    assert a != b
