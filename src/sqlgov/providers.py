"""Provider contracts (LLM completion, embedding, execution) and offline mocks.

Every LLM call in the toolkit goes through a PromptEnvelope whose rendered
text has a stable digest; the scripted mock answers from a playbook keyed on
(template_id, digest), so end-to-end runs are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .errors import EmptyTextError, MockMiss, ProviderFailure
from .shapes import check, read_jsonl
from .sqltext import templatize

# numpy is imported in the functions that make or read arrays, to keep it off
# the cold start of commands that embed nothing (fragment, verify).

RULE_GEN = "RULE_GEN"
SCENARIO_1 = "SCENARIO_1"
SCENARIO_2 = "SCENARIO_2"
REWRITE = "REWRITE"
INTENT_EXTRACT = "INTENT_EXTRACT"
ALIGNMENT = "ALIGNMENT"
CORRECT = "CORRECT"
MODIFY_PREFIX = "MODIFY_"

KNOWN_TEMPLATES = {RULE_GEN, SCENARIO_1, SCENARIO_2, REWRITE,
                   INTENT_EXTRACT, ALIGNMENT, CORRECT}


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


@dataclass(frozen=True)
class PromptEnvelope:
    template_id: str
    sections: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.sections:
            raise ValueError("envelope must carry at least one section")
        if self.template_id not in KNOWN_TEMPLATES \
                and not self.template_id.startswith(MODIFY_PREFIX):
            raise ValueError(f"unregistered template_id {self.template_id!r}")

    def render(self) -> str:
        blocks = [f"{name}:\n{_indent(text)}" for name, text in self.sections]
        return "\n  -\n".join(blocks)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.render().encode("utf-8")).hexdigest()

    def section(self, name: str) -> str | None:
        for section_name, text in self.sections:
            if section_name == name:
                return text
        return None


def envelope(template_id: str, *sections: tuple[str, str]) -> PromptEnvelope:
    return PromptEnvelope(template_id=template_id, sections=tuple(sections))


class LLMProvider(Protocol):
    def complete(self, env: PromptEnvelope) -> str: ...


class EmbeddingProvider(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


class QueryExecutor(Protocol):
    def execute(self, sql: str) -> "ExecOutcome": ...


# --- scripted LLM ---------------------------------------------------------

_PLAYBOOK_ENTRY = {"template_id": "required str", "digest": "required str",
                   "response": "required str"}


def load_playbook(path: str | Path) -> list[dict]:
    """Playbook entries; a ValueError names a file that does not fit."""
    return read_jsonl(path, lambda entry: check(entry, _PLAYBOOK_ENTRY))


_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def write_jsonl(records, path: str | Path) -> None:
    """Write records as JSON Lines with sorted keys and non-ASCII kept."""
    encode = _JSONL_ENCODER.encode
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record) + "\n")


def save_playbook(entries: list[dict], path: str | Path) -> None:
    write_jsonl(entries, path)


class ScriptedLLM:
    """Deterministic mock: answers from a playbook of canned responses.

    Strict mode raises MOCK_MISS (listing the digest) for unknown prompts;
    permissive mode falls back to a template-specific default that keeps
    exploratory runs alive (screens answer "efficient", rewrites echo the
    input).
    """

    def __init__(self, playbook: list[dict] | None = None, strict: bool = True):
        self._plays: dict[tuple[str, str], str] = {}
        self.strict = strict
        self.calls: Counter[str] = Counter()  # completions per template id
        for entry in playbook or []:
            self.add(entry["template_id"], entry["digest"], entry["response"])

    @classmethod
    def from_path(cls, path: str | Path, strict: bool = True) -> "ScriptedLLM":
        return cls(load_playbook(path), strict=strict)

    def add(self, template_id: str, digest: str, response: str) -> None:
        self._plays[(template_id, digest)] = response

    @property
    def call_count(self) -> int:
        return self.calls.total()

    def complete(self, env: PromptEnvelope) -> str:
        if not env.render().strip():
            raise ProviderFailure("refusing to complete an empty prompt")
        self.calls[env.template_id] += 1
        key = (env.template_id, env.digest)
        if key in self._plays:
            return self._plays[key]
        if self.strict:
            raise MockMiss(env.template_id, env.digest)
        return self._default_response(env)

    @staticmethod
    def _default_response(env: PromptEnvelope) -> str:
        tid = env.template_id
        if tid == SCENARIO_1:
            return json.dumps({"applicable": []})
        if tid == SCENARIO_2:
            return json.dumps({"efficient": True, "suggestions": []})
        if tid == REWRITE:
            return env.section("Original SQL") or ""
        if tid == RULE_GEN:
            return "{}"
        if tid == INTENT_EXTRACT:
            return json.dumps({"fields": [], "narrative": ""})
        if tid == ALIGNMENT:
            return json.dumps({"mappings": []})
        if tid == CORRECT:
            return env.section("SQL") or env.section("Fragment") or ""
        if tid.startswith(MODIFY_PREFIX):
            return json.dumps({"sql": env.section("Target SQL") or "",
                               "explanation": "no change"})
        return ""


# --- embedding mock --------------------------------------------------------

_EMBED_TOKEN = re.compile(r"\w+|[^\w\s]")


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest(), "big")


class HashingEmbedding:
    """Token feature-hashing into ``dim`` buckets, then L2 normalization.

    Deterministic across processes (no salted hashing); identical texts give
    bitwise-identical vectors, and token-disjoint texts land in disjoint
    buckets up to hash collisions.
    """

    def __init__(self, dim: int = 768):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        import numpy as np

        if not text or not text.strip():
            raise EmptyTextError("cannot embed empty text")
        vec = np.zeros(self.dim, dtype=float)
        # Each distinct token is hashed once and adds its count: the sums are
        # small integers, exact in float64, so the order of adding is moot.
        for token, count in Counter(_EMBED_TOKEN.findall(text.lower())).items():
            h = _stable_hash(token)
            vec[h % self.dim] += count if (h >> 64) & 1 else -count
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:  # pathological sign cancellation
            vec[_stable_hash(text) % self.dim] = 1.0
            norm = 1.0
        return vec / norm


# --- simulated executor ------------------------------------------------------

@dataclass(frozen=True)
class ExecOutcome:
    status: str  # OK | ERROR
    rows: int | None
    error_log: str | None
    elapsed: float


_FIXTURE = {"template": "required str", "status": "str", "elapsed": "float",
            "jitter": "float", "error_log": "str"}


class SimulatedExecutor:
    """Replays scripted outcomes keyed by masked query template.

    Per-template elapsed times can carry a seeded deterministic spread to
    emulate run-to-run noise; with the same seed the sequence of draws is
    identical across executor instances.
    """

    GENERIC_ERROR = "ExecutionError: no fixture for this query template"

    def __init__(self, fixtures: dict[str, dict] | None = None, seed: int = 0):
        self.fixtures = dict(fixtures or {})
        self.seed = seed
        self._call_counts: dict[str, int] = {}

    @classmethod
    def from_path(cls, path: str | Path, seed: int = 0) -> "SimulatedExecutor":
        records = read_jsonl(path, lambda record: check(record, _FIXTURE))
        fixtures = {record.pop("template"): record for record in records}
        return cls(fixtures, seed=seed)

    def _draw(self, template: str, call_index: int) -> float:
        h = _stable_hash(f"{self.seed}:{template}:{call_index}")
        return (h % 10**9) / 10**9 * 2.0 - 1.0  # uniform in [-1, 1)

    def execute(self, sql: str) -> ExecOutcome:
        template = templatize(sql)
        fixture = self.fixtures.get(template)
        call_index = self._call_counts.get(template, 0)
        self._call_counts[template] = call_index + 1
        if fixture is None:
            return ExecOutcome(status="ERROR", rows=None,
                               error_log=self.GENERIC_ERROR, elapsed=0.001)
        if fixture.get("status", "OK") == "ERROR":
            return ExecOutcome(status="ERROR", rows=None,
                               error_log=fixture.get("error_log",
                                                     self.GENERIC_ERROR),
                               elapsed=float(fixture.get("elapsed", 0.001)))
        base = float(fixture.get("elapsed", 0.0))
        jitter = float(fixture.get("jitter", 0.0))
        elapsed = base * (1.0 + jitter * self._draw(template, call_index))
        return ExecOutcome(status="OK", rows=fixture.get("rows"),
                           error_log=None, elapsed=elapsed)
