"""Runtime configuration: flat key/value config file with env-var overrides."""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .knowledge_base import DEFAULT_K

ENV_OVERRIDES = {
    "SQLGOV_KB_DIR": "kb_dir",
    "SQLGOV_PROVIDER": "provider",
    "SQLGOV_PLAYBOOK": "playbook",
    "SQLGOV_EMBED_DIM": "embedding_dim",
}

PROVIDER_STRICT = "scripted-strict"
PROVIDER_PERMISSIVE = "scripted-permissive"


@dataclass
class RuntimeConfig:
    kb_dir: str | None = None
    provider: str = PROVIDER_STRICT
    playbook: str | None = None
    embedding_dim: int = 768
    strategy_threshold: float = 0.55
    retrieval_k: int = DEFAULT_K
    confidence_floor: float = 0.7
    seed: int = 0


# The settings with a range: (lowest, highest, the range as errors name it).
# A floor above 1 would make every verdict UNDECIDED; k < 1 drops cases.
_RANGES = {
    "embedding_dim": (1, math.inf, ">= 1"),
    "retrieval_k": (1, math.inf, ">= 1"),
    "confidence_floor": (0.0, 1.0, "in [0, 1]"),
}


def _coerce(name: str, raw: str, source: str):
    """``raw`` as the type of field ``name``, within its range; ``source``
    names the file key or env var in the error."""
    kind = next(f.type for f in fields(RuntimeConfig) if f.name == name)
    convert = {"int": int, "float": float}.get(kind)
    if convert is None:
        return raw
    try:
        value = convert(raw)
        finite = math.isfinite(value)  # a NaN floor would pass every confidence
    except (ValueError, OverflowError):
        finite = False
    if not finite:
        raise ValueError(f"{source}: expected {kind}, got {raw!r}")
    low, high, wanted = _RANGES.get(name, (-math.inf, math.inf, ""))
    if not low <= value <= high:
        raise ValueError(f"{source}: expected {kind} {wanted}, got {raw!r}")
    return value


# A line up to its comment, which starts at the first '#' outside quotes.
_BEFORE_COMMENT = re.compile(r"""(?:[^#"']+|"[^"]*"?|'[^']*'?)*""")


def _parse_kv_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = _BEFORE_COMMENT.match(line).group().strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            continue
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip().strip("\"'")
    return values


def load_config(path: str | Path | None = None,
                env: dict | None = None) -> RuntimeConfig:
    """Read sqlgov.toml-style key/value pairs, then apply env overrides."""
    env = os.environ if env is None else env
    config = RuntimeConfig()
    candidates = [Path(path)] if path else [Path("sqlgov.toml")]
    known = {f.name for f in fields(RuntimeConfig)}
    for candidate in candidates:
        if candidate.exists():
            for key, raw in _parse_kv_file(candidate).items():
                if key in known:
                    setattr(config, key,
                            _coerce(key, raw, f"{candidate}: {key}"))
            break
    for env_key, attr in ENV_OVERRIDES.items():
        if env_key in env and env[env_key]:
            setattr(config, attr, _coerce(attr, env[env_key], env_key))
    return config
