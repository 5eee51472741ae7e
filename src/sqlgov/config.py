"""Runtime configuration: flat key/value config file with env-var overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

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
    retrieval_k: int = 5
    confidence_floor: float = 0.7
    seed: int = 0


def _coerce(name: str, raw: str):
    for f in fields(RuntimeConfig):
        if f.name != name:
            continue
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
        return raw
    return raw


def _parse_kv_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
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
                    setattr(config, key, _coerce(key, raw))
            break
    for env_key, attr in ENV_OVERRIDES.items():
        if env_key in env and env[env_key]:
            setattr(config, attr, _coerce(attr, env[env_key]))
    return config
