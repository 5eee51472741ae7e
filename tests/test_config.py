from __future__ import annotations

from sqlgov.config import PROVIDER_PERMISSIVE, RuntimeConfig, load_config


def test_defaults():
    config = load_config(path="/nonexistent/sqlgov.toml", env={})
    assert config == RuntimeConfig()


def test_file_values_and_comments(tmp_path):
    path = tmp_path / "sqlgov.toml"
    path.write_text(
        "# comment line\n"
        "[section headers are ignored]\n"
        'provider = "scripted-permissive"\n'
        "embedding_dim = 128   # trailing comment\n"
        'playbook = "/tmp/run#2/playbook.jsonl"  # a comment after quotes\n'
        "kb_dir = '/kb#1'\n"
        "strategy_threshold = 0.4\n"
        "unknown_key = whatever\n")
    config = load_config(path=path, env={})
    assert config.provider == PROVIDER_PERMISSIVE
    assert config.embedding_dim == 128
    assert config.playbook == "/tmp/run#2/playbook.jsonl"
    assert config.kb_dir == "/kb#1"
    assert config.strategy_threshold == 0.4


def test_env_overrides_file(tmp_path):
    path = tmp_path / "sqlgov.toml"
    path.write_text('kb_dir = "/from/file"\nembedding_dim = 128\n')
    config = load_config(path=path, env={
        "SQLGOV_KB_DIR": "/from/env",
        "SQLGOV_EMBED_DIM": "384",
        "SQLGOV_PLAYBOOK": "pb.jsonl",
    })
    assert config.kb_dir == "/from/env"
    assert config.embedding_dim == 384
    assert config.playbook == "pb.jsonl"


def test_range_ends_are_accepted(tmp_path):
    path = tmp_path / "sqlgov.toml"
    path.write_text("retrieval_k = 1\nembedding_dim = 1\n"
                    "confidence_floor = 0\n")
    config = load_config(path=path, env={"SQLGOV_EMBED_DIM": ""})
    assert (config.retrieval_k, config.embedding_dim,
            config.confidence_floor) == (1, 1, 0.0)
    path.write_text("confidence_floor = 1\n")
    assert load_config(path=path, env={}).confidence_floor == 1.0
