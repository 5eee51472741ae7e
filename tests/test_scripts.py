"""The bundled scripts run the same library flows as the CLI: regenerating
the playbook in memory reproduces the committed fixtures byte for byte, and
the demo walks the whole pipeline."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from sqlgov.providers import save_playbook

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_playbook_and_goldens_regenerate_byte_identical(fixtures_dir, tmp_path):
    builder = _load("build_playbook")
    builder.build_intent_tables()
    llm = builder.AuthoringLLM()
    builder.run_flows(llm)
    save_playbook(builder.playbook_entries(llm), tmp_path / "playbook.jsonl")
    assert (tmp_path / "playbook.jsonl").read_bytes() == \
        (fixtures_dir / "playbook.jsonl").read_bytes()
    goldens = (fixtures_dir / "prompt_goldens.txt").read_text(encoding="utf-8")
    assert builder.render_goldens() == goldens


def test_demo_pipeline_runs_end_to_end(capsys):
    _load("demo_pipeline").main()
    out = capsys.readouterr().out
    assert "=== equivalence verification" in out
    verdict = out.split("=== equivalence verification")[1].splitlines()[1]
    assert verdict.startswith("EQUIVALENT")
    assert "corrected: SELECT x, (SELECT a, b FROM t2 WHERE k = 1) FROM t1" \
        in out
    assert "ETOG=40.0%" in out
