"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
module and name. A renamed or removed stage fails here instead of crashing
the traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_targets() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _load_targets()
    assert targets
    missing = []
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_cli_import_loads_every_traced_module():
    """The traced cli-calls child (perfbench/cli_runner.py) imports
    ``sqlgov.cli`` and ``sqlgov.providers``, then installs the tracer, which
    reads ``sys.modules`` for every target module. A module those two imports
    no longer load would crash that child, so a fresh interpreter must hold
    them all after the same imports."""
    modules = sorted({module_name for module_name, *_ in _load_targets()})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    child = ("import json, sys, sqlgov.cli, sqlgov.providers; "
             f"print(json.dumps([m for m in {modules!r} if m not in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
