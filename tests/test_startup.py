"""Start-up cost: commands that embed nothing run without numpy.

Each case runs in a fresh interpreter, since this test process has long
imported numpy. ``fragment`` and ``verify`` must finish with no numpy module
loaded; the package's exports still work afterwards, and the first embedding
starts numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

CHILD = """
import contextlib, io, json, sys
def numpy_loaded():
    return any(m == "numpy" or m.startswith("numpy.") for m in sys.modules)
code = None
with contextlib.redirect_stdout(io.StringIO()):
{body}
print(json.dumps({{"code": code, "numpy": numpy_loaded()}}))
"""


def _run_child(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    indented = "\n".join("    " + line for line in body.strip().splitlines())
    done = subprocess.run([sys.executable, "-c", CHILD.format(body=indented)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("body", [
    "import sqlgov",
    "import sqlgov.cli",
    f"""
import sqlgov.cli
code = sqlgov.cli.main(["fragment", {str(FIXTURES / "nested_query.sql")!r}])
""",
    f"""
import sqlgov.cli
code = sqlgov.cli.main([
    "verify", "--left", {str(FIXTURES / "nested_query.sql")!r},
    "--right", {str(FIXTURES / "nested_rewrite_golden.sql")!r},
    "--playbook", {str(FIXTURES / "playbook.jsonl")!r}])
""",
], ids=["import-sqlgov", "import-cli", "fragment", "verify"])
def test_commands_that_embed_nothing_start_without_numpy(body):
    result = _run_child(body)
    assert result == {"code": result["code"], "numpy": False}
    assert result["code"] in (None, 0)


def test_exports_work_after_a_numpy_free_start_and_embedding_loads_it():
    result = _run_child(f"""
import sqlgov.cli
assert sqlgov.cli.main(["fragment", {str(FIXTURES / "nested_query.sql")!r}]) == 0
assert not numpy_loaded()
from sqlgov import HashingEmbedding, KnowledgeSnapshot, KnowledgeStore, cosine_similarity
assert KnowledgeStore(KnowledgeSnapshot(), None).retrieve_cases("SELECT a") == []
assert not numpy_loaded()
vec = HashingEmbedding(8).embed("select a")
assert numpy_loaded()
assert vec.shape == (8,)
assert abs(cosine_similarity(vec, vec) - 1.0) < 1e-12
""")
    assert result == {"code": None, "numpy": True}


def test_a_filter_of_several_tags_leaves_numpy_ma_unloaded():
    # numpy.ma adds about 1.5 MB to a process, and np.union1d loads it
    result = _run_child("""
from sqlgov import HashingEmbedding, KnowledgeStore
from sqlgov.seeds import seed_snapshot
embedder = HashingEmbedding(768)
store = KnowledgeStore(seed_snapshot(embedder), embedder)
hits = store.retrieve_cases("SELECT a FROM t", [
    "SAME_TABLE_JOIN", "UNKNOWN", "SAME_TABLE_JOIN", "OUTER_JOIN_NULL_FILTER"])
assert sorted(case.index for case, _ in hits) == [
    "case-inner-join-filter", "case-single-scan-merge"], hits
assert "numpy.ma" not in sys.modules
""")
    assert result == {"code": None, "numpy": True}
