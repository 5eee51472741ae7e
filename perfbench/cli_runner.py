"""Child process of the cli-calls workload: runs ``sqlgov.cli.main`` once.

    python3 cli_runner.py OUT_JSON TRACE ROOT -- <sqlgov arguments>

It wraps the provider classes the CLI builds to count LLM calls, prompt
characters and embedding calls, and with TRACE=1 installs the same span
wrappers as the in-process workloads plus one around ``main``. Counts,
the import time of ``sqlgov.cli`` and the spans go to OUT_JSON; the exit
code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out_path, trace, root = sys.argv[1], sys.argv[2] == "1", Path(sys.argv[3])
    argv = sys.argv[5:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import sqlgov.cli as cli
    import_s = time.perf_counter() - t0
    from sqlgov.providers import HashingEmbedding, ScriptedLLM

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.op, tracer.active = 0, True
        tracer.install(extra=[(cli, "main", "cli.main", None)])

    counts = {"llm_calls": 0, "prompt_chars": 0, "embed_calls": 0}
    complete, embed = ScriptedLLM.complete, HashingEmbedding.embed

    def counted_complete(self, env):
        counts["llm_calls"] += 1
        counts["prompt_chars"] += len(env.render())
        return complete(self, env)

    def counted_embed(self, text):
        counts["embed_calls"] += 1
        return embed(self, text)

    ScriptedLLM.complete = counted_complete
    HashingEmbedding.embed = counted_embed
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        payload = {**counts, "import_s": import_s,
                   "spans": tracer.spans if tracer else []}
        Path(out_path).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
