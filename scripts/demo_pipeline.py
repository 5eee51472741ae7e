#!/usr/bin/env python3
"""End-to-end offline walkthrough on the bundled fixtures.

Decomposes the deeply nested example query, evaluates and rewrites it with
the scripted provider, verifies equivalence of the pair, repairs a broken
query from its error log, and benchmarks the rewrite, all without network
access or a live DBMS.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from sqlgov import bench as bench_mod
from sqlgov import corrector, rewriter
from sqlgov.fragmenter import decompose
from sqlgov.knowledge_base import KnowledgeStore
from sqlgov.providers import HashingEmbedding, ScriptedLLM, SimulatedExecutor
from sqlgov.seeds import seed_snapshot
from sqlgov.shapes import read_jsonl


def banner(title: str) -> None:
    print(f"\n=== {title} {'=' * max(0, 60 - len(title))}")


def main() -> None:
    original = (FIXTURES / "nested_query.sql").read_text()
    embedder = HashingEmbedding(768)
    store = KnowledgeStore(seed_snapshot(embedder), embedder)
    llm = ScriptedLLM.from_path(FIXTURES / "playbook.jsonl")

    banner("fragment decomposition")
    tree = decompose(original)
    for frag in tree.fragments:
        indent = "  " * (frag.depth - 1)
        print(f"{indent}#{frag.id} {frag.kind} at {frag.clause_site} "
              f"(depth {frag.depth})")

    report = rewriter.optimize(original, store, llm, k=5, verify=True)
    banner("evaluation")
    for s in report.output["suggestions"]:
        label = s["rule_index"] or s["scenario"]
        summary = s["action"].splitlines()[0][:70] if s["action"] \
            else "efficient"
        print(f"fragment {s['fragment_id']}: {label}: {summary}")

    banner("rewriting")
    print(report.output["rewritten"])
    print(f"\ncases consulted: {', '.join(report.cases_used)}")

    banner("equivalence verification")
    print(report.output["verified"])

    banner("syntax correction")
    fix = corrector.repair((FIXTURES / "broken.sql").read_text(),
                           (FIXTURES / "broken.log").read_text(), store, llm)
    print(f"plan: {fix.output['scope']} scope, strategy="
          f"{fix.output['strategy'] or 'fallback'}")
    print("corrected:", fix.output["corrected"].strip())

    banner("benchmark")
    executor = SimulatedExecutor.from_path(FIXTURES / "executor_fixtures.jsonl")
    pairs = read_jsonl(FIXTURES / "bench_pairs.jsonl", bench_mod.normalize_pair)
    report = bench_mod.bench(pairs, executor, trials=3)
    for r in report.results:
        print(f"{r.query_id}: ET_pre={r.et_pre:.1f}s ET_post={r.et_post:.1f}s "
              f"ETS={r.ets:.1f}s ETOG={r.etog:.1f}%")


if __name__ == "__main__":
    main()
