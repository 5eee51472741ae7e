#!/usr/bin/env python3
"""Print how the program reads every query that the fixtures and the
benchmark's in-process workloads parse, one JSON line per distinct text.

    python3 scripts/parse_readings.py > readings.jsonl

Run it from the root of a checkout at two commits and compare the outputs
(``diff a.jsonl b.jsonl``): every line that differs is a text that the two
commits read differently. A line holds the text, the parse diagnostic, the
fragments, the FROM items, ``templatize``, ``referenced_tables`` and, per
fragment, its facts, each parameterless matcher predicate and the
efficiency screen. The texts are the SQL fixtures under ``tests/fixtures``
and every text the fragmenter scans while the deep-olap, query-log and
kb-lifecycle workloads run one pass on seeds 1 to 3 (about 8,500 texts;
the collection takes some 20 s). Workload progress goes to standard error.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from sqlgov import fragmenter  # noqa: E402
from sqlgov.analysis import MATCHER_PREDICATES, analyze_tree, \
    referenced_tables  # noqa: E402
from sqlgov.errors import SqlGovError  # noqa: E402
from sqlgov.rewriter import passes_efficiency_screen  # noqa: E402
from sqlgov.sqltext import normalize_tokens, templatize  # noqa: E402

WORKLOADS = ("deep-olap", "query-log", "kb-lifecycle")
SEEDS = (1, 2, 3)


def fixture_texts() -> set[str]:
    texts = {p.read_text() for p in FIXTURES.glob("*.sql")}
    for line in (FIXTURES / "bench_pairs.jsonl").read_text().splitlines():
        pair = json.loads(line)
        texts |= {pair["original"], pair["rewritten"]}
    return texts


def workload_texts() -> set[str]:
    """Every text the fragmenter scans during one pass of each workload
    and seed, read by wrapping ``fragmenter.scan``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # perfbench/run.py

    texts, real = set(), fragmenter.scan

    def recording(sql):
        texts.add(sql)
        return real(sql)

    fragmenter.scan = recording
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for name in WORKLOADS:
                for seed in SEEDS:
                    fragmenter.decompose_lenient.cache_clear()
                    run.measure(name, seed, 0, False)
                    print(f"{name} seed {seed}: {len(texts)} texts",
                          file=sys.stderr)
    finally:
        fragmenter.scan = real
    return texts


def _facts(tree, fragment_id: int, facts) -> dict:
    f = facts[fragment_id]
    return {
        "own_tables": dict(f.table_counts_own),
        "subtree_tables": dict(f.table_counts_subtree),
        "projection": normalize_tokens(f.projection),
        **{name: getattr(f, name) for name in (
            "has_outer_join", "where_has_is_not_null", "select_items",
            "select_has_star", "has_set_op", "set_op_arm_star",
            "in_subquery", "scalar_subquery_in_select")},
        **{name: pred(tree, fragment_id, {})
           for name, (pred, _) in MATCHER_PREDICATES.items()
           if name != "contains_operator"},
        "screen": passes_efficiency_screen(fragment_id, tree),
    }


def reading(text: str) -> dict:
    """What the program reads in ``text``."""
    try:
        tree, diagnostic = fragmenter.decompose_lenient(text)
    except SqlGovError as err:
        return {"text": text, "error": type(err).__name__}
    facts = analyze_tree(tree)
    return {
        "text": text,
        "diagnostic": diagnostic,
        "fragments": [[f.id, f.kind, f.span, f.parent_id, f.depth,
                       f.clause_site, f.token_range, f.name]
                      for f in tree.fragments],
        "from_items": [list(item) for item in tree.from_items],
        "templatize": templatize(text),
        "tables": referenced_tables(tree),
        "facts": [_facts(tree, f.id, facts) for f in tree.fragments],
    }


def main() -> int:
    texts = sorted(fixture_texts() | workload_texts())
    for text in texts:
        print(json.dumps(reading(text), sort_keys=True))
    print(f"{len(texts)} texts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
