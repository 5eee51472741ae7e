"""sqlgov command line: fragment, rewrite, verify, modify, fix-syntax,
kb management, bench, route.

Exit codes: 0 success, 1 non-fatal negative verdict (NOT_EQUIVALENT,
rejected intent, still-invalid correction), 2 operational error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import bench as bench_mod
from . import corrector as corrector_mod
from . import equivalence as eq_mod
from . import modifier as modifier_mod
from . import rewriter as rewriter_mod
from . import self_learning as learn_mod
from .config import PROVIDER_PERMISSIVE, RuntimeConfig, load_config
from .errors import SqlGovError, StillInvalidError
from .fragmenter import decompose_lenient
from .knowledge_base import (
    REWRITER,
    TOOLS,
    KnowledgeStore,
    check_integrity,
    save_snapshot,
)
from .prompts import check_catalog
from .providers import HashingEmbedding, ScriptedLLM, SimulatedExecutor
from .seeds import add_entry, load_or_seed, seed_snapshot
from .shapes import check, read_json, read_jsonl


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _embedder(config: RuntimeConfig) -> HashingEmbedding:
    return HashingEmbedding(config.embedding_dim)


def _llm(config: RuntimeConfig, args) -> ScriptedLLM:
    playbook_path = getattr(args, "playbook", None) or config.playbook
    provider_kind = getattr(args, "provider", None) or config.provider
    strict = provider_kind != PROVIDER_PERMISSIVE
    if playbook_path:
        return ScriptedLLM.from_path(playbook_path, strict=strict)
    return ScriptedLLM([], strict=strict)


def _kb_dir(config: RuntimeConfig, args) -> str | None:
    return getattr(args, "kb", None) or config.kb_dir


def _store(config: RuntimeConfig, args, embedder) -> KnowledgeStore:
    kb_dir = _kb_dir(config, args)
    snapshot = load_or_seed(kb_dir, embedder) if kb_dir \
        else seed_snapshot(embedder)
    return KnowledgeStore(snapshot, embedder,
                          strategy_threshold=config.strategy_threshold)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False, ensure_ascii=False))


def _fragment_payload(tree, diagnostic=None) -> dict:
    payload = {
        "fragments": [
            {
                "id": f.id, "kind": f.kind, "depth": f.depth,
                "span": [f.span[0], f.span[1]], "parent_id": f.parent_id,
                "clause_site": f.clause_site, "name": f.name, "text": f.text,
            }
            for f in tree.fragments
        ],
        "root_id": tree.root_id,
    }
    if diagnostic:
        payload["diagnostic"] = diagnostic
    return payload


# --- commands ---------------------------------------------------------------

def cmd_fragment(args, config) -> int:
    sql = _read_text(args.source)
    tree, diagnostic = decompose_lenient(sql)
    _print_json(_fragment_payload(tree, diagnostic))
    return 0


def cmd_rewrite(args, config) -> int:
    embedder = _embedder(config)
    report = rewriter_mod.optimize(
        _read_text(args.source), _store(config, args, embedder),
        _llm(config, args), k=config.retrieval_k, verify=args.verify,
        confidence_floor=config.confidence_floor)
    if args.json:
        _print_json(asdict(report))
    else:
        print(report.output["rewritten"])
    return 1 if args.verify and \
        report.output["verified"] != eq_mod.EQUIVALENT else 0


def cmd_verify(args, config) -> int:
    llm = _llm(config, args)
    if args.batch:
        records = read_jsonl(args.batch, lambda record: check(
            record, {"left": "required str", "right": "required str"}))
        pairs = [(record.get("id", f"pair{i + 1}"), record["left"],
                  record["right"])
                 for i, record in enumerate(records)]
    elif args.left and args.right:
        pairs = [("pair1", _read_text(args.left), _read_text(args.right))]
    else:
        print("verify needs --left/--right or --batch", file=sys.stderr)
        return 2
    verdicts = [(pair_id, eq_mod.check_equivalence(left, right, llm,
                                                    config.confidence_floor))
                for pair_id, left, right in pairs]
    if args.json:
        _print_json([{"id": pid, **asdict(v)} for pid, v in verdicts])
    else:
        for pid, v in verdicts:
            detail = v.reason or v.counterexample or ""
            print(f"{pid}: {v.verdict} (confidence {v.confidence:.2f})"
                  + (f" ({detail})" if detail else ""))
    return 0 if all(v.verdict == eq_mod.EQUIVALENT for _, v in verdicts) else 1


def _env_now() -> float | None:
    """``SQLGOV_NOW``, the POSIX time a modify run stamps, if set; a
    ValueError naming it if it is no finite time a datetime holds."""
    raw = os.environ.get("SQLGOV_NOW")
    if not raw:
        return None
    try:
        now = float(raw)
        datetime.fromtimestamp(now, tz=timezone.utc)  # NaN, inf, year 10000 fail
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SQLGOV_NOW: expected a POSIX time, got {raw!r}") from None
    return now


def cmd_modify(args, config) -> int:
    categories = args.categories
    kb_dir = _kb_dir(config, args)
    if not categories and kb_dir and (Path(kb_dir) / "categories.json").exists():
        categories = str(Path(kb_dir) / "categories.json")
    report = modifier_mod.modify_query(
        _read_text(args.source), args.request, _llm(config, args),
        _embedder(config),
        catalog=read_json(args.catalog, check_catalog) if args.catalog else {},
        history=modifier_mod.read_history(args.history) if args.history else [],
        context=args.context or "", categories_path=categories,
        now=_env_now())
    if report is None:
        message = "request rejected: no intent category reached the threshold"
        if args.json:
            _print_json({"rejected": True, "reason": message})
        else:
            print(message, file=sys.stderr)
        return 1
    if args.json:
        _print_json(asdict(report))
    else:
        print(report.output["sql"])
        if report.output["explanation"]:
            print(f"-- {report.output['explanation']}", file=sys.stderr)
    return 0


def cmd_fix_syntax(args, config) -> int:
    sql = _read_text(args.source)
    embedder = _embedder(config)
    try:
        report = corrector_mod.repair(
            sql, _read_text(args.log), _store(config, args, embedder),
            _llm(config, args),
            catalog=read_json(args.schema, check_catalog) if args.schema else {},
            max_rounds=args.max_rounds)
    except StillInvalidError as exc:
        if args.json:
            _print_json({"error": "STILL_INVALID", "message": str(exc),
                         "original": sql, "corrected": exc.corrected})
        else:
            print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        _print_json(asdict(report))
    else:
        print(report.output["corrected"])
    return 0


# --- kb subcommands -----------------------------------------------------------

def cmd_kb_init(args, config) -> int:
    save_snapshot(seed_snapshot(_embedder(config), now=time.time()), args.store)
    print(f"seeded knowledge store at {args.store}")
    return 0


def cmd_kb_list(args, config) -> int:
    snapshot = load_or_seed(args.store, _embedder(config))
    payload = {
        "rules": [{"index": r.index, "tool": r.tool, "status": r.status,
                   "has_matcher": bool(r.matcher)} for r in snapshot.rules
                  if not args.tool or r.tool == args.tool],
        "cases": [{"index": c.index, "tag": c.tag} for c in snapshot.cases],
        "strategies": [{"index": s.index, "localized": s.localized,
                        "needs_schema": s.needs_schema}
                       for s in snapshot.strategies],
    }
    if args.json:
        _print_json(payload)
    else:
        for kind, entries in payload.items():
            print(f"{kind} ({len(entries)}):")
            for entry in entries:
                print(f"  {json.dumps(entry, ensure_ascii=False)}")
    return 0


def cmd_kb_stats(args, config) -> int:
    snapshot = load_or_seed(args.store, _embedder(config))
    payload = {
        "rules": len(snapshot.rules),
        "cases": len(snapshot.cases),
        "strategies": len(snapshot.strategies),
        "per_tool": {tool: {"rule_count": snapshot.n_current(tool),
                            "case_count": len(snapshot.cases),
                            "update_times": stats.update_times}
                     for tool, stats in snapshot.stats.items()},
        "integrity": check_integrity(snapshot),
    }
    _print_json(payload)
    return 0 if not payload["integrity"] else 1


def cmd_kb_add(args, config) -> int:
    embedder = _embedder(config)
    snapshot = load_or_seed(args.store, embedder)
    read_json(args.data, lambda data: add_entry(snapshot, args.kind, data,
                                                embedder, time.time()))
    problems = check_integrity(snapshot)
    if problems:
        print("refusing to save, integrity violations:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    save_snapshot(snapshot, args.store)
    print(f"added {args.kind} to {args.store}")
    return 0


def cmd_kb_learn(args, config) -> int:
    records = read_jsonl(args.records, learn_mod.record_from_json)
    report = learn_mod.learn(args.store, records, _llm(config, args),
                             _embedder(config), args.tool, args.auto_accept,
                             time.time())
    out = report.output
    if not out["kept"]:
        print("no records passed filtering; nothing to learn")
    elif out["accepted"]:
        print(f"accepted {len(out['rules'])} rules into {args.store}")
    else:
        required = out["verification_required"]
        print(f"generated {len(out['rules'])} candidate rules "
              f"(pending={out['pending']}); verification "
              f"{'REQUIRED' if required else 'not yet required'}")
    return 0


def cmd_kb_verify(args, config) -> int:
    decisions = read_json(args.decisions, learn_mod.check_decisions)
    learn_mod.verify_pending(args.store, decisions, _embedder(config),
                             time.time())
    print(f"applied {len(decisions)} decisions")
    return 0


def cmd_kb_dedup(args, config) -> int:
    merges = learn_mod.dedupe_store(args.store, _embedder(config),
                                    (args.tool,) if args.tool else TOOLS)
    for merge in merges:
        print(f"merged {merge['absorbed']} into {merge['survivor']}")
    if not merges:
        print("no duplicates found")
    return 0


def cmd_bench(args, config) -> int:
    executor = SimulatedExecutor.from_path(args.fixtures, seed=config.seed)
    pairs = read_jsonl(args.pairs, bench_mod.normalize_pair)
    report = bench_mod.bench(pairs, executor, trials=args.trials)
    if args.json:
        _print_json({
            "results": [asdict(r) for r in report.results],
            "errors": report.errors,
            "mean_etog": report.mean_etog,
            "total_ets": report.total_ets,
        })
    else:
        for r in report.results:
            print(f"{r.query_id}: pre={r.et_pre:.3f}s post={r.et_post:.3f}s "
                  f"ETS={r.ets:.3f}s ETOG={r.etog:.2f}%")
        for e in report.errors:
            print(f"{e['id']}: EXEC_ERROR on {e['side']} side: {e['error']}")
        print(f"aggregate: mean ETOG={report.mean_etog:.2f}% "
              f"total ETS={report.total_ets:.3f}s")
    return 0 if not report.errors else 1


def cmd_route(args, config) -> int:
    tool = read_json(args.issue, bench_mod.route)
    if args.json:
        _print_json({"tool": tool})
    else:
        print(tool)
    return 0


# --- parser -------------------------------------------------------------

def _add_common(parser, kb=True, playbook=True):
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--json", action="store_true", help="machine output")
    if kb:
        parser.add_argument("--kb", default=None, help="knowledge store dir")
    if playbook:
        parser.add_argument("--playbook", default=None,
                            help="scripted provider playbook (jsonl)")
        parser.add_argument("--provider", default=None,
                            choices=["scripted-strict", "scripted-permissive"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlgov",
        description="knowledge-base-assisted SQL governance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fragment", help="decompose a query into fragments")
    p.add_argument("source", help="SQL file or - for stdin")
    _add_common(p, kb=False, playbook=False)
    p.set_defaults(func=cmd_fragment)

    p = sub.add_parser("rewrite", help="evaluate and rewrite a query")
    p.add_argument("source")
    p.add_argument("--verify", action="store_true",
                   help="verify equivalence of the rewrite")
    _add_common(p)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("verify", help="check semantic equivalence of a pair")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--batch", help="JSONL of {id, left, right} pairs")
    _add_common(p, kb=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("modify", help="apply a natural-language modification")
    p.add_argument("source")
    p.add_argument("--request", required=True)
    p.add_argument("--history", default=None,
                   help="JSONL of accessed tables from user history")
    p.add_argument("--catalog", default=None, help="catalog JSON")
    p.add_argument("--categories", default=None, help="categories JSON")
    p.add_argument("--context", default=None, help="surrounding context text")
    _add_common(p)
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("fix-syntax", help="repair a failing query")
    p.add_argument("source")
    p.add_argument("--log", required=True, help="DBMS error log file")
    p.add_argument("--schema", default=None, help="catalog JSON")
    p.add_argument("--max-rounds", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_fix_syntax)

    kb = sub.add_parser("kb", help="knowledge store management")
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)

    def kb_parser(name, func):
        sp = kb_sub.add_parser(name)
        sp.add_argument("--store", required=True)
        _add_common(sp, kb=False)
        sp.set_defaults(func=func)
        return sp

    kb_parser("init", cmd_kb_init)
    p = kb_parser("list", cmd_kb_list)
    p.add_argument("--tool", default=None, choices=TOOLS)
    kb_parser("stats", cmd_kb_stats)
    p = kb_parser("add", cmd_kb_add)
    p.add_argument("--kind", required=True, choices=["rule", "case", "strategy"])
    p.add_argument("--data", required=True, help="entry JSON file")
    p = kb_parser("learn", cmd_kb_learn)
    p.add_argument("--records", required=True, help="execution records JSONL")
    p.add_argument("--tool", default=REWRITER, choices=TOOLS)
    p.add_argument("--auto-accept", action="store_true", dest="auto_accept")
    p = kb_parser("verify", cmd_kb_verify)
    p.add_argument("--decisions", required=True,
                   help="JSON map of rule index to ACCEPT/REJECT")
    p = kb_parser("dedup", cmd_kb_dedup)
    p.add_argument("--tool", default=None, choices=TOOLS)

    p = sub.add_parser("bench", help="ETS/ETOG benchmark over scripted fixtures")
    p.add_argument("--pairs", required=True, help="JSONL of query pairs")
    p.add_argument("--fixtures", required=True, help="executor fixtures JSONL")
    p.add_argument("--trials", type=int, default=3)
    _add_common(p, kb=False, playbook=False)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("route", help="route an issue to the right tool")
    p.add_argument("--issue", required=True, help="issue JSON file or -")
    _add_common(p, kb=False, playbook=False)
    p.set_defaults(func=cmd_route)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_config(getattr(args, "config", None)))
    except SqlGovError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect; exit 1 stays a negative verdict
        import traceback  # only here, to keep it off every cold start
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"error[INTERNAL]: {type(exc).__name__}: {exc} "
              f"({Path(where.filename).name}:{where.lineno})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
