"""Spans around the program's public functions, and the per-layer metrics
derived from them.

The wrappers go on the module attributes where callers look the names up:
a function imported into several sqlgov modules is replaced in each of
them, so ``analyze_tree`` is traced whether ``rewriter``, ``equivalence``
or ``corrector`` calls it. Spans stay in memory and are written once, at
the end of the run. No file of the program changes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, OP, ATTRS = range(6)

COMPLETE = ("llm.complete", "providers.scripted_complete")


def _store_scored(args, kwargs, result):
    store = args[0]
    tags = args[2] if len(args) > 2 else kwargs.get("tag_filter")
    if tags is None:
        return {"scored": len(store.snapshot.cases)}
    wanted = set(tags)
    return {"scored": sum(1 for c in store.snapshot.cases if wanted & set(c.tag))}


def _saved_bytes(args, kwargs, result):
    directory = Path(args[1])
    return {"bytes": sum(p.stat().st_size for p in directory.iterdir()
                         if p.is_file())}


def _active_rules(args, kwargs, result):
    snapshot, _, tool = args[:3]
    return {"rules": sum(1 for r in snapshot.rules
                         if r.tool == tool and r.status != "RETIRED")}


# (module, attribute or Class.method, span name, attribute function)
TARGETS = [
    ("sqlgov.sqltext", "scan", "sqltext.scan",
     lambda a, k, r: {"chars": len(a[0])}),
    ("sqlgov.sqltext", "templatize", "sqltext.templatize", None),
    ("sqlgov.fragmenter", "decompose", "fragmenter.decompose", None),
    ("sqlgov.fragmenter", "decompose_lenient", "fragmenter.decompose_lenient",
     None),
    ("sqlgov.analysis", "analyze_tree", "analysis.analyze_tree",
     lambda a, k, r: {"fragments": len(a[0].fragments)}),
    ("sqlgov.knowledge_base", "KnowledgeStore.match_rules",
     "knowledge_base.match_rules", None),
    ("sqlgov.knowledge_base", "KnowledgeStore.retrieve_cases",
     "knowledge_base.retrieve_cases", _store_scored),
    ("sqlgov.knowledge_base", "KnowledgeStore.retrieve_strategy",
     "knowledge_base.retrieve_strategy", None),
    ("sqlgov.knowledge_base", "save_snapshot", "knowledge_base.save_snapshot",
     _saved_bytes),
    ("sqlgov.knowledge_base", "load_snapshot", "knowledge_base.load_snapshot",
     None),
    ("sqlgov.providers", "HashingEmbedding.embed", "providers.embed", None),
    ("sqlgov.providers", "ScriptedLLM.complete", "providers.scripted_complete",
     lambda a, k, r: {"template": a[1].template_id}),
    ("sqlgov.providers", "load_playbook", "providers.playbook_load", None),
    ("sqlgov.rewriter", "evaluate", "rewriter.evaluate",
     lambda a, k, r: {"actionable": sum(1 for s in r
                                        if s.scenario != "ALREADY_EFFICIENT")}),
    ("sqlgov.rewriter", "rewrite", "rewriter.rewrite", None),
    ("sqlgov.rewriter", "passes_efficiency_screen", "rewriter.screen",
     lambda a, k, r: {"cleared": bool(r)}),
    ("sqlgov.equivalence", "check_equivalence", "equivalence.check", None),
    ("sqlgov.corrector", "parse_error_log", "corrector.fix", None),
    ("sqlgov.corrector", "clarify", "corrector.fix", None),
    ("sqlgov.corrector", "prepare_data", "corrector.fix",
     lambda a, k, r: {"local": r.scope == "LOCAL", "prepared": 1}),
    ("sqlgov.corrector", "correct", "corrector.fix", None),
    ("sqlgov.modifier", "classify_intent", "modifier.classify", None),
    ("sqlgov.modifier", "bootstrap_centroids", "modifier.bootstrap", None),
    ("sqlgov.modifier", "prepare_metadata", "modifier.prepare_metadata", None),
    ("sqlgov.self_learning", "filter_records", "self_learning.filter_records",
     None),
    ("sqlgov.self_learning", "generate_rules", "self_learning.generate_rules",
     None),
    ("sqlgov.self_learning", "apply_verification",
     "self_learning.apply_verification", None),
    ("sqlgov.self_learning", "dedupe_snapshot", "self_learning.dedupe",
     _active_rules),
] + [("sqlgov.prompts", fn, "prompts.build", None) for fn in (
    "rule_generation_prompt", "scenario1_prompt", "scenario2_prompt",
    "rewrite_prompt", "intent_extract_prompt", "alignment_prompt",
    "modify_prompt", "correction_prompt")]


class Tracer:
    """Records spans as [name, start, end, parent index, op id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.active = False  # on only while an op runs, not its check
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, attr_fn=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if attr_fn is not None:
                span[ATTRS] = attr_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra=()) -> None:
        """Wrap every target, wherever a sqlgov module holds a reference.

        ``extra`` adds (owner, attribute, span name, attr function) tuples
        for objects outside the program, such as the stand-in LLM.
        """
        for module_name, attr, name, attr_fn in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method,
                            self.wrap(name, getattr(cls, method), attr_fn))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, attr_fn)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "sqlgov" or mod_name.startswith("sqlgov.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)
        for owner, attr, name, attr_fn in extra:
            self._patch(owner, attr,
                        self.wrap(name, getattr(owner, attr), attr_fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- per-layer metrics --------------------------------------------------------

PER_LAYER = [
    ("sqltext.scan_ms_per_op", "ms/op"),
    ("sqltext.scan_kchars_per_op", "kchars/op"),
    ("sqltext.rescan_factor", "ratio"),
    ("sqltext.templatize_ms_per_op", "ms/op"),
    ("fragmenter.decompose_ms_per_op", "ms/op"),
    ("fragmenter.decompose_calls_per_op", "calls/op"),
    ("analysis.analyze_tree_ms_per_op", "ms/op"),
    ("analysis.analyze_tree_calls_per_op", "calls/op"),
    ("analysis.us_per_fragment", "us/fragment"),
    ("knowledge_base.match_rules_ms_per_op", "ms/op"),
    ("knowledge_base.retrieve_cases_ms_per_op", "ms/op"),
    ("knowledge_base.cases_scored_per_op", "cases/op"),
    ("knowledge_base.retrieve_strategy_ms_per_op", "ms/op"),
    ("knowledge_base.save_snapshot_ms_per_op", "ms/op"),
    ("knowledge_base.save_mb_per_op", "MB/op"),
    ("knowledge_base.load_snapshot_ms_per_op", "ms/op"),
    ("prompts.build_ms_per_op", "ms/op"),
    ("providers.embed_ms_per_op", "ms/op"),
    ("providers.scripted_complete_ms_per_op", "ms/op"),
    ("providers.playbook_load_ms_per_op", "ms/op"),
    ("rewriter.evaluate_ms_per_op", "ms/op"),
    ("rewriter.rewrite_ms_per_op", "ms/op"),
    ("rewriter.useful_call_ratio", "ratio"),
    ("rewriter.screen_cleared_per_op", "fragments/op"),
    ("equivalence.check_ms_per_op", "ms/op"),
    ("equivalence.intent_calls_per_op", "calls/op"),
    ("equivalence.decided_without_llm_ratio", "ratio"),
    ("corrector.fix_ms_per_op", "ms/op"),
    ("corrector.local_scope_ratio", "ratio"),
    ("modifier.classify_ms_per_op", "ms/op"),
    ("modifier.bootstrap_ms_per_op", "ms/op"),
    ("modifier.prepare_metadata_ms_per_op", "ms/op"),
    ("self_learning.filter_records_ms_per_op", "ms/op"),
    ("self_learning.generate_rules_ms_per_op", "ms/op"),
    ("self_learning.apply_verification_ms_per_op", "ms/op"),
    ("self_learning.dedupe_ms_per_op", "ms/op"),
    ("self_learning.dedupe_embeds_per_rule", "calls/rule"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms_per_op", "ms/op"),
    ("llm.standin_ms_per_op", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[list], n_ops: int, factors: dict[int, float],
              source_chars: int, import_ms: float,
              overhead: float) -> dict[str, float]:
    """Per-layer metrics from spans.

    Times are self times (span minus child spans), scaled by the calibration
    factor of the op they ran in, in ms per op. ``factors`` maps op id to
    that factor; ``source_chars`` is the length of the SQL texts the ops
    handed to the program, the base of the rescan factor.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_ms: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)

    def ancestor(index: int, name: str) -> int:
        parent = spans[index][PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        return parent

    checks_with_llm = set()
    evaluate_calls = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        own = span[END] - span[START] - child_time[i]
        self_ms[name] += own * 1e3 * factors.get(span[OP], 1.0)
        count[name] += 1
        for key, value in (span[ATTRS] or {}).items():
            if not isinstance(value, str):
                attr[f"{name}.{key}"] += value
        if name in COMPLETE:
            template = (span[ATTRS] or {}).get("template")
            if template == "INTENT_EXTRACT":
                count["intent_calls"] += 1
            check = ancestor(i, "equivalence.check")
            if check >= 0:
                checks_with_llm.add(check)
            if ancestor(i, "rewriter.evaluate") >= 0:
                evaluate_calls += 1
        if name == "providers.embed" \
                and ancestor(i, "self_learning.dedupe") >= 0:
            count["dedupe_embeds"] += 1

    n = max(n_ops, 1)

    def per_op(name):
        return self_ms[name] / n

    return {
        "sqltext.scan_ms_per_op": per_op("sqltext.scan"),
        "sqltext.scan_kchars_per_op": attr["sqltext.scan.chars"] / 1e3 / n,
        "sqltext.rescan_factor": _ratio(attr["sqltext.scan.chars"], source_chars),
        "sqltext.templatize_ms_per_op": per_op("sqltext.templatize"),
        "fragmenter.decompose_ms_per_op": per_op("fragmenter.decompose")
        + per_op("fragmenter.decompose_lenient"),
        "fragmenter.decompose_calls_per_op":
            count["fragmenter.decompose_lenient"] / n,
        "analysis.analyze_tree_ms_per_op": per_op("analysis.analyze_tree"),
        "analysis.analyze_tree_calls_per_op": count["analysis.analyze_tree"] / n,
        "analysis.us_per_fragment": _ratio(
            self_ms["analysis.analyze_tree"] * 1e3,
            attr["analysis.analyze_tree.fragments"]),
        "knowledge_base.match_rules_ms_per_op":
            per_op("knowledge_base.match_rules"),
        "knowledge_base.retrieve_cases_ms_per_op":
            per_op("knowledge_base.retrieve_cases"),
        "knowledge_base.cases_scored_per_op":
            attr["knowledge_base.retrieve_cases.scored"] / n,
        "knowledge_base.retrieve_strategy_ms_per_op":
            per_op("knowledge_base.retrieve_strategy"),
        "knowledge_base.save_snapshot_ms_per_op":
            per_op("knowledge_base.save_snapshot"),
        "knowledge_base.save_mb_per_op":
            attr["knowledge_base.save_snapshot.bytes"] / 1e6 / n,
        "knowledge_base.load_snapshot_ms_per_op":
            per_op("knowledge_base.load_snapshot"),
        "prompts.build_ms_per_op": per_op("prompts.build"),
        "providers.embed_ms_per_op": per_op("providers.embed"),
        "providers.scripted_complete_ms_per_op":
            per_op("providers.scripted_complete"),
        "providers.playbook_load_ms_per_op": per_op("providers.playbook_load"),
        "rewriter.evaluate_ms_per_op": per_op("rewriter.evaluate"),
        "rewriter.rewrite_ms_per_op": per_op("rewriter.rewrite"),
        "rewriter.useful_call_ratio": _ratio(
            attr["rewriter.evaluate.actionable"], evaluate_calls),
        "rewriter.screen_cleared_per_op": attr["rewriter.screen.cleared"] / n,
        "equivalence.check_ms_per_op": per_op("equivalence.check"),
        "equivalence.intent_calls_per_op": count["intent_calls"] / n,
        "equivalence.decided_without_llm_ratio": _ratio(
            count["equivalence.check"] - len(checks_with_llm),
            count["equivalence.check"]),
        "corrector.fix_ms_per_op": per_op("corrector.fix"),
        "corrector.local_scope_ratio": _ratio(
            attr["corrector.fix.local"], attr["corrector.fix.prepared"]),
        "modifier.classify_ms_per_op": per_op("modifier.classify"),
        "modifier.bootstrap_ms_per_op": per_op("modifier.bootstrap"),
        "modifier.prepare_metadata_ms_per_op":
            per_op("modifier.prepare_metadata"),
        "self_learning.filter_records_ms_per_op":
            per_op("self_learning.filter_records"),
        "self_learning.generate_rules_ms_per_op":
            per_op("self_learning.generate_rules"),
        "self_learning.apply_verification_ms_per_op":
            per_op("self_learning.apply_verification"),
        "self_learning.dedupe_ms_per_op": per_op("self_learning.dedupe"),
        "self_learning.dedupe_embeds_per_rule": _ratio(
            count["dedupe_embeds"], attr["self_learning.dedupe.rules"]),
        "cli.import_ms": import_ms,
        "cli.main_ms_per_op": per_op("cli.main"),
        "llm.standin_ms_per_op": per_op("llm.complete"),
        "trace.overhead_ratio": overhead,
    }
