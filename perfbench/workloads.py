"""The benchmark's workloads: inputs, the op each runs, and its checks.

A workload prepares its inputs from the seed (untimed), sets the program
up (timed as ``setup_s``), then runs a fixed op list. ``run`` is the timed
part of an op; ``check`` compares its output with a computation made apart
from the program, or with a property the method must have, and returns a
reason when they disagree.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gen
import oracle
from standin import CountingEmbedder, StandInLLM

# ops call the program through module attributes, where the tracer wraps
# the public functions
from sqlgov import bench, corrector, equivalence, fragmenter, modifier, rewriter
from sqlgov import knowledge_base as kb
from sqlgov import self_learning as learn
from sqlgov.knowledge_base import (
    REWRITER,
    HistoricalCase,
    KnowledgeStore,
    check_integrity,
)
from sqlgov.providers import HashingEmbedding, save_playbook
from sqlgov.seeds import seed_snapshot
from sqlgov.sqltext import templatize

NOW = 1_700_000_000.0  # fixed clock for prompts and learning timestamps


@dataclass
class Op:
    kind: str
    data: object
    source_chars: int  # SQL characters the op hands to the program


def identity_mapping(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i) for i in range(n))


class Workload:
    name = ""
    # ops run in this process: their times are scaled by the kernel sampled
    # during them, else by the reference process run between them
    in_process = True

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.workdir = workdir
        self.llm = StandInLLM()
        self.embedder = CountingEmbedder(HashingEmbedding())
        self.ops: list[Op] = []
        self.op_llm_calls = 0  # LLM calls of the op being checked

    def prepare(self) -> None:
        """Generate inputs and their truth; untimed."""

    def setup(self) -> None:
        """The program's own set-up before the first op; timed."""

    def release(self) -> None:
        """Drop what ``setup`` built before it runs again; untimed."""

    def begin_pass(self) -> None:
        """Reset state so every pass runs the same ops on the same state."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        raise NotImplementedError

    def counters(self) -> tuple[int, int, int]:
        """(LLM calls, prompt characters, embedding calls) so far."""
        return self.llm.calls, self.llm.prompt_chars, self.embedder.calls

    def peak_rss_kb(self, ops_peak_kb: int) -> int:
        """Peak resident memory while the ops ran, as the clock read it;
        the process's high-water mark where it could not be read."""
        return ops_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # --- tracing hooks ---------------------------------------------------------

    def trace_targets(self) -> list[tuple]:
        """Objects outside the program to wrap in spans: the stand-in LLM."""
        return [(StandInLLM, "complete", "llm.complete",
                 lambda a, k, r: {"template": a[1].template_id})]

    def child_spans(self) -> list[list]:
        """Spans recorded in child processes (none in-process)."""
        return []

    def import_ms(self) -> float:
        """Import time of the CLI in fresh processes (only cli-calls starts
        them)."""
        return 0.0


# --- deep-olap ---------------------------------------------------------------------

class DeepOlap(Workload):
    """Rewrite with verification of large nested queries, seed store."""

    name = "deep-olap"

    def prepare(self):
        if self.tiny:
            sizes = [3, 7, 12]
        else:
            # plateaus of similar sizes hold the 50th percentile (40 ops of
            # 18..22 fragments, p50 in their middle) and the 90th (18 ops of
            # 100..130), so neither rests on one query's shape; then a tail
            # of a few hundred fragments
            sizes = [4 + i // 6 for i in range(30)] \
                + [18 + i // 8 for i in range(40)] \
                + [30 + 3 * i for i in range(10)] \
                + [100 + round(30 * i / 17) for i in range(18)] + [220, 280]
        self.rng.shuffle(sizes)
        for i, n in enumerate(sizes):
            query = gen.deep_query(self.rng, f"q{i:03d}", n, max(1, n // 12))
            self.llm.add_query(query)
            self.ops.append(Op("rewrite-verify", query,
                               len(query.sql) + len(query.rewritten)))

    def setup(self):
        self.store = KnowledgeStore(seed_snapshot(self.embedder), self.embedder)

    def release(self):
        self.store = None

    def run(self, op):
        query = op.data
        suggestions = rewriter.evaluate(query.sql, self.store, self.llm)
        result = rewriter.rewrite(query.sql, suggestions, self.store, self.llm)
        verdict = equivalence.check_equivalence(result.original,
                                                result.rewritten, self.llm)
        return suggestions, result, verdict

    def check(self, op, out):
        query = op.data
        suggestions, result, verdict = out
        reason = oracle.numbering(query, fragmenter.decompose(query.sql))
        if reason:
            return reason
        if [s.fragment_id for s in suggestions] != \
                list(range(1, query.n_fragments + 1)):
            return "suggestions do not cover the fragments in analysis order"
        guided = {s.fragment_id: s.rule_index for s in suggestions
                  if s.scenario == rewriter.RULE_GUIDED}
        if guided != query.injected():
            return f"rule-guided fragments {guided} != planted {query.injected()}"
        if result.rewritten != query.rewritten:
            return "rewrite differs from the generator's rewrite"
        if verdict.verdict != equivalence.EQUIVALENT or \
                verdict.field_mapping != identity_mapping(query.root_arity()):
            return f"verdict {verdict.verdict} {verdict.field_mapping}"
        return None


# --- query-log -----------------------------------------------------------------------

_SLOW_HINTS = ["dashboard tile is slow", "query runtime too long",
               "please optimize this panel", "latency on refresh"]
_REQUESTS = [
    "please add comments that explain what each subquery does",
    "annotate the query and document the filters",
    "what does this query compute, explain it",
    "change the filter to only include active rows",
    "exclude the test accounts and add a condition on region",
    "make it return one row per day instead of per hour",
    "rewrite using a cte and convert to ansi join syntax",
    "use cte blocks in our team style",
    "polish and clean up the query",
    "tidy it up to improve readability",
    "send this to the finance team tomorrow",
    "thanks that looks right",
]


def break_query(llm, rng, query, located: bool) -> tuple[str, str, str]:
    """Drop the comma before a second select item of one fragment.

    Returns (broken SQL, unbroken SQL, DBMS log) and teaches the stand-in
    the repaired fragment and query. A located log names line and column,
    so the repair stays local to the fragment.
    """
    nodes = [n for n in query.nodes.values() if n.depth >= 2] or [query.root]
    target = rng.choice(nodes)
    target.extra = f"k_{target.marker}"
    fixed = query.render()
    target.broken = True
    broken = query.render()
    target.broken = False
    llm.nodes.update(query.nodes)
    llm.fixes[target.marker] = gen.render_node(target, False)
    llm.fixes[query.qid] = fixed
    log = "ParseException: syntax error, missing comma between select list items"
    if located:
        column = broken.index(f" {target.extra}") + 2
        log += f" near '{target.extra}' at line 1, column {column}"
    return broken, fixed, log


PAIR_KINDS = ("arity", "tables", "equivalent", "differs")


def pair_variant(llm, query, kind: str) -> str:
    """The right side of a verify pair: one more output column, another
    base table, the generator's rewrite, or one literal changed (which the
    stand-in then calls not equivalent)."""
    llm.nodes.update(query.nodes)
    root = query.root
    if kind == "arity":
        root.extra = "x_extra"
        right = query.render()
        root.extra = None
    elif kind == "tables":
        table = root.table
        root.table = f"{table}_archive"
        right = query.render()
        root.table = table
    elif kind == "equivalent":
        right = query.rewritten
    else:
        llm.not_equivalent.add(query.qid)
        root.lit += 1
        right = query.render()
        root.lit -= 1
    return right


def _catalog(query) -> dict:
    return {node.table: {"description": f"facts for {node.marker}",
                         "columns": [{"name": node.marker,
                                      "description": "measure"}, "k"]}
            for node in query.nodes.values()}


class QueryLog(Workload):
    """A dashboard log of short queries routed to the four tools over a
    store of a few thousand cases."""

    name = "query-log"

    def prepare(self):
        rng = self.rng
        if self.tiny:
            n_shapes, repeats, n_cases, n_fix, n_modify, n_verify = 3, 2, 40, 4, 4, 4
        else:
            n_shapes, repeats, n_cases, n_fix, n_modify, n_verify = 34, 3, 2000, 20, 24, 24
        # shape sizes cycle through 1..8 fragments so the fragment total,
        # and with it the LLM calls, is the same for every seed
        shapes = [(rng.randrange(1 << 30), 1 + i % 8) for i in range(n_shapes)]
        counter = iter(range(10_000))

        def instance(shape, patterns=1):
            struct_seed, n = shape
            return gen.deep_query(random.Random(struct_seed),
                                  f"q{next(counter):03d}", n, patterns,
                                  literals=rng)

        ops = []
        # every shape repeats the same number of times: a fixed share of
        # repeated templates (1 - 1/repeats) whatever the seed
        for shape in shapes * repeats:
            query = instance(shape)
            self.llm.add_query(query)
            issue = {"sql": query.sql, "intent_hint": rng.choice(_SLOW_HINTS)}
            ops.append(Op("rewrite", (issue, query),
                          len(query.sql) + len(query.rewritten)))
        nested = [s for s in shapes if s[1] >= 2]
        for i in range(n_fix):
            query = instance(nested[i % len(nested)])
            # three in four logs carry a location and the repair stays local
            broken, fixed, log = break_query(self.llm, rng, query, i % 4 != 0)
            issue = {"sql": broken, "error_log": log}
            ops.append(Op("fix", (issue, fixed, _catalog(query)), len(broken)))
        self.categories = modifier.default_categories()
        self.history = [f"t_hist{i % 7}" for i in range(20)]
        for i in range(n_modify):
            query = instance(shapes[i % n_shapes])
            request = _REQUESTS[i % len(_REQUESTS)]
            self.llm.modified[query.qid] = f"-- {request}\n{query.sql}"
            issue = {"sql": query.sql, "request": request}
            ops.append(Op("modify", (issue, query, _catalog(query)),
                          len(query.sql)))
        for i in range(n_verify):
            query = instance(shapes[(5 * i + 3) % n_shapes])
            kind = PAIR_KINDS[i % 4]
            right = pair_variant(self.llm, query, kind)
            ops.append(Op("verify", (kind, query.sql, right, query),
                          len(query.sql) + len(right)))
        rng.shuffle(ops)
        self.ops = ops
        # the case store, written through the program; loading it is set-up
        snapshot = seed_snapshot(self.embedder)
        others = [r for r in gen.SEED_RULES if r != gen.OJ]
        for i in range(n_cases):
            case_query = gen.deep_query(rng, f"h{i:04d}", 1 + i % 8, 1)
            # tags by position, so a tag filter scores the same number of
            # cases whatever the seed: 7 in 10 carry the outer-join rule
            tags = [gen.OJ] if i % 10 < 7 else [others[i % len(others)]]
            if i % 3 == 0:
                tags = sorted(set(tags) | {gen.SEED_RULES[i % 4]})
            template = templatize(case_query.sql)
            snapshot.cases.append(HistoricalCase(
                index=f"case-{i:05d}", details=f"sql: {case_query.sql}",
                tag=tags, template=template,
                embedding=tuple(float(x) for x in self.embedder.embed(template))))
        self.store_dir = self.workdir / "store"
        kb.save_snapshot(snapshot, self.store_dir)

    def setup(self):
        self.store = KnowledgeStore(kb.load_snapshot(self.store_dir), self.embedder)
        self.cfg = modifier.ModifierConfig()
        self.centroids = modifier.bootstrap_centroids(
            self.categories, self.embedder, self.cfg)

    def release(self):
        self.store = self.centroids = None

    def run(self, op):
        if op.kind == "verify":
            _, left, right, _ = op.data
            return equivalence.check_equivalence(left, right, self.llm)
        issue = op.data[0]
        tool = bench.route(issue)
        if tool == "REWRITER":
            sql = issue["sql"]
            suggestions = rewriter.evaluate(sql, self.store, self.llm)
            result = rewriter.rewrite(sql, suggestions, self.store, self.llm)
            verdict = equivalence.check_equivalence(result.original,
                                                    result.rewritten, self.llm)
            return tool, (result, verdict)
        if tool == "CORRECTOR":
            sql, catalog = issue["sql"], op.data[2]
            tree, _ = fragmenter.decompose_lenient(sql)
            error = corrector.parse_error_log(issue["error_log"])
            plan = corrector.clarify(error, self.store, tree)
            inputs = corrector.prepare_data(plan, error, sql, tree, catalog)
            return tool, corrector.correct(sql, inputs, self.llm)
        decision = modifier.classify_intent(issue["request"], self.centroids,
                                            self.embedder, self.cfg)
        if decision is None:
            return tool, None
        category, _ = decision
        context = modifier.prepare_metadata(issue["sql"], "", op.data[2],
                                            self.history, self.cfg, now=NOW)
        return tool, modifier.modify(issue["request"], context, category,
                                     self.llm)

    def check(self, op, out):
        if op.kind == "verify":
            return oracle.verify_pair(op.data, out, self.op_llm_calls)
        tool, result = out
        expected_tool = {"rewrite": "REWRITER", "fix": "CORRECTOR",
                         "modify": "MODIFIER"}[op.kind]
        if tool != expected_tool:
            return f"routed to {tool}, expected {expected_tool}"
        if op.kind == "rewrite":
            query = op.data[1]
            rewrite_result, verdict = result
            expected = oracle.top_k(self.store, self.embedder.inner,
                                    query.sql, sorted(set(query.injected().values())), 5)
            if list(rewrite_result.cases_consulted) != expected:
                return (f"cases {list(rewrite_result.cases_consulted)} != "
                        f"brute-force top-k {expected}")
            if rewrite_result.rewritten != query.rewritten:
                return "rewrite differs from the generator's rewrite"
            if verdict.verdict != equivalence.EQUIVALENT or \
                    verdict.field_mapping != identity_mapping(query.root_arity()):
                return f"verdict {verdict.verdict}"
            return None
        if op.kind == "fix":
            if result != op.data[1]:
                return "corrected SQL differs from the unbroken query"
            return None
        issue, query, _ = op.data
        expected = oracle.intent(issue["request"], self.categories,
                                 self.embedder.inner, self.cfg)
        if expected is None or result is None:
            return None if expected is None and result is None else \
                f"category {result and result.category} != expected {expected}"
        if result.category != expected:
            return f"category {result.category} != expected {expected}"
        if result.sql != self.llm.modified[query.qid]:
            return "modified SQL differs from the stand-in's answer"
        return None


# --- kb-lifecycle ---------------------------------------------------------------------

_ERROR_KEYS = [
    "SqlValidatorException: Column [ID] not found in any table",
    "ParseException: syntax error, missing comma between select list items "
    "near [ID]",
    "SqlValidatorException: Column count mismatch in UNION",
    "SqlValidatorException: INNER, LEFT, RIGHT or FULL join requires a "
    "condition (NATURAL keyword or ON or USING clause)",
    "TimeoutException: query exceeded the queue wait of [N] seconds",
    "QuotaException: tenant storage quota reached",
]


class KbLifecycle(Workload):
    """Self-learning with writes beside reads over a growing store."""

    name = "kb-lifecycle"

    def prepare(self):
        rng = self.rng
        # per round: learn, 3 reads, verify, 3 reads; reads are 75% of ops,
        # so p50 sits among reads and p90 among verify ops
        n_cases, n_rounds, reads = (12, 2, 1) if self.tiny else (200, 13, 3)
        snapshot = seed_snapshot(self.embedder, now=NOW)
        for i in range(n_cases):
            case_query = gen.deep_query(rng, f"h{i:04d}", 1 + i % 6, 1)
            template = templatize(case_query.sql)
            snapshot.cases.append(HistoricalCase(
                index=f"case-{i:05d}", details=f"sql: {case_query.sql}",
                tag=[rng.choice(gen.SEED_RULES)], template=template,
                embedding=tuple(float(x) for x in self.embedder.embed(template))))
        self.initial_dir = self.workdir / "initial"
        kb.save_snapshot(snapshot, self.initial_dir)
        self.store_dir = self.workdir / "store"
        marker = iter(range(100_000))
        ops: list[Op] = []
        for round_ in range(n_rounds):
            now = NOW + 3600.0 * (round_ + 1)
            records, kept = [], []
            columns = rng.sample(range(1, 9), 4)
            for j, n_cols in enumerate(columns + [columns[0]] + [9, 10, 11]):
                name = gen.record_marker(next(marker))
                cols = ", ".join(f"c{c}" for c in range(n_cols))
                sql = f"SELECT {cols} FROM {name} WHERE c0 > {rng.randrange(99)}"
                if j < 5:
                    status = learn.STATUS_SLOW if j == 3 else learn.STATUS_ERROR
                    elapsed = round(rng.uniform(6.0, 9.0) if j == 3
                                    else rng.uniform(0.5, 1.5), 3)
                else:
                    status, elapsed = learn.STATUS_OK, round(rng.uniform(0.01, 0.2), 3)
                error_log = (f"ExecutionError: failure in {name}"
                             if status == learn.STATUS_ERROR else None)
                record = learn.ExecutionRecord(sql=sql, status=status,
                                               elapsed=elapsed,
                                               error_log=error_log)
                records.append(record)
                if j == 4:
                    repeat_record = record
                if j < 4:  # j == 4 repeats the first record's template
                    # families rotate so merges happen alike for every seed
                    family = (4 * round_ + j) % gen.N_FAMILIES
                    label = f"F{family}-{name}"
                    text = gen.family_description(family, rng.randrange(8))
                    self.llm.records[name] = (label, text)
                    kept.append((record, label, family, text))
            rng.shuffle(records)
            first = records.index(kept[0][0])
            repeat = records.index(repeat_record)
            if repeat < first:  # the filter keeps the first of a template
                records[first], records[repeat] = records[repeat], records[first]
            kept.sort(key=lambda item: records.index(item[0]))
            rejected = rng.randrange(len(kept))  # one rejection per batch
            decisions = {label: "REJECT" if i == rejected else "ACCEPT"
                         for i, (_, label, _, _) in enumerate(kept)}
            ops.append(Op("learn", (records, kept, now), 0))
            ops.extend(self._reads(rng, reads))
            ops.append(Op("verify", (decisions, now + 60.0), 0))
            ops.extend(self._reads(rng, reads))
        self.ops = ops

    def _reads(self, rng, n):
        """Read ops of one make-up: case retrieval unfiltered, by a seed
        rule and by a learned family's survivor, then a strategy lookup."""
        reads = []
        for i in range(n):
            query = gen.deep_query(rng, f"r{rng.randrange(10**6):06d}",
                                   1 + i % 6, 1)
            tags = (None, rng.choice(gen.SEED_RULES),
                    f"family-{rng.randrange(gen.N_FAMILIES)}")
            reads.append(Op("read", (query.sql, tags,
                                     _ERROR_KEYS[i % len(_ERROR_KEYS)]),
                            len(query.sql)))
        return reads

    def setup(self):
        self.snapshot = kb.load_snapshot(self.initial_dir)

    def release(self):
        self.snapshot = None

    def begin_pass(self):
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.copytree(self.initial_dir, self.store_dir)
        self.snapshot = kb.load_snapshot(self.store_dir)
        self.saved = self.snapshot
        self.pending: list = []
        self.model = oracle.LifecycleModel(self.snapshot, self.embedder.inner)

    def _store(self):
        return KnowledgeStore(self.snapshot, self.embedder)

    def _family_tag(self, tag):
        """Resolve a family placeholder to that family's current survivor."""
        if tag is None or not tag.startswith("family-"):
            return tag
        return self.model.survivor(int(tag.split("-")[1])) or gen.OJ

    def run(self, op):
        if op.kind == "read":
            sql, tags, error_key = op.data
            store = self._store()
            filters = [None if t is None else [self._family_tag(t)] for t in tags]
            return ([store.retrieve_cases(sql, f, 5) for f in filters],
                    store.retrieve_strategy(error_key), filters)
        if op.kind == "learn":
            records, _, now = op.data
            filtered = learn.filter_records(records)
            batch = learn.generate_rules(filtered, self.llm, REWRITER, now)
            snapshot = learn.apply_verification(self.snapshot, batch, {},
                                                self.embedder, now)
            kb.save_snapshot(snapshot, self.store_dir)
            self.pending.append(batch)
            self.snapshot = snapshot
            return batch
        decisions, now = op.data
        loaded = kb.load_snapshot(self.store_dir)
        snapshot = loaded
        for batch in self.pending:
            subset = {k: v for k, v in decisions.items()
                      if k in {r.index for r in batch.rules}}
            snapshot = learn.apply_verification(snapshot, batch, subset,
                                                self.embedder, now)
        self.pending = []
        snapshot, _ = learn.dedupe_snapshot(snapshot, self.embedder, REWRITER)
        kb.save_snapshot(snapshot, self.store_dir)
        self.snapshot = snapshot
        return loaded, snapshot

    def check(self, op, out):
        if op.kind == "read":
            results, strategy, filters = out
            store = self._store()
            sql, _, error_key = op.data
            for cases, tags in zip(results, filters):
                expected = oracle.top_k(store, self.embedder.inner, sql, tags, 5)
                if [c.index for c, _ in cases] != expected:
                    return f"cases {[c.index for c, _ in cases]} != top-k {expected}"
            best = oracle.nearest_strategy(store, self.embedder.inner, error_key)
            got = strategy[0].index if strategy else None
            if got != best:
                return f"strategy {got} != nearest {best}"
            return None
        if op.kind == "learn":
            _, kept, now = op.data
            reason = self.model.learn(out, kept, now, self.snapshot)
        else:
            loaded, snapshot = out
            if loaded != self.saved:
                return "snapshot changed across a save/load round trip"
            reason = self.model.verify(op.data[0], snapshot)
        if reason:
            return reason
        problems = check_integrity(self.snapshot)
        if problems:
            return f"integrity: {problems[:3]}"
        self.saved = self.snapshot
        return None


# --- cli-calls -------------------------------------------------------------------------

RUNNER = Path(__file__).resolve().parent / "cli_runner.py"
ROOT = Path.cwd()


class CliCalls(Workload):
    """Sequential fresh ``sqlgov`` processes: cold start, config, store and
    playbook loading and the scripted provider, one child at a time."""

    name = "cli-calls"
    in_process = False

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.counts = [0, 0, 0]
        self.tracing = False
        self.traced: list[dict] = []  # child reports of the traced ops

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / "inputs" / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _build_store(self) -> None:
        snapshot = seed_snapshot(self.embedder)
        for i, sql in enumerate(self.case_sqls):
            template = templatize(sql)
            snapshot.cases.append(HistoricalCase(
                index=f"case-{i:05d}", details=f"sql: {sql}",
                tag=[self.case_tags[i]], template=template,
                embedding=tuple(float(x) for x in self.embedder.embed(template))))
        kb.save_snapshot(snapshot, self.store_dir)

    def prepare(self):
        rng = self.rng
        (self.workdir / "inputs").mkdir()
        self.store_dir = self.workdir / "store"
        self.playbook = self.workdir / "playbook.jsonl"
        n_each, n_cases = (1, 10) if self.tiny else (17, 200)
        self.case_sqls = [gen.deep_query(rng, f"h{i:04d}", 1 + i % 6, 1).sql
                          for i in range(n_cases)]
        self.case_tags = [rng.choice(gen.SEED_RULES) for _ in range(n_cases)]
        self._build_store()
        store = KnowledgeStore(kb.load_snapshot(self.store_dir), self.embedder)
        self.llm.recorded = []
        history = [f"t_hist{i % 5}" for i in range(12)]
        history_file = self._write("history.jsonl", "".join(
            json.dumps({"table": t, "count": 1}) + "\n" for t in history))
        common = ["--json", "--playbook", str(self.playbook)]
        counter = iter(range(10_000))
        ops = []
        # query shapes are fixed per call, and only literals, names and
        # break points follow the seed: process start-up is what this
        # workload measures, and LLM calls per op then repeat across seeds
        def shape(command: int, k: int) -> random.Random:
            return random.Random(1000 * command + k)

        for k in range(n_each):
            qid = f"q{next(counter):03d}"
            query = gen.deep_query(shape(0, k), qid, 10 + 7 * k % 31, 2,
                                   literals=rng)
            ops.append(Op("fragment", {
                "kind": "fragment", "query": query,
                "argv": ["fragment", self._write(f"{qid}.sql", query.sql)]},
                len(query.sql)))

            qid = f"q{next(counter):03d}"
            query = gen.deep_query(shape(1, k), qid, 3 + k % 8, 2,
                                   literals=rng)
            self.llm.add_query(query)
            suggestions = rewriter.evaluate(query.sql, store, self.llm)
            rewriter.rewrite(query.sql, suggestions, store, self.llm, k=5)
            ops.append(Op("rewrite", {
                "kind": "rewrite", "query": query,
                "argv": ["rewrite", self._write(f"{qid}.sql", query.sql),
                         "--kb", str(self.store_dir)] + common},
                len(query.sql)))

            qid = f"q{next(counter):03d}"
            query = gen.deep_query(shape(2, k), qid, 2 + k % 7, 1,
                                   literals=rng)
            kind = PAIR_KINDS[k % 4]
            right = pair_variant(self.llm, query, kind)
            equivalence.check_equivalence(query.sql, right, self.llm)
            ops.append(Op("verify", {
                "kind": "verify", "pair": kind, "query": query,
                "argv": ["verify", "--left", self._write(f"{qid}.l.sql", query.sql),
                         "--right", self._write(f"{qid}.r.sql", right)] + common},
                len(query.sql) + len(right)))

            qid = f"q{next(counter):03d}"
            query = gen.deep_query(shape(3, k), qid, 2 + (k + 3) % 7, 1,
                                   literals=rng)
            broken, fixed, log = break_query(self.llm, rng, query, True)
            catalog = _catalog(query)
            tree, _ = fragmenter.decompose_lenient(broken)
            error = corrector.parse_error_log(log)
            plan = corrector.clarify(error, store, tree)
            corrector.correct(broken, corrector.prepare_data(
                plan, error, broken, tree, catalog), self.llm)
            ops.append(Op("fix", {
                "kind": "fix", "fixed": fixed,
                "argv": ["fix-syntax", self._write(f"{qid}.sql", broken),
                         "--log", self._write(f"{qid}.log", log),
                         "--schema", self._write(f"{qid}.json", json.dumps(catalog)),
                         "--kb", str(self.store_dir)] + common},
                len(broken)))

            qid = f"q{next(counter):03d}"
            query = gen.deep_query(shape(4, k), qid, 1 + k % 8, 1,
                                   literals=rng)
            request = _REQUESTS[k % len(_REQUESTS)]
            self.llm.modified[qid] = f"-- {request}\n{query.sql}"
            category = oracle.intent(request, modifier.default_categories(),
                                     self.embedder.inner, modifier.ModifierConfig())
            catalog = _catalog(query)
            if category is not None:
                context = modifier.prepare_metadata(query.sql, "", catalog,
                                                    history, now=NOW)
                modifier.modify(request, context, category, self.llm)
            ops.append(Op("modify", {
                "kind": "modify", "qid": qid, "category": category,
                "argv": ["modify", self._write(f"{qid}.sql", query.sql),
                         "--request", request,
                         "--catalog", self._write(f"{qid}.json", json.dumps(catalog)),
                         "--history", history_file] + common},
                len(query.sql)))

            ops.append(Op("kb-stats", {
                "kind": "kb-stats",
                "argv": ["kb", "stats", "--store", str(self.store_dir)]}, 0))
        self.ops = ops
        recorded = {(e["template_id"], e["digest"]): e for e in self.llm.recorded}
        save_playbook(list(recorded.values()), self.playbook)
        self.llm.recorded = None
        self.n_rules = len(store.snapshot.rules)
        self.n_cases = len(store.snapshot.cases)
        self.n_strategies = len(store.snapshot.strategies)

    def setup(self):
        self._build_store()

    def trace_targets(self):
        self.tracing = True
        return []

    def run(self, op):
        out_path = self.workdir / "child.json"
        env = {k: v for k, v in os.environ.items() if not k.startswith("SQLGOV_")}
        env["SQLGOV_NOW"] = str(NOW)
        proc = subprocess.run(
            [sys.executable, str(RUNNER), str(out_path),
             "1" if self.tracing else "0", str(ROOT), "--", *op.data["argv"]],
            cwd=self.workdir, env=env, capture_output=True, text=True,
            timeout=120)
        child = json.loads(out_path.read_text(encoding="utf-8"))
        for i, key in enumerate(("llm_calls", "prompt_chars", "embed_calls")):
            self.counts[i] += child[key]
        self.op_counts = child
        if self.tracing:
            self.traced.append(child)
        payload = json.loads(proc.stdout) if proc.stdout.strip() else None
        return proc.returncode, payload

    def counters(self):
        return tuple(self.counts)

    def peak_rss_kb(self, ops_peak_kb):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def child_spans(self):
        spans = []
        for op_id, child in enumerate(self.traced):
            offset = len(spans)
            for span in child["spans"]:
                parent = span[3] + offset if span[3] >= 0 else -1
                spans.append([span[0], span[1], span[2], parent, op_id, span[5]])
        return spans

    def import_ms(self):
        return statistics.median(child["import_s"] for child in self.traced) * 1e3

    def check(self, op, out):
        code, payload = out
        data = op.data
        kind = data["kind"]
        if kind == "verify":
            verdict = payload[0]["verdict"] if payload else None
            want = "EQUIVALENT" if data["pair"] == "equivalent" else "NOT_EQUIVALENT"
            if verdict != want or code != (0 if want == "EQUIVALENT" else 1):
                return f"verify exit {code} verdict {verdict}, expected {want}"
            if data["pair"] in ("arity", "tables") and self.op_counts["llm_calls"]:
                return "structural rejection made LLM calls"
            if want == "EQUIVALENT" and payload[0]["field_mapping"] != \
                    [[i, i] for i in range(data["query"].root_arity())]:
                return "field mapping differs from the generator's"
            return None
        if kind == "modify" and data["category"] is None:
            if code != 1 or not payload.get("rejected"):
                return f"request below theta was not rejected (exit {code})"
            return None
        if code != 0:
            return f"{kind} exited {code}"
        if kind == "fragment":
            fragments = [SimpleNamespace(span=tuple(f["span"]), depth=f["depth"],
                                         id=f["id"]) for f in payload["fragments"]]
            return oracle.numbering(data["query"], SimpleNamespace(fragments=fragments))
        if kind == "rewrite":
            query = data["query"]
            output = payload["output"]
            guided = {s["fragment_id"]: s["rule_index"] for s in output["suggestions"]
                      if s["scenario"] == rewriter.RULE_GUIDED}
            if guided != query.injected():
                return f"rule-guided fragments {guided} != planted {query.injected()}"
            if output["rewritten"] != query.rewritten:
                return "rewrite differs from the generator's rewrite"
            return None
        if kind == "fix":
            if payload["output"]["corrected"] != data["fixed"]:
                return "corrected SQL differs from the unbroken query"
            return None
        if kind == "modify":
            output = payload["output"]
            if output["category"] != data["category"] or \
                    output["sql"] != self.llm.modified[data["qid"]]:
                return f"modify answered {output['category']}"
            return None
        if (payload["rules"], payload["cases"], payload["strategies"]) != \
                (self.n_rules, self.n_cases, self.n_strategies) or payload["integrity"]:
            return f"kb stats {payload}"
        return None


WORKLOADS = {w.name: w for w in (DeepOlap, QueryLog, KbLifecycle, CliCalls)}
