"""Knowledge-base lifecycle: mine candidate rules from execution outputs,
trigger expert verification by count/time thresholds, and deduplicate
semantically equivalent rules by clustering their description embeddings.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from collections import deque
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .bench import ToolReport, input_digest
from .errors import IoFailure, NoHistoryError, RejectedResponseError, UnknownRuleError
from .knowledge_base import (
    CANDIDATE,
    RETIRED,
    VERIFIED,
    HistoricalCase,
    KnowledgeSnapshot,
    RuleEntry,
    ToolStats,
    copy_entry,
    copy_snapshot,
    fsync_directory,
    save_snapshot,
)
from .lazy import np
from .prompts import ask, rule_generation_prompt
from .seeds import load_or_seed
from .shapes import check, entry_from_json, read_json
from .sqltext import templatize

STATUS_OK = "OK"
STATUS_ERROR = "ERROR"
STATUS_SLOW = "SLOW"


LAM = 2.5             # capacity scaling for the count trigger
BETA_TIME = 1.3       # temporal adaptation for the time trigger
DBSCAN_EPS = 0.25     # cosine distance
DBSCAN_MIN_PTS = 2
SLOW_PERCENTILE = 90.0
SLOW_MIN_BATCH = 3    # records needed before the percentile rule applies


@dataclass(frozen=True)
class ExecutionRecord:
    sql: str
    status: str
    elapsed: float
    user_query: str | None = None
    error_log: str | None = None
    result_digest: str | None = None

    def __post_init__(self):
        if self.status == STATUS_ERROR and not self.error_log:
            raise ValueError("ERROR records must carry an error_log")

    @property
    def record_id(self) -> str:
        payload = f"{self.sql}|{self.status}|{self.elapsed}|{self.error_log}"
        return "rec-" + hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


_RECORD_FIELDS = {f.name for f in fields(ExecutionRecord)}
_STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_SLOW)


def record_from_json(payload) -> ExecutionRecord:
    """An ExecutionRecord from its JSON form: an object with only the
    record's fields, of their JSON types, and a known ``status``.
    ValueError says what is wrong."""
    record = entry_from_json(ExecutionRecord, payload)
    unknown = sorted(set(payload) - _RECORD_FIELDS)
    if unknown:
        raise ValueError(f"unknown fields {unknown}")
    if record.status not in _STATUSES:
        raise ValueError(f"status {record.status!r} is not in {_STATUSES}")
    return record


@dataclass
class CandidateRuleBatch:
    rules: list[RuleEntry]
    source_records: list[str]
    generated_at: float
    records: list[ExecutionRecord] = field(default_factory=list)

    def __post_init__(self):
        bad = [r.index for r in self.rules if r.status != CANDIDATE]
        if bad:
            raise ValueError(f"batch rules must be CANDIDATE, got {bad}")


def filter_records(records: list[ExecutionRecord]) -> list[ExecutionRecord]:
    """Keep failures, flagged-slow records, and elapsed outliers above the
    batch percentile; deduplicate by masked SQL template (first wins)."""
    threshold = None
    if len(records) >= SLOW_MIN_BATCH:
        threshold = float(np.percentile([r.elapsed for r in records],
                                        SLOW_PERCENTILE))
    kept = []
    seen_templates = set()
    for record in records:
        interesting = (
            record.status == STATUS_ERROR
            or record.status == STATUS_SLOW
            or (threshold is not None and record.elapsed > threshold)
        )
        if not interesting:
            continue
        template = templatize(record.sql)
        if template in seen_templates:
            continue
        seen_templates.add(template)
        kept.append(record)
    return kept


def generate_rules(records: list[ExecutionRecord], provider, tool: str,
                   now: float) -> CandidateRuleBatch:
    """Ask the LLM to distill rules from execution outputs.

    The response must be a JSON object keyed by problem-pattern labels; a
    malformed response is retried once, then rejected.
    """
    if not records:
        raise ValueError("generate_rules needs at least one record")
    env = rule_generation_prompt(records)
    try:
        parsed = ask(provider, env)
    except RejectedResponseError:
        parsed = ask(provider, env)  # one retry
    rules = []
    for index, value in parsed.items():
        description = value if isinstance(value, str) else \
            json.dumps(value, sort_keys=True)
        rules.append(RuleEntry(index=index, description=description,
                               matcher=None, tool=tool, status=CANDIDATE,
                               created_at=now))
    return CandidateRuleBatch(
        rules=rules,
        source_records=[r.record_id for r in records],
        generated_at=now,
        records=list(records),
    )


def count_threshold(n_current: int) -> int:
    if n_current < 0:
        raise ValueError("n_current must be non-negative")
    return math.floor(LAM * math.sqrt(n_current))


def time_threshold(historical_intervals: list[float]) -> float:
    if not historical_intervals:
        raise NoHistoryError("no update intervals recorded yet")
    return BETA_TIME * (sum(historical_intervals) / len(historical_intervals))


def should_trigger_verification(pending_count: int, elapsed_since_update: float,
                                n_current: int,
                                update_times: list[float]) -> bool:
    """True when pending rules exceed the count threshold for the tool's
    ``n_current`` verified rules, or the elapsed time exceeds the time
    threshold of its ``update_times`` (strict inequalities)."""
    if pending_count > count_threshold(n_current):
        return True
    intervals = [b - a for a, b in zip(update_times, update_times[1:])]
    try:
        t2 = time_threshold(intervals)
    except NoHistoryError:
        return False
    return elapsed_since_update > t2


def dbscan_labels(distance: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Classic DBSCAN over a precomputed distance matrix.

    Returns one label per point; -1 marks noise. Seeding follows index order,
    so results are deterministic for a fixed matrix.
    """
    n = distance.shape[0]
    UNVISITED, NOISE = -2, -1
    labels = np.full(n, UNVISITED, dtype=int)
    neighborhoods = [np.nonzero(distance[i] <= eps)[0] for i in range(n)]
    is_core = [len(nb) >= min_pts for nb in neighborhoods]
    cluster = 0
    for i in range(n):
        if labels[i] != UNVISITED:
            continue
        if not is_core[i]:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        seeds = deque(int(q) for q in neighborhoods[i])
        while seeds:
            q = seeds.popleft()
            if labels[q] == NOISE:
                labels[q] = cluster  # border point claimed by this cluster
            if labels[q] != UNVISITED:
                continue
            labels[q] = cluster
            if is_core[q]:
                seeds.extend(int(r) for r in neighborhoods[q])
        cluster += 1
    return labels


def _distance_matrix(embeddings: list[np.ndarray]) -> np.ndarray:
    mat = np.vstack(embeddings)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    unit = mat / norms
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    return 1.0 - cos


def cluster_rules(rules: list[RuleEntry], provider) -> list[list[str]]:
    """Group rules whose description embeddings sit within DBSCAN_EPS cosine
    distance; noise points come back as singleton clusters."""
    if not rules:
        raise ValueError("cluster_rules needs at least one rule")
    return _cluster(rules, [provider.embed(r.description) for r in rules])


def _cluster(rules: list[RuleEntry],
             embeddings: list[np.ndarray]) -> list[list[str]]:
    if len(rules) == 1:
        return [[rules[0].index]]
    labels = dbscan_labels(_distance_matrix(embeddings),
                           DBSCAN_EPS, DBSCAN_MIN_PTS)
    clusters: list[list[str]] = []
    label_position: dict[int, int] = {}
    for i, rule in enumerate(rules):
        label = int(labels[i])
        if label == -1:
            clusters.append([rule.index])
            continue
        if label not in label_position:
            label_position[label] = len(clusters)
            clusters.append([])
        clusters[label_position[label]].append(rule.index)
    return clusters


def merge_cluster(cluster: list[RuleEntry],
                  embeddings: list[np.ndarray]) -> RuleEntry:
    """Medoid of the cluster: the member minimizing the summed L2 distance to
    all members. Ties go to the earliest created_at, then the index label."""
    if not cluster:
        raise ValueError("merge_cluster needs a non-empty cluster")
    totals = []
    for i, rule in enumerate(cluster):
        total = sum(float(np.linalg.norm(embeddings[i] - embeddings[j]))
                    for j in range(len(cluster)))
        totals.append((total, rule.created_at, rule.index, rule))
    totals.sort(key=lambda t: (t[0], t[1], t[2]))
    return totals[0][3]


def dedupe_snapshot(snapshot: KnowledgeSnapshot, provider,
                    tool: str) -> tuple[KnowledgeSnapshot, list[dict]]:
    """Merge semantically equivalent rules for one tool.

    The medoid survives; absorbed rules are retired and cases tagged with an
    absorbed rule are re-tagged to the survivor (tag back-references union).
    """
    new = copy_snapshot(snapshot)
    active = [r for r in new.rules if r.tool == tool and r.status != RETIRED]
    if len(active) < 2:
        return new, []
    vectors = [provider.embed(r.description) for r in active]
    clusters = _cluster(active, vectors)
    by_index = {r.index: r for r in active}
    embeddings = {r.index: v for r, v in zip(active, vectors)}
    merges = []
    for indices in clusters:
        if len(indices) < 2:
            continue
        members = [by_index[i] for i in indices]
        survivor = merge_cluster(members, [embeddings[i] for i in indices])
        absorbed = [r.index for r in members if r.index != survivor.index]
        for rule in members:
            if rule.index != survivor.index:
                rule.status = RETIRED
        for case in new.cases:
            if set(case.tag) & set(absorbed):
                tags = [survivor.index if t in absorbed else t for t in case.tag]
                deduped = list(dict.fromkeys(tags))
                case.tag.clear()
                case.tag.extend(deduped)
        merges.append({"survivor": survivor.index, "absorbed": absorbed})
    new.stats.setdefault(tool, ToolStats())
    return new, merges


def _render_details(record: ExecutionRecord) -> str:
    lines = [f"sql: {record.sql}", f"status: {record.status}",
             f"elapsed: {record.elapsed:.3f}s"]
    if record.user_query:
        lines.append(f"user query: {record.user_query}")
    if record.error_log:
        lines.append(f"log: {record.error_log}")
    if record.result_digest:
        lines.append(f"result: {record.result_digest}")
    return "\n".join(lines)


def apply_verification(snapshot: KnowledgeSnapshot, batch: CandidateRuleBatch,
                       decisions: dict[str, str], embedder,
                       now: float) -> KnowledgeSnapshot:
    """Apply expert ACCEPT/REJECT decisions to a candidate batch.

    Accepted rules become VERIFIED and the batch's source records enter the
    historical data tagged with every accepted index; rejected rules are
    retired; undecided rules stay CANDIDATE for the next threshold check.
    """
    known = {r.index for r in batch.rules}
    unknown = set(decisions) - known
    if unknown:
        raise UnknownRuleError(f"decisions reference unknown rules: {sorted(unknown)}")
    new = copy_snapshot(snapshot)
    tool = batch.rules[0].tool if batch.rules else "REWRITER"

    def upsert(rule: RuleEntry) -> RuleEntry:
        for existing in new.rules:
            if existing.tool == rule.tool and existing.index == rule.index \
                    and existing.status != RETIRED:
                return existing
        clone = copy_entry(rule)
        new.rules.append(clone)
        return clone

    accepted: list[str] = []
    for rule in batch.rules:
        verdict = decisions.get(rule.index)
        target = upsert(rule)
        if verdict == "ACCEPT":
            target.status = VERIFIED
            target.verified_at = now
            accepted.append(target.index)
        elif verdict == "REJECT":
            target.status = RETIRED
    if accepted:
        existing_cases = {c.index for c in new.cases}
        for record in batch.records:
            case_index = "case-" + record.record_id[4:]
            if case_index in existing_cases:
                continue
            template = templatize(record.sql)
            new.cases.append(HistoricalCase(
                index=case_index,
                details=_render_details(record),
                tag=list(accepted),
                template=template,
                embedding=embedder.embed(template),
            ))
    stats = new.stats.setdefault(tool, ToolStats())
    if decisions:
        stats.update_times.append(now)
    return new


# --- store flows: learn, verify pending batches, dedupe -------------------------

PENDING_DIR = "pending"


def _batch_from_json(payload) -> CandidateRuleBatch:
    """A pending batch from its JSON form; ValueError says what is wrong."""
    check(payload, {"rules": "required list[dict]",
                    "records": "required list[dict]",
                    "source_records": "required list[str]",
                    "generated_at": "required float"})
    return CandidateRuleBatch(
        rules=[entry_from_json(RuleEntry, r) for r in payload["rules"]],
        source_records=payload["source_records"],
        generated_at=payload["generated_at"],
        records=[record_from_json(r) for r in payload["records"]],
    )


def _write_pending(store_dir: Path, batch: CandidateRuleBatch) -> Path:
    """Save a batch whole or not at all, under a name no earlier batch holds
    (by generation second, then a counter within it), and on disk before
    the store names its candidates: a temp file, once written and fsynced,
    is hard-linked to that name, and then ``pending/`` is fsynced. A failed
    fsync of ``pending/`` removes the name again."""
    pending = store_dir / PENDING_DIR
    tmp = pending / f".batch.{os.getpid()}.tmp"
    try:
        pending.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(batch), indent=2))
            fh.flush()
            os.fsync(fh.fileno())
        for n in itertools.count():
            path = pending / f"batch-{int(batch.generated_at)}-{n:03d}.json"
            with suppress(FileExistsError):
                os.link(tmp, path)
                break
        try:
            fsync_directory(pending)
        except OSError:
            path.unlink(missing_ok=True)
            raise
        return path
    except OSError as exc:
        raise IoFailure(f"cannot write a batch to {pending}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def learn(store_dir: str | Path, records: list[ExecutionRecord], provider,
          embedder, tool: str, auto_accept: bool, now: float) -> ToolReport:
    """Mine rules from execution records into the store at ``store_dir``.

    With ``auto_accept`` every mined rule is verified at once; otherwise the
    rules enter the store as candidates and their batch waits under
    ``pending/`` for ``verify_pending``. A batch without rules is not kept.
    """
    snapshot = load_or_seed(store_dir, embedder)
    filtered = filter_records(records)
    rules: list[str] = []
    pending, required = None, False
    if filtered:
        batch = generate_rules(filtered, provider, tool, now)
        rules = [r.index for r in batch.rules]
        decisions = {index: "ACCEPT" for index in rules} if auto_accept else {}
        if batch.rules and not auto_accept:
            # before the store, so no candidate is stored without its batch
            _write_pending(Path(store_dir), batch)
        snapshot = apply_verification(snapshot, batch, decisions, embedder, now)
        save_snapshot(snapshot, store_dir)
        if not auto_accept:
            pending = len(snapshot.rules_for(tool, CANDIDATE))
            times = snapshot.stats.get(tool, ToolStats()).update_times
            elapsed = now - times[-1] if times else 0.0
            required = should_trigger_verification(
                pending, elapsed, snapshot.n_current(tool), times)
    return ToolReport(
        tool=tool,
        input_digest=input_digest(*(r.record_id for r in records)),
        output={"kept": len(filtered), "rules": rules,
                "accepted": auto_accept, "pending": pending,
                "verification_required": required},
    )


def check_decisions(decisions) -> dict[str, str]:
    """``decisions`` if they map rule indices to ACCEPT or REJECT, else a
    ValueError."""
    if not isinstance(decisions, dict) or not all(
            verdict in ("ACCEPT", "REJECT") for verdict in decisions.values()):
        raise ValueError("decisions must map rule indices to ACCEPT or REJECT")
    return decisions


def verify_pending(store_dir: str | Path, decisions: dict[str, str], embedder,
                   now: float) -> list[Path]:
    """Apply expert ACCEPT/REJECT decisions to the store's pending batches
    and return the batch files consumed, those with every rule decided.

    A decision naming no pending rule, or other than ACCEPT or REJECT,
    rejects the whole call before any decision is applied or any batch
    removed.
    """
    check_decisions(decisions)
    snapshot = load_or_seed(store_dir, embedder)
    paths = sorted((Path(store_dir) / PENDING_DIR).glob("batch-*.json"))
    if not paths:
        raise ValueError("no pending batches")
    batches = [(path, read_json(path, _batch_from_json)) for path in paths]
    unknown = set(decisions) - {r.index for _, batch in batches
                                for r in batch.rules}
    if unknown:
        raise UnknownRuleError(
            f"decisions reference unknown rules: {sorted(unknown)}")
    consumed = []
    for path, batch in batches:
        indices = {r.index for r in batch.rules}
        subset = {k: v for k, v in decisions.items() if k in indices}
        if subset:
            snapshot = apply_verification(snapshot, batch, subset, embedder,
                                          now)
        if len(subset) == len(indices):
            consumed.append(path)
    save_snapshot(snapshot, store_dir)
    for path in consumed:
        path.unlink()
    return consumed


def dedupe_store(store_dir: str | Path, embedder,
                 tools: tuple[str, ...]) -> list[dict]:
    """Run ``dedupe_snapshot`` for each tool on the store and save it."""
    snapshot = load_or_seed(store_dir, embedder)
    merges: list[dict] = []
    for tool in tools:
        snapshot, tool_merges = dedupe_snapshot(snapshot, embedder, tool)
        merges.extend(tool_merges)
    save_snapshot(snapshot, store_dir)
    return merges
