"""Checks computed apart from the program.

Each function recomputes what an op should have produced from the
generator's truth or by brute force with numpy, using the program only for
its documented inputs (the embedding provider and the template masking a
query is embedded through).
"""

from __future__ import annotations

import re

import numpy as np

import gen
from standin import MARKER_RE

from sqlgov.sqltext import templatize

_TIE = 1e-9  # similarities this close rank as ties, broken by index


def numbering(query, tree) -> str | None:
    """Fragment count and the post-order id of every marker, against the
    generator's own walk; the id of a marker is the deepest fragment whose
    span holds the marker's first occurrence."""
    if len(tree.fragments) != query.n_fragments:
        return (f"{len(tree.fragments)} fragments, generator walked "
                f"{query.n_fragments}")
    spans = [(f.span, f.depth, f.id) for f in tree.fragments]
    seen = set()
    for match in MARKER_RE.finditer(query.sql):
        marker = match.group(1)
        if marker in seen:
            continue
        seen.add(marker)
        offset = match.start()
        deepest = max((s for s in spans if s[0][0] <= offset < s[0][1]),
                      key=lambda s: s[1])
        if deepest[2] != query.ids[marker]:
            return f"marker {marker} in fragment {deepest[2]}, expected {query.ids[marker]}"
    return None


def _rank(scored: list[tuple[float, str]], k: int) -> list[str]:
    """Top-k indices by descending similarity; near-equal scores rank by
    index."""
    scored = sorted(scored, key=lambda s: -s[0])
    ranked: list[str] = []
    group: list[tuple[float, str]] = []
    for score, index in scored:
        if group and group[0][0] - score > _TIE:
            ranked.extend(sorted(i for _, i in group))
            group = []
            if len(ranked) >= k:
                break
        group.append((score, index))
    else:
        ranked.extend(sorted(i for _, i in group))
    return ranked[:k]


def _cosines(entries, vector) -> dict[str, float]:
    matrix = np.array([e.embedding for e in entries])
    sims = matrix @ vector / (np.linalg.norm(matrix, axis=1)
                              * np.linalg.norm(vector))
    return {e.index: float(s) for e, s in zip(entries, sims)}


def top_k(store, embedder, sql: str, tags, k: int) -> list[str]:
    """Brute-force case retrieval: one matrix product over the stored
    embeddings of the tag-filtered cases. Queries are embedded through the
    same masking the cases were stored under."""
    cases = [c for c in store.snapshot.cases
             if tags is None or set(c.tag) & set(tags)]
    if not cases:
        return []
    sims = _cosines(cases, embedder.embed(templatize(sql)))
    return _rank([(s, i) for i, s in sims.items()], k)


def nearest_strategy(store, embedder, error_key: str) -> str | None:
    sims = _cosines(store.snapshot.strategies, embedder.embed(error_key))
    best = _rank([(s, i) for i, s in sims.items()], 1)[0]
    return best if sims[best] >= store.strategy_threshold else None


def intent(request: str, categories, embedder, cfg) -> str | None:
    """alpha * weighted keyword share + beta * cosine to the category
    centroid (normalized mean of the keyword-phrase embeddings); None when
    the best score is below theta. Ties keep declaration order."""
    query = embedder.embed(request)
    query = query / np.linalg.norm(query)
    best, best_score = None, -np.inf
    for category in categories:
        hits = sum(weight for phrase, weight in category.keywords
                   if re.search(r"(?<!\w)" + re.escape(phrase) + r"(?!\w)",
                                request, re.IGNORECASE))
        members = np.array([embedder.embed(p) for p, _ in category.keywords])
        centroid = members.mean(axis=0)
        centroid /= np.linalg.norm(centroid)
        score = cfg.alpha * hits / len(category.keywords) \
            + cfg.beta_sim * float(query @ centroid)
        if score > best_score + _TIE:
            best, best_score = category.id, score
    return best if best_score >= cfg.theta else None


def verify_pair(data, verdict, llm_calls: int) -> str | None:
    kind, _, _, query = data
    if kind in ("arity", "tables"):
        if verdict.verdict != "NOT_EQUIVALENT":
            return f"structurally different pair came back {verdict.verdict}"
        if llm_calls:
            return f"structural rejection made {llm_calls} LLM calls"
        return None
    if kind == "differs":
        if verdict.verdict != "NOT_EQUIVALENT" or not verdict.counterexample:
            return f"differing pair came back {verdict.verdict}"
        return None
    expected = tuple((i, i) for i in range(query.root_arity()))
    if verdict.verdict != "EQUIVALENT" or verdict.field_mapping != expected:
        return f"equivalent pair came back {verdict.verdict}"
    return None


class LifecycleModel:
    """The knowledge store's expected rule statuses, cases and tags, kept
    by replaying the documented lifecycle on the generator's truth."""

    def __init__(self, snapshot, embedder):
        self.embedder = embedder
        # label -> [family or None, status, created_at, description]
        self.rules = {r.index: [None, r.status, r.created_at, r.description]
                      for r in snapshot.rules}
        self.cases = {c.index: list(c.tag) for c in snapshot.cases}
        self.batches: list[list[tuple]] = []

    def survivor(self, family: int) -> str | None:
        for label, (fam, status, _, _) in self.rules.items():
            if fam == family and status != "RETIRED":
                return label
        return None

    def _compare(self, snapshot) -> str | None:
        statuses = {r.index: r.status for r in snapshot.rules}
        expected = {label: rule[1] for label, rule in self.rules.items()}
        if statuses != expected:
            diff = {k: (statuses.get(k), v) for k, v in expected.items()
                    if statuses.get(k) != v}
            return f"rule statuses (got, expected): {dict(list(diff.items())[:4])}"
        cases = {c.index: c.tag for c in snapshot.cases}
        if cases != self.cases:
            extra = sorted(set(cases) ^ set(self.cases))[:4]
            return f"cases differ from the accepted records: {extra}"
        return None

    def learn(self, batch, kept, now, snapshot) -> str | None:
        """``kept``: (record, label, family, description) of every record
        the filter must keep, in order."""
        got = [(r.index, r.description) for r in batch.rules]
        if got != [(label, text) for _, label, _, text in kept]:
            return f"generated rules {[g[0] for g in got]} differ from the truth"
        wanted_ids = [gen.record_id(r.sql, r.status, r.elapsed, r.error_log)
                      for r, _, _, _ in kept]
        if batch.source_records != wanted_ids:
            return "batch source records differ from the filtered records"
        for _, label, family, text in kept:
            self.rules[label] = [family, "CANDIDATE", now, text]
        self.batches.append(kept)
        return self._compare(snapshot)

    def verify(self, decisions, snapshot) -> str | None:
        for kept in self.batches:
            accepted = []
            for _, label, _, _ in kept:
                verdict = decisions.get(label)
                if verdict == "ACCEPT":
                    self.rules[label][1] = "VERIFIED"
                    accepted.append(label)
                elif verdict == "REJECT":
                    self.rules[label][1] = "RETIRED"
            if accepted:
                for record, _, _, _ in kept:
                    rid = gen.record_id(record.sql, record.status,
                                        record.elapsed, record.error_log)
                    self.cases.setdefault("case-" + rid[4:], list(accepted))
        self.batches = []
        self._dedupe()
        return self._compare(snapshot)

    def _dedupe(self) -> None:
        """One survivor per planted family: the medoid by summed L2
        distance, ties to the earliest created_at, then the index."""
        families: dict[int, list[str]] = {}
        for label, (family, status, _, _) in self.rules.items():
            if family is not None and status != "RETIRED":
                families.setdefault(family, []).append(label)
        for members in families.values():
            if len(members) < 2:
                continue
            vectors = [self.embedder.embed(self.rules[m][3]) for m in members]
            totals = []
            for i, label in enumerate(members):
                total = sum(float(np.linalg.norm(vectors[i] - vectors[j]))
                            for j in range(len(members)))
                totals.append((total, self.rules[label][2], label))
            survivor = min(totals)[2]
            absorbed = [m for m in members if m != survivor]
            for label in absorbed:
                self.rules[label][1] = "RETIRED"
            for index, tags in self.cases.items():
                if set(tags) & set(absorbed):
                    merged = [survivor if t in absorbed else t for t in tags]
                    self.cases[index] = list(dict.fromkeys(merged))
