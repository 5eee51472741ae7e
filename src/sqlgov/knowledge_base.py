"""Per-tool knowledge stores: actionable rules and tagged historical cases.

Rules match fragments through ``analysis.MATCHER_PREDICATES``, the
structural predicates that read a fragment's facts off its tree; historical
cases and error strategies are retrieved by cosine similarity over template
embeddings. Each entry kind persists as JSON Lines of its fields; case and
strategy embeddings go beside them as one float64 ``.npy`` matrix per kind,
one row per record. A meta file holds the schema version, the generation of
each kind's files and update times; replacing it commits a save. Nothing
loads through pickle or external services.
"""

from __future__ import annotations

import json
import operator
import os
import re
from collections.abc import Callable, Mapping
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, partial
from pathlib import Path

from .analysis import MATCHER_PREDICATES, matcher_holds
from .errors import (
    DimensionMismatchError,
    IoFailure,
    SchemaVersionMismatchError,
    ZeroVectorError,
)
from .fragmenter import Fragment, FragmentTree
from .lazy import np
from .providers import write_jsonl
from .shapes import check, entry_from_json, naming, read_json, read_jsonl
from .sqltext import templatize

SCHEMA_VERSION = 3  # 1: embeddings inline in the JSONL; 1, 2: fixed names; read still
DEFAULT_K = 5  # cases retrieved per rewrite

REWRITER = "REWRITER"
CORRECTOR = "CORRECTOR"
MODIFIER = "MODIFIER"
VERIFIER = "VERIFIER"
TOOLS = (REWRITER, CORRECTOR, MODIFIER, VERIFIER)

CANDIDATE = "CANDIDATE"
VERIFIED = "VERIFIED"
RETIRED = "RETIRED"


@dataclass
class RuleEntry:
    index: str
    description: str
    matcher: list[dict] | None
    tool: str
    status: str = CANDIDATE
    created_at: float = 0.0
    verified_at: float | None = None

    def __post_init__(self):  # a clause that does not fit fails every match
        for i, clause in enumerate(self.matcher or ()):
            with naming(f"rule {self.index!r}: matcher[{i}]"):
                check(clause, {"pred": "required str"})
                check(clause, MATCHER_PREDICATES.get(clause["pred"], (None, {}))[1])


class _Embedded:
    """An entry with an embedding, held as a read-only 1-D float64 row.

    Any float sequence converts once; a read-only float64 array (a row of a
    loaded matrix) is kept as it is. Equality includes the embedding.
    """

    def __post_init__(self):
        row = np.asarray(self.embedding, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"embedding of shape {row.shape} is not a vector")
        if row.flags.writeable:  # the caller's array, or a fresh one: freeze a copy
            row = row.copy()
            row.flags.writeable = False
        self.embedding = row

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        names, values = _plan(type(self))
        return all(np.array_equal(mine, theirs) if name == "embedding"
                   else mine == theirs
                   for name, mine, theirs in zip(names, values(self),
                                                 values(other)))


@dataclass(eq=False)
class HistoricalCase(_Embedded):
    index: str
    details: str
    tag: list[str]
    template: str
    embedding: np.ndarray


@dataclass(eq=False)
class ErrorStrategy(_Embedded):
    index: str
    message_pattern: str
    needs_schema: bool
    localized: bool
    guidance: str
    embedding: np.ndarray


@dataclass
class ToolStats:  # rule and case counts are the snapshot's, never stored
    update_times: list[float] = field(default_factory=list)


@dataclass
class KnowledgeSnapshot:
    rules: list[RuleEntry] = field(default_factory=list)
    cases: list[HistoricalCase] = field(default_factory=list)
    strategies: list[ErrorStrategy] = field(default_factory=list)
    stats: dict[str, ToolStats] = field(default_factory=dict)

    def rules_for(self, tool: str, status: str | None = None) -> list[RuleEntry]:
        return [r for r in self.rules
                if r.tool == tool and (status is None or r.status == status)]

    def n_current(self, tool: str) -> int:
        return len(self.rules_for(tool, VERIFIED))


@cache
def _plan(cls) -> tuple[tuple[str, ...], Callable[[object], tuple]]:
    """The names of the dataclass ``cls``'s fields, and a function that
    reads an instance's values of them as a tuple. Fields are read this way,
    never through ``vars()``: on CPython 3.11 ``vars()`` gives the instance
    a dict of its own, which slows each later attribute read on it."""
    names = tuple(f.name for f in fields(cls))
    read = operator.attrgetter(*names)
    return names, read if len(names) > 1 else lambda entry: (read(entry),)


def copy_entry(entry):
    """A new ``entry`` whose lists, and the dicts in them, are fresh: a
    rule's matcher and its clauses, a case's tags, a tool's update times.
    Strings and the read-only embedding row are shared. The fields are set
    as they are, so ``__post_init__`` does not check or convert them again."""
    clone = object.__new__(type(entry))
    names, values = _plan(type(entry))
    for name, value in zip(names, values(entry)):
        if isinstance(value, list):
            value = [dict(x) if isinstance(x, dict) else x for x in value]
        setattr(clone, name, value)
    return clone


def copy_snapshot(snapshot: KnowledgeSnapshot) -> KnowledgeSnapshot:
    """A copy of every entry (``copy_entry``) in new lists. The copy shares
    the embedding rows, so it also takes the snapshot's embedding indexes,
    which stay valid for it until its entries change, and the record of
    what its store files hold, which ``save_snapshot`` checks the same way."""
    clone = KnowledgeSnapshot(
        rules=list(map(copy_entry, snapshot.rules)),
        cases=list(map(copy_entry, snapshot.cases)),
        strategies=list(map(copy_entry, snapshot.strategies)),
        stats={tool: copy_entry(s) for tool, s in snapshot.stats.items()})
    for name in (_INDEXES, _FILES):
        if name in snapshot.__dict__:
            clone.__dict__[name] = dict(snapshot.__dict__[name])
    return clone


def cosine_similarity(a, b) -> float:
    va = np.asarray(a, dtype=float)
    vb = np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity undefined for zero vectors")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def _matrix(entries) -> np.ndarray:
    """The entries' embeddings stacked as rows; a DimensionMismatchError if
    they differ in length."""
    lengths = {len(e.embedding) for e in entries}
    if len(lengths) > 1:
        raise DimensionMismatchError(
            f"stored embeddings differ in length: {sorted(lengths)}")
    return np.array([e.embedding for e in entries]) if entries \
        else np.empty((0, 0))


class _EmbeddingIndex:
    """The distinct embeddings of a list of entries, stacked for scoring.

    Entries with equal embeddings share a row, so their scores are bitwise
    equal and ties fall to the index order, as with one
    ``cosine_similarity`` call per entry.
    """

    def __init__(self, entries):
        self.labels = [e.index for e in entries]
        self.rows = [e.embedding for e in entries]  # held, so ids are not reused
        stacked = _matrix(entries)
        stacked += 0.0  # -0.0 becomes 0.0: one row for both
        rows: dict[bytes, int] = {}
        self.entry_rows = np.array(
            [rows.setdefault(row.tobytes(), len(rows)) for row in stacked],
            dtype=np.intp)
        _, first = np.unique(self.entry_rows, return_index=True)
        self.matrix = stacked if len(first) == len(stacked) else stacked[first]
        self.norms = np.linalg.norm(self.matrix, axis=1)
        order = sorted(range(len(entries)), key=self.labels.__getitem__)
        self.index_rank = np.empty(len(entries), dtype=np.intp)
        self.index_rank[order] = np.arange(len(entries))

    def fits(self, entries) -> bool:
        """Whether ``entries`` hold, in order, the index labels and the very
        embedding objects this index was built from."""
        return [e.index for e in entries] == self.labels and all(
            map(operator.is_, [e.embedding for e in entries], self.rows))

    def rank(self, query_vec, selected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Selected entry positions by (-score, index), and their scores."""
        query = np.asarray(query_vec, dtype=float)
        if query.shape != self.matrix.shape[1:]:
            raise DimensionMismatchError(
                f"dimension mismatch: {query.shape} vs {self.matrix.shape[1:]}")
        query_norm = float(np.linalg.norm(query))
        rows = self.entry_rows[selected]
        if query_norm == 0.0 or not self.norms[rows].all():
            raise ZeroVectorError("cosine similarity undefined for zero vectors")
        with np.errstate(divide="ignore", invalid="ignore"):  # unselected zero rows
            row_scores = np.clip(self.matrix @ query / (self.norms * query_norm),
                                 -1.0, 1.0)
        scores = row_scores[rows]
        order = np.lexsort((self.index_rank[selected], -scores))
        return selected[order], scores[order]


_INDEXES = "_indexes"  # the attribute a snapshot holds its indexes in, by kind
# The attribute a snapshot holds, by kind, the files it last read or wrote
# and what its entries held then: (directory, generation, the objects by
# _held).
_FILES = "_files"


def _embedding_index(snapshot: KnowledgeSnapshot, kind: str) -> _EmbeddingIndex:
    """The index of the snapshot's ``kind`` entries ("cases" or
    "strategies"). Built on first use and held on the snapshot, as
    ``analyze_tree`` holds a tree's facts; later calls return it while the
    entries still fit it (``_EmbeddingIndex.fits``), and build a new one
    otherwise. A ragged list raises DimensionMismatchError on every call."""
    entries = getattr(snapshot, kind)
    indexes = snapshot.__dict__.setdefault(_INDEXES, {})
    index = indexes.get(kind)
    if index is None or not index.fits(entries):
        index = indexes[kind] = _EmbeddingIndex(entries)
    return index


class KnowledgeStore:
    """Read view over a snapshot plus the embedding provider used for retrieval.

    The case and strategy indexes belong to the snapshot: each is built once
    and reused by every view while the entries, their index labels and
    their embedding objects are unchanged. ``copy_snapshot`` shares the
    embedding rows and hands the indexes on, so the snapshots of a
    self-learning update reuse them too. A view checks its snapshot's index
    on its first retrieval and then assumes the snapshot does not change
    while the view is in use; build a new view over a changed snapshot.
    The view also keeps the case positions of each tag it has filtered by,
    read on the tag's first use, so an in-place edit of a case's tags, like
    any other in-place edit, needs a new view too.
    """

    def __init__(self, snapshot: KnowledgeSnapshot, embedder,
                 strategy_threshold: float = 0.55):
        self.snapshot = snapshot
        self.embedder = embedder
        self.strategy_threshold = strategy_threshold
        self._tag_positions: dict[str, np.ndarray] = {}

    @cached_property
    def _case_index(self) -> _EmbeddingIndex:
        return _embedding_index(self.snapshot, "cases")

    @cached_property
    def _strategy_index(self) -> _EmbeddingIndex:
        return _embedding_index(self.snapshot, "strategies")

    def match_rules(self, fragment: Fragment, tool: str,
                    tree: FragmentTree) -> list[RuleEntry]:
        """All VERIFIED rules whose matcher holds on the fragment, by index.

        Rules without a matcher are retrieval-only (prompt guidance) and
        never match here.
        """
        return sorted((rule for rule in self.snapshot.rules_for(tool, VERIFIED)
                       if rule.matcher
                       and matcher_holds(rule.matcher, tree, fragment.id)),
                      key=lambda r: r.index)

    def _positions(self, tag: str) -> np.ndarray:
        """The sorted, read-only positions of the cases carrying ``tag``."""
        positions = self._tag_positions.get(tag)
        if positions is None:
            positions = np.array([i for i, case in enumerate(self.snapshot.cases)
                                  if tag in case.tag], dtype=np.intp)
            positions.flags.writeable = False
            self._tag_positions[tag] = positions
        return positions

    def retrieve_cases(self, query: str, tag_filter: list[str] | None = None,
                       k: int = DEFAULT_K) -> list[tuple[HistoricalCase, float]]:
        """Top-k cases by cosine similarity of masked templates, tag-filtered."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        cases = self.snapshot.cases
        if not cases:
            return []
        query_vec = self.embedder.embed(templatize(query))
        index = self._case_index  # a ragged store fails here, whatever the filter
        if tag_filter is None:
            selected = np.arange(len(cases))
        else:
            parts = [self._positions(tag) for tag in set(tag_filter)]
            if len(parts) == 1:
                selected = parts[0]
            else:  # the sorted union; np.union1d would import numpy.ma
                wanted = np.zeros(len(cases), dtype=bool)
                for part in parts:
                    wanted[part] = True
                selected = np.flatnonzero(wanted)
            if not len(selected):
                return []
        positions, scores = index.rank(query_vec, selected)
        return [(cases[i], float(score))
                for i, score in zip(positions[:k], scores[:k])]

    def retrieve_strategy(self, error_key: str) -> tuple[ErrorStrategy, float] | None:
        """Nearest error strategy, or None below the confidence threshold."""
        if not error_key or not error_key.strip():
            raise ValueError("error_key must be non-empty")
        strategies = self.snapshot.strategies
        if not strategies:
            return None
        key_vec = self.embedder.embed(error_key)
        positions, scores = self._strategy_index.rank(
            key_vec, np.arange(len(strategies)))
        sim = float(scores[0])
        if sim >= self.strategy_threshold:
            return strategies[positions[0]], sim
        return None


# --- persistence ---------------------------------------------------------

_ENTRIES = {"rules": RuleEntry, "cases": HistoricalCase,
            "strategies": ErrorStrategy}  # each kept in <kind>.<g>.jsonl
_EMBEDDED = ("cases", "strategies")  # embeddings in <kind>.<g>.npy, row i for record i
# Every name a kind's file has: with a generation (schema 3), or without
# (schemas 1 and 2). A save removes each one its meta.json does not name.
_KIND_FILE = re.compile(r"(rules|cases|strategies)(\.\d+)?\.(jsonl|npy)")


def _record(entry) -> dict:
    names, values = _plan(type(entry))
    return {name: value for name, value in zip(names, values(entry))
            if name != "embedding"}


def _names(kind: str, generation: int) -> tuple[str, ...]:
    """The store files of ``kind`` at ``generation``; generation 0 is the
    fixed names of schemas 1 and 2."""
    stem = f"{kind}.{generation}" if generation else kind
    return (f"{stem}.jsonl", f"{stem}.npy") if kind in _EMBEDDED \
        else (f"{stem}.jsonl",)


def _held(kind: str, entries) -> list:
    """The objects the ``kind`` entries hold in their fields, in order, down
    to the items of their lists and of the dicts in those lists: the depth
    ``copy_entry`` copies to. The items of each list and dict end with the
    type ``list`` or ``dict``, which no JSON value is and ``copy.deepcopy``
    keeps."""
    field_values = _plan(_ENTRIES[kind])[1]
    held = []
    for entry in entries:
        for value in field_values(entry):
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, dict):
                        for pair in item.items():
                            held.extend(pair)
                        held.append(dict)
                    else:
                        held.append(item)
                held.append(list)
            else:
                held.append(value)
    return held


def _committed(directory: Path) -> Mapping:
    """The ``generations`` that the committed ``meta.json`` at ``directory``
    names; empty where none can be read."""
    with suppress(OSError, ValueError, AttributeError):
        generations = json.loads((directory / "meta.json").read_text(
            encoding="utf-8")).get("generations")
        if isinstance(generations, dict):
            return generations
    return {}


def _kept(snapshot: KnowledgeSnapshot, kind: str, where: str,
          held: list, committed: Mapping) -> int:
    """The generation of the ``kind`` files at ``where`` that hold the
    snapshot's entries of that kind, or 0: the snapshot, or the one it was
    copied from (``copy_snapshot``), last read or wrote them there, the
    committed ``meta.json`` still names that generation (``committed``),
    the entries hold the very objects (``held``) they held then, every
    embedding row is read-only, and the files are still there. A save keeps
    only what ``meta.json`` names, and every other save writes above the
    highest generation there, so the generation it names never goes back
    and no name it names is written twice: a file it names holds what it
    held. A file edited by hand is not seen. Any other kind is written: one
    changed in place, even to an equal value, one another save moved on
    from, and every kind of a store saved elsewhere or of schema 1 or 2."""
    last = snapshot.__dict__.get(_FILES, {}).get(kind)
    if last is None:
        return 0
    last_where, generation, last_held = last
    if last_where != where or committed.get(kind) != generation \
            or len(last_held) != len(held) \
            or not all(map(operator.is_, held, last_held)):
        return 0
    if kind in _EMBEDDED and any(
            e.embedding.flags.writeable for e in getattr(snapshot, kind)):
        return 0
    return generation if all(os.path.exists(os.path.join(where, name))
                             for name in _names(kind, generation)) else 0


def fsync_directory(directory: Path) -> None:
    """Put the names in ``directory`` on disk."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_snapshot(snapshot: KnowledgeSnapshot, path: str | Path) -> None:
    """Write the store at ``path``; one replace of ``meta.json`` commits it.

    Each kind not kept (``_kept``) is written under a new generation g, one
    more than the highest among the kind files there: ``<kind>.<g>.jsonl``,
    and ``<kind>.<g>.npy`` for cases and strategies. Each file is created
    exclusively, so no name is written twice, and fsynced; so are the temp
    file ``.meta.json.tmp``, naming each kind's generation, and the
    directory. Then ``os.replace`` of ``meta.json``, the commit. A failure
    before it removes the files this save wrote; a killed save leaves files
    that no load reads, and the next save overwrites its temp file. Either
    way, and after a power loss, the store loads as the previous one, or
    once committed as the new one, never a mix. After the commit, and a
    second fsync of the directory, each kind file that ``meta.json`` does
    not name is removed, schema 1's and 2's fixed names too; a failure
    there is ignored, and the next save removes what is left.
    The store has one writer at a time.
    """
    directory = Path(path)
    where = os.path.abspath(directory)
    held = {kind: _held(kind, getattr(snapshot, kind)) for kind in _ENTRIES}
    committed = _committed(directory)
    generations = {kind: _kept(snapshot, kind, where, held[kind], committed)
                   for kind in _ENTRIES}
    kinds = [kind for kind, kept in generations.items() if not kept]
    matrices = {kind: _matrix(getattr(snapshot, kind))
                for kind in _EMBEDDED if kind in kinds}
    created: list[Path] = []

    def create(name: str, mode: str, write) -> None:
        """Write the file ``name`` with ``write`` and fsync it."""
        file = directory / name
        with open(file, mode, encoding=None if "b" in mode else "utf-8") as fh:
            created.append(file)
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())

    try:
        directory.mkdir(parents=True, exist_ok=True)
        listing = os.listdir(directory)
        generation = 1 + max((int(match[2][1:]) for match in map(
            _KIND_FILE.fullmatch, listing) if match and match[2]), default=0)
        for kind in kinds:
            generations[kind] = generation
            jsonl, *npy = _names(kind, generation)
            create(jsonl, "x", partial(write_jsonl,
                                       map(_record, getattr(snapshot, kind))))
            if npy:
                create(npy[0], "xb", partial(np.save, arr=matrices[kind],
                                             allow_pickle=False))
        meta = {
            "schema_version": SCHEMA_VERSION,
            "generations": generations,
            "stats": {tool: _record(ts) for tool, ts in snapshot.stats.items()},
        }
        tmp = ".meta.json.tmp"  # a killed save's is overwritten, then replaced
        create(tmp, "w", lambda fh: fh.write(
            json.dumps(meta, sort_keys=True, indent=2) + "\n"))
        fsync_directory(directory)
        os.replace(directory / tmp, directory / "meta.json")  # the commit
        created.clear()
    except (OSError, TypeError, ValueError) as exc:
        raise IoFailure(f"cannot write snapshot to {directory}: {exc}") from exc
    finally:
        for file in created:
            file.unlink(missing_ok=True)
    snapshot.__dict__.setdefault(_FILES, {}).update(
        {kind: (where, generation, held[kind]) for kind in kinds})
    named = {name for kind, kept in generations.items()
             for name in _names(kind, kept)}
    with suppress(OSError):  # the next save removes what is left
        fsync_directory(directory)  # the commit is on disk before what it replaced goes
        for name in listing:
            if _KIND_FILE.fullmatch(name) and name not in named:
                os.unlink(directory / name)


def _read_matrix(file: Path) -> np.ndarray:
    """The read-only 2-D matrix of finite float64s saved at ``file``; empty
    if there is no file. The .npy header is checked against the file's size
    before any data is read, and a dtype that would need unpickling is
    refused before that. A ValueError names the file."""
    if not file.exists():
        return np.empty((0, 0))
    fmt = np.lib.format
    try:
        with open(file, "rb") as fh:
            read_header = {(1, 0): fmt.read_array_header_1_0,
                           (2, 0): fmt.read_array_header_2_0}.get(fmt.read_magic(fh))
            if read_header is None:
                raise ValueError("not a version 1 or 2 .npy file")
            shape, fortran_order, dtype = read_header(fh)
            if dtype != np.float64 or len(shape) != 2:
                raise ValueError(f"holds a {dtype} array of shape {shape}, "
                                 f"not a float64 matrix")
            size = shape[0] * shape[1]
            if 8 * size != os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError(f"data does not fill shape {shape}")
            matrix = np.fromfile(fh, dtype=np.float64, count=size).reshape(
                shape, order="F" if fortran_order else "C")
        if not np.isfinite(matrix).all():
            raise ValueError("holds a number that is not finite")
    except ValueError as exc:
        raise ValueError(f"{file}: {exc}") from None
    matrix.flags.writeable = False
    return matrix


def _meta_from_json(meta) -> tuple[int, dict[str, int], dict[str, ToolStats]]:
    """The schema version, each kind's generation (0 before schema 3) and
    the tool stats of a ``meta.json`` value."""
    check(meta, {"stats": "dict"})
    version = meta.get("schema_version")
    if version not in (1, 2, SCHEMA_VERSION):
        raise SchemaVersionMismatchError(
            f"snapshot schema_version {version!r}; "
            f"this build reads versions 1 to {SCHEMA_VERSION}")
    stats = {tool: entry_from_json(ToolStats, record)
             for tool, record in meta.get("stats", {}).items()}
    if version < SCHEMA_VERSION:
        return version, dict.fromkeys(_ENTRIES, 0), stats
    generations = check(meta, {"generations": "required dict"})["generations"]
    for kind in _ENTRIES:
        if type(generations.get(kind)) is not int or generations[kind] < 1:
            raise ValueError(f"generations.{kind}: {generations.get(kind)!r} "
                             f"is not an int of 1 or more")
    return version, generations, stats


def _entry_with_row(cls, rows, record):
    """The ``cls`` entry of ``record`` with the next of ``rows`` as its
    embedding; past the last row, ``record`` as parsed, to be counted."""
    row = next(rows, None)
    return record if row is None else entry_from_json(cls, record, embedding=row)


def load_snapshot(path: str | Path) -> KnowledgeSnapshot:
    """The store saved at ``path``: the files of the generation of each kind
    that ``meta.json`` names. Kind files of any other generation, as a
    killed save leaves them, are never read. A named file that is missing,
    or a store file that does not fit its entries' fields, is a ValueError
    naming the file. Schema-1 and schema-2 stores, whose files have fixed
    names (``rules.jsonl``, ``cases.jsonl``, ...) and, in schema 1, the
    embeddings inline in the JSONL, load too, as generation 0; the next
    save writes schema 3.

    The snapshot records, for each kind of a schema-3 store, the directory,
    the generation and the objects its entries hold, so that
    ``save_snapshot`` back to this directory skips the kinds that still
    hold them."""
    directory = Path(path)
    where = os.path.abspath(directory)
    meta_path = directory / "meta.json"
    try:
        version, generations, stats = read_json(meta_path, _meta_from_json) \
            if meta_path.exists() else (2, dict.fromkeys(_ENTRIES, 0), {})
        entries, files = {}, {}
        width = None  # (columns, file) of the first matrix with rows
        for kind, cls in _ENTRIES.items():
            generation = generations[kind]
            for name in _names(kind, generation) if generation else ():
                if not (directory / name).exists():
                    raise ValueError(f"{directory / name}: missing, though "
                                     f"{meta_path.name} names it")
            file = directory / _names(kind, generation)[0]
            make, matrix = partial(entry_from_json, cls), None
            if kind in _EMBEDDED and version > 1:
                matrix_file = file.with_suffix(".npy")
                matrix = _read_matrix(matrix_file)
                if len(matrix):
                    width = width or (matrix.shape[1], matrix_file.name)
                    if matrix.shape[1] != width[0]:
                        raise ValueError(f"{matrix_file}: {matrix.shape[1]} "
                                         f"columns where {width[1]} has {width[0]}")
                make = partial(_entry_with_row, cls, iter(matrix))
            records = read_jsonl(file, make) if file.exists() else []
            entries[kind] = records
            if matrix is not None and len(records) != len(matrix):
                raise ValueError(f"{file}: {len(records)} records for "
                                 f"{len(matrix)} rows in {matrix_file.name}")
            if generation:
                files[kind] = (where, generation, _held(kind, records))
        snapshot = KnowledgeSnapshot(stats=stats, **entries)
        snapshot.__dict__[_FILES] = files
        return snapshot
    except OSError as exc:
        raise IoFailure(f"cannot read snapshot from {directory}: {exc}") from exc


def check_integrity(snapshot: KnowledgeSnapshot) -> list[str]:
    """Invariant violations as human-readable strings (empty = healthy)."""
    problems = []
    seen = set()
    for rule in snapshot.rules:
        if rule.status == RETIRED:
            continue
        key = (rule.tool, rule.index)
        if key in seen:
            problems.append(f"duplicate active rule index {key}")
        seen.add(key)
    all_indices = {r.index for r in snapshot.rules}
    try:
        norms = np.linalg.norm(_matrix(snapshot.cases), axis=1)
    except DimensionMismatchError as exc:
        problems.append(f"case {exc}")
        norms = np.ones(len(snapshot.cases))
    for case, norm in zip(snapshot.cases, norms):
        for tag in case.tag:
            if tag not in all_indices:
                problems.append(f"case {case.index} tags unknown rule {tag}")
        if abs(norm - 1.0) > 1e-6:
            problems.append(f"case {case.index} embedding norm {norm:.8f}")
    for strat in snapshot.strategies:
        if not strat.guidance:
            problems.append(f"strategy {strat.index} has empty guidance")
    return problems
