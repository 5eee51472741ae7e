"""Seeded input generators and their ground truth.

Every generator takes a ``random.Random`` built from the run's seed, so one
seed always gives the same inputs. The ground truth it returns is computed
from the generator's own data structures, never by calling the program; the
stand-in LLM answers from it and the checks compare the program's outputs
against it.

The structural make-up of each workload (fragment counts, pattern counts,
op mix) is fixed; the seed varies names, literals, tree shapes and order.
That keeps counts per op steady across seeds while the inputs still change.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

FROM = "FROM"
WHERE = "WHERE"
SELECT_LIST = "SELECT_LIST"
CTE = "CTE"
_PRIORITY = {FROM: 0, WHERE: 1, SELECT_LIST: 3}
MAX_DEPTH = 10

# seed rule indices of the program's bundled knowledge (sqlgov.seeds)
OJ = "OUTER_JOIN_NULL_FILTER"
IN_SELECT = "IN(SELECT)"
SAME_TABLE = "SAME_TABLE_JOIN"
UNION_STAR = "UNION_ALL_UNPROJECTED"
SEED_RULES = (IN_SELECT, OJ, SAME_TABLE, UNION_STAR)


# --- nested analytic queries ---------------------------------------------------

@dataclass
class Node:
    marker: str
    depth: int
    site: str = "NONE"
    table: str = ""
    pattern: str | None = None
    lit: int = 0
    in_child: str | None = None  # marker of the WHERE child rendered as IN (...)
    extra: str | None = None     # second select item, for syntax breaks
    broken: bool = False         # render the extra item without its comma
    children: list["Node"] = field(default_factory=list)


@dataclass
class DeepQuery:
    """A generated query, its semantics-preserving rewrite and the truth
    the checks and the stand-in LLM need."""

    qid: str
    sql: str
    rewritten: str
    nodes: dict[str, Node]          # marker -> node
    ids: dict[str, int]             # marker -> post-order fragment id
    root: Node

    @property
    def n_fragments(self) -> int:
        return len(self.nodes)

    def injected(self) -> dict[int, str]:
        """Fragment id -> rule index of every planted pattern."""
        return {self.ids[m]: n.pattern for m, n in self.nodes.items()
                if n.pattern}

    def root_arity(self) -> int:
        return 1 + bool(self.root.extra) + sum(
            1 for c in self.root.children if c.site == SELECT_LIST)

    def render(self, rewritten: bool = False) -> str:
        return render_node(self.root, rewritten)


def render_node(node: Node, rewritten: bool) -> str:
    ctes = [c for c in node.children if c.site == CTE]
    prelude = ""
    if ctes:
        prelude = "WITH " + ", ".join(
            f"c_{c.marker} AS ({render_node(c, rewritten)})" for c in ctes) + " "
    head = node.marker
    if node.extra:
        head += f" {node.extra}" if node.broken else f", {node.extra}"
    select = [head] + [f"({render_node(c, rewritten)})"
                       for c in node.children if c.site == SELECT_LIST]
    base = node.table
    where = [f"{node.marker} > {node.lit}"]
    if node.pattern == OJ:
        join = "INNER" if rewritten else "LEFT"
        base = (f"{node.table} {join} JOIN j_{node.marker} "
                f"ON {node.table}.k = j_{node.marker}.k")
        if not rewritten:
            where.append(f"j_{node.marker}.k IS NOT NULL")
    sources = [base] + [f"({render_node(c, rewritten)}) AS d_{c.marker}"
                        for c in node.children if c.site == FROM]
    for c in node.children:
        if c.site == WHERE:
            op = "IN" if c.marker == node.in_child else "<="
            where.append(f"{node.marker} {op} ({render_node(c, rewritten)})")
    return (f"{prelude}SELECT {', '.join(select)} FROM {', '.join(sources)} "
            f"WHERE {' AND '.join(where)}")


def _post_order(node: Node, counter: list[int], out: dict[str, int]) -> None:
    """Reference numbering: subqueries by clause priority (FROM, WHERE,
    SELECT_LIST), textual order within a clause, then CTEs, node last."""
    subs = [c for c in node.children if c.site != CTE]
    ordered = sorted(enumerate(subs), key=lambda ic: (_PRIORITY[ic[1].site], ic[0]))
    for _, child in ordered:
        _post_order(child, counter, out)
    for child in node.children:
        if child.site == CTE:
            _post_order(child, counter, out)
    counter[0] += 1
    out[node.marker] = counter[0]


def deep_query(rng: random.Random, qid: str, n_fragments: int,
               n_patterns: int, literals: random.Random | None = None) -> DeepQuery:
    """A nested query of exactly ``n_fragments`` fragments with
    ``n_patterns`` planted rule patterns, the first always an outer join
    with a null filter so every query has something to rewrite.

    ``literals`` draws the constants apart from the shape, so one shape
    rendered with several literal streams gives queries that share a
    masked template.
    """
    literals = literals or rng
    root = Node(marker=f"{qid}n000", depth=1)
    nodes = [root]
    while len(nodes) < n_fragments:
        # attach near the most recent nodes: deep rather than bushy trees,
        # nested at most MAX_DEPTH levels like hand-written analytic SQL
        open_ = [n for n in nodes[-12:]
                 if n.depth < MAX_DEPTH and len(n.children) < 4]
        parent = rng.choice(open_ or [n for n in nodes if n.depth < MAX_DEPTH
                                      and len(n.children) < 4])
        if parent is root and len(nodes) < 4 and rng.random() < 0.5:
            site = CTE
        else:
            site = rng.choice((FROM, WHERE, WHERE, SELECT_LIST))
        child = Node(marker=f"{qid}n{len(nodes):03d}", depth=parent.depth + 1,
                     site=site)
        parent.children.append(child)
        nodes.append(child)
    for node in nodes:
        node.table = f"t_{node.marker}"
        node.lit = literals.randrange(1, 1000)
    kinds = [OJ] + [rng.choice((OJ, IN_SELECT, SAME_TABLE))
                    for _ in range(n_patterns - 1)]
    free = list(nodes)
    rng.shuffle(free)
    for kind in kinds:
        for node in free:
            if node.pattern is not None:
                continue
            if kind == IN_SELECT:
                wheres = [c for c in node.children if c.site == WHERE]
                if not wheres:
                    continue
                node.in_child = rng.choice(wheres).marker
            elif kind == SAME_TABLE:
                # the duplicate scan must be owned by this node alone: its
                # table and the borrowing child's are not shared already
                subs = [c for c in node.children if c.site != CTE
                        and c.pattern != SAME_TABLE
                        and c.table == f"t_{c.marker}"]
                if not subs or node.table != f"t_{node.marker}":
                    continue
                rng.choice(subs).table = node.table
            node.pattern = kind
            break
    ids: dict[str, int] = {}
    _post_order(root, [0], ids)
    return DeepQuery(qid=qid, sql=render_node(root, False),
                     rewritten=render_node(root, True),
                     nodes={n.marker: n for n in nodes}, ids=ids, root=root)


# --- execution records and rule families ----------------------------------------

_FAMILY_TEXT = [
    ("scan pruning partition filter missing full table read of the fact "
     "table add a partition predicate on the date key before aggregation"),
    ("cartesian product between dimension tables because the join "
     "condition is absent supply the equality join keys in the on clause"),
    ("correlated scalar lookup evaluated once per outer row replace it by "
     "a grouped derived table joined on the correlation key"),
    ("distinct over a wide projection sorts every column deduplicate on "
     "the key columns first and join the payload afterwards"),
    ("string concatenation inside the predicate defeats the index compare "
     "the raw columns and move formatting into the projection"),
    ("window function recomputed per partition for each output column "
     "share one window specification across the ranked expressions"),
]
N_FAMILIES = len(_FAMILY_TEXT)
_VARIANT_WORDS = ["quickly", "usually", "clearly", "always", "often",
                  "mostly", "safely", "early"]


def family_description(family: int, variant: int) -> str:
    """Near-duplicate wording of one rule family; families share no words."""
    words = _FAMILY_TEXT[family].split()
    extra = _VARIANT_WORDS[variant % len(_VARIANT_WORDS)]
    words.insert(3 + variant % 5, extra)
    return " ".join(words)


def record_marker(n: int) -> str:
    return f"rec{n:05d}"


def record_id(sql: str, status: str, elapsed: float, error_log) -> str:
    """The record identity formula the store documents for case indices."""
    payload = f"{sql}|{status}|{elapsed}|{error_log}"
    return "rec-" + hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]
