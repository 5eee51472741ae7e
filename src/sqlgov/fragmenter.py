"""Recursive decomposition of a SQL query into numbered, self-contained fragments.

A query splits into a main body, CTE bodies, and nested subqueries. Each
becomes a fragment with a character span into the original text. Numbering is
deterministic post-order: a fragment's subqueries first (by clause priority
FROM, WHERE, HAVING, select list, ORDER BY, textually within a clause), then
its CTEs, then the fragment itself; the main fragment is numbered last.

Parsing is structural only (parentheses, strings, comments, clause keywords),
so syntactically invalid queries still decompose best-effort; structural
damage (unbalanced brackets, unterminated strings) is reported as a
diagnostic alongside the partial tree.

The tree is the one parse of a query. ``FragmentTree.tokens`` are the
source's tokens, and a fragment's ``token_range = (lo, hi)`` indexes its
text's tokens there: ``tree.tokens[lo:hi]`` equals ``scan(fragment.text)``
shifted by ``span[0]``. A child's range nests in its parent's, after the '('
that opens it, and siblings' ranges are disjoint. Consumers slice these
tokens instead of tokenizing fragment text again. Tokens are tuples that
carry their upper-case form. The tree also keeps, computed on first use, the
positions of its table-context walk (``table_positions``), so the table
analysis and ``templatize`` walk a tree once between them.

Building and numbering walk the nesting with explicit stacks, not
recursion, so a query nested past the interpreter's recursion limit still
decomposes.

A small LRU memo keyed by the query text returns the same tree for the same
text, so a request that evaluates, rewrites, verifies and retrieves one query
scans and decomposes it once. Trees are immutable and shared by every caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import EmptyQueryError, OutOfRangeError, UnparseableQueryError
from .sqltext import SELECT_HEADS, Token, WORD, iter_table_context, scan

MAIN = "MAIN"
CTE = "CTE"
SUBQUERY = "SUBQUERY"

SITE_FROM = "FROM"
SITE_WHERE = "WHERE"
SITE_HAVING = "HAVING"
SITE_SELECT_LIST = "SELECT_LIST"
SITE_ORDER_BY = "ORDER_BY"
SITE_CTE_BODY = "CTE_BODY"
SITE_NONE = "NONE"

_SIBLING_PRIORITY = {
    SITE_FROM: 0,
    SITE_WHERE: 1,
    SITE_HAVING: 2,
    SITE_SELECT_LIST: 3,
    SITE_ORDER_BY: 4,
    SITE_NONE: 5,
}

_CLAUSE_KEYWORDS = {
    "SELECT": SITE_SELECT_LIST,
    "FROM": SITE_FROM,
    "WHERE": SITE_WHERE,
    "HAVING": SITE_HAVING,
    "ORDER": SITE_ORDER_BY,
    "GROUP": SITE_NONE,
    "LIMIT": SITE_NONE,
    "WINDOW": SITE_NONE,
}

_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}

# Texts whose parse is kept: a rewrite-and-verify request holds two, the
# original and the rewrite.
PARSE_MEMO_SIZE = 4


@dataclass(frozen=True)
class Fragment:
    id: int
    kind: str
    span: tuple[int, int]
    parent_id: int | None
    depth: int
    clause_site: str
    token_range: tuple[int, int]  # [lo, hi) into FragmentTree.tokens
    source: str = field(repr=False)  # the whole query, shared by the tree
    name: str | None = None  # CTE name when kind == CTE

    @property
    def text(self) -> str:  # sliced on read: a tree holds its query once
        return self.source[self.span[0]:self.span[1]]

    def contains(self, offset: int) -> bool:
        return self.span[0] <= offset < self.span[1]


@dataclass(frozen=True)
class FragmentTree:
    fragments: tuple[Fragment, ...]  # in id order: fragments[i].id == i + 1
    root_id: int
    source: str
    tokens: tuple[Token, ...]

    def by_id(self, fragment_id: int) -> Fragment:
        if 1 <= fragment_id <= len(self.fragments):
            return self.fragments[fragment_id - 1]
        raise KeyError(fragment_id)

    @property
    def root(self) -> Fragment:
        return self.by_id(self.root_id)

    def children(self, fragment_id: int) -> list[Fragment]:
        return list(self._children.get(fragment_id, ()))

    @cached_property
    def _children(self) -> dict[int | None, list[Fragment]]:
        index: dict[int | None, list[Fragment]] = {}
        for frag in self.fragments:
            index.setdefault(frag.parent_id, []).append(frag)
        return index

    def local_text(self, fragment_id: int) -> str:
        """The fragment's text with each direct child's span replaced by
        ``[fragment k]``, k the child's id: what a prompt about the fragment
        shows. Computed once per tree, for every fragment."""
        return self._local_texts[fragment_id]

    @cached_property
    def _local_texts(self) -> dict[int, str]:
        texts: dict[int, str] = {}
        for frag in self.fragments:
            parts, at = [], frag.span[0]
            for child in sorted(self._children.get(frag.id, ()),
                                key=lambda c: c.span[0]):
                parts += (self.source[at:child.span[0]],
                          f"[fragment {child.id}]")
                at = child.span[1]
            parts.append(self.source[at:frag.span[1]])
            texts[frag.id] = "".join(parts)
        return texts

    @cached_property
    def table_positions(self) -> tuple[int, ...]:
        """Indices into ``tokens`` of the words in table-name position, in
        order: ``iter_table_context`` over the whole query, walked once per
        tree."""
        return tuple(idx for idx, _ in iter_table_context(self.tokens))

    def cte_names(self) -> set[str]:
        return {f.name.lower() for f in self.fragments if f.kind == CTE and f.name}


def _match_parens(tokens: list[Token]) -> tuple[dict[int, int], str | None]:
    """Map each '(' token index to its ')' index; unclosed groups map to len(tokens)."""
    matches: dict[int, int] = {}
    stack: list[int] = []
    diagnostic = None
    for idx, tok in enumerate(tokens):
        text = tok.text
        if text == "(":
            stack.append(idx)
        elif text == ")":
            if stack:
                matches[stack.pop()] = idx
            else:
                diagnostic = diagnostic or f"unbalanced ')' at offset {tok.start}"
    while stack:
        open_idx = stack.pop()
        matches[open_idx] = len(tokens)
        diagnostic = diagnostic or \
            f"unclosed '(' at offset {tokens[open_idx].start}"
    return matches, diagnostic


def _is_subquery_group(tokens: list[Token], open_idx: int, close_idx: int) -> bool:
    first = open_idx + 1
    return first < min(close_idx, len(tokens)) \
        and tokens[first].upper in SELECT_HEADS


def _is_set_op_arm(tokens: list[Token], open_idx: int, close_idx: int) -> bool:
    prev = tokens[open_idx - 1].upper if open_idx > 0 else None
    if prev in _SET_OPS or prev == "ALL":
        return True
    if close_idx + 1 < len(tokens) and tokens[close_idx + 1].upper in _SET_OPS:
        # Followed by a set op: an arm only when nothing operand-like
        # precedes it (IN (...) UNION ... is an operand, not an arm).
        return prev is None or prev == "("
    return False


def _split_with_prelude(tokens: list[Token], lo: int, hi: int,
                        pmatch: dict[int, int]) -> tuple[list[tuple[str, int, int]], int]:
    """Return ([(cte_name, open_idx, close_idx)], body_start_index)."""
    ctes: list[tuple[str, int, int]] = []
    if lo >= hi or tokens[lo].upper != "WITH":
        return ctes, lo
    i = lo + 1
    if i < hi and tokens[i].upper == "RECURSIVE":
        i += 1
    while i < hi:
        if tokens[i].kind != WORD:
            break
        name = tokens[i].text
        i += 1
        if i < hi and tokens[i].text == "(":  # optional column alias list
            i = min(pmatch.get(i, hi), hi - 1) + 1
        if i >= hi or tokens[i].upper != "AS":
            break
        i += 1
        if i >= hi or tokens[i].text != "(":
            break
        close = pmatch.get(i, len(tokens))
        ctes.append((name, i, close))
        i = close + 1
        if i < hi and tokens[i].text == ",":
            i += 1
            continue
        break
    return ctes, min(i, hi)


def _collect_subqueries(tokens: list[Token], lo: int, hi: int,
                        pmatch: dict[int, int],
                        skip: set[int]) -> list[tuple[int, int, str]]:
    """Find direct child subquery groups in [lo, hi): (open_idx, close_idx, site).

    Non-subquery parenthesized groups (function arguments, set-operation arms)
    are descended into so their nested subqueries still attach here.
    """
    found: list[tuple[int, int, str]] = []
    clause = SITE_NONE
    i = lo
    while i < hi:
        upper = tokens[i].upper
        if upper == "(":
            close = pmatch.get(i, len(tokens))
            if i in skip:  # a CTE body group; jump past it
                i = close + 1
            elif _is_subquery_group(tokens, i, close) \
                    and not _is_set_op_arm(tokens, i, close):
                found.append((i, close, clause))
                i = close + 1
            else:
                i += 1
            continue
        clause = _CLAUSE_KEYWORDS.get(upper, clause)
        i += 1
    return found


def _build_fragments(tokens: list[Token], pmatch: dict[int, int],
                     source: str) -> list[Fragment]:
    """Every fragment of the query, in id order.

    Nodes wait on a stack as (kind, site, span, token_range, name, depth,
    index of the parent in visit order). A node's children are pushed in
    numbering order (subqueries by clause priority, stably, as they come in
    text order; then CTEs in text order) and so taken last to first: that
    pre-order visit, reversed, is the post-order walk that numbers them.
    """
    visited = []
    pending = [(MAIN, SITE_NONE, (0, len(source)), (0, len(tokens)), None, 1,
                None)]
    while pending:
        node = pending.pop()
        _, _, _, (lo, hi), _, depth, _ = node
        at = len(visited)
        visited.append(node)
        ctes, body_lo = _split_with_prelude(tokens, lo, hi, pmatch)
        cte_opens = {open_idx for _, open_idx, _ in ctes}
        subqueries = [
            (SUBQUERY, site, _group_span(tokens, open_idx, close_idx),
             (open_idx + 1, min(close_idx, len(tokens))), None, depth + 1, at)
            for open_idx, close_idx, site in _collect_subqueries(
                tokens, body_lo, hi, pmatch, cte_opens)]
        subqueries.sort(key=lambda child: _SIBLING_PRIORITY[child[1]])
        pending += subqueries
        # the prelude's column-alias groups never contain subqueries; CTE bodies do
        pending += [
            (CTE, SITE_CTE_BODY, _group_span(tokens, open_idx, close_idx),
             (open_idx + 1, min(close_idx, len(tokens))), name, depth + 1, at)
            for name, open_idx, close_idx in ctes]
    last = len(visited)  # the node visited at index i gets id last - i
    return [
        Fragment(
            id=last - i, kind=kind, span=span, source=source,
            parent_id=None if parent is None else last - parent, depth=depth,
            clause_site=site, token_range=token_range, name=name,
        )
        for i, (kind, site, span, token_range, name, depth, parent)
        in reversed(list(enumerate(visited)))
    ]


def _group_span(tokens: list[Token], open_idx: int, close_idx: int) -> tuple[int, int]:
    start = tokens[open_idx].end
    if close_idx >= len(tokens):
        end = tokens[-1].end
    else:
        end = tokens[close_idx].start
    return (start, end)


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def decompose_lenient(query: str) -> tuple[FragmentTree, str | None]:
    """Best-effort decomposition; never raises on structural damage.

    Returns the (possibly partial) tree and a diagnostic when the bracket or
    literal structure was broken. The syntax corrector relies on this entry
    point because its input is invalid by definition. The last
    ``PARSE_MEMO_SIZE`` texts' results are memoized (``cache_clear()``
    empties the memo); a blank query raises every time.
    """
    if not query or not query.strip():
        raise EmptyQueryError("query is blank")
    tokens, diagnostic = scan(query)
    if not tokens:
        raise EmptyQueryError("query contains only comments/whitespace")
    pmatch, paren_diag = _match_parens(tokens)
    diagnostic = diagnostic or paren_diag
    fragments = _build_fragments(tokens, pmatch, query)
    tree = FragmentTree(fragments=tuple(fragments),
                        root_id=fragments[-1].id, source=query,
                        tokens=tuple(tokens))
    return tree, diagnostic


def decompose(query: str) -> FragmentTree:
    """Decompose ``query`` into a FragmentTree.

    Raises EmptyQueryError for blank input and UnparseableQueryError (carrying
    the partial tree) when the bracket/literal structure is broken.
    """
    tree, diagnostic = decompose_lenient(query)
    if diagnostic is not None:
        raise UnparseableQueryError(diagnostic, partial_tree=tree)
    return tree


def fragment_at(tree: FragmentTree, offset: int) -> Fragment:
    """Deepest fragment whose span contains ``offset``."""
    if offset < 0 or offset >= len(tree.source):
        raise OutOfRangeError(
            f"offset {offset} outside [0, {len(tree.source)})")
    best = tree.root  # MAIN spans the whole source
    for frag in tree.fragments:
        if frag.contains(offset) and frag.depth > best.depth:
            best = frag
    return best

