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

The tree is the one parse of a query, read by one walk over its tokens
(``_walk``) that opens the fragments and reads the FROM items together.
One table, ``CLAUSES``, names the clause words: they site the subqueries
after them, end the walk's FROM and WITH lists, and bound the analysis'
clause regions. ``FragmentTree.tokens`` are the source's tokens, and a
fragment's ``token_range = (lo, hi)`` indexes its text's tokens there:
``tree.tokens[lo:hi]`` equals ``scan(fragment.text)`` shifted by
``span[0]``. A child's range nests in its parent's, after the '(' that
opens it, and siblings' ranges are disjoint. Consumers slice these tokens
instead of tokenizing fragment text again. ``Token``, ``Fragment`` and
``FromItem`` are NamedTuples; a token carries its upper-case form. The tree
holds its FROM items (``from_items``) and keeps, computed on first use, the
table-name positions read off them (``table_positions``), so the table
analysis, the correlation binders and ``templatize`` read one walk between
them. A fragment's local segments and local text are built per fragment on
their first read and kept on the tree, so a caller pays only for the
fragments it reads. Nothing the tree keeps refers back to it, so a tree the
memo drops is freed by reference counting.

The walk and the numbering keep explicit stacks, not recursion, so a query
nested past the interpreter's recursion limit still decomposes.

A small LRU memo keyed by the query text returns the same tree for the same
text, so a request that evaluates, rewrites, verifies and retrieves one query
scans and decomposes it once. Trees are immutable and shared by every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import EmptyQueryError, OutOfRangeError, UnparseableQueryError
from .sqltext import KEYWORDS, SELECT_HEADS, Token, WORD, scan

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
    SITE_CTE_BODY: 6,
}

SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}

# The clause words, each with the site of a subquery after it. Each ends
# the FROM or WITH list of its parenthesis level, and FROM opens one. A
# word whose site is None leaves the site as it was.
CLAUSES = {
    "SELECT": SITE_SELECT_LIST,
    "FROM": SITE_FROM,
    "WHERE": SITE_WHERE,
    "HAVING": SITE_HAVING,
    "ORDER": SITE_ORDER_BY,
    "GROUP": SITE_NONE,
    "LIMIT": SITE_NONE,
    "WINDOW": SITE_NONE,
    **dict.fromkeys(("SET", "VALUES", "UNION", "INTERSECT", "EXCEPT")),
}

# Texts whose parse is kept: a rewrite-and-verify request holds two, the
# original and the rewrite.
PARSE_MEMO_SIZE = 4


class Fragment(NamedTuple):
    id: int
    kind: str
    span: tuple[int, int]
    parent_id: int | None
    depth: int
    clause_site: str
    token_range: tuple[int, int]  # [lo, hi) into FragmentTree.tokens
    source: str  # the whole query, shared by the tree
    name: str | None = None  # CTE name when kind == CTE

    def __repr__(self) -> str:  # the shared query left out
        return (f"Fragment(id={self.id!r}, kind={self.kind!r}, "
                f"span={self.span!r}, parent_id={self.parent_id!r}, "
                f"depth={self.depth!r}, clause_site={self.clause_site!r}, "
                f"token_range={self.token_range!r}, name={self.name!r})")

    @property
    def text(self) -> str:  # sliced on read: a tree holds its query once
        return self.source[self.span[0]:self.span[1]]

    def contains(self, offset: int) -> bool:
        return self.span[0] <= offset < self.span[1]


_new_fragment = tuple.__new__  # Fragment(...) without the Python-level __new__


class FromItem(NamedTuple):
    first: int  # index of the first name word, or of a derived table's ')'
    last: int  # index of the last name word, or of that ')'
    name: str | None  # the whole dotted name, lower case; None when derived
    alias: int | None  # index of the alias word
    cte: bool  # a name that a WITH list defines, not a FROM item


_new_item = tuple.__new__  # FromItem(...) without the Python-level __new__


@dataclass(frozen=True)
class FragmentTree:
    fragments: tuple[Fragment, ...]  # in id order: fragments[i].id == i + 1
    root_id: int
    source: str
    tokens: tuple[Token, ...]
    # the query's FROM items and the names its WITH lists define, in text
    # order, read by the walk that built the fragments
    from_items: tuple[FromItem, ...]

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

    def subtree(self, fragment_id: int) -> tuple[Fragment, ...]:
        """The fragment and its descendants, in id order. Post-order
        numbering gives a subtree the ids just below its root's, down to
        its first-numbered leaf."""
        first = fragment_id
        while self._children.get(first):
            first = self._children[first][0].id
        return self.fragments[first - 1:fragment_id]

    def local_segments(self, fragment_id: int) -> tuple[str, ...]:
        """The fragment's own text, cut out of its text at each direct
        child's span, in text order: one more segment than children. Two
        fragments with equal segments differ only inside their children,
        whatever either text spells, ``[fragment k]`` included. Built on
        the fragment's first read and kept on the tree."""
        segments = self._local_segments.get(fragment_id)
        if segments is None:
            frag = self.by_id(fragment_id)
            parts, at = [], frag.span[0]
            for child in self._in_text_order(fragment_id):
                parts.append(self.source[at:child.span[0]])
                at = child.span[1]
            parts.append(self.source[at:frag.span[1]])
            segments = self._local_segments[fragment_id] = tuple(parts)
        return segments

    def local_text(self, fragment_id: int) -> str:
        """The fragment's text with each direct child's span replaced by
        ``[fragment k]``, k the child's id: what a prompt about the fragment
        shows. Built on the fragment's first read and kept on the tree, so
        later reads return the same string."""
        text = self._local_texts.get(fragment_id)
        if text is None:
            first, *rest = self.local_segments(fragment_id)
            parts = [first]
            for child, segment in zip(self._in_text_order(fragment_id), rest):
                parts += (f"[fragment {child.id}]", segment)
            text = self._local_texts[fragment_id] = "".join(parts)
        return text

    def _in_text_order(self, fragment_id: int) -> list[Fragment]:
        return sorted(self._children.get(fragment_id, ()),
                      key=lambda c: c.span[0])

    @cached_property
    def _local_segments(self) -> dict[int, tuple[str, ...]]:
        return {}  # filled by local_segments, one fragment at a time

    @cached_property
    def _local_texts(self) -> dict[int, str]:
        return {}  # filled by local_text, one fragment at a time

    @cached_property
    def table_positions(self) -> tuple[int, ...]:
        """Indices into ``tokens`` of the words in table-name position, in
        order: each part of a named item's name, its alias, and each name a
        WITH list defines. A derived table's alias is none of them."""
        positions = []
        for first, last, name, alias, _ in self.from_items:
            if name is not None:
                positions += range(first, last + 1, 2)
                if alias is not None:
                    positions.append(alias)
        return tuple(positions)


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


_FROM, _CONDITION, _WITH = "FROM", "ON", "WITH"  # the list a level is in
_ARGS = "ARGS"  # a function's arguments: no list opens, no word sites
_DEPTH, _CHILDREN, _CLAUSE = 5, 6, 7  # fields of a node (see _open)
_OPENERS = {"JOIN": _FROM, "INTO": _FROM, "UPDATE": _FROM, "TABLE": _FROM,
            "WITH": _WITH}
_QUERY_HEADS = (*SELECT_HEADS, "VALUES")
_NOT_ALIASES = KEYWORDS | CLAUSES.keys() | {"FETCH", "FOR", "TABLESAMPLE",
                                            "RETURNING"}


def _name(token: Token) -> str:
    return token.text.strip('`"').lower()


def _alias(tokens, j: int) -> int | None:
    """The index of the alias word at ``tokens[j]``, after an optional AS:
    a word that is neither a keyword nor a clause or dialect word such as
    WINDOW, FETCH, FOR, TABLESAMPLE or RETURNING."""
    if j < len(tokens) and tokens[j].upper == "AS":
        j += 1
    if j < len(tokens) and tokens[j].kind == WORD \
            and tokens[j].upper not in _NOT_ALIASES:
        return j
    return None


def _is_set_op_arm(tokens: list[Token], open_idx: int, close_idx: int) -> bool:
    prev = tokens[open_idx - 1].upper if open_idx > 0 else None
    if prev in SET_OPS or prev == "ALL":
        return True
    if close_idx + 1 < len(tokens) and tokens[close_idx + 1].upper in SET_OPS:
        # Followed by a set op: an arm only when nothing operand-like
        # precedes it (IN (...) UNION ... is an operand, not an arm).
        return prev is None or prev == "("
    return False


def _open(parent: list, kind: str, site: str, tokens: list[Token],
          open_idx: int, close_idx: int, name: str | None) -> list:
    """A fragment opened at the '(' at ``open_idx``, appended to its
    parent's children: [kind, site, span, token range, CTE name, depth,
    children, site of the last clause word read in it]."""
    n = len(tokens)
    end = tokens[close_idx].start if close_idx < n else tokens[-1].end
    child = [kind, site, (tokens[open_idx].end, end),
             (open_idx + 1, min(close_idx, n)), name, parent[_DEPTH] + 1, [],
             SITE_NONE]
    parent[_CHILDREN].append(child)
    return child


def _walk(tokens: list[Token], pmatch: dict[int, int],
          source: str) -> tuple[list[Fragment], list[FromItem]]:
    """Every fragment of the query, in id order, and its FROM items and the
    names its WITH lists define, in text order: one walk over the tokens,
    with a (list kind, item due, fragment) state for each open parenthesis
    level.

    A group that holds a query (SELECT or WITH) opens a SUBQUERY, unless it
    is a set operation's arm, sited by the last word of ``CLAUSES`` that
    its parent read outside its subqueries and a function's arguments. A
    group after ``name AS`` or ``name (columns) AS``, the name right after
    WITH, WITH RECURSIVE or a comma after a CTE body, opens the CTE ``name``.

    A FROM list opens at FROM, JOIN, INTO or TABLE, or at an UPDATE that
    starts a statement (the first token, or one after '(', ')' or ';'), and
    a WITH list at WITH; either closes at the next clause word of its own
    level. In a FROM list a comma starts an item, and ON or USING starts a
    condition that runs to the next JOIN or comma. Where an item is due, a
    word that is no keyword starts a named item, its parts joined by '.'; a
    group that holds a query (SELECT, WITH or VALUES) is a derived table,
    read at its ')'; any other group is a parenthesized join, whose items
    continue the list. An alias, with or without AS, may follow an item.
    Keywords where an item is due (LATERAL, ONLY) are passed over. A group
    that holds no query and follows a function name, a word that is no
    keyword, holds arguments, as in EXTRACT(YEAR FROM d).

    A node's children are numbered by site (CTEs last), stably in text
    order, and the node after them: each child is pushed on a stack in
    that order, so the visit, reversed, is the post-order that numbers.
    """
    n = len(tokens)
    root = [MAIN, SITE_NONE, (0, len(source)), (0, n), None, 1, [], SITE_NONE]
    items = []
    levels = []  # the (list kind, item due, fragment) of each enclosing level
    kind, due, node = None, False, root
    name = None  # where the next CTE's name would be
    i = 0
    while i < n:
        tok = tokens[i]
        upper = tok.upper
        if upper == "(":
            close = pmatch[i]
            head = tokens[i + 1].upper if i + 1 < n else None
            query = head in _QUERY_HEADS
            if due and kind == _FROM and not query:
                levels.append((_FROM, False, node))  # a parenthesized join
            else:
                levels.append((kind, due, node))
                kind, due = None, False
                if not query and i and tokens[i - 1].kind == WORD \
                        and tokens[i - 1].upper not in KEYWORDS:
                    kind = _ARGS
            if name is not None and tokens[i - 1].upper == "AS" \
                    and tokens[name].kind == WORD \
                    and (name == i - 2 or pmatch.get(name + 1) == i - 2):
                node = _open(node, CTE, SITE_CTE_BODY, tokens, i, close,
                             tokens[name].text)
            elif head in SELECT_HEADS and not _is_set_op_arm(tokens, i, close):
                node = _open(node, SUBQUERY, node[_CLAUSE], tokens, i, close,
                             None)
        elif upper == ")":
            closed = node
            kind, due, node = levels.pop() if levels else (None, False, root)
            if closed[0] == CTE and closed is not node and i + 2 < n \
                    and tokens[i + 1].upper == ",":
                name = i + 2  # the next CTE's
            if due and kind == _FROM:  # a derived table ends
                alias = _alias(tokens, i + 1)
                items.append(_new_item(FromItem, (i, i, None, alias, False)))
                due = False
                i = alias or i  # an alias is never token 0
        elif kind == _ARGS:
            pass
        elif upper in CLAUSES:
            kind, due = (_FROM, True) if upper == "FROM" else (None, False)
            node[_CLAUSE] = CLAUSES[upper] or node[_CLAUSE]
        elif upper in _OPENERS and (
                upper != "UPDATE" or not i
                or tokens[i - 1].upper in ("(", ")", ";")):
            kind, due = _OPENERS[upper], True
            if kind == _WITH:
                name = i + 1
                if name < n and tokens[name].upper == "RECURSIVE":
                    name += 1
        elif kind is None:
            pass
        elif upper == ",":
            kind, due = (_WITH if kind == _WITH else _FROM), True
        elif upper == "ON" or upper == "USING":
            kind, due = _CONDITION, False
        elif due and tok.kind == WORD and upper not in KEYWORDS:
            first, item = i, _name(tok)
            if kind == _WITH:
                items.append(_new_item(FromItem, (i, i, item, None, True)))
            else:
                while i + 2 < n and tokens[i + 1].upper == "." \
                        and tokens[i + 2].kind == WORD:
                    i += 2
                    item += "." + _name(tokens[i])
                alias = _alias(tokens, i + 1)
                items.append(_new_item(FromItem,
                                       (first, i, item, alias, False)))
                i = alias or i
            due = False
        elif due and tok.kind != WORD:
            due = False
        i += 1
    visited = []  # (node, index of its parent in visit order)
    pending = [(root, None)]
    while pending:
        node, parent = pending.pop()
        at = len(visited)
        visited.append((node, parent))
        pending += [(child, at) for child in
                    sorted(node[_CHILDREN],
                           key=lambda c: _SIBLING_PRIORITY[c[1]])]
    last = len(visited)  # the node visited at index i gets id last - i
    fragments = [
        _new_fragment(Fragment, (
            last - i, kind, span, None if parent is None else last - parent,
            depth, site, token_range, source, cte))
        for i, ((kind, site, span, token_range, cte, depth, _, _), parent)
        in reversed(list(enumerate(visited)))
    ]
    return fragments, items


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
    fragments, items = _walk(tokens, pmatch, query)
    tree = FragmentTree(fragments=tuple(fragments),
                        root_id=fragments[-1].id, source=query,
                        tokens=tuple(tokens), from_items=tuple(items))
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

