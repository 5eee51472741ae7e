"""Structural facts about fragments: table scans, joins, projection shape.

Facts are computed from the tree's one token list; nothing here tokenizes
text. Every token has one owner, the innermost fragment whose
``token_range`` holds it, so the parentheses around a child stay with the
parent; a fragment's own tokens are the tokens it owns, with offsets into
the whole query. The tree's one table-context walk over the whole query
(``FragmentTree.table_positions``) gives each table reference to the owner
of its token, so each base-table scan is attributed to exactly one fragment,
and subtree counts are own counts summed bottom-up. On well-formed SQL the
walk reads a fragment's tokens as a walk of that fragment alone would,
because a subquery opens with SELECT or WITH and a CTE body follows its
consumed name. Every other fact comes from one walk over the fragment's own
tokens, which reads each token's upper-case form from the token itself;
that walk also marks out the projection, whose own tokens the equivalence
check compares to tell whether two fragments name their outputs alike.
Rule matchers, the rewriter's efficiency screen, and the equivalence
pre-filter all read from here, keeping every tool's view of a query
consistent. A tree's analysis is computed once and held on the tree,
read-only, so every consumer of one (memoized) tree shares it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

from .fragmenter import Fragment, FragmentTree, SITE_SELECT_LIST, SUBQUERY
from .sqltext import Token, WORD, is_keyword, normalize_tokens, normalized_text

_OUTER_JOINS = {"LEFT", "RIGHT", "FULL"}
_JOIN_MODIFIERS = _OUTER_JOINS | {"INNER", "OUTER", "CROSS", "NATURAL"}
_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}
_CLAUSE_BREAK = {"FROM", "WHERE", "GROUP", "ORDER", "HAVING", "LIMIT"} | _SET_OPS
_WHERE_BREAK = {"GROUP", "ORDER", "HAVING", "LIMIT", "WINDOW"} | _SET_OPS
_STAR_AFTER = {",", ".", "DISTINCT"}  # a '*' after these starts an item


@dataclass(frozen=True)
class FragmentFacts:
    fragment_id: int
    own_tokens: tuple[Token, ...]
    table_counts_own: Mapping[str, int]
    table_counts_subtree: Mapping[str, int]
    has_outer_join: bool
    where_has_is_not_null: bool
    select_items: int | None
    select_has_star: bool
    projection: tuple[Token, ...]  # own tokens of the first SELECT region
    has_set_op: bool
    set_op_arm_star: bool
    in_subquery: bool
    scalar_subquery_in_select: bool

    def contains_operator(self, op: str) -> bool:
        """``op`` occurs in the own tokens, token for token."""
        return (f" {normalized_text(op)} "
                in f" {normalize_tokens(self.own_tokens)} ")


def _table_refs(tokens: tuple[Token, ...], positions, cte_names: set[str]):
    """Yield (index, lower-cased name) for each base-table reference: a word
    at one of the table-context ``positions`` that is neither a CTE name nor
    an alias, which comes right after ')', AS or the name it renames."""
    for idx in positions:
        prev = tokens[idx - 1] if idx else None
        if prev and (prev.text == ")" or prev.upper == "AS"
                     or prev.kind == WORD and not is_keyword(prev)):
            continue
        name = tokens[idx].text.strip('`"').lower()
        if name and name not in cte_names:
            yield idx, name


def referenced_tables(tree: FragmentTree) -> list[str]:
    """The base tables the whole query scans, sorted."""
    return sorted({name for _, name in _table_refs(
        tree.tokens, tree.table_positions, tree.cte_names())})


def _ended_regions(own, selects, end: int, content: int, commas: int,
                   stars: int) -> list[tuple[int, bool, tuple[Token, ...]]]:
    """(items, projects a star, own tokens) of each open SELECT region in
    ``selects``, ended at ``own[end]`` where the running counts stand at
    ``content`` top-level tokens, ``commas`` commas and ``stars`` stars
    after one of ``_STAR_AFTER``: a region holds each count's growth since
    it opened. A '*' that opens a region starts an item too."""
    return [((commas - c + 1) if content > n else 0,
             stars > st or (start < len(own) and own[start].upper == "*"),
             own[start:end])
            for start, n, c, st in selects]


def _join_is_outer(own, idx: int) -> bool:
    """Of LEFT/RIGHT/FULL/CROSS in the modifier run before the JOIN at
    ``own[idx]``, the one farthest from JOIN is an outer one."""
    kind = None
    j = idx - 1
    while j >= 0 and own[j].upper in _JOIN_MODIFIERS:
        if own[j].upper in _OUTER_JOINS or own[j].upper == "CROSS":
            kind = own[j].upper
        j -= 1
    return kind in _OUTER_JOINS


def analyze_fragment(fragment: Fragment, tree: FragmentTree,
                     own: tuple[Token, ...], own_counts: dict[str, int],
                     subtree_counts: dict[str, int]) -> FragmentFacts:
    """The fragment's facts from one walk over its own tokens.

    Top level is outside every parenthesized group, the parentheses left
    out. A SELECT region runs from a top-level SELECT to the next top-level
    word of ``_CLAUSE_BREAK``: the first is the projection, and with a
    top-level set operation each is an arm's. The WHERE region runs from the
    first top-level WHERE to the next top-level word of ``_WHERE_BREAK``.
    SELECT regions are read off running counts of top-level tokens, commas
    and stars, taken where each starts and ends; the projection's own
    tokens are kept, each child in it shown as its parentheses.
    """
    depth = content = commas = stars = 0
    selects = []  # (start, content, commas, stars) of each open SELECT region
    regions = []  # (items, star, tokens) of each ended SELECT region, in order
    where_lo = where_hi = None
    is_not_null = []  # index of the IS of each IS NOT NULL
    has_op = has_outer_join = False
    for idx, tok in enumerate(own):
        upper = tok.upper
        if upper == "(":
            depth += 1
            continue
        if upper == ")":
            depth -= 1
            continue
        if upper == "JOIN":
            has_outer_join = has_outer_join or _join_is_outer(own, idx)
        elif upper == "NULL" and idx >= 2 and own[idx - 1].upper == "NOT" \
                and own[idx - 2].upper == "IS":
            is_not_null.append(idx - 2)
        if depth:
            continue
        if upper in _CLAUSE_BREAK:
            regions += _ended_regions(own, selects, idx, content, commas,
                                      stars)
            selects.clear()
            has_op = has_op or upper in _SET_OPS
            if upper == "WHERE" and where_lo is None:
                where_lo = idx + 1
        else:
            content += 1
            if upper == ",":
                commas += 1
            elif upper == "*":
                if idx and own[idx - 1].upper in _STAR_AFTER:
                    stars += 1
            elif upper == "SELECT":
                selects.append((idx + 1, content, commas, stars))
        if where_hi is None and where_lo is not None and upper in _WHERE_BREAK:
            where_hi = idx
    regions += _ended_regions(own, selects, len(own), content, commas, stars)
    items, star, projection = regions[0] if regions else (None, False, ())
    if where_hi is None:
        where_hi = len(own)
    children = tree._children.get(fragment.id, ())
    tokens = tree.tokens
    lo = fragment.token_range[0]
    return FragmentFacts(
        fragment_id=fragment.id,
        own_tokens=own,
        table_counts_own=MappingProxyType(own_counts),
        table_counts_subtree=MappingProxyType(subtree_counts),
        has_outer_join=has_outer_join,
        where_has_is_not_null=where_lo is not None and any(
            where_lo <= i and i + 3 <= where_hi for i in is_not_null),
        select_items=items,
        select_has_star=star,
        projection=projection,
        has_set_op=has_op,
        set_op_arm_star=has_op and any(s for _, s, _ in regions),
        # a direct child opens right after IN: IN ( SELECT ... )
        in_subquery=any(c.token_range[0] - 2 >= lo
                        and tokens[c.token_range[0] - 2].upper == "IN"
                        for c in children),
        scalar_subquery_in_select=any(
            c.kind == SUBQUERY and c.clause_site == SITE_SELECT_LIST
            for c in children),
    )


_FACTS = "_facts"  # the attribute a tree holds its analysis in


def analyze_tree(tree: FragmentTree) -> Mapping[int, FragmentFacts]:
    """Each fragment's facts by fragment id, read-only. Computed on a tree's
    first call and held on the tree, as ``functools.cached_property`` holds
    a value, so later calls on the same tree return the same mapping."""
    facts = tree.__dict__.get(_FACTS)
    if facts is None:
        facts = tree.__dict__[_FACTS] = MappingProxyType(_analyze(tree))
    return facts


def _analyze(tree: FragmentTree) -> dict[int, FragmentFacts]:
    tokens = tree.tokens
    children = tree._children
    owner = [0] * len(tokens)
    own: dict[int, tuple[Token, ...]] = {}
    for f in tree.fragments:
        lo, hi = f.token_range
        parts = []  # the fragment's range less its children's
        for c_lo, c_hi in sorted(c.token_range
                                 for c in children.get(f.id, ())) + [(hi, hi)]:
            owner[lo:c_lo] = [f.id] * (c_lo - lo)
            parts.append(tokens[lo:c_lo])
            lo = c_hi
        own[f.id] = parts[0] if len(parts) == 1 \
            else tuple(chain.from_iterable(parts))
    own_counts: dict[int, dict[str, int]] = {f.id: {} for f in tree.fragments}
    for idx, name in _table_refs(tokens, tree.table_positions,
                                 tree.cte_names()):
        counts = own_counts[owner[idx]]
        counts[name] = counts.get(name, 0) + 1
    subtree_counts: dict[int, dict[str, int]] = {}
    for f in tree.fragments:  # every child before its parent
        subtree_counts[f.id] = total = dict(own_counts[f.id])
        for child in children.get(f.id, ()):
            for name, count in subtree_counts[child.id].items():
                total[name] = total.get(name, 0) + count
    return {
        f.id: analyze_fragment(f, tree, own[f.id], own_counts[f.id],
                               subtree_counts[f.id])
        for f in tree.fragments
    }


def duplicated_scan_tables(fragment_id: int,
                           facts_map: Mapping[int, FragmentFacts],
                           tree: FragmentTree, min_count: int = 2) -> list[str]:
    """Tables scanned >= min_count times in this fragment's subtree where no
    single child subtree already accounts for the duplication: this
    fragment is the lowest fragment owning the duplicate scans."""
    child_counts = [facts_map[c.id].table_counts_subtree
                    for c in tree._children.get(fragment_id, ())]
    owned = []
    subtree = facts_map[fragment_id].table_counts_subtree
    for table, count in sorted(subtree.items()):
        if count >= min_count and all(cc.get(table, 0) < min_count
                                      for cc in child_counts):
            owned.append(table)
    return owned
