"""Structural facts about fragments: table scans, joins, projection shape.

Facts are computed from the tree's one token list; nothing here tokenizes
text. A fragment's ``token_range`` holds exactly the tokens it and its
descendants own, so its own tokens are the gaps between its children's
ranges, with offsets into the whole query, and the parentheses around a
child stay with the parent. The tree's FROM items
(``FragmentTree.from_items``, read by the walk that built the tree) are
read once per tree into the query's base-table references, in text order:
the named items whose names no WITH list defines. A fragment's subtree
table counts are the references inside its range and its own counts those
in its gaps, so each base-table scan is attributed to exactly one fragment,
and a qualified name is one reference, by its whole dotted name in lower
case. Every other fact comes from one walk over the fragment's own tokens,
which reads each token's upper-case form from the token itself, with its
clause regions bounded by words of the fragmenter's ``CLAUSES``; that walk
also marks out the projection, whose own tokens the equivalence check
compares to tell whether two fragments name their outputs alike. The
structural predicates that rule matchers name live here too
(``MATCHER_PREDICATES``): each takes the tree, a fragment id and its
clause's parameters and reads the facts off the tree, except
``correlated_subquery``, which slices the query's qualified column
references that point out of their own fragment, found once per tree from
its '.' tokens and resolved against the FROM items in scope without
recursion; an unqualified column is taken as inner. The rewriter's
efficiency screen calls four of them and the equivalence pre-filter reads
the facts, keeping every tool's view of a query consistent. A fragment's
facts are built from that fragment alone, by ``analyze_fragment``, on their
first read and held on the tree, read-only, so every consumer of one
(memoized) tree shares them: ``fragment_facts`` gives one fragment's and
``analyze_tree`` every fragment's, and no fragment is analyzed twice.
``FragmentFacts`` is a NamedTuple, like ``Token`` and ``Fragment``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .fragmenter import CLAUSES, SET_OPS, SITE_FROM, SITE_SELECT_LIST, \
    SUBQUERY, Fragment, FragmentTree
from .sqltext import Token, WORD, normalize_tokens, normalized_text

_OUTER_JOINS = {"LEFT", "RIGHT", "FULL"}
_JOIN_MODIFIERS = _OUTER_JOINS | {"INNER", "OUTER", "CROSS", "NATURAL"}
_CLAUSE_BREAK = CLAUSES.keys() - {"SELECT", "SET", "VALUES", "WINDOW"}
_WHERE_BREAK = _CLAUSE_BREAK - {"FROM", "WHERE"} | {"WINDOW"}
_STAR_AFTER = {",", ".", "DISTINCT"}  # a '*' after these starts an item


class FragmentFacts(NamedTuple):
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


_new_facts = tuple.__new__  # FragmentFacts(...) without the Python-level __new__

# The attributes a tree holds, as ``functools.cached_property`` holds a
# value: its base-table references, the facts built so far by fragment id,
# the read-only view of them once every fragment's are built, and its
# qualified column references that point out of their fragment.
_REFS = "_table_references"
_FACTS = "_facts"
_VIEW = "_facts_view"
_OUTER = "_outer_references"

_START = itemgetter(2)  # a token's start offset


def _references(tree: FragmentTree) -> list[tuple[int, str]]:
    """The query's base-table references as (token index, name), in text
    order: the tree's named FROM items whose names no WITH list defines,
    read on the first call and held on the tree."""
    refs = tree.__dict__.get(_REFS)
    if refs is None:
        items = tree.from_items
        ctes = {item.name for item in items if item.cte}
        refs = tree.__dict__[_REFS] = [
            (item.first, item.name) for item in items
            if item.name is not None and item.name not in ctes]
    return refs


def _table_counts(refs: list[tuple[int, str]], ranges) -> dict[str, int]:
    """How often each name is referenced in the token ``ranges`` [lo, hi)."""
    counts: dict[str, int] = {}
    for lo, hi in ranges:
        for _, name in refs[bisect_left(refs, (lo,)):bisect_left(refs, (hi,))]:
            counts[name] = counts.get(name, 0) + 1
    return counts


def referenced_tables(tree: FragmentTree) -> list[str]:
    """The base tables the whole query scans, sorted."""
    return sorted({name for _, name in _references(tree)})


def _holder(tree: FragmentTree, order, starts: list[int], idx: int) -> Fragment:
    """The innermost fragment whose token range holds token ``idx``, given
    ``order``, every fragment's (range start, id) sorted, and ``starts``,
    their range starts: the last fragment to start at or before ``idx``, or
    the first of its ancestors whose range reaches past it."""
    frag = tree.by_id(order[bisect_right(starts, idx) - 1][1])
    while frag.token_range[1] <= idx:
        frag = tree.by_id(frag.parent_id)
    return frag


def _outer_references(tree: FragmentTree) -> list[tuple[int, int]]:
    """The qualified column references that the fragment holding each does
    not bind, as (token index, range start of the nearest fragment above
    that binds the qualifier, or -1 when none does), in text order: read on
    the first call and held on the tree.

    A qualified reference is ``q.col``: ``q`` is the name before the last
    '.' of a dotted name (``s.t.col`` is qualified by ``s.t``) and not in
    table-name position. Every '.' token separates names, since a number
    holds its decimal point, so the dots are found in the source text. A
    fragment binds the names of the FROM items it holds
    (``FragmentTree.from_items``): an item's alias, which hides the name it
    renames, or else a named item's whole dotted name and its last part; a
    derived table is held where its ')' is. A name a WITH list defines binds
    only where a FROM item names it. A reference sees the names its own
    fragment binds, then those of each fragment above, except that a derived
    table does not see its parent's unless it is LATERAL. Binders are read
    only for qualifiers the query uses, and only when it uses one."""
    refs = tree.__dict__.get(_OUTER)
    if refs is not None:
        return refs
    tokens, positions = tree.tokens, tree.table_positions
    last = len(tokens) - 1
    quals = []  # (index of the qualifier's first word, qualifier)
    at = tree.source.find(".")
    while at >= 0:
        i = bisect_left(tokens, at, key=_START)
        if 0 < i <= last and tokens[i].start == at and tokens[i].text == "." \
                and tokens[i - 1].kind == WORD \
                and not (i + 1 < last and tokens[i + 2].text == "."
                         and tokens[i + 1].kind == WORD):
            p = bisect_left(positions, i - 1)
            if p == len(positions) or positions[p] != i - 1:
                j = i - 1
                while j >= 2 and tokens[j - 1].text == "." \
                        and tokens[j - 2].kind == WORD:
                    j -= 2
                quals.append((j, ".".join(tokens[k].text.strip('`"').lower()
                                          for k in range(j, i, 2))))
        at = tree.source.find(".", at + 1)
    refs = tree.__dict__[_OUTER] = []
    if not quals:
        return refs
    wanted = {q for _, q in quals}
    order = sorted((f.token_range[0], f.id) for f in tree.fragments)
    starts = [lo for lo, _ in order]
    bound: dict[int, set[str]] = {}  # fragment id: names it binds
    for first, _, name, alias, cte in tree.from_items:
        if alias is not None:
            names = {tokens[alias].text.strip('`"').lower()}
        elif name is None or cte:
            continue
        else:
            names = {name, name.rpartition(".")[2]}
        names &= wanted
        if names:
            bound.setdefault(_holder(tree, order, starts, first).id,
                             set()).update(names)
    for j, q in quals:
        frag = _holder(tree, order, starts, j)
        if q in bound.get(frag.id, ()):
            continue
        lo = -1
        while frag.parent_id is not None:
            # a derived table does not see its parent's FROM items
            sees_parent = frag.clause_site != SITE_FROM \
                or tokens[frag.token_range[0] - 2].upper == "LATERAL"
            frag = tree.by_id(frag.parent_id)
            if sees_parent and q in bound.get(frag.id, ()):
                lo = frag.token_range[0]
                break
        refs.append((j, lo))
    return refs


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


def analyze_fragment(fragment: Fragment, tree: FragmentTree) -> FragmentFacts:
    """The fragment's facts, from its own token range alone.

    Its own tokens are its range less its children's ranges, its own table
    counts the references in them and its subtree counts the references in
    its whole range; every other fact comes from one walk over its own
    tokens.

    Top level is outside every parenthesized group, the parentheses left
    out. A SELECT region runs from a top-level SELECT to the next top-level
    word of ``_CLAUSE_BREAK``: the first is the projection, and with a
    top-level set operation each is an arm's. The WHERE region runs from the
    first top-level WHERE to the next top-level word of ``_WHERE_BREAK``.
    SELECT regions are read off running counts of top-level tokens, commas
    and stars, taken where each starts and ends; the projection's own
    tokens are kept, each child in it shown as its parentheses.
    """
    tokens = tree.tokens
    children = tree._children.get(fragment.id, ())
    lo, hi = fragment.token_range
    gaps = []  # the fragment's range less its children's
    at = lo
    for c_lo, c_hi in sorted(c.token_range for c in children):
        gaps.append((at, c_lo))
        at = c_hi
    gaps.append((at, hi))
    own = tokens[lo:hi] if not children \
        else tuple(chain.from_iterable(tokens[a:b] for a, b in gaps))
    refs = _references(tree)
    own_counts = _table_counts(refs, gaps)
    subtree_counts = _table_counts(refs, ((lo, hi),))
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
            has_op = has_op or upper in SET_OPS
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
    where_has_is_not_null = where_lo is not None and any(
        where_lo <= i and i + 3 <= where_hi for i in is_not_null)
    # a direct child opens right after IN: IN ( SELECT ... )
    in_subquery = any(c.token_range[0] - 2 >= lo
                      and tokens[c.token_range[0] - 2].upper == "IN"
                      for c in children)
    scalar_subquery_in_select = any(
        c.kind == SUBQUERY and c.clause_site == SITE_SELECT_LIST
        for c in children)
    return _new_facts(FragmentFacts, (
        fragment.id, own, MappingProxyType(own_counts),
        MappingProxyType(subtree_counts), has_outer_join,
        where_has_is_not_null, items, star, projection, has_op,
        has_op and any(s for _, s, _ in regions), in_subquery,
        scalar_subquery_in_select))


def fragment_facts(tree: FragmentTree, fragment_id: int) -> FragmentFacts:
    """One fragment's facts, built on its first read and held on the tree;
    KeyError for an id the tree does not have."""
    built = tree.__dict__.get(_FACTS)
    if built is None:
        built = tree.__dict__[_FACTS] = {}
    facts = built.get(fragment_id)
    if facts is None:
        facts = built[fragment_id] = analyze_fragment(tree.by_id(fragment_id),
                                                      tree)
    return facts


def analyze_tree(tree: FragmentTree) -> Mapping[int, FragmentFacts]:
    """Each fragment's facts by fragment id, in id order, read-only: the
    facts ``fragment_facts`` holds, with every fragment's built. Built on a
    tree's first call and held on the tree, so later calls on the same tree
    return the same mapping."""
    view = tree.__dict__.get(_VIEW)
    if view is None:
        built = tree.__dict__.get(_FACTS) or {}
        built = tree.__dict__[_FACTS] = {  # the same facts, in id order
            f.id: built.get(f.id) or analyze_fragment(f, tree)
            for f in tree.fragments}
        view = tree.__dict__[_VIEW] = MappingProxyType(built)
    return view


# --- the structural predicates ---------------------------------------------

_NO_PARAMS: Mapping = MappingProxyType({})  # a clause with no parameters


def contains_operator(tree, fragment_id, params) -> bool:
    """``params["op"]`` occurs in the own tokens, token for token."""
    own = fragment_facts(tree, fragment_id).own_tokens
    return f" {normalized_text(params['op'])} " in f" {normalize_tokens(own)} "


def same_table_scanned(tree, fragment_id, params=_NO_PARAMS) -> bool:
    """A table is scanned ``min_count`` (default 2) or more times in the
    fragment's subtree, and in no single child subtree that often: this
    fragment is the lowest one owning the duplicate scans."""
    min_count = params.get("min_count", 2)
    children = tree._children.get(fragment_id, ())
    counts = fragment_facts(tree, fragment_id).table_counts_subtree
    return any(n >= min_count and all(
        fragment_facts(tree, c.id).table_counts_subtree.get(table, 0)
        < min_count for c in children) for table, n in counts.items())


def outer_join_with_null_filter(tree, fragment_id, params=_NO_PARAMS) -> bool:
    f = fragment_facts(tree, fragment_id)
    return f.has_outer_join and f.where_has_is_not_null


def in_subquery(tree, fragment_id, params=_NO_PARAMS) -> bool:
    return fragment_facts(tree, fragment_id).in_subquery


def union_all_unprojected(tree, fragment_id, params=_NO_PARAMS) -> bool:
    f = fragment_facts(tree, fragment_id)
    return f.has_set_op and f.set_op_arm_star


def scalar_subquery_in_select(tree, fragment_id, params=_NO_PARAMS) -> bool:
    return fragment_facts(tree, fragment_id).scalar_subquery_in_select


def correlated_subquery(tree, fragment_id, params=_NO_PARAMS) -> bool:
    """A subquery child outside FROM is correlated: some qualified column
    reference in its range is an outer reference of it, one whose qualifier
    no FROM item in its sight binds, from the fragment holding it up to and
    including the child (see ``_outer_references``). An unqualified column
    is taken as inner."""
    for c in tree._children.get(fragment_id, ()):
        if c.kind == SUBQUERY and c.clause_site != SITE_FROM:
            refs = _outer_references(tree)
            lo, hi = c.token_range
            for _, bound_at in refs[bisect_left(refs, (lo,)):
                                    bisect_left(refs, (hi,))]:
                if bound_at < lo:
                    return True
    return False


MATCHER_PREDICATES = {  # name: (predicate, shape of its clause's parameters)
    "contains_operator": (contains_operator, {"op": "required str"}),
    "same_table_scanned": (same_table_scanned, {"min_count": "int"}),
    "outer_join_with_null_filter": (outer_join_with_null_filter, {}),
    "in_subquery": (in_subquery, {}),
    "union_all_unprojected": (union_all_unprojected, {}),
    "scalar_subquery_in_select": (scalar_subquery_in_select, {}),
    "correlated_subquery": (correlated_subquery, {}),
}


def matcher_holds(matcher: list[dict], tree: FragmentTree,
                  fragment_id: int) -> bool:
    """A matcher is a conjunction of predicates from the fixed vocabulary; a
    predicate outside it never holds."""
    for clause in matcher:
        pred, _ = MATCHER_PREDICATES.get(clause.get("pred"), (None, None))
        if pred is None or not pred(tree, fragment_id, clause):
            return False
    return bool(matcher)
