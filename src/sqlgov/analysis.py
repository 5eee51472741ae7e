"""Structural facts about fragments: table scans, joins, projection shape.

Facts are computed from the tree's one token list; nothing here tokenizes
text. Every token has one owner, the innermost fragment whose
``token_range`` holds it, so the parentheses around a child stay with the
parent; a fragment's own tokens are the tokens it owns, with offsets into
the whole query. One table-context pass over the whole query gives each
table reference to the owner of its token, so each base-table scan is
attributed to exactly one fragment, and subtree counts are own counts summed
bottom-up. On well-formed SQL the pass reads a fragment's tokens as a scan
of that fragment alone would, because a subquery opens with SELECT or WITH
and a CTE body follows its consumed name. Rule matchers, the rewriter's
efficiency screen, and the equivalence pre-filter all read from here,
keeping every tool's view of a query consistent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .fragmenter import Fragment, FragmentTree, SITE_SELECT_LIST, SUBQUERY
from .sqltext import (
    Token,
    WORD,
    is_keyword,
    iter_table_context,
    normalize_tokens,
    normalized_text,
)

_OUTER_JOINS = {"LEFT", "RIGHT", "FULL"}
_JOIN_MODIFIERS = _OUTER_JOINS | {"INNER", "OUTER", "CROSS", "NATURAL"}
_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}
_CLAUSE_BREAK = {"FROM", "WHERE", "GROUP", "ORDER", "HAVING", "LIMIT"} | _SET_OPS
_WHERE_BREAK = {"GROUP", "ORDER", "HAVING", "LIMIT", "WINDOW"} | _SET_OPS


@dataclass(frozen=True)
class FragmentFacts:
    fragment_id: int
    own_tokens: tuple[Token, ...]
    table_counts_own: dict[str, int]
    table_counts_subtree: dict[str, int]
    has_outer_join: bool
    where_has_is_not_null: bool
    select_items: int | None
    select_has_star: bool
    has_set_op: bool
    set_op_arm_star: bool
    in_subquery: bool
    scalar_subquery_in_select: bool

    def contains_operator(self, op: str) -> bool:
        """``op`` occurs in the own tokens, token for token."""
        return (f" {normalized_text(op)} "
                in f" {normalize_tokens(self.own_tokens)} ")


def _table_refs(tokens: tuple[Token, ...], cte_names: set[str]):
    """Yield (index, lower-cased name) for each base-table reference: a word
    in table position that is neither a CTE name nor an alias, which comes
    right after ')', AS or the name it renames."""
    for idx, tok in iter_table_context(tokens):
        prev = tokens[idx - 1] if idx else None
        if prev and (prev.text == ")" or prev.upper() == "AS"
                     or prev.kind == WORD and not is_keyword(prev)):
            continue
        name = tok.text.strip('`"').lower()
        if name and name not in cte_names:
            yield idx, name


def referenced_tables(tree: FragmentTree) -> list[str]:
    """The base tables the whole query scans, sorted."""
    return sorted({name for _, name in _table_refs(tree.tokens,
                                                   tree.cte_names())})


def _top_level(tokens):
    """Yield (index, token) for the tokens outside every parenthesized
    group; the parentheses themselves are left out."""
    depth = 0
    for idx, tok in enumerate(tokens):
        if tok.text == "(":
            depth += 1
        elif tok.text == ")":
            depth -= 1
        elif depth == 0:
            yield idx, tok


def _clause_region(tokens, head: str, enders) -> list[Token] | None:
    """Tokens after the first top-level ``head`` keyword, up to the next
    top-level keyword in ``enders`` or the end; None without ``head``."""
    start = None
    for idx, tok in _top_level(tokens):
        if tok.kind != WORD:
            continue
        if start is None:
            if tok.upper() == head:
                start = idx + 1
        elif tok.upper() in enders:
            return tokens[start:idx]
    return None if start is None else tokens[start:]


def _is_projection_star(region: list[Token], idx: int) -> bool:
    """A '*' starts a projection item; after an operand it is multiplication."""
    if region[idx].text != "*":
        return False
    prev = region[idx - 1] if idx > 0 else None
    return prev is None or prev.text in (",", ".") or prev.upper() == "DISTINCT"


def _count_items(region: list[Token]) -> tuple[int, bool]:
    top = list(_top_level(region))
    commas = sum(1 for _, tok in top if tok.text == ",")
    star = any(_is_projection_star(region, idx) for idx, _ in top)
    return (commas + 1 if top else 0), star


def _has_is_not_null(tokens: list[Token]) -> bool:
    uppers = [t.upper() for t in tokens]
    for i in range(len(uppers) - 2):
        if uppers[i] == "IS" and uppers[i + 1] == "NOT" and uppers[i + 2] == "NULL":
            return True
    return False


def _has_outer_join(tokens: list[Token]) -> bool:
    """Some JOIN is outer: of LEFT/RIGHT/FULL/CROSS in the modifier run before
    it, the one farthest from JOIN decides."""
    uppers = [t.upper() for t in tokens]
    for i, upper in enumerate(uppers):
        if upper != "JOIN":
            continue
        kind = None
        j = i - 1
        while j >= 0 and uppers[j] in _JOIN_MODIFIERS:
            if uppers[j] in _OUTER_JOINS or uppers[j] == "CROSS":
                kind = uppers[j]
            j -= 1
        if kind in _OUTER_JOINS:
            return True
    return False


def _set_op_facts(tokens: list[Token]) -> tuple[bool, bool]:
    """(has a top-level set operation, some arm projects a star)."""
    words = [(idx, tok.upper()) for idx, tok in _top_level(tokens)
             if tok.kind == WORD]
    has_op = any(upper in _SET_OPS for _, upper in words)
    arm_star = has_op and any(
        _count_items(_clause_region(tokens[idx:], "SELECT", _CLAUSE_BREAK))[1]
        for idx, upper in words if upper == "SELECT")
    return has_op, arm_star


def _in_subquery(tokens: tuple[Token, ...], fragment: Fragment,
                 children: list[Fragment]) -> bool:
    """A direct child opens right after IN: ``IN ( SELECT ... )``."""
    lo = fragment.token_range[0]
    return any(c.token_range[0] - 2 >= lo
               and tokens[c.token_range[0] - 2].upper() == "IN"
               for c in children)


def analyze_fragment(fragment: Fragment, tree: FragmentTree, own: list[Token],
                     own_counts: Counter, subtree_counts: Counter) -> FragmentFacts:
    children = tree.children(fragment.id)
    select_region = _clause_region(own, "SELECT", _CLAUSE_BREAK)
    if select_region is None:
        items, star = None, False
    else:
        items, star = _count_items(select_region)
    has_op, arm_star = _set_op_facts(own)
    return FragmentFacts(
        fragment_id=fragment.id,
        own_tokens=tuple(own),
        table_counts_own=dict(own_counts),
        table_counts_subtree=dict(subtree_counts),
        has_outer_join=_has_outer_join(own),
        where_has_is_not_null=_has_is_not_null(
            _clause_region(own, "WHERE", _WHERE_BREAK) or []),
        select_items=items,
        select_has_star=star,
        has_set_op=has_op,
        set_op_arm_star=arm_star,
        in_subquery=_in_subquery(tree.tokens, fragment, children),
        scalar_subquery_in_select=any(
            c.kind == SUBQUERY and c.clause_site == SITE_SELECT_LIST
            for c in children),
    )


def analyze_tree(tree: FragmentTree) -> dict[int, FragmentFacts]:
    owner = [0] * len(tree.tokens)
    for f in reversed(tree.fragments):  # every parent before its children
        lo, hi = f.token_range
        owner[lo:hi] = [f.id] * (hi - lo)
    own: dict[int, list[Token]] = {f.id: [] for f in tree.fragments}
    for tok, fid in zip(tree.tokens, owner):
        own[fid].append(tok)
    own_counts = {f.id: Counter() for f in tree.fragments}
    for idx, name in _table_refs(tree.tokens, tree.cte_names()):
        own_counts[owner[idx]][name] += 1
    subtree_counts: dict[int, Counter] = {}
    for f in tree.fragments:  # every child before its parent
        subtree_counts[f.id] = total = own_counts[f.id].copy()
        for child in tree.children(f.id):
            total.update(subtree_counts[child.id])
    return {
        f.id: analyze_fragment(f, tree, own[f.id], own_counts[f.id],
                               subtree_counts[f.id])
        for f in tree.fragments
    }


def duplicated_scan_tables(fragment_id: int, facts_map: dict[int, FragmentFacts],
                           tree: FragmentTree, min_count: int = 2) -> list[str]:
    """Tables scanned >= min_count times in this fragment's subtree where no
    single child subtree already accounts for the duplication: this
    fragment is the lowest fragment owning the duplicate scans."""
    child_counts = [facts_map[c.id].table_counts_subtree
                    for c in tree.children(fragment_id)]
    owned = []
    subtree = facts_map[fragment_id].table_counts_subtree
    for table, count in sorted(subtree.items()):
        if count >= min_count and all(cc.get(table, 0) < min_count
                                      for cc in child_counts):
            owned.append(table)
    return owned
