"""Lenient SQL tokenizer, the one reader of FROM items, and template masking.

The lexical grammar is the one pattern ``_LEXICON``, a named group per
token kind; the order of its alternatives is their precedence. Each match
takes the whitespace before its token, so the scan steps once per token.
The tokenizer never fails: an unclosed string, quoted identifier or block
comment ends the scan with a best-effort token stream plus a diagnostic,
which the fragmenter surfaces as an UNPARSEABLE condition. Offsets always
index into the original text so downstream consumers can splice edits back
losslessly.

A token is a tuple record that carries its upper-case form, computed in the
scan once per spelling: a word's text upper-cased, and any other token's
text itself. Words of one spelling share their two strings.
Keyword tests read that field. No other kind's text upper-cases to a word:
a string opens with a quote, a number with a digit or '.', and no single
character upper-cases to a keyword. ``iter_from_items`` walks a query's
tokens once for its FROM items; the fragmenter holds the result per tree.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import EmptyQueryError

WORD = "WORD"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PUNCT = "PUNCT"
PLACEHOLDER = "PLACEHOLDER"

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "WITH", "RECURSIVE", "AS", "ON", "USING", "JOIN", "INNER",
    "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL", "UNION", "ALL",
    "INTERSECT", "EXCEPT", "DISTINCT", "AND", "OR", "NOT", "IN", "EXISTS",
    "BETWEEN", "LIKE", "IS", "NULL", "CASE", "WHEN", "THEN", "ELSE", "END",
    "ASC", "DESC", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "TABLE", "VIEW", "DROP", "ALTER", "TRUE", "FALSE", "OVER",
    "PARTITION", "ROWS", "RANGE", "PRECEDING", "FOLLOWING", "CURRENT",
    "ROW", "UNBOUNDED", "CAST", "INTERVAL", "TOP", "QUALIFY", "LATERAL",
    "ONLY",
}

# Group names are the token kinds, plus SKIP (a comment, or the end of the
# input after trailing whitespace) and OPEN (an opener whose closer never
# comes). Whitespace before a token belongs to its match; a group's span is
# the token's. The lookahead keeps a string literal from closing inside a
# doubled quote on backtracking. A placeholder is one token, so templatize()
# is idempotent; operators go longest first.
_LEXICON = re.compile(r"""\s*(?:
    (?P<SKIP>--[^\n]* | /\*.*?\*/ | \Z)
  | (?P<STRING>'(?:[^']|'')*'(?!'))
  | (?P<WORD>[A-Za-z_][A-Za-z_0-9$]* | "[^"]*" | `[^`]*`)
  | (?P<OPEN>/\* | ['"`])
  | (?P<PLACEHOLDER>\[(?:TBL|COL|VAL|MASK|ID|N)\])
  | (?P<NUMBER>(?:\d+(?:\.\d+)? | \.\d+)(?:[eE][+-]?\d+)?)
  | (?P<OP><=> | <> | != | >= | <= | \|\| | :: | [<>=+\-*/%!&|^~])
  | (?P<PUNCT>.)
)""", re.VERBOSE | re.DOTALL)

# An unclosed opener's token kind up to the end of input, and its name.
_UNCLOSED = {
    "/*": (None, "block comment"),
    "'": (STRING, "string literal"),
    '"': (WORD, "quoted identifier"),
    "`": (WORD, "quoted identifier"),
}


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int
    upper: str  # a word's text upper-cased; any other token's text itself


_new_token = tuple.__new__  # Token(...) without the Python-level __new__


def scan(sql: str) -> tuple[list[Token], str | None]:
    """Tokenize ``sql``; returns (tokens, diagnostic-or-None). Comments are skipped."""
    tokens: list[Token] = []
    append = tokens.append
    words: dict[str, tuple[str, str]] = {}  # one (text, upper) per spelling
    for m in _LEXICON.finditer(sql):
        kind = m.lastgroup
        if kind == WORD:
            text = m[kind]
            start = m.start(kind)
            shared = words.get(text)
            if shared is None:
                upper = text.upper()
                shared = words[text] = (text, text if upper == text else upper)
            append(_new_token(Token, (kind, shared[0], start,
                                      start + len(text), shared[1])))
        elif kind != "SKIP":
            text = m[kind]
            start = m.start(kind)
            if kind == "OPEN":
                to_end, what = _UNCLOSED[text]
                if to_end:
                    rest = sql[start:]
                    append(Token(to_end, rest, start, len(sql),
                                 rest.upper() if to_end == WORD else rest))
                return tokens, f"unterminated {what} at offset {start}"
            append(_new_token(Token, (kind, text, start, start + len(text),
                                      text)))
    return tokens, None


def tokenize(sql: str) -> list[Token]:
    return scan(sql)[0]


SELECT_HEADS = ("SELECT", "WITH")


def statement_head(tokens) -> str | None:
    """The ``upper`` of the first token after any opening parentheses; a
    SELECT-based statement's is in ``SELECT_HEADS``. None without one."""
    return next((tok.upper for tok in tokens if tok.text != "("), None)


def is_keyword(token: Token) -> bool:
    return token.kind == WORD and token.upper in KEYWORDS


class FromItem(NamedTuple):
    first: int  # index of the first name word, or of a derived table's ')'
    last: int  # index of the last name word, or of that ')'
    name: str | None  # the whole dotted name, lower case; None when derived
    alias: int | None  # index of the alias word
    cte: bool  # a name that a WITH list defines, not a FROM item


_new_item = tuple.__new__  # FromItem(...) without the Python-level __new__
_FROM, _CONDITION, _WITH = "FROM", "ON", "WITH"  # the list a level is in
_ARGS = "ARGS"  # a function's arguments, where no list opens
_OPENERS = dict.fromkeys(("FROM", "JOIN", "INTO", "UPDATE", "TABLE"), _FROM)
_OPENERS["WITH"] = _WITH
_CLAUSE_WORDS = {"SELECT", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT",
                 "SET", "UNION", "INTERSECT", "EXCEPT", "VALUES", "WINDOW"}
_QUERY_HEADS = (*SELECT_HEADS, "VALUES")
_NOT_ALIASES = _CLAUSE_WORDS | {"FETCH", "FOR", "TABLESAMPLE", "RETURNING"}


def _name(token: Token) -> str:
    return token.text.strip('`"').lower()


def _alias(tokens, j: int) -> int | None:
    """The index of the alias word at ``tokens[j]``, after an optional AS:
    a word that is neither a keyword nor a clause or dialect word such as
    WINDOW, FETCH, FOR, TABLESAMPLE or RETURNING."""
    if j < len(tokens) and tokens[j].upper == "AS":
        j += 1
    if j < len(tokens) and tokens[j].kind == WORD and not is_keyword(tokens[j]) \
            and tokens[j].upper not in _NOT_ALIASES:
        return j
    return None


def iter_from_items(tokens):
    """Yield each FROM item, and each name a WITH list defines, in text order.

    One walk, with a (list kind, item due) state for each open parenthesis
    level. A FROM list opens at FROM, JOIN, INTO, UPDATE or TABLE, and a
    WITH list at WITH; either closes at the next clause word of its own
    level. In a FROM list a comma starts an item, and ON or USING starts a
    condition that runs to the next JOIN or comma. Where an item is due, a
    word that is no keyword starts a named item, its parts joined by '.'; a
    group that holds a query (SELECT, WITH or VALUES) is a derived table,
    yielded at its ')'; any other group is a parenthesized join, whose items
    continue the list. An alias, with or without AS, may follow an item.
    Keywords where an item is due (LATERAL, ONLY) are passed over. A group
    that holds no query and follows a function name, a word that is no
    keyword, holds arguments and opens no list, as in EXTRACT(YEAR FROM d);
    neither does the UPDATE of FOR UPDATE.
    """
    levels = []  # the (list kind, item due) of each enclosing level
    kind, due = None, False
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        upper = tok.upper
        if upper == "(":
            query = i + 1 < n and tokens[i + 1].upper in _QUERY_HEADS
            if due and kind == _FROM and not query:
                levels.append((_FROM, False))  # a parenthesized join
            else:
                levels.append((kind, due))
                kind, due = None, False
                if not query and i and tokens[i - 1].kind == WORD \
                        and tokens[i - 1].upper not in KEYWORDS:
                    kind = _ARGS
        elif upper == ")":
            kind, due = levels.pop() if levels else (None, False)
            if due and kind == _FROM:  # a derived table ends
                alias = _alias(tokens, i + 1)
                yield _new_item(FromItem, (i, i, None, alias, False))
                due = False
                i = alias or i  # an alias is never token 0
        elif kind == _ARGS:
            pass
        elif upper in _OPENERS and not (
                upper == "UPDATE" and i and tokens[i - 1].upper == "FOR"):
            kind, due = _OPENERS[upper], True
        elif kind is None:
            pass
        elif upper in _CLAUSE_WORDS:
            kind, due = None, False
        elif upper == ",":
            kind, due = (_WITH if kind == _WITH else _FROM), True
        elif upper == "ON" or upper == "USING":
            kind, due = _CONDITION, False
        elif due and tok.kind == WORD and upper not in KEYWORDS:
            first, name = i, _name(tok)
            if kind == _WITH:
                yield _new_item(FromItem, (i, i, name, None, True))
            else:
                while i + 2 < n and tokens[i + 1].upper == "." \
                        and tokens[i + 2].kind == WORD:
                    i += 2
                    name += "." + _name(tokens[i])
                alias = _alias(tokens, i + 1)
                yield _new_item(FromItem, (first, i, name, alias, False))
                i = alias or i
            due = False
        elif due and tok.kind != WORD:
            due = False
        i += 1


def templatize(sql: str) -> str:
    """Mask identifiers and literals: tables -> [TBL], columns -> [COL], literals -> [VAL].

    Total and deterministic; keywords are upper-cased, comments dropped,
    structure preserved. Idempotent because placeholders are atomic tokens.
    The tokens and their table positions come from the fragmenter's memoized
    parse, so a query already decomposed is neither scanned nor walked for
    FROM items again; blank or comment-only text gives "". A derived
    table's alias is no table position, so it masks as [COL].
    """
    from .fragmenter import decompose_lenient  # fragmenter imports this module

    try:
        tree = decompose_lenient(sql)[0]
    except EmptyQueryError:
        return ""
    tokens = tree.tokens
    tables = set(tree.table_positions)
    last = len(tokens) - 1
    out: list[str] = []
    for idx, tok in enumerate(tokens):
        kind = tok.kind
        if kind == WORD:
            upper = tok.upper
            if upper in KEYWORDS:
                out.append(upper)
            elif idx in tables:
                out.append("[TBL]")
            elif idx < last and tokens[idx + 1].text == "(":
                out.append(upper)
            elif idx < last and tokens[idx + 1].text == ".":
                out.append("[TBL]")
            else:
                out.append("[COL]")
        elif kind == NUMBER or kind == STRING:
            out.append("[VAL]")
        else:
            out.append(tok.text)
    return " ".join(out)


def normalize_tokens(tokens) -> str:
    """Tokens joined by single spaces with keywords upper-cased: two token
    sequences share this form only when they are token-for-token identical."""
    return " ".join(tok.upper if is_keyword(tok) else tok.text
                    for tok in tokens)


def same_normalized_tokens(a, b) -> bool:
    """``normalize_tokens(a) == normalize_tokens(b)``, read token by token
    and stopped at the first pair that differs. The joined forms agree
    exactly when each pair does, since no token's text splits at a space
    into the texts of two tokens. Two tokens of one upper form whose texts
    differ are words that differ in case alone."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.text != y.text and (x.upper != y.upper or not is_keyword(x)):
            return False
    return True


def normalized_text(sql: str) -> str:
    """Whitespace/comment-insensitive form of ``sql``: its normalized tokens."""
    return normalize_tokens(tokenize(sql))
