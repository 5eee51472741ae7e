"""Lenient SQL tokenizer and template masking.

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
character upper-cases to a keyword.
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


_TABLE_INTRO = {"FROM", "JOIN", "INTO", "UPDATE", "TABLE"}
_CLAUSE_ENDERS = {
    "SELECT", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "ON", "USING",
    "SET", "UNION", "INTERSECT", "EXCEPT", "WHEN", "VALUES",
}


def iter_table_context(tokens: list[Token]):
    """Yield (index, token) for identifier tokens sitting in table-name position.

    Covers FROM/JOIN lists (including comma-separated members and aliases),
    INTO/UPDATE targets, and CTE names after WITH. Qualifier chains
    (db.schema.tbl) yield every component. Heuristic by design: nested
    derived-table aliases may be missed, which is acceptable for masking.
    """
    expect_table = False
    preludes: list[int] = []  # depth of each open WITH list, innermost last
    depth = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        upper = tok.upper
        if upper == "(":
            depth += 1
            i += 1
            continue
        if upper == ")":
            depth -= 1
            while preludes and preludes[-1] > depth:
                preludes.pop()  # a WITH list ends with its parenthesis
                expect_table = False
            i += 1
            continue
        if upper in _TABLE_INTRO:
            expect_table = True
            i += 1
            continue
        if upper == "WITH":
            expect_table = True
            preludes.append(depth)
            i += 1
            continue
        if upper == "RECURSIVE" and preludes:
            i += 1
            continue
        if upper in _CLAUSE_ENDERS:
            expect_table = False
            if preludes and preludes[-1] == depth:
                preludes.pop()
            i += 1
            continue
        if expect_table and tok.kind == WORD and upper not in KEYWORDS:
            yield i, tok
            i += 1
            # qualifier chain and trailing alias
            while i + 1 < len(tokens) and tokens[i].text == "." \
                    and tokens[i + 1].kind == WORD:
                yield i + 1, tokens[i + 1]
                i += 2
            if not (preludes and preludes[-1] == depth):
                if i < len(tokens) and tokens[i].kind == WORD \
                        and not is_keyword(tokens[i]):
                    yield i, tokens[i]  # bare alias
                    i += 1
            else:
                expect_table = False  # CTE name consumed; AS ( body ) follows
            continue
        if tok.text == ",":
            if preludes and preludes[-1] == depth:
                expect_table = True  # next CTE in the WITH list
            i += 1
            continue
        if upper == "AS" and expect_table:
            i += 1
            continue
        if expect_table and tok.kind != WORD and tok.text != ",":
            expect_table = False
        i += 1


def templatize(sql: str) -> str:
    """Mask identifiers and literals: tables -> [TBL], columns -> [COL], literals -> [VAL].

    Total and deterministic; keywords are upper-cased, comments dropped,
    structure preserved. Idempotent because placeholders are atomic tokens.
    The tokens and their table positions come from the fragmenter's memoized
    parse, so a query already decomposed is neither scanned nor walked for
    table context again; blank or comment-only text gives "".
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


def normalized_text(sql: str) -> str:
    """Whitespace/comment-insensitive form of ``sql``: its normalized tokens."""
    return normalize_tokens(tokenize(sql))
