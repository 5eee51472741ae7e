"""Lenient SQL tokenizer and template masking.

The lexical grammar is the one pattern ``_LEXICON``, a named group per
token kind; the order of its alternatives is their precedence. The
tokenizer never fails: an unclosed string, quoted identifier or block
comment ends the scan with a best-effort token stream plus a diagnostic,
which the fragmenter surfaces as an UNPARSEABLE condition. Offsets always
index into the original text so downstream consumers can splice edits back
losslessly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

# Group names are the token kinds, plus SKIP (whitespace and comments) and
# OPEN (an opener whose closer never comes). The lookahead keeps a string
# literal from closing inside a doubled quote on backtracking. A placeholder
# is one token, so templatize() is idempotent; operators go longest first.
_LEXICON = re.compile(r"""
    (?P<SKIP>\s+ | --[^\n]* | /\*.*?\*/)
  | (?P<STRING>'(?:[^']|'')*'(?!'))
  | (?P<WORD>[A-Za-z_][A-Za-z_0-9$]* | "[^"]*" | `[^`]*`)
  | (?P<OPEN>/\* | ['"`])
  | (?P<PLACEHOLDER>\[(?:TBL|COL|VAL|MASK|ID|N)\])
  | (?P<NUMBER>(?:\d+(?:\.\d+)? | \.\d+)(?:[eE][+-]?\d+)?)
  | (?P<OP><=> | <> | != | >= | <= | \|\| | :: | [<>=+\-*/%!&|^~])
  | (?P<PUNCT>.)
""", re.VERBOSE | re.DOTALL)

# An unclosed opener's token kind up to the end of input, and its name.
_UNCLOSED = {
    "/*": (None, "block comment"),
    "'": (STRING, "string literal"),
    '"': (WORD, "quoted identifier"),
    "`": (WORD, "quoted identifier"),
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int
    end: int

    def upper(self) -> str:
        return self.text.upper()


def scan(sql: str) -> tuple[list[Token], str | None]:
    """Tokenize ``sql``; returns (tokens, diagnostic-or-None). Comments are skipped."""
    tokens: list[Token] = []
    for m in _LEXICON.finditer(sql):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        start = m.start()
        if kind == "OPEN":
            to_end, what = _UNCLOSED[m.group()]
            if to_end:
                tokens.append(Token(to_end, sql[start:], start, len(sql)))
            return tokens, f"unterminated {what} at offset {start}"
        tokens.append(Token(kind, m.group(), start, m.end()))
    return tokens, None


def tokenize(sql: str) -> list[Token]:
    return scan(sql)[0]


SELECT_HEADS = ("SELECT", "WITH")


def statement_head(tokens) -> str | None:
    """The first token after any opening parentheses, upper-cased; a
    SELECT-based statement's is in ``SELECT_HEADS``. None without one."""
    return next((tok.upper() for tok in tokens if tok.text != "("), None)


def is_keyword(token: Token) -> bool:
    return token.kind == WORD and token.upper() in KEYWORDS


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
        upper = tok.upper()
        if tok.text == "(":
            depth += 1
            i += 1
            continue
        if tok.text == ")":
            depth -= 1
            while preludes and preludes[-1] > depth:
                preludes.pop()  # a WITH list ends with its parenthesis
                expect_table = False
            i += 1
            continue
        if tok.kind == WORD and upper in _TABLE_INTRO:
            expect_table = True
            i += 1
            continue
        if tok.kind == WORD and upper == "WITH":
            expect_table = True
            preludes.append(depth)
            i += 1
            continue
        if tok.kind == WORD and upper == "RECURSIVE" and preludes:
            i += 1
            continue
        if tok.kind == WORD and upper in _CLAUSE_ENDERS:
            expect_table = False
            if preludes and preludes[-1] == depth:
                preludes.pop()
            i += 1
            continue
        if expect_table and tok.kind == WORD and not is_keyword(tok):
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
        if tok.kind == WORD and upper == "AS" and expect_table:
            i += 1
            continue
        if expect_table and tok.kind != WORD and tok.text != ",":
            expect_table = False
        i += 1


def templatize(sql: str) -> str:
    """Mask identifiers and literals: tables -> [TBL], columns -> [COL], literals -> [VAL].

    Total and deterministic; keywords are upper-cased, comments dropped,
    structure preserved. Idempotent because placeholders are atomic tokens.
    """
    tokens = tokenize(sql)
    table_positions = {i for i, _ in iter_table_context(tokens)}
    out: list[str] = []
    for idx, tok in enumerate(tokens):
        if tok.kind == PLACEHOLDER:
            out.append(tok.text)
        elif tok.kind in (NUMBER, STRING):
            out.append("[VAL]")
        elif tok.kind == WORD:
            upper = tok.upper()
            if upper in KEYWORDS:
                out.append(upper)
            elif idx in table_positions:
                out.append("[TBL]")
            elif idx + 1 < len(tokens) and tokens[idx + 1].text == "(":
                out.append(upper)
            elif idx + 1 < len(tokens) and tokens[idx + 1].text == ".":
                out.append("[TBL]")
            else:
                out.append("[COL]")
        else:
            out.append(tok.text)
    return " ".join(out)


def normalize_tokens(tokens) -> str:
    """Tokens joined by single spaces with keywords upper-cased: two token
    sequences share this form only when they are token-for-token identical."""
    return " ".join(tok.upper() if is_keyword(tok) else tok.text
                    for tok in tokens)


def normalized_text(sql: str) -> str:
    """Whitespace/comment-insensitive form of ``sql``: its normalized tokens."""
    return normalize_tokens(tokenize(sql))
