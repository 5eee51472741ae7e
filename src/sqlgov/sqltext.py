"""Lenient SQL tokenizer and template masking.

The tokenizer never fails: malformed input (unterminated strings or block
comments) produces a best-effort token stream plus a diagnostic, which the
fragmenter surfaces as an UNPARSEABLE condition. Offsets always index into
the original text so downstream consumers can splice edits back losslessly.
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

# Masking placeholders are atomic tokens so templatize() is idempotent.
PLACEHOLDERS = {"[TBL]", "[COL]", "[VAL]", "[MASK]", "[ID]", "[N]"}

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "WITH", "RECURSIVE", "AS", "ON", "USING", "JOIN", "INNER",
    "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL", "UNION", "ALL",
    "INTERSECT", "EXCEPT", "DISTINCT", "AND", "OR", "NOT", "IN", "EXISTS",
    "BETWEEN", "LIKE", "IS", "NULL", "CASE", "WHEN", "THEN", "ELSE", "END",
    "ASC", "DESC", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "TABLE", "VIEW", "DROP", "ALTER", "TRUE", "FALSE", "OVER",
    "PARTITION", "ROWS", "RANGE", "PRECEDING", "FOLLOWING", "CURRENT",
    "ROW", "UNBOUNDED", "CAST", "INTERVAL", "TOP", "QUALIFY",
}

BUILTIN_FUNCTIONS = {
    "COUNT", "SUM", "AVG", "MIN", "MAX", "IFNULL", "COALESCE", "NULLIF",
    "ABS", "ROUND", "FLOOR", "CEIL", "CEILING", "UPPER", "LOWER", "LENGTH",
    "SUBSTR", "SUBSTRING", "TRIM", "LTRIM", "RTRIM", "CONCAT", "REPLACE",
    "ROW_NUMBER", "RANK", "DENSE_RANK", "NTILE", "LAG", "LEAD", "FIRST_VALUE",
    "LAST_VALUE", "NOW", "CURRENT_DATE", "CURRENT_TIMESTAMP", "DATE", "YEAR",
    "MONTH", "DAY", "EXTRACT", "DATEDIFF", "DATE_ADD", "DATE_SUB", "IF",
    "GREATEST", "LEAST", "MOD", "POWER", "SQRT", "EXP", "LN", "LOG",
}

# Multi-char operators first so the scanner takes the longest match.
_OPERATORS = ("<=>", "<>", "!=", ">=", "<=", "||", "::", "<", ">", "=",
              "+", "-", "*", "/", "%", "!", "&", "|", "^", "~")

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9$]*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_PLACEHOLDER_RE = re.compile(r"\[(?:TBL|COL|VAL|MASK|ID|N)\]")


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
    diagnostic: str | None = None
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            close = sql.find("*/", i + 2)
            if close < 0:
                diagnostic = diagnostic or f"unterminated block comment at offset {i}"
                i = n
            else:
                i = close + 2
            continue
        if ch == "'":
            j = i + 1
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                diagnostic = diagnostic or f"unterminated string literal at offset {i}"
                tokens.append(Token(STRING, sql[i:n], i, n))
                i = n
            else:
                tokens.append(Token(STRING, sql[i:j + 1], i, j + 1))
                i = j + 1
            continue
        if ch in ('"', "`"):
            close = sql.find(ch, i + 1)
            if close < 0:
                diagnostic = diagnostic or f"unterminated quoted identifier at offset {i}"
                tokens.append(Token(WORD, sql[i:n], i, n))
                i = n
            else:
                tokens.append(Token(WORD, sql[i:close + 1], i, close + 1))
                i = close + 1
            continue
        if ch == "[":
            m = _PLACEHOLDER_RE.match(sql, i)
            if m:
                tokens.append(Token(PLACEHOLDER, m.group(), i, m.end()))
                i = m.end()
                continue
            tokens.append(Token(PUNCT, ch, i, i + 1))
            i += 1
            continue
        m = _WORD_RE.match(sql, i)
        if m:
            tokens.append(Token(WORD, m.group(), i, m.end()))
            i = m.end()
            continue
        m = _NUMBER_RE.match(sql, i)
        if m:
            tokens.append(Token(NUMBER, m.group(), i, m.end()))
            i = m.end()
            continue
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(OP, op, i, i + len(op)))
                i += len(op)
                break
        else:
            tokens.append(Token(PUNCT, ch, i, i + 1))
            i += 1
    return tokens, diagnostic


def tokenize(sql: str) -> list[Token]:
    return scan(sql)[0]


def is_keyword(token: Token) -> bool:
    return token.kind == WORD and token.upper() in KEYWORDS


def _is_function_call(tokens: list[Token], idx: int) -> bool:
    return idx + 1 < len(tokens) and tokens[idx + 1].text == "("


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
    with_prelude = False
    prelude_depth = 0
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
            i += 1
            continue
        if tok.kind == WORD and upper in _TABLE_INTRO:
            expect_table = True
            i += 1
            continue
        if tok.kind == WORD and upper == "WITH":
            expect_table = True
            with_prelude = True
            prelude_depth = depth
            i += 1
            continue
        if tok.kind == WORD and upper == "RECURSIVE" and with_prelude:
            i += 1
            continue
        if tok.kind == WORD and upper in _CLAUSE_ENDERS:
            expect_table = False
            if with_prelude and depth == prelude_depth:
                with_prelude = False
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
            if not (with_prelude and depth == prelude_depth):
                if i < len(tokens) and tokens[i].kind == WORD \
                        and not is_keyword(tokens[i]):
                    yield i, tokens[i]  # bare alias
                    i += 1
            else:
                expect_table = False  # CTE name consumed; AS ( body ) follows
            continue
        if tok.text == ",":
            if with_prelude and depth == prelude_depth:
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
            elif _is_function_call(tokens, idx):
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
