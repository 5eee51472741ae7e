"""Syntax repair in three stages: clarify the error log against known
strategies, prepare a scoped prompt (localized fragment or whole query,
selective schema), and splice the LLM's fix back into the original text.

Input SQL is invalid by definition, so every decomposition here goes through
the lenient best-effort path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .analysis import referenced_tables
from .bench import ToolReport, input_digest
from .errors import EmptyQueryError, StillInvalidError
from .fragmenter import FragmentTree, decompose_lenient, fragment_at
from .knowledge_base import CORRECTOR, ErrorStrategy, KnowledgeStore
from .prompts import ask, catalog_entry, correction_prompt, render_columns

SCOPE_LOCAL = "LOCAL"
SCOPE_GLOBAL = "GLOBAL"
SCHEMA_FULL = "FULL"

_FALLBACK_GUIDANCE = (
    "Re-examine the whole statement against the schema and repair the "
    "syntax error while preserving the query's intent.")

_EXCEPTION_RE = re.compile(r"\b([A-Za-z_]\w*(?:Exception|Error))\b")
_LINE_COL_RE = re.compile(r"line\s+(\d+)\s*,?\s*column\s+(\d+)", re.IGNORECASE)
_POSITION_RE = re.compile(r"at (?:position|character)\s+(\d+)", re.IGNORECASE)
_NEAR_RE = re.compile(r"""at or near ["'`]([^"'`]+)["'`]""", re.IGNORECASE)
_QUOTED_NAME_RE = re.compile(r"'([A-Za-z_]\w*)'")


@dataclass(frozen=True)
class ParsedError:
    exception_type: str
    location: tuple[int, int] | int | None
    message: str
    raw_log: str
    near_token: str | None = None


@dataclass(frozen=True)
class CorrectionPlan:
    strategy: ErrorStrategy | None
    scope: str
    schema_slice: list[str] | str | None  # None, table list, or "FULL"
    target_fragment: int | None
    guidance: str


@dataclass(frozen=True)
class CorrectionInputs:
    scope: str
    sql_text: str
    context_header: str
    error_message: str
    schema_lines: tuple[str, ...]
    guidance: str
    target_fragment: int | None
    splice_span: tuple[int, int] | None


def parse_error_log(log: str) -> ParsedError:
    """Extract exception type, location, and the descriptive message from a
    raw DBMS log. Total: unmatched logs degrade to UNKNOWN plus the first
    non-empty line."""
    if not log or not log.strip():
        raise ValueError("error log must be non-empty")
    exc_match = _EXCEPTION_RE.search(log)
    exception_type = exc_match.group(1) if exc_match else "UNKNOWN"

    location: tuple[int, int] | int | None = None
    line_col = _LINE_COL_RE.search(log)
    if line_col:
        location = (int(line_col.group(1)), int(line_col.group(2)))
    else:
        position = _POSITION_RE.search(log)
        if position:
            location = int(position.group(1))
    near = _NEAR_RE.search(log)

    message = None
    if exc_match:
        after = re.search(re.escape(exception_type) + r"\s*:\s*([^\n]+)", log)
        if after:
            message = after.group(1).strip()
    if message is None and line_col:
        tail = re.search(r"column\s+\d+\s*:\s*([^\n]+)", log, re.IGNORECASE)
        if tail:
            message = tail.group(1).strip()
    if message is None:
        for line in log.splitlines():
            if line.strip():
                message = line.strip()
                break
    near_token = near.group(1) if near else None
    if near_token is None:
        # quoted identifiers anchor the error when no explicit location exists
        quoted = _QUOTED_NAME_RE.search(log)
        if quoted:
            near_token = quoted.group(1)
    return ParsedError(
        exception_type=exception_type,
        location=location,
        message=message or log.strip(),
        raw_log=log,
        near_token=near_token,
    )


def build_error_key(error: ParsedError) -> str:
    """Retrieval key: exception type plus the message with volatile parts
    masked (numbers -> [N], quoted names -> [ID])."""
    masked = re.sub(r"""["'`][^"'`]*["'`]""", "[ID]", error.message)
    masked = re.sub(r"\d+", "[N]", masked)
    return f"{error.exception_type}: {masked}"


def _line_col_to_offset(source: str, line: int, col: int) -> int | None:
    lines = source.splitlines(keepends=True)
    if line < 1 or line > len(lines):
        return None
    offset = sum(len(text) for text in lines[:line - 1]) + (col - 1)
    if 0 <= offset < len(source):
        return offset
    return None


def _resolve_offset(error: ParsedError, source: str) -> int | None:
    if isinstance(error.location, tuple):
        return _line_col_to_offset(source, *error.location)
    if isinstance(error.location, int):
        if 0 <= error.location < len(source):
            return error.location
        return None
    if error.near_token:
        found = source.find(error.near_token)
        return found if found >= 0 else None
    return None


def _fallback_plan() -> CorrectionPlan:
    return CorrectionPlan(strategy=None, scope=SCOPE_GLOBAL,
                          schema_slice=SCHEMA_FULL, target_fragment=None,
                          guidance=_FALLBACK_GUIDANCE)


def clarify(error: ParsedError, store: KnowledgeStore,
            tree: FragmentTree) -> CorrectionPlan:
    """Map the parsed error to a correction plan via strategy retrieval.

    Misses, and localized strategies without a usable location, degrade to
    the conservative fallback (global scope, full schema); clarify always
    produces a plan.
    """
    hit = store.retrieve_strategy(build_error_key(error))
    if hit is None:
        return _fallback_plan()
    strategy, _ = hit
    slice_ = referenced_tables(tree) if strategy.needs_schema else None
    scope, target = SCOPE_GLOBAL, None
    if strategy.localized:
        offset = _resolve_offset(error, tree.source)
        if offset is None:
            slice_ = SCHEMA_FULL
        else:
            scope, target = SCOPE_LOCAL, fragment_at(tree, offset).id
    return CorrectionPlan(strategy=strategy, scope=scope, schema_slice=slice_,
                          target_fragment=target, guidance=strategy.guidance)


def _schema_lines(schema_slice, catalog: dict) -> tuple[str, ...]:
    if schema_slice is None or not catalog:
        return ()
    if schema_slice == SCHEMA_FULL:
        tables = sorted(catalog)
    else:
        tables = [t for t in schema_slice if t in catalog]
    lines = []
    for table in tables:
        columns, _ = catalog_entry(catalog[table])
        lines.append(f"{table}: {render_columns(columns)}")
    return tuple(lines)


def prepare_data(plan: CorrectionPlan, error: ParsedError, query: str,
                 tree: FragmentTree, catalog: dict) -> CorrectionInputs:
    """Assemble prompt inputs per the plan: the target fragment with only its
    parent's clause header as context for LOCAL scope, the whole query for
    GLOBAL; schema limited to the plan's slice."""
    schema = _schema_lines(plan.schema_slice, catalog)
    if plan.scope == SCOPE_LOCAL and plan.target_fragment is not None:
        try:
            fragment = tree.by_id(plan.target_fragment)
        except KeyError:
            fragment = None  # MISSING_FRAGMENT: degrade to global correction
        if fragment is not None:
            if fragment.parent_id is not None:
                parent = tree.by_id(fragment.parent_id)
                header = (f"{fragment.clause_site} clause of fragment "
                          f"{parent.id} ({parent.kind})")
            else:
                header = "top-level statement"
            return CorrectionInputs(
                scope=SCOPE_LOCAL, sql_text=fragment.text,
                context_header=header, error_message=error.message,
                schema_lines=schema, guidance=plan.guidance,
                target_fragment=fragment.id, splice_span=fragment.span)
    return CorrectionInputs(
        scope=SCOPE_GLOBAL, sql_text=query, context_header="",
        error_message=error.message, schema_lines=schema,
        guidance=plan.guidance, target_fragment=None, splice_span=None)


def correct(query: str, inputs: CorrectionInputs, provider) -> str:
    """Run the correction prompt and splice the answer back.

    LOCAL fixes replace only the fragment span, leaving every other byte of
    the query untouched; the result must decompose cleanly or the call fails
    with both texts attached.
    """
    corrected = ask(provider, correction_prompt(inputs))
    if inputs.splice_span is not None:  # a LOCAL fix
        start, end = inputs.splice_span
        corrected = query[:start] + corrected + query[end:]
    try:
        _, diagnostic = decompose_lenient(corrected)
    except EmptyQueryError as exc:
        raise StillInvalidError(f"corrected SQL is empty: {exc}",
                                original=query, corrected=corrected) from exc
    if diagnostic is not None:
        raise StillInvalidError(
            f"corrected SQL still fails to parse: {diagnostic}",
            original=query, corrected=corrected)
    return corrected


def repair(query: str, log: str, store: KnowledgeStore, provider,
           catalog: dict | None = None, max_rounds: int = 1) -> ToolReport:
    """The fix-syntax tool end to end: clarify, prepare and correct, up to
    ``max_rounds`` times. A round whose fix still fails to parse feeds that
    fix and its parse failure into the next round; after the last round the
    StillInvalidError propagates."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    current_sql, current_log = query, log
    for round_no in range(1, max_rounds + 1):
        tree, _ = decompose_lenient(current_sql)
        error = parse_error_log(current_log)
        plan = clarify(error, store, tree)
        inputs = prepare_data(plan, error, current_sql, tree, catalog or {})
        try:
            corrected = correct(current_sql, inputs, provider)
        except StillInvalidError as exc:
            if round_no == max_rounds:
                raise
            current_sql, current_log = exc.corrected, str(exc)
            continue
        return ToolReport(
            tool=CORRECTOR,
            input_digest=input_digest(query, log),
            output={"original": query, "corrected": corrected,
                    "scope": inputs.scope,
                    "strategy": plan.strategy.index if plan.strategy else None},
        )
