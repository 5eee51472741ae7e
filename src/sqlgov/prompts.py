"""Prompt templates for every LLM call site and ``ask``, their one answer gate.

Scripted mocks key on the digest of the rendered envelope, so any change to
rendering means regenerating the playbook with scripts/build_playbook.py.

A prompt about one fragment shows its local text: its own text with each
direct child replaced by ``[fragment k]``, the label intent extraction gives
that child's summary. REWRITE shows the whole query and CORRECT the whole
fragment, since their answers replace that text.
"""

from __future__ import annotations

import json

from .errors import RejectedResponseError
from .providers import (
    ALIGNMENT,
    CORRECT,
    INTENT_EXTRACT,
    MODIFY_PREFIX,
    REWRITE,
    RULE_GEN,
    SCENARIO_1,
    SCENARIO_2,
    PromptEnvelope,
    envelope,
)
from .shapes import check, misfit

_RULE_GEN_TASK = (
    "You are given SQL queries together with their execution outputs "
    "(status, logs, timings, result digests) from a DBMS. Analyze the "
    "outputs to find errors or inefficiencies in the queries."
)
_RULE_GEN_INSTRUCTION = (
    "1. Review each query's execution output and decide whether it shows an "
    "error or an inefficiency.\n"
    "2. Distill every confirmed problem into a generalizable rule: an "
    "abstract problem pattern, a detailed description, and a corrective "
    "action.\n"
    "3. Answer with a single JSON object whose keys are problem-pattern "
    "labels (each key becomes a rule index) and whose values are detailed "
    "descriptions including the corrective action."
)


def rule_generation_prompt(records) -> PromptEnvelope:
    question_lines = []
    output_lines = []
    for i, record in enumerate(records, start=1):
        question_lines.append(f"[{i}] SQL: {record.sql}")
        if record.user_query:
            question_lines.append(f"    user query: {record.user_query}")
        output_lines.append(
            f"[{i}] status={record.status} elapsed={record.elapsed:.3f}s")
        if record.error_log:
            output_lines.append(f"    log: {record.error_log}")
        if record.result_digest:
            output_lines.append(f"    result: {record.result_digest}")
    return envelope(
        RULE_GEN,
        ("Task Description", _RULE_GEN_TASK),
        ("Instruction", _RULE_GEN_INSTRUCTION),
        ("Demonstration", "(none)"),
        ("Question", "\n".join(question_lines)),
        ("Execution Outputs", "\n".join(output_lines)),
    )


def _fragment_section(tree, fragment) -> tuple[str, str]:
    return ("Fragment",
            f"[fragment {fragment.id}]\n{tree.local_text(fragment.id)}")


def scenario1_prompt(tree, fragment, rules) -> PromptEnvelope:
    rule_lines = [f"- {r.index}: {r.description}" for r in rules]
    return envelope(
        SCENARIO_1,
        _fragment_section(tree, fragment),
        ("Matched Rules", "\n".join(rule_lines)),
        ("Instruction",
         "Evaluate whether each matched rule truly applies to this fragment. "
         "For every applicable rule give an imperative rewrite action and a "
         "short rationale; silently drop rules that do not apply. Answer "
         "with JSON: {\"applicable\": [{\"rule\": <index>, \"action\": "
         "<instruction>, \"rationale\": <why>}]}."),
    )


def scenario2_prompt(tree, fragment) -> PromptEnvelope:
    return envelope(
        SCENARIO_2,
        _fragment_section(tree, fragment),
        ("Instruction",
         "Analyze the intent of this fragment and look for a cheaper "
         "formulation that preserves its semantics. If it is already "
         "efficient answer {\"efficient\": true, \"suggestions\": []}; "
         "otherwise answer {\"efficient\": false, \"suggestions\": "
         "[{\"action\": <instruction>, \"rationale\": <why>}]}."),
    )


def rewrite_prompt(original_sql: str, suggestions, cases) -> PromptEnvelope:
    suggestion_lines = []
    for s in suggestions:
        label = f" [{s.rule_index}]" if s.rule_index else ""
        suggestion_lines.append(f"- fragment {s.fragment_id}{label}: {s.action}")
    case_lines = [f"- {c.index}: {c.details}" for c in cases]
    return envelope(
        REWRITE,
        ("Original SQL", original_sql),
        ("Suggestions", "\n".join(suggestion_lines) or "(none)"),
        ("Historical Cases", "\n".join(case_lines) or "(none)"),
        ("Instruction",
         "Apply the suggestions to the original SQL, producing a "
         "semantically equivalent but more efficient query. Use the "
         "historical cases as style and strategy references. Answer with "
         "the rewritten SQL text only."),
    )


def intent_extract_prompt(tree, fragment,
                          child_summaries: list[str]) -> PromptEnvelope:
    return envelope(
        INTENT_EXTRACT,
        _fragment_section(tree, fragment),
        ("Child Summaries", "\n".join(child_summaries) or "(none)"),
        ("Instruction",
         "Describe the provenance of every output field of this fragment's "
         "SELECT clause: source tables, transformation logic (aggregation "
         "or arithmetic), and filter/join conditions. Use the child "
         "summaries for nested parts. Answer with JSON: {\"fields\": "
         "[{\"output_name\": <name>, \"source_tables\": [<table>...], "
         "\"transformation\": <text>, \"conditions\": [<text>...]}], "
         "\"narrative\": <one paragraph>}."),
    )


def alignment_prompt(left_rendered: str, right_rendered: str) -> PromptEnvelope:
    return envelope(
        ALIGNMENT,
        ("Left Intent", left_rendered),
        ("Right Intent", right_rendered),
        ("Instruction",
         "Align the output fields of the two intents bidirectionally: every "
         "left field maps to exactly one right field and vice versa. For "
         "each pair judge semantic equivalence and give a confidence in "
         "[0, 1]; if a pair is not equivalent, give a concrete "
         "counterexample. Answer with JSON: {\"mappings\": [{\"left\": "
         "<position>, \"right\": <position>, \"equivalent\": <bool>, "
         "\"confidence\": <float>, \"counterexample\": <text or null>}]}."),
    )


_MODIFY_DIRECTIVES = {
    "REALIZE_SEMANTICS": (
        "Adjust the SQL logic so it realizes the semantics the user asked "
        "for while keeping the rest of the query intact."),
    "EXPLAIN_SQL": (
        "Add clarifying comments to the SQL. The SQL logic itself must stay "
        "unchanged apart from whitespace and comments."),
    "ADOPT_SYNTAX": (
        "Restructure the SQL to match the requested style or syntax while "
        "preserving semantic equivalence."),
    "OTHER": (
        "Fulfill the request with a minimal, correctness-preserving edit."),
}


def modify_prompt(category_id: str, request: str, context) -> PromptEnvelope:
    directive = _MODIFY_DIRECTIVES.get(category_id, _MODIFY_DIRECTIVES["OTHER"])
    meta_lines = []
    for table, columns in context.referenced_metadata.items():
        meta_lines.append(f"- {table}: {columns}")
    for table, schema in context.frequent_tables:
        meta_lines.append(f"- (frequent) {table}: {schema}")
    return envelope(
        MODIFY_PREFIX + category_id,
        ("Target SQL", context.target_sql),
        ("Surrounding Context", context.surrounding_context or "(none)"),
        ("Metadata", "\n".join(meta_lines) or "(none)"),
        ("Timestamp", context.timestamp),
        ("User Request", request),
        ("Instruction",
         directive + " Answer with JSON: {\"sql\": <modified SQL>, "
         "\"explanation\": <what changed and why>}."),
    )


def correction_prompt(inputs) -> PromptEnvelope:
    sections: list[tuple[str, str]] = []
    if inputs.scope == "LOCAL":
        sections.append(("Fragment", inputs.sql_text))
        sections.append(("Enclosing Context", inputs.context_header))
    else:
        sections.append(("SQL", inputs.sql_text))
    sections.append(("Error", inputs.error_message))
    if inputs.schema_lines:
        sections.append(("Schema", "\n".join(inputs.schema_lines)))
    sections.append(("Guidance", inputs.guidance))
    target = "fragment" if inputs.scope == "LOCAL" else "SQL query"
    sections.append((
        "Instruction",
        f"Fix the reported error. Answer with the corrected {target} text "
        f"only, no commentary."))
    return envelope(CORRECT, *sections)


def catalog_entry(entry) -> tuple[list | dict, str]:
    """A catalog entry's (columns, description). An entry is a column list, a
    ``{"columns", "description"}`` object or a ``{column: type}`` map."""
    if isinstance(entry, dict) and {"columns", "description"} & entry.keys():
        return entry.get("columns", []), entry.get("description", "")
    return entry, ""


def catalog_key(catalog: dict, table: str) -> str | None:
    """The key under which ``catalog`` describes ``table``: the table's
    whole name, else the last part of a dotted one (``sales.orders`` finds
    ``orders``); None when neither is a key."""
    if table in catalog:
        return table
    last = table.rpartition(".")[2]
    return last if last != table and last in catalog else None


_COLUMN = {"name": "required str", "description": "str"}


def check_catalog(catalog) -> dict:
    """``catalog`` if it is a JSON object from table to entry (see
    ``catalog_entry``) whose columns are names or ``{"name",
    "description"}`` objects and whose types are strings; else a ValueError
    naming the first table that does not fit."""
    check(catalog, "dict")
    for table, entry in catalog.items():
        columns, description = catalog_entry(entry)
        if type(columns) is dict:
            fits = all(type(t) is str for t in columns.values())
        else:
            fits = type(columns) is list and all(
                type(c) is str or misfit(c, _COLUMN) is None for c in columns)
        if not fits or type(description) is not str:
            raise ValueError(f"table {table!r} is not a column list, a "
                             f'{{"columns", "description"}} object or a '
                             f"{{column: type}} map")
    return catalog


def render_columns(columns) -> str:
    """One catalog column list as text: a column is a name or a
    ``{"name", "description"}`` object."""
    rendered = []
    for column in columns:
        if isinstance(column, dict):
            name = column.get("name", "")
            desc = column.get("description")
            rendered.append(f"{name} ({desc})" if desc else name)
        else:
            rendered.append(str(column))
    return ", ".join(rendered)


def strip_fences(text: str) -> str:
    """Drop a surrounding markdown code fence, and any whitespace before it,
    from an LLM answer; an answer with no fence loses only its leading and
    trailing newlines."""
    cleaned = text.strip("\n")
    fenced = cleaned.lstrip()
    if fenced.startswith("```"):
        lines = fenced.splitlines()[1:]
        if lines and lines[-1].strip().startswith("```"):
            lines = lines[:-1]
        cleaned = "\n".join(lines).strip("\n")
    return cleaned


# The answer contract of every template: SQL text, taken as text, or JSON
# that fits a shape as ``shapes.misfit`` reads shapes.
SQL_TEXT = "SQL text"
ANSWER_SHAPES = {
    RULE_GEN: {},  # any JSON object
    SCENARIO_1: {"applicable": [
        {"rule": "str", "action": "str", "rationale": "str"}]},
    SCENARIO_2: {"efficient": "bool", "suggestions": [
        {"action": "str", "rationale": "str"}]},
    REWRITE: SQL_TEXT,
    INTENT_EXTRACT: {"narrative": "str", "fields": [
        {"output_name": "str", "source_tables": ["str"],
         "transformation": "str", "conditions": ["str"]}]},
    ALIGNMENT: {"mappings": [
        {"left": "required int", "right": "required int",
         "equivalent": "bool", "confidence": "float",
         "counterexample": "str | None"}]},
    MODIFY_PREFIX: {"sql": "required str", "explanation": "str"},
    CORRECT: SQL_TEXT,
}


def ask(provider, env: PromptEnvelope) -> str | dict:
    """Complete ``env`` and return the answer its template's entry in
    ``ANSWER_SHAPES`` allows, a surrounding code fence dropped; any other is
    a RejectedResponseError. Where a shape has an ``sql`` key (a modify
    answer), an answer that is no JSON object is bare SQL, read as
    ``{"sql": text}``. Blank SQL is rejected."""
    tid = env.template_id
    shape = ANSWER_SHAPES[tid if tid in ANSWER_SHAPES else MODIFY_PREFIX]
    text = provider.complete(env)
    if shape == SQL_TEXT:
        answer = sql = strip_fences(text)
    else:
        text = strip_fences(text.strip())
        bare = "sql" in shape
        try:
            answer = json.loads(text)
        except (ValueError, RecursionError) as exc:
            if not bare:
                raise RejectedResponseError(
                    f"{tid} response is not valid JSON") from exc
            answer = None
        if bare and type(answer) is not dict:
            answer = {"sql": text}
        try:
            check(answer, shape)
        except ValueError as exc:
            raise RejectedResponseError(f"{tid} response {exc}") from None
        sql = answer["sql"] if bare else None
    if sql is not None and not sql.strip():
        raise RejectedResponseError(f"{tid} response is blank SQL")
    return answer
