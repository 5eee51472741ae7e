"""Stand-in providers: an LLM that answers from the generator's ground truth
and an embedding wrapper that counts calls.

The stand-in finds what a prompt is about through the markers the
generators plant in identifiers (``q012n003`` for fragments, ``rec00042``
for execution records) and answers as a compliant model would. Its own
cost is a regular-expression pass over the rendered prompt, so wall times
measure the toolkit, while the call and prompt-size counters carry the
model cost a production run pays.
"""

from __future__ import annotations

import json
import re

MARKER_RE = re.compile(r"\b(q\d+n\d{3})\b")
RECORD_RE = re.compile(r"\b(rec\d{5})\b")


def qid_of(marker: str) -> str:
    return marker[:marker.index("n")]


class StandInLLM:
    """Implements the program's ``complete(env)`` provider contract."""

    def __init__(self):
        self.nodes: dict = {}            # fragment marker -> gen.Node
        self.rewrites: dict[str, str] = {}   # qid -> rewritten SQL
        self.fixes: dict[str, str] = {}      # marker or qid -> repaired text
        self.modified: dict[str, str] = {}   # qid -> modified SQL
        self.records: dict[str, tuple[str, str]] = {}  # record -> (index, text)
        self.not_equivalent: set[str] = set()  # qids whose pair differs
        self.calls = 0
        self.prompt_chars = 0
        self.recorded: list[dict] | None = None

    # --- truth registration -------------------------------------------------

    def add_query(self, query) -> None:
        """Register a gen.DeepQuery (or any object with nodes/qid/rewritten)."""
        self.nodes.update(query.nodes)
        self.rewrites[query.qid] = query.rewritten

    # --- provider contract ----------------------------------------------------

    def complete(self, env) -> str:
        text = env.render()
        self.calls += 1
        self.prompt_chars += len(text)
        tid = env.template_id
        if tid == "SCENARIO_1":
            answer = self._scenario1(env)
        elif tid == "SCENARIO_2":
            answer = json.dumps({"efficient": True, "suggestions": []})
        elif tid == "REWRITE":
            answer = self.rewrites[self._qid(env.section("Original SQL"))]
        elif tid == "INTENT_EXTRACT":
            answer = self._intent(env)
        elif tid == "ALIGNMENT":
            answer = self._align(env)
        elif tid == "CORRECT":
            answer = self._correct(env)
        elif tid == "RULE_GEN":
            answer = self._rules(env)
        elif tid.startswith("MODIFY_"):
            answer = json.dumps({"sql": self.modified[
                self._qid(env.section("Target SQL"))],
                "explanation": "applied the request"})
        else:
            raise KeyError(f"no stand-in answer for template {tid}")
        if self.recorded is not None:
            self.recorded.append({"template_id": tid, "digest": env.digest,
                                  "response": answer})
        return answer

    # --- answers ----------------------------------------------------------------

    def _qid(self, text: str) -> str:
        return qid_of(MARKER_RE.search(text).group(1))

    def _own(self, text: str):
        """The fragment's own node: the shallowest marker in its text."""
        markers = set(MARKER_RE.findall(text))
        return min((self.nodes[m] for m in markers), key=lambda n: n.depth)

    def _scenario1(self, env) -> str:
        node = self._own(env.section("Fragment"))
        applicable = []
        for line in env.section("Matched Rules").splitlines():
            index = line[2:].split(": ", 1)[0]
            applicable.append({
                "rule": index,
                "action": f"apply {index} to {node.marker}",
                "rationale": f"{node.marker} carries the {index} pattern"})
        return json.dumps({"applicable": applicable})

    def _intent(self, env) -> str:
        node = self._own(env.section("Fragment"))
        tables = [node.table]
        if node.pattern == "OUTER_JOIN_NULL_FILTER":
            tables.append(f"j_{node.marker}")
        fields = [{"output_name": node.marker, "source_tables": tables,
                   "transformation": "projection",
                   "conditions": [f"{node.marker} > {node.lit}"]}]
        for child in node.children:
            if child.site == "SELECT_LIST":
                fields.append({"output_name": child.marker,
                               "source_tables": [child.table],
                               "transformation": "scalar subquery",
                               "conditions": []})
        return json.dumps({"fields": fields,
                           "narrative": f"rows of {node.table}"})

    def _align(self, env) -> str:
        left = json.loads(env.section("Left Intent"))["fields"]
        right = json.loads(env.section("Right Intent"))["fields"]
        position = {f["output_name"]: i for i, f in enumerate(right)}
        differs = qid_of(left[0]["output_name"]) in self.not_equivalent
        mappings = []
        for i, f in enumerate(left):
            mappings.append({
                "left": i, "right": position[f["output_name"]],
                "equivalent": not (differs and i == 0),
                "confidence": 0.93,
                "counterexample": "a row where the filters disagree"
                if differs and i == 0 else None})
        return json.dumps({"mappings": mappings})

    def _correct(self, env) -> str:
        fragment = env.section("Fragment")
        if fragment is not None:
            return self.fixes[self._own(fragment).marker]
        return self.fixes[self._qid(env.section("SQL"))]

    def _rules(self, env) -> str:
        answer = {}
        for marker in RECORD_RE.findall(env.section("Question")):
            index, description = self.records[marker]
            answer[index] = description
        return json.dumps(answer)


class CountingEmbedder:
    """Wraps the program's embedding provider and counts calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0

    def embed(self, text: str):
        self.calls += 1
        return self.inner.embed(text)

    def embed_with_instruction(self, text: str, instruction: str):
        self.calls += 1
        return self.inner.embed_with_instruction(text, instruction)
