"""Fast self-test of the benchmark: every workload at tiny size, clean and
then with one corrupted output fed to its check (one of them makes the
check raise).

    python3 perfbench/selftest.py

Run from the repository root. A clean run must report no failed op and a
traced run every per-layer metric; each corrupted run must count exactly
one failed op. Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def swap_fragment_ids(op, out):
    suggestions, result, verdict = out
    first, second = suggestions[0], suggestions[1]
    swapped = [dataclasses.replace(first, fragment_id=second.fragment_id),
               dataclasses.replace(second, fragment_id=first.fragment_id)]
    return swapped + list(suggestions[2:]), result, verdict


def wrong_top_k(op, out):
    tool, (result, verdict) = out
    cases = ("case-99999",) + tuple(result.cases_consulted[1:])
    return tool, (dataclasses.replace(result, cases_consulted=cases), verdict)


def byte_outside_splice(op, out):
    tool, corrected = out
    return tool, "s" + corrected[1:]  # the leading 'S' of the main query


def wrong_medoid(op, out):
    """Swap a family's survivor with a retired member of the same family."""
    loaded, snapshot = out
    family = lambda rule: rule.index.split("-")[0]  # noqa: E731
    for survivor in snapshot.rules:
        if not survivor.index.startswith("F") or survivor.status == "RETIRED":
            continue
        for other in snapshot.rules:
            if other.status == "RETIRED" and family(other) == family(survivor):
                survivor.status, other.status = "RETIRED", survivor.status
                return loaded, snapshot
    return None


def flipped_verdict(op, out):
    return dataclasses.replace(out, verdict="EQUIVALENT")


def flipped_cli_verdict(op, out):
    code, payload = out
    if op.data["kind"] == "verify":
        payload = [dict(payload[0], verdict="EQUIVALENT")]
    return code, payload


def no_cli_output(op, out):
    """A CLI call that printed nothing: the check cannot read the payload
    and raises."""
    code, _ = out
    return code, None


CORRUPTIONS = [
    ("deep-olap", "rewrite-verify", swap_fragment_ids),
    ("query-log", "rewrite", wrong_top_k),
    ("query-log", "fix", byte_outside_splice),
    ("query-log", "verify", flipped_verdict),
    ("kb-lifecycle", "verify", wrong_medoid),
    ("cli-calls", "verify", flipped_cli_verdict),
    ("cli-calls", "modify", no_cli_output),
]


def main() -> int:
    ok = True
    for name in run.WORKLOADS:
        result = run.measure(name, 7, 0, trace=False, tiny=True, min_ops=1)
        good = result["failed"] == 0 and result["correct"]
        print(f"{name}: clean run attempted={result['attempted']} "
              f"failed={result['failed']} {'ok' if good else 'FAIL'}")
        ok &= good
        traced = run.measure(name, 7, 0, trace=True, tiny=True, min_ops=1)
        good = traced["failed"] == 0 and \
            len(traced["metrics"]) == len(PER_LAYER)
        print(f"{name}: traced run, {len(traced['metrics'])} per-layer "
              f"metrics {'ok' if good else 'FAIL'}")
        ok &= good
    for name, kind, corrupt in CORRUPTIONS:
        result = run.measure(name, 7, 0, trace=False, tiny=True,
                             corrupt=(kind, corrupt), min_ops=1)
        good = result["failed"] == 1 and not result["correct"]
        print(f"{name}: {corrupt.__name__} on a {kind} op -> "
              f"failed={result['failed']} {'ok' if good else 'FAIL'}")
        ok &= good
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
