"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload deep-olap --seed 1 --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src``. Each
run prepares its inputs from the seed, times the program's set-up, then
runs whole passes of the workload's fixed op list, one client, closed
loop, until at least ``--seconds`` have passed and at least 100 ops have
run. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass and then traced passes, and prints the per-layer metrics.
The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_OPS = 100       # op_p90_ms needs ten samples beyond it
SETUP_REPEATS = 3
WORKLOADS = ("deep-olap", "query-log", "kb-lifecycle", "cli-calls")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("llm_calls_per_op", "calls/op"),
    ("prompt_kchars_per_op", "kchars/op"),
    ("embed_calls_per_op", "calls/op"),
    ("peak_rss_mb", "MB"),
]

def import_sqlgov() -> None:
    """Import ``sqlgov.cli`` and the program modules it pulls in afresh, in
    this process, with their dependencies already loaded; the modules the
    benchmark imported are put back afterwards."""
    def own(name: str) -> bool:
        return name == "sqlgov" or name.startswith("sqlgov.")

    saved = {name: mod for name, mod in sys.modules.items() if own(name)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("sqlgov.cli")
    finally:
        for name in [name for name in sys.modules if own(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_passes(wl, clock, seconds: float, sampling: bool, tracer=None,
               corrupt=None, min_ops: int = MIN_OPS) -> dict:
    """Whole passes of the op list until ``seconds`` and ``min_ops`` are
    reached. ``sampling`` takes kernel samples during ops as well as
    between them. Returns per-op records and failure counts."""
    records = []
    failed = wrong = 0
    started = time.perf_counter()
    first_pass = True
    while first_pass or time.perf_counter() - started < seconds \
            or len(records) + failed < min_ops:
        first_pass = False
        wl.begin_pass()
        for op in wl.ops:
            op_id = len(records) + failed
            if tracer is not None:
                tracer.op, tracer.active = op_id, True
            calls0, chars0, embeds0 = wl.counters()
            clock.sample()
            try:
                out, t0, t1, pause = clock.run(lambda: wl.run(op), sampling)
            except Exception as exc:  # an op that raises is a failed op
                failed += 1
                print(f"op {op_id} ({op.kind}) failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            calls1, chars1, embeds1 = wl.counters()
            wl.op_llm_calls = calls1 - calls0
            if corrupt is not None and corrupt[0] == op.kind:
                corrupted = corrupt[1](op, out)  # None: not applicable here
                if corrupted is not None:
                    out, corrupt = corrupted, None
            try:
                reason = wl.check(op, out)
            except Exception as exc:  # a check that cannot read the output
                reason = f"check raised {exc!r}"
            if reason is not None:
                failed += 1
                wrong += 1
                print(f"op {op_id} ({op.kind}) wrong: {reason}", file=sys.stderr)
                continue
            records.append({"op": op_id, "kind": op.kind, "t0": t0, "t1": t1,
                            "pause": pause,
                            "llm_calls": calls1 - calls0,
                            "prompt_chars": chars1 - chars0,
                            "embed_calls": embeds1 - embeds0,
                            "source_chars": op.source_chars})
    clock.sample(force=True)
    for rec in records:
        rec["raw_ms"] = (rec["t1"] - rec["t0"] - rec["pause"]) * 1e3
        rec["factor"] = clock.factor(rec["t0"], rec["t1"])
        rec["ms"] = rec["raw_ms"] * rec["factor"]
    return {"records": records, "failed": failed, "wrong": wrong}


def end_to_end(setup_s: float, records: list[dict], rss_kb: int) -> dict:
    n = max(len(records), 1)
    latencies = [r["ms"] for r in records]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(records) / (sum(latencies) / 1e3),
        "op_p50_ms": percentile(latencies, 0.5),
        "op_p90_ms": percentile(latencies, 0.9),
        "llm_calls_per_op": sum(r["llm_calls"] for r in records) / n,
        "prompt_kchars_per_op": sum(r["prompt_chars"] for r in records) / 1e3 / n,
        "embed_calls_per_op": sum(r["embed_calls"] for r in records) / n,
        "peak_rss_mb": rss_kb / 1024,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, tiny=False,
            corrupt=None, min_ops: int = MIN_OPS) -> dict:
    """Prepare, set up and run one workload; returns the result object."""
    import workloads
    from tracing import PER_LAYER, Tracer, per_layer

    workdir = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, tiny, workdir)
    try:
        wl.prepare()
        # the generated inputs and their truth belong to the benchmark, not
        # the program: keep them out of the collector's full passes, while
        # the program's own set-up state stays visible to it
        gc.collect()
        gc.freeze()
        clock = calib.Clock()
        setups = []
        for _ in range(SETUP_REPEATS):
            wl.release()  # a repeat must not hold two copies of the store
            gc.collect()
            setups.append(clock.timed(wl.setup))
        import_s = statistics.median(
            clock.timed(import_sqlgov) for _ in range(SETUP_REPEATS))
        setup_s = import_s + statistics.median(setups)
        # ops that start child processes follow the reference process, not
        # the kernel; in-op kernel samples, except where spans are timed (the
        # traced run's plain pass is timed as its traced ones)
        if wl.in_process:
            op_clock = clock
        else:
            op_clock = calib.Clock(calib.time_process, calib.NOMINAL_PROCESS_S,
                                   calib.PROCESS_EVERY_S)
        sampling = not trace and wl.in_process
        tracer = None
        if trace:
            plain = run_passes(wl, op_clock, 0, sampling, min_ops=1)
            tracer = Tracer()
            tracer.install(extra=wl.trace_targets())
        op_clock.peak_rss_kb = 0  # peak memory of the measured ops only
        try:
            run = run_passes(wl, op_clock, seconds, sampling, tracer, corrupt,
                             min_ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        records = run["records"]
        result = {"correct": run["wrong"] == 0,
                  "attempted": len(records) + run["failed"],
                  "failed": run["failed"]}
        if trace:
            tracer.spans.extend(wl.child_spans())
            overhead = statistics.fmean(r["ms"] for r in records) \
                / statistics.fmean(r["ms"] for r in plain["records"])
            values = per_layer(
                tracer.spans, len(records),
                {r["op"]: r["factor"] for r in records},
                sum(r["source_chars"] for r in records),
                wl.import_ms(), overhead)
            metrics = {name_: {"value": values[name_], "unit": unit}
                       for name_, unit in PER_LAYER}
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
        else:
            values = end_to_end(setup_s, records,
                                wl.peak_rss_kb(op_clock.peak_rss_kb))
            metrics = {name_: {"value": values[name_], "unit": unit}
                       for name_, unit in END_TO_END}
        result["metrics"] = metrics
        raw = [r["raw_ms"] for r in records]
        result["raw"] = {
            "ops": len(records),
            "op_p50_ms": percentile(raw, 0.5) if raw else None,
            "op_p90_ms": percentile(raw, 0.9) if raw else None,
            "busy_s": sum(raw) / 1e3,
            "reference_median_ms": statistics.median(
                k for _, k in op_clock.samples) * 1e3,
            "setup_repeats_s": setups,
            "import_s": import_s,
            "per_op": [[r["op"], r["kind"], round(r["raw_ms"], 3),
                        round(r["ms"], 3)] for r in records],
        }
        return result
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sqlgov" / "__init__.py").is_file():
        print("run from the repository root: src/sqlgov not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    raw = result.pop("raw")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({**result, "raw": raw}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


sys.path.insert(0, str(HERE))
import calib  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
