#!/usr/bin/env python3
"""ssdkb benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload ingest|query-mix|gen-export \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
instead, taken from spans around every call into the program, and the
spans are written to `.perfbench_out/`. See perfbench/README.md for what
each metric means and which layer figure should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

from tracing import MemTracer, SpanTracer, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_RUNS = 3
IMPORT_RUNS = 3

# each workload's headline figures under their own names, derived from the
# generic metrics: (workload, name, unit) -> (metric, scale)
NAMED = {
    ("ingest", "ingest_s", "s"): ("op_p50_ms", 1e-3),
    ("query-mix", "query_p50_ms", "ms"): ("op_p50_ms", 1.0),
    ("query-mix", "query_p90_ms", "ms"): ("op_p90_ms", 1.0),
    ("query-mix", "queries_per_s", "1/s"): ("ops_per_s", 1.0),
    ("gen-export", "gen_s", "s"): ("op_p50_ms", 1e-3),
}

UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ops_per_s": "1/s", "peak_rss_mb": "MB",
}

LAYER_SPANS = (
    "generate.graph", "turtle.serialize", "turtle.parse", "kb.lift",
    "model.validate", "classify.materialize", "kb.index_build", "kb.stats",
    "dlquery.parse", "dlquery.eval", "sparql.parse", "sparql.eval",
)
# layers whose allocations grow with the corpus, so the collector runs inside
# every call; query operations get one figure for parse and eval together
GC_SPANS = (
    "generate.graph", "turtle.serialize", "turtle.parse", "kb.lift",
    "classify.materialize", "kb.index_build",
)
COUNTS = (
    "turtle.chars", "turtle.triples", "kb.studies",
    "classify.inferred_triples", "kb.materialized_per_asserted",
)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def import_seconds() -> float:
    """Seconds to import ssdkb in a fresh interpreter: the set-up every
    command pays before its first call."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import ssdkb; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _guarded(fn):
    """(True, result), or (False, None) with the traceback on stderr."""
    try:
        return True, fn()
    except Exception:
        traceback.print_exc()
        return False, None


def measure(wl, tracer, seed: int, seconds: float, counts: dict, rows: dict):
    """Warm-up, set-ups, the timed loop and the output checks. Returns the
    result object, with the raw end-to-end figures as its metrics, and the
    run's details."""
    from workloads import warm_up

    warm_ok = warm_up(tracer, seed, counts, rows)
    import_s = statistics.median(import_seconds() for _ in range(IMPORT_RUNS))
    prepare = []
    for _ in range(SETUP_RUNS):
        gc.collect()
        start = time.perf_counter()
        with tracer.op("setup", "setup"):
            wl.set_up()
        prepare.append(time.perf_counter() - start)
    wl.start()

    gc.collect()
    durations: list[float] = []
    failed = 0
    names: dict[str, int] = {}
    busy = 0.0  # the window counts only time inside operations
    while busy < seconds:
        name, run, check = wl.next_op()
        names[name] = names.get(name, 0) + 1
        if wl.collect_before_op:
            gc.collect()
        start = time.perf_counter()
        with tracer.op(name, "op"):
            ran, output = _guarded(run)
        durations.append(time.perf_counter() - start)
        busy += durations[-1]
        ok = False
        if ran:
            with tracer.op("check", "check"):
                checked, verdict = _guarded(lambda: check(output))
            ok = checked and verdict
        if not ok:
            print(f"operation {len(durations)} ({name}) failed", file=sys.stderr)
            failed += 1
        del output  # an ingest kb must be freed before the next one is built
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = wl.finish()
    if wrong:
        print(f"whole-run checks failed for {wrong} operation(s)", file=sys.stderr)
    failed = min(len(durations), failed + wrong)  # an operation can fail both ways
    if not warm_ok:
        print("warm-up checks failed", file=sys.stderr)

    result = {
        "correct": warm_ok and failed == 0,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {
            "setup_s": import_s + statistics.median(prepare),
            "op_p50_ms": statistics.median(durations) * 1e3,
            "op_p90_ms": p90(durations) * 1e3,
            "ops_per_s": len(durations) / sum(durations),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    return result, {"import_s": import_s, "setup_runs_s": prepare, "op_mix": names}



def layer_metrics(spans, peaks, counts, rows, e2e) -> dict:
    """Per-layer figures from the traced run. Each takes the spans outside
    the warm-up; a layer the workload never calls reports its warm-up
    figure instead, so every figure is measured."""
    by_name: dict[str, list] = {}
    warm: dict[str, list] = {}
    query_gc: dict[int, list] = {}  # query operation span id -> [collections, pause]
    for span in spans:
        target = warm if span.phase == "warmup" else by_name
        target.setdefault(span.name, []).append(span)
        if span.name.startswith("query."):
            query_gc[span.id] = [span.gc_count, span.gc_pause]
            target.setdefault("query", []).append(span)
        elif span.parent is not None and span.parent.name.startswith("query."):
            query_gc[span.parent.id][0] += span.gc_count
            query_gc[span.parent.id][1] += span.gc_pause
            if span.name.endswith(".eval"):
                target.setdefault(f"{span.parent.name}.eval", []).append(span)

    def spans_of(name):
        return by_name.get(name) or warm.get(name, [])

    out = {}
    for name in LAYER_SPANS:
        unit = "ms" if name.startswith(("dlquery.", "sparql.")) else "s"
        scale = 1e3 if unit == "ms" else 1.0
        out[f"{name}_{unit}"] = (
            statistics.median(s.end - s.start for s in spans_of(name)) * scale, unit
        )
    for template in rows:
        key = f"query.{template}"
        out[f"{key}.eval_ms"] = (
            statistics.median(s.end - s.start for s in spans_of(f"{key}.eval")) * 1e3, "ms"
        )
        out[f"{key}.rows"] = (rows[template], "count")
    for name in GC_SPANS:
        chosen = spans_of(name)
        out[f"gc.collections.{name}"] = (statistics.mean(s.gc_count for s in chosen), "count")
        out[f"gc.pause_s.{name}"] = (statistics.mean(s.gc_pause for s in chosen), "s")
    chosen = [query_gc[s.id] for s in spans_of("query")]
    out["gc.collections.query"] = (statistics.mean(c for c, _ in chosen), "count")
    out["gc.pause_s.query"] = (statistics.mean(p for _, p in chosen), "s")
    mem: dict[str, list] = {}
    mem_warm: dict[str, list] = {}
    for phase, name, mib in peaks:
        (mem_warm if phase == "warmup" else mem).setdefault(name, []).append(mib)
    for name in LAYER_SPANS:
        out[f"mem.{name}_peak_mb"] = (max(mem.get(name) or mem_warm[name]), "MB")
    for name in COUNTS:
        out[name] = (counts[name], "ratio" if name.endswith("_per_asserted") else "count")
    for name, value in e2e.items():
        out[f"traced.{name}"] = (value, UNITS[name])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def memory_pass(wl, seed: int) -> list:
    """Per-layer tracemalloc peaks: the warm-up and one operation of each
    kind, with nothing timed. Set-ups are left out: the layers they call
    are another workload's operation (the load path is ingest's, generate
    and serialize are gen-export's), which measures them at full size."""
    from workloads import warm_up

    tracer = MemTracer()
    wl.tracer = tracer
    tracemalloc.start()
    try:
        warm_up(tracer, seed, {}, {})
        seen = set()
        while len(seen) < wl.op_kinds:
            name, run, _ = wl.next_op()
            if name not in seen:
                seen.add(name)
                with tracer.op(name, "op"):
                    run()
    finally:
        tracemalloc.stop()
    return tracer.peaks


def report(workload: str, result: dict) -> None:
    """Human-readable lines before the JSON line."""
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if "op_p50_ms" in result["metrics"]:
        for (wl, name, unit), (metric, scale) in NAMED.items():
            if wl == workload:
                value = result["metrics"][metric]["value"] * scale
                print(f"  {name:<44} {value:>14.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} ({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "query-mix", "gen-export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _require_program()
    env = environment()
    print("env " + json.dumps(env), flush=True)

    from workloads import WORKLOADS

    tracer = SpanTracer() if args.trace else Tracer()
    counts: dict = {}
    rows: dict = {}
    try:
        wl = WORKLOADS[args.workload](args.seed, tracer, counts, rows)
        result, detail = measure(wl, tracer, args.seed, args.seconds, counts, rows)
    finally:
        if args.trace:
            tracer.close()
    e2e = result["metrics"]
    if args.trace:
        peaks = memory_pass(wl, args.seed)
        result["metrics"] = layer_metrics(tracer.spans, peaks, counts, rows, e2e)
    else:
        result["metrics"] = {name: {"value": v, "unit": UNITS[name]} for name, v in e2e.items()}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump({"env": env, "args": vars(args), "detail": detail, "result": result}, out, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.jsonl", {"env": env, "args": vars(args)})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']}  mix {json.dumps(detail['op_mix'], sort_keys=True)}")
    report(args.workload, result)
    print(json.dumps(result), flush=True)
    return 0


def _require_program() -> None:
    """Exit before any output unless the checkout holds the program."""
    if not os.path.isfile(os.path.join(SRC, "ssdkb", "__init__.py")):
        sys.exit(f"run.py: no program at {SRC}; run from the root of an ssdkb checkout")
    sys.path.insert(0, SRC)
    import ssdkb

    if os.path.dirname(os.path.abspath(ssdkb.__file__)) != os.path.join(SRC, "ssdkb"):
        sys.exit(f"run.py: imported ssdkb from {ssdkb.__file__}, not from {SRC}")


if __name__ == "__main__":
    sys.exit(main())
