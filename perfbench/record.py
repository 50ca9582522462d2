#!/usr/bin/env python3
"""Run every workload untraced and traced for one seed and store the
results, with the machine they ran on, as one point of the trajectory.

    python3 perfbench/record.py --label <name> [--seed 1] [--seconds S]

Writes perfbench/results/<label>.json: the environment, each run's result
object exactly as run.py printed it, the headline figures under their
workload names, and the tracing overhead (traced minus untraced, for each
end-to-end metric).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import NAMED, ROOT, environment

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "query-mix", "gen-export")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"record.py: {workload} trace {trace} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    print("\n".join(lines[1:-1]), flush=True)
    return {"env": json.loads(lines[0].removeprefix("env ")), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        default_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=default_seconds)
    args = parser.parse_args(argv)

    point = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
             "env": environment(), "workloads": {}}
    for workload in WORKLOADS:
        untraced = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        plain = untraced["result"]
        layers = traced["result"]["metrics"]
        named = {
            name: {"value": plain["metrics"][metric]["value"] * scale, "unit": unit}
            for (wl, name, unit), (metric, scale) in NAMED.items() if wl == workload
        }
        named["failed_ratio"] = {"value": plain["failed"] / plain["attempted"], "unit": "ratio"}
        point["workloads"][workload] = {
            "untraced": untraced,
            "traced": traced,
            "named": named,
            "tracing_overhead": {
                name: {"value": layers[f"traced.{name}"]["value"] - m["value"], "unit": m["unit"]}
                for name, m in plain["metrics"].items()
            },
        }

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.label}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(point, out, indent=1)
        out.write("\n")
    for workload, entry in point["workloads"].items():
        for name, metric in {**entry["named"], **{
            k: entry["untraced"]["result"]["metrics"][k] for k in ("setup_s", "peak_rss_mb")
        }}.items():
            print(f"{workload:<11} {name:<14} {metric['value']:>12.6g} {metric['unit']}")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
