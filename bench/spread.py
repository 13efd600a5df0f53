#!/usr/bin/env python3
"""Seed-to-seed spread of every benchmark metric.

Runs `bench/run.py` once per (workload, seed), one run at a time, and
reports for each metric the median and the quartile spread: the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median. Gated metrics are shown against their bound in
BENCHMARK.json. Run from the root of a source checkout:

    python3 bench/spread.py --seeds 1-10 --trace 0 --out bench/baseline.json

Every workload of BENCHMARK.json runs for its `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    result = json.loads(lines[-1])
    return detail, result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the summary into this JSON file")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    seconds = bench["run_seconds"]

    summary = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            summary = json.load(fh)
    summary["generator"] = {
        name: getattr(inputs, name) for name in ("SIMULATE", "HMC", "POSSIBILITY", "PPC_DRAWS", "PPC")
    }
    for workload, why in whys.items():
        rows, checks = [], {"attempted": 0, "failed": 0}
        for seed in range(lo, hi + 1):
            detail, result = run_once(workload, seed, seconds, args.trace)
            rows.append({**detail, **{k: v["value"] for k, v in result["metrics"].items()}})
            checks["attempted"] += result["attempted"]
            checks["failed"] += result["failed"]
            print(workload, seed, json.dumps(rows[-1]), file=sys.stderr, flush=True)
        entry = summary.setdefault("workloads", {}).setdefault(workload, {})
        entry.update(inputs.WORKLOADS[workload], why=why)
        entry[f"trace{args.trace}"] = {
            "seeds": [lo, hi],
            "seconds": seconds,
            "checks": checks,
            "metrics": {k: summarize([r[k] for r in rows]) for k in rows[0]},
        }
        for name, s in entry[f"trace{args.trace}"]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            gate = f"bound {bounds[name]}" if name in bounds else ""
            print(f"{workload:<14}{name:<36}median {s['median']:<14.6g}spread {spread:<8}{gate}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
