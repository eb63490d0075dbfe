"""Repeat the benchmark over several seeds and summarise its spread.

Usage, from the root of a checkout::

    python3 rspbench/prove.py --seeds 1-10 --out rspbench/runs/set-a.json
    python3 rspbench/prove.py --summarise rspbench/runs/set-a.json rspbench/runs/set-b.json

A run set records every run's result line.  The summary gives, per
workload and end-to-end metric, the median of the runs, the distance
between the first and third quartile as a share of the median, and, for a
second set, how far its median moved from the first set's.  Those are the
figures each metric's ``bound`` in ``BENCHMARK.json`` is checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(workloads, seeds, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for workload in workloads:
        for seed in seeds:
            started = time.monotonic()
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            records.append(
                {"workload": workload, "seed": seed, "trace": trace,
                 "exit": proc.returncode, "run_s": round(took, 2), "result": result}
            )
            shown = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()}
            print(f"{workload} seed {seed}: exit {proc.returncode} in {took:.1f}s {shown}", flush=True)
    return records


def summarise(records, baseline=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        ok = all(r["result"] and r["result"]["correct"] for r in runs)
        longest = max(r["run_s"] for r in runs)
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            row = (f"{workload:14s} {name:12s} median {median:10.4f}  "
                   f"IQR/median {(q3 - q1) / median:.3f}  bound {bound}")
            if baseline is not None:
                before = [r["result"]["metrics"][name]["value"]
                          for r in baseline if r["workload"] == workload and r["result"]]
                row += f"  vs first set {median / statistics.median(before) - 1:+.3f}"
            rows.append(row)
        rows.append(f"{workload:14s} {len(runs)} runs, all correct: {ok}, longest run {longest:.1f}s")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarise", nargs="+", type=Path, metavar="SET")
    args = parser.parse_args()
    if args.summarise:
        sets = [json.loads(path.read_text()) for path in args.summarise]
        for index, records in enumerate(sets):
            print(f"== {args.summarise[index]}")
            for row in summarise(records, baseline=sets[0] if index else None):
                print(row)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    records = run_set(workloads, seeds, args.seconds or spec["run_seconds"], args.trace)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    if args.trace == 0:
        for row in summarise(records):
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
