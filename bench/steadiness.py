#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --runs 10 --seconds 20 --output steadiness.json

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
is steady when its spread stays within its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--output", help="write the record here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect results\n{proc.stdout}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        record[workload] = {}
        for name, vals in values.items():
            s = spread(vals)
            record[workload][name] = {"median": statistics.median(vals), "spread": s,
                                      "bound": bounds[name], "values": vals}
            ok = s <= bounds[name] or name == "setup_s"
            steady = steady and ok
            print(f"{workload:15s} {name:12s} median {statistics.median(vals):10.5g} "
                  f"spread {s:6.3f} bound {bounds[name]:.2f}{'' if ok else '  UNSTEADY'}",
                  flush=True)
    if args.output:
        Path(args.output).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
