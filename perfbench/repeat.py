"""Repeat one workload over several seeds and report how steady it is.

    python3 perfbench/repeat.py --workload construct --seeds 1-10 [--seconds 15] [--trace 1]

For every metric line a run prints, reports the median and the spread: the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median.  It also reports whether the share of failed
operations, and with --trace 1 every count metric, is identical across the
runs.  Raw outputs go to perfbench/out/repeat-<workload>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload]
        cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        metrics = {}
        for line in lines[:-1]:
            if line.startswith("metric "):
                _, name, value, unit = line.split()
                metrics[name] = (float(value), unit)
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            metrics[name] = (m["value"], m["unit"])  # all digits
        runs.append({"seed": seed, "result": result, "metrics": metrics, "stdout": proc.stdout})
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"repeat-{args.workload}-{args.trace}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)

    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"failed share identical across runs: {len(shares) == 1} {sorted(shares)}")
    print(f"{'metric':48} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name][0] for r in runs if name in r["metrics"]]
        unit = runs[0]["metrics"][name][1]
        if len(values) < 2:
            continue
        if name.endswith(".calls") or unit == "count":
            same = len(set(values)) == 1
            print(f"{name:48} {unit:6} {statistics.median(values):12.6g} identical={same}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:48} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
