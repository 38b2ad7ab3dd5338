"""qphase benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload {construct,grids,tomo,cli,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` beside this
directory and the metric names come from ``BENCHMARK.json`` at the root.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit code 0 when every check passed, 1 when one failed, 2 on bad usage or
when the library source is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import Tracer, calls_by_kind, layer_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("construct", "grids", "tomo", "cli")
# One BLAS thread in the workload process and its children.  The library's
# matrices are at most 32 x 32, and on a 2-core shared machine the default
# two-thread OpenBLAS pool makes a fresh import bimodal (0.11 s or 0.19 s,
# depending on how its worker thread is scheduled).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# Import time is sampled in this process and in fresh interpreters, this
# many before the workload and as many after it, since the machine's speed
# drifts over seconds; the median is the import part of setup_s.
IMPORT_CHILDREN = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_import_s() -> float:
    cmd = [sys.executable, os.path.join(HERE, "qphase_cmd.py"), "--import-only"]
    return float(subprocess.run(cmd, capture_output=True, check=True, text=True).stdout)


def per_layer(names: list[str], run, spans) -> dict[str, float]:
    """Per-layer figures from the spans of setup and timed operations.

    ``.calls`` is calls per operation; ``.ms``/``.us`` the mean inclusive time
    per call and ``.self_ms``/``.self_us`` the mean self time, over the calls
    made by timed operations, or by setup for a layer that runs only there.
    A verify check's ``.ms`` is summed over the degrees of one verify run.  A
    function the workload never calls reads 0.
    """
    stats = layer_stats(spans)
    empty = {"calls": 0, "ns": 0, "self_ns": 0}
    op_lat = [x for v in run.latency.values() for x in v]
    out = {}
    for name in names:
        base, _, qty = name.rpartition(".")
        phases = stats.get(base, {})
        s = phases.get("op") or phases.get("setup") or empty
        if name == "trace.op_ms_p50":
            value = statistics.median(op_lat) * 1e3
        elif name == "trace.spans_per_op":
            value = sum(p["op"]["calls"] for p in stats.values() if "op" in p) / run.attempted
        elif qty == "calls":
            value = phases.get("op", empty)["calls"] / run.attempted
        elif qty == "mib":
            value = 16 * run.stack_dim**4 / 2**20  # complex128 N^2 x N x N
        elif base.startswith("verify.check_"):
            verify_runs = stats.get("verify.run_checks", {}).get("op", empty)["calls"]
            value = s["ns"] / verify_runs / 1e6 if verify_runs else 0.0
        else:
            ns = s["self_ns"] if qty.startswith("self_") else s["ns"]
            scale = 1e6 if qty.endswith("ms") else 1e3
            value = ns / s["calls"] / scale if s["calls"] else 0.0
        out[name] = value
    return out


def run_one(args, spec) -> int:
    os.environ.update(BLAS_ENV)
    compileall.compile_dir(os.path.join(SRC, "qphase"), quiet=1)
    sys.path.insert(0, SRC)
    start = time.perf_counter_ns()
    import qphase

    import_s = [(time.perf_counter_ns() - start) / 1e9]
    if not os.path.abspath(qphase.__file__).startswith(SRC + os.sep):
        print(f"error: imported qphase from {qphase.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s += [child_import_s() for _ in range(IMPORT_CHILDREN)]

    import checks
    import workloads

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = workloads.Run(qphase, tracer, args.seed, args.seconds)
    correct = True
    try:
        workloads.WORKLOADS[args.workload](run)
    except checks.CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    import_s += [child_import_s() for _ in range(IMPORT_CHILDREN)]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"attempted {run.attempted} failed {run.failed}")
    for fault in sorted(set(run.faults)):
        print(f"FAULT x{run.faults.count(fault)} {fault}")
    metrics: dict[str, float] = {}
    units = {}
    if correct and tracer is None:
        setup = statistics.median(import_s) + (statistics.median(run.setup_s) if run.setup_s else 0.0)
        values = {"setup_s": setup, **run.metrics()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: values[name] for name in units}
        print(f"metric import_s {statistics.median(import_s):.6f} s")
        for line in run.lines:
            print(f"metric {line}")
    elif correct:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(list(units), run, tracer.spans)
        for name in units:
            if name.endswith(".calls"):
                by_kind = calls_by_kind(tracer.spans, name[: -len(".calls")])
                print(f"calls {name} per op kind: " + ", ".join(f"{k}={v:g}" for k, v in by_kind.items()))
        os.makedirs(workloads.OUT, exist_ok=True)
        path = os.path.join(workloads.OUT, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write(path)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qphase", "__init__.py")):
        print(f"error: no qphase source under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
