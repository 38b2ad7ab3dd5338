"""The four workloads.  Each does a fixed amount of work for a given
``--seconds`` (never a time box), so the mix of operations cannot drift
between runs, and checks every output outside the timed region.

An operation is timed from just before its first library call to just after
its last.  Generating inputs and checking outputs are not timed.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

import checks
from tracing import read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

SHOTS = 4096
# Setup builds the n = 4 system this many times and keeps the median, since
# one cold build swings by +-20% on a shared machine.
SETUP_BUILDS = 3
# Work per requested second: fixed counts, calibrated on a 2-core machine.
# construct and cli do whole rounds; cli at least two, so that repeated
# invocations can be compared byte for byte.
GRIDS_OPS_PER_SECOND = 1500
TOMO_OPS_PER_SECOND = 130
CONSTRUCT_ROUND_SECONDS = 25
CLI_ROUND_SECONDS = 15
# One construct round, in this order.  n = 4 is built four times, two on each
# side of the 18 s n = 5 build: one build swings too much to stand alone, and
# builds seconds apart share the machine's speed of the moment.  The median of
# all six operations is then the median of the n = 4 ones.
CONSTRUCT_ROUND = (3, 4, 4, 5, 4, 4)
# Every 16th tomo operation is repeated outside the timed region, to check
# determinism and the exact-mode reconstruction.
TOMO_RECHECK_EVERY = 16


class OpFailed(Exception):
    """An operation did not produce its result (counted, not fatal)."""


class Run:
    """Counters, latencies and spans of one workload run."""

    def __init__(self, qp, tracer, seed: int, seconds: int):
        self.qp = qp
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.latency: dict[str, list[float]] = {}
        self.timed_ns = 0
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.setup_s: list[float] = []
        self.peak_rss_kib = 0
        self.rss_who = resource.RUSAGE_SELF
        self.stack_dim = 0  # largest N whose phase-point stack was built
        self.lines: list[str] = []  # extra human-readable result lines
        self.op_span = -1  # span of the operation in progress, when tracing

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext(-1)

    def op(self, kind: str, fn, *args):
        """Run one timed operation; None if it failed."""
        self.attempted += 1
        with self.span("op:" + kind) as idx:
            self.op_span = idx
            start = time.perf_counter_ns()
            try:
                out = fn(*args)
            except OpFailed as exc:
                out, fault = None, str(exc)
            except Exception as exc:  # any library error fails the operation
                out, fault = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
        self.timed_ns += end - start
        self.peak_rss_kib = max(self.peak_rss_kib, resource.getrusage(self.rss_who).ru_maxrss)
        if out is None:
            self.failed += 1
            self.faults.append(f"{kind}: {fault}")
        else:
            self.latency.setdefault(kind, []).append((end - start) / 1e9)
        return out

    def state(self, dim: int, i: int) -> np.ndarray:
        """Alternating Haar-random pure states and full-rank Wishart states."""
        g = self.rng.standard_normal((dim, dim)) + 1j * self.rng.standard_normal((dim, dim))
        if i % 2 == 0:
            v = g[0] / np.linalg.norm(g[0])
            return np.outer(v, v.conj())
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    def check_apart(self, fn, *args) -> None:
        """Run a check in a forked child, so that its memory stays out of
        peak_rss_mib.  The child reads the outputs copy-on-write; a failed
        check comes back as CheckError."""
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child never returns
            os.close(r)
            code = 0
            try:
                fn(*args)
            except checks.CheckError as exc:
                os.write(w, str(exc).encode()[:4096])
                code = 1
            except BaseException:
                traceback.print_exc()
                code = 2
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            message = fh.read().decode()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise checks.CheckError(message or f"check process ended with status {status}")

    def kind(self, i: int) -> str:
        return "pure" if i % 2 == 0 else "mixed"

    def clear_cache(self) -> None:
        self.qp.build_system.cache_clear()

    def warm_n4(self) -> None:
        """Setup of grids and tomo: cold n = 4 builds with the cache fill."""
        rho = np.eye(16) / 16
        for _ in range(SETUP_BUILDS):
            self.clear_cache()
            with self.span("setup"):
                start = time.perf_counter_ns()
                ready(self.qp, 4, rho)
                self.setup_s.append((time.perf_counter_ns() - start) / 1e9)
        self.stack_dim = 16

    def metrics(self) -> dict[str, float]:
        """The end-to-end figures every workload reports."""
        all_lat = [x for v in self.latency.values() for x in v]
        done = len(all_lat)
        return {
            "peak_rss_mib": self.peak_rss_kib / 1024,
            "ops_per_s": done / (self.timed_ns / 1e9),
            "op_ms_p50": statistics.median(all_lat) * 1e3,
        }


def ready(qp, n: int, rho: np.ndarray):
    """Build the system and fill the phase-point stack and the outcome table."""
    system = qp.build_system(n)
    grid = qp.wigner_from_state(rho, system.net)
    plan = qp.MeasurementPlan(bases=system.bases, shots_per_basis=0, seed=0)
    exact = qp.estimate_wigner(qp.simulate_counts(rho, plan), system.net)
    return system, grid, exact


def stream_lines(run: Run, rate: str, latency: str) -> None:
    """Throughput, median latency, and the 99th percentile when at least ten
    samples lie beyond it, under the workload's own names."""
    lat = [x for v in run.latency.values() for x in v]
    run.lines.append(f"{rate} {len(lat) / (run.timed_ns / 1e9):.3f} 1/s")
    run.lines.append(f"{latency}_p50 {statistics.median(lat) * 1e3:.6f} ms")
    if len(lat) >= 1000:
        run.lines.append(f"{latency}_p99 {np.percentile(lat, 99) * 1e3:.6f} ms")


# -- construct ----------------------------------------------------------------


def check_system(system, grid, exact, rho) -> None:
    view = checks.system_view(system)
    checks.check_geometry(view["lines"], view["dim"])
    checks.check_bases(view["vectors"])
    checks.check_stabilizers(view["vectors"], view["stabilizers"])
    checks.check_phase_points(system.net.phase_point_stack())
    checks.check_line_sums(grid.values, view["lines"], checks.line_vectors(view), rho)
    checks.check_close(exact.values, grid.values, "exact-mode grid")


def construct(run: Run) -> None:
    rounds = max(1, round(run.seconds / CONSTRUCT_ROUND_SECONDS))
    qp = run.qp

    def one(n, rho):
        run.clear_cache()
        return ready(qp, n, rho)

    for i, n in enumerate(CONSTRUCT_ROUND * rounds):
        rho = run.state(1 << n, i)
        out = run.op(f"n{n}", one, n, rho)
        if out is None:
            continue
        system, grid, exact = out
        run.stack_dim = max(run.stack_dim, system.dim)
        with run.span("check"):
            # Checking an n = 5 system takes tens of MiB more than building it.
            run.check_apart(check_system, system, grid, exact, rho)
        # Hold no reference into the next operation: the old system must be
        # freed when the cache is cleared, as for a user.
        del out, system, grid, exact
    for n in sorted(set(CONSTRUCT_ROUND)):
        if f"n{n}" in run.latency:
            run.lines.append(f"ready_n{n}_s {statistics.median(run.latency[f'n{n}']):.6f} s")


# -- grids --------------------------------------------------------------------


def grids(run: Run) -> None:
    run.warm_n4()
    qp = run.qp
    system = qp.build_system(4)
    net = system.net
    view = checks.system_view(system)
    vecs = checks.line_vectors(view)
    lines = view["lines"]

    def roundtrip(rho):
        grid = qp.wigner_from_state(rho, net)
        return grid, qp.state_from_wigner(grid, net)

    for i in range(round(run.seconds * GRIDS_OPS_PER_SECOND)):
        rho = run.state(16, i)
        out = run.op(run.kind(i), roundtrip, rho)
        if out is None:
            continue
        with run.span("check"):
            grid, back = out
            checks.check_line_sums(grid.values, lines, vecs, rho)
            checks.check_close(back, rho, "round-trip state")
            probs = checks.line_sums(grid.values, lines)
            checks.check_close(checks.state_from_lines(probs, vecs), rho, "sum of line projectors")
    stream_lines(run, "grids_per_s", "grid_ms")


# -- tomo ---------------------------------------------------------------------


def tomo(run: Run) -> None:
    run.warm_n4()
    qp = run.qp
    system = qp.build_system(4)
    net = system.net
    vectors = checks.system_view(system)["vectors"]

    def reconstruct(rho, seed):
        plan = qp.MeasurementPlan(bases=system.bases, shots_per_basis=SHOTS, seed=seed)
        counts = qp.simulate_counts(rho, plan)
        return counts, qp.estimate_state(counts, net, project=True, truth=rho)

    for i in range(round(run.seconds * TOMO_OPS_PER_SECOND)):
        rho = run.state(16, i)
        seed = int(run.rng.integers(2**62))
        out = run.op(run.kind(i), reconstruct, rho, seed)
        if out is None:
            continue
        with run.span("check"):
            counts, report = out
            probs = checks.line_probabilities(rho, vectors)
            checks.check_counts(counts.counts, 16, SHOTS, probs)
            checks.check_estimate(report.rho_projected, rho, report.fidelity, report.trace_distance)
            if i % TOMO_RECHECK_EVERY == 0:
                again, _ = reconstruct(rho, seed)
                checks.check_same_counts(counts.counts, again.counts)
                plan = qp.MeasurementPlan(bases=system.bases, shots_per_basis=0, seed=seed)
                exact = qp.estimate_state(qp.simulate_counts(rho, plan), net, project=False)
                checks.check_close(exact.rho_raw, rho, "exact-mode reconstruction")
    stream_lines(run, "recons_per_s", "recon_ms")


# -- cli ----------------------------------------------------------------------

NAN_VECTOR_N1 = "[[NaN,0],[0,0]]"
INF_MATRIX_N2 = json.dumps(
    [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0]] * 4, [[0, 0]] * 4, [[0, 0], [0, 0], [0, 0], [1e999, 0]]]
).replace(" ", "")
# Both malformed inputs should be refused with exit code 2.  They are not:
# validate_density_matrix and _complex_from_pair (states.py) compare against
# tolerances, every comparison with NaN is false, so non-finite numbers pass.
NONFINITE_FAULT = "non-finite state accepted (states.validate_density_matrix, states._complex_from_pair)"


def cli(run: Run) -> None:
    run.rss_who = resource.RUSAGE_CHILDREN
    v = run.rng.standard_normal(16) + 1j * run.rng.standard_normal(16)
    v /= np.linalg.norm(v)
    spec = json.dumps([[float(z.real), float(z.imag)] for z in v]).replace(" ", "")
    verify4 = ("verify4", ["verify", "4", "--format", "json"], 0)
    wigner4 = ("wigner4", ["wigner", "4", "--state", spec, "--lines", "--format", "json", "--precision", "12"], 0)
    tomo4 = ("tomo4", ["tomo", "4", "--state", spec, "--shots", str(SHOTS), "--format", "json"], 0)
    nan_vector = ("nan_vector_n1", ["wigner", "1", "--state", NAN_VECTOR_N1], 2)
    inf_matrix = ("inf_matrix_n2", ["wigner", "2", "--state", INF_MATRIX_N2], 2)
    # wigner and tomo run three times a round: each is a 1.5 s sample of a
    # machine whose speed drifts over seconds, and they set op_ms_p50.
    commands = [verify4, wigner4, tomo4, nan_vector, wigner4, tomo4, inf_matrix, wigner4, tomo4]
    child = os.path.join(HERE, "qphase_cmd.py")
    span_file = os.path.join(OUT, f"child-{os.getpid()}.tsv")
    if run.tracer:
        os.makedirs(OUT, exist_ok=True)

    def invoke(args, expect):
        prefix = ["--spans", span_file] if run.tracer else []
        proc = subprocess.run([sys.executable, child, *prefix, "--", *args], capture_output=True)
        if proc.returncode != expect:
            fault = NONFINITE_FAULT if expect == 2 else proc.stderr.decode(errors="replace")[-300:]
            raise OpFailed(f"exit {proc.returncode}, expected {expect}: {fault}")
        return proc.stdout

    stdout: dict[str, list[bytes]] = {}
    rounds = max(2, round(run.seconds / CLI_ROUND_SECONDS))
    for _ in range(rounds):
        for name, args, expect in commands:
            out = run.op(name, invoke, args, expect)
            if run.tracer and os.path.exists(span_file):
                run.tracer.merge(read_spans(span_file), run.op_span)
                os.remove(span_file)
            if out is not None:
                stdout.setdefault(name, []).append(out)
    run.stack_dim = 16

    with run.span("check"):
        for name, outs in stdout.items():
            for other in outs[1:]:
                checks.check_cli_identical(outs[0], other, name)
        if "verify4" in stdout:
            report = checks.check_cli_json(stdout["verify4"][0], "verify 4")
            checks.require(report["failed"] == 0, f"verify 4 reports {report['failed']} failed checks")
        view = checks.system_view(run.qp.build_system(4))
        rho = np.outer(v, v.conj())
        if "wigner4" in stdout:
            payload = checks.check_cli_json(stdout["wigner4"][0], "wigner 4")
            sums = np.array([payload["line_sums"][str(s)] for s in range(17)])
            probs = checks.line_probabilities(rho, checks.line_vectors(view))
            checks.check_close(sums, probs, "printed line sums")
        if "tomo4" in stdout:
            payload = checks.check_cli_json(stdout["tomo4"][0], "tomo 4")
            counts = {int(k): np.array(c) for k, c in payload["counts"]["counts"].items()}
            vectors = view["vectors"]
            probs = checks.line_probabilities(rho, vectors)
            checks.check_counts(counts, 16, SHOTS, probs)
    for name, _, _ in (verify4, wigner4, tomo4):
        if name in run.latency:
            run.lines.append(f"cli_{name}_s {statistics.median(run.latency[name]):.6f} s")


WORKLOADS = {"construct": construct, "grids": grids, "tomo": tomo, "cli": cli}
