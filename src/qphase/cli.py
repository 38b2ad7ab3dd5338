"""Command-line front end: field tables, striations, bases, grids, tomography.

Structured output goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage or input error, 3 construction
error.  Every command is deterministic given its arguments, including the
seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .fields import FieldError, field_create
from .mub import LabelingError, check_conjugacy
from .serialize import complex_pair, dumps_canonical, matrix_to_json, round_float
from .states import InvalidStateError, parse_state_spec
from .system import build_system
from .tomography import (
    MAX_SEED,
    MeasurementPlan,
    error_scaling_study,
    simulate_and_estimate,
)
from .verify import run_checks
from .wigner import NetConstructionError, grid_ascii, wigner_from_state
from . import geometry

MAX_FIELD_DEGREE = 8   # field tables stay cheap
MAX_PHASE_DEGREE = 4   # full phase-space construction at desk scale
MAX_SHOTS = 1 << 27    # one basis's draws are this many float64 values, 1 GiB
MAX_TRIALS = 1 << 16   # seeds per --scaling point, each a full sample and reconstruction


class UsageError(ValueError):
    """Bad arguments or input payloads; maps to exit code 2."""


def _fmt(x: float, precision: int) -> str:
    return f"{round_float(x, precision):.{precision}f}"


def _fmt_complex(z: complex, precision: int) -> str:
    re, im = round_float(z.real, precision), round_float(z.imag, precision)
    return f"{re:+.{precision}f}{im:+.{precision}f}i"


def _entry_table(vectors: np.ndarray, fmt) -> list[list]:
    """fmt(z) for every entry z of a basis's vectors, row by row, with fmt
    called once per distinct value (a basis has at most five), values told
    apart by their bytes so that 0.0 and -0.0 never merge."""
    values, index = np.unique(np.ascontiguousarray(vectors, dtype=complex).view("V16"), return_inverse=True)
    cells = [fmt(complex(z)) for z in values.view(complex)]
    return [[cells[j] for j in row] for row in index.reshape(vectors.shape).tolist()]


def _poly_str(modulus: int) -> str:
    terms = []
    for k in range(modulus.bit_length() - 1, -1, -1):
        if modulus >> k & 1:
            terms.append("1" if k == 0 else ("x" if k == 1 else f"x^{k}"))
    return "+".join(terms)


def _check_degree(n: int, limit: int = MAX_PHASE_DEGREE) -> None:
    if n < 1 or n > limit:
        hint = "" if limit == MAX_FIELD_DEGREE else " (the library itself supports higher degrees)"
        raise UsageError(f"n must be between 1 and {limit}, got {n}{hint}")


def _striation_name(ctx, direction: int) -> str:
    if direction == 0:
        return "vertical"
    if direction == 1:
        return "horizontal"
    return f"slope {ctx.labels[direction - 1]}"


# -- field -------------------------------------------------------------------


def cmd_field(args) -> int:
    _check_degree(args.n, MAX_FIELD_DEGREE)
    ctx = field_create(args.n)
    elems = ctx.elements()
    add_table = [[(a + b).label for b in elems] for a in elems]
    mul_table = [[(a * b).label for b in elems] for a in elems]

    if args.format == "json":
        payload = {
            "n": ctx.n,
            "modulus": _poly_str(ctx.modulus),
            "order": list(ctx.labels),
            "add": add_table,
            "mul": mul_table,
        }
        print(dumps_canonical(payload), end="")
        return 0
    if args.format == "csv":
        print("op,a,b,result")
        for op, table in (("add", add_table), ("mul", mul_table)):
            for i, a in enumerate(elems):
                for j, b in enumerate(elems):
                    print(f"{op},{a.label},{b.label},{table[i][j]}")
        return 0

    width = max(len(lab) for lab in ctx.labels) + 2
    print(f"GF(2^{ctx.n}), modulus {_poly_str(ctx.modulus)}")
    for symbol, table in (("+", add_table), ("*", mul_table)):
        print()
        header = f"{symbol:>{width}} |" + "".join(f"{lab:>{width}}" for lab in ctx.labels)
        print(header)
        print("-" * len(header))
        for i, a in enumerate(elems):
            print(f"{a.label:>{width}} |" + "".join(f"{v:>{width}}" for v in table[i]))
    return 0


# -- striations ---------------------------------------------------------------


def cmd_striations(args) -> int:
    _check_degree(args.n)
    ctx = field_create(args.n)
    striations = geometry.enumerate_striations(ctx)

    if args.format == "json":
        payload = {
            "n": args.n,
            "striations": [geometry.striation_to_json_dict(s) for s in striations],
        }
        print(dumps_canonical(payload), end="")
        return 0
    if args.format == "csv":
        print("striation,line,q,p")
        for s in striations:
            for li, ln in enumerate(s.lines):
                for pt in ln.points:
                    print(f"{s.direction},{li},{pt.q.label},{pt.p.label}")
        return 0

    for s in striations:
        print(f"striation {s.direction} ({_striation_name(ctx, s.direction)}):")
        print(geometry.striation_ascii(s))
        print()
    return 0


# -- mub ----------------------------------------------------------------------


def cmd_mub(args) -> int:
    _check_degree(args.n)
    sys_ = build_system(args.n)
    bases = list(sys_.bases)
    report = check_conjugacy(bases) if args.verify else None
    precision = args.precision

    if args.format == "json":
        payload: dict = {
            "n": args.n,
            "dim": sys_.dim,
            "bases": [_entry_table(b.vectors, lambda z: complex_pair(z, precision)) for b in bases],
        }
        if report is not None:
            payload["verify"] = {
                "target": round_float(report.target, precision),
                "tolerance": report.tolerance,
                "all_conjugate": report.all_conjugate,
                "pairs": [
                    {
                        "i": i,
                        "j": j,
                        "min": round_float(lo, precision),
                        "max": round_float(hi, precision),
                        "ok": report.pair_ok[(i, j)],
                    }
                    for (i, j), (lo, hi) in sorted(report.pair_overlaps.items())
                ],
            }
        print(dumps_canonical(payload), end="")
    elif args.format == "csv":
        if report is not None:
            print("basis_i,basis_j,min_overlap,max_overlap,ok")
            for (i, j), (lo, hi) in sorted(report.pair_overlaps.items()):
                print(f"{i},{j},{_fmt(lo, precision)},{_fmt(hi, precision)},{report.pair_ok[(i, j)]}")
        else:
            print("basis,vector,component,re,im")
            for b in bases:
                table = _entry_table(b.vectors, lambda z: f"{_fmt(z.real, precision)},{_fmt(z.imag, precision)}")
                for k, row in enumerate(table):
                    print("\n".join(f"{b.striation},{k},{c},{cell}" for c, cell in enumerate(row)))
    else:
        for b in bases:
            print(f"basis {b.striation} ({_striation_name(sys_.ctx, b.striation)}):")
            for k, row in enumerate(_entry_table(b.vectors, lambda z: _fmt_complex(z, precision))):
                print(f"  v{k}: {'  '.join(row)}")
            print()
        if report is not None:
            print("pairwise overlap extrema:")
            print("  pair    min        max        ok")
            for (i, j), (lo, hi) in sorted(report.pair_overlaps.items()):
                ok = "yes" if report.pair_ok[(i, j)] else "NO"
                print(f"  {i},{j:<4}  {_fmt(lo, precision):<9}  {_fmt(hi, precision):<9}  {ok}")
            verdict = "all conjugate" if report.all_conjugate else "CONJUGACY FAILED"
            print(f"target 1/sqrt({sys_.dim}) = {_fmt(report.target, precision)}: {verdict}")

    if report is not None and not report.all_conjugate:
        return 1
    return 0


# -- wigner ---------------------------------------------------------------------


def cmd_wigner(args) -> int:
    _check_degree(args.n)
    rho, warnings = parse_state_spec(args.state, args.n)
    sys_ = build_system(args.n)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    grid = wigner_from_state(rho, sys_.net)
    precision = args.precision

    sums = None
    if args.lines:
        # Summed point by point in line order, as line_sum adds them.
        rows = grid.values.reshape(-1)[geometry.striation_points(sys_.ctx)]
        sums = dict(enumerate(np.cumsum(rows, axis=-1)[..., -1].tolist()))

    if args.format == "json":
        payload = grid.to_json_dict(precision)
        payload["state"] = args.state
        if sums is not None:
            payload["line_sums"] = {
                str(k): [round_float(x, precision) for x in v] for k, v in sums.items()
            }
        print(dumps_canonical(payload), end="")
        return 0
    if args.format == "csv":
        labels = sys_.ctx.labels
        print("q\\p," + ",".join(labels))
        for qi, lab in enumerate(labels):
            row = ",".join(_fmt(grid.values[qi, pi], precision) for pi in range(len(labels)))
            print(f"{lab},{row}")
        if sums is not None:
            print()
            print("striation,line,sum")
            for k in sorted(sums):
                for li, x in enumerate(sums[k]):
                    print(f"{k},{li},{_fmt(x, precision)}")
        return 0

    print(grid_ascii(grid, precision))
    if sums is not None:
        print()
        print("line sums per striation (lines in canonical order):")
        for k in sorted(sums):
            row = "  ".join(_fmt(x, precision) for x in sums[k])
            print(f"  striation {k} ({_striation_name(sys_.ctx, k)}): {row}")
    return 0


# -- tomo --------------------------------------------------------------------------


def _parse_shot_list(text: str) -> list[int]:
    try:
        shots = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--scaling expects a comma-separated integer list, got {text!r}") from None
    if not shots or shots != sorted(shots) or shots[0] < 1:
        raise UsageError("--scaling shot counts must be ascending positive integers")
    _check_shots(shots[-1], "--scaling")
    return shots


def _check_shots(shots: int, flag: str) -> None:
    if shots > MAX_SHOTS:
        raise UsageError(f"{flag} allows at most {MAX_SHOTS} (2^27) shots per basis, got {shots}")


def cmd_tomo(args) -> int:
    _check_degree(args.n)
    if args.shots is not None:
        if args.shots < 0:
            raise UsageError("--shots must be >= 0 (0 = exact mode)")
        _check_shots(args.shots, "--shots")
    shot_list = _parse_shot_list(args.scaling) if args.scaling is not None else None
    if shot_list is not None and not 1 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"--trials must be between 1 and {MAX_TRIALS} (2^16), got {args.trials}")
    if not 0 <= args.seed <= MAX_SEED:
        raise UsageError(f"--seed must be between 0 and {MAX_SEED} (2^64 - 1), got {args.seed}")
    if shot_list is not None and args.seed + args.trials - 1 > MAX_SEED:
        raise UsageError(
            f"--scaling uses seeds --seed to --seed + --trials - 1, which must be at most "
            f"{MAX_SEED} (2^64 - 1), got {args.seed + args.trials - 1}"
        )
    rho, warnings = parse_state_spec(args.state, args.n)
    sys_ = build_system(args.n)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    precision = args.precision

    if shot_list is not None:
        seeds = [args.seed + k for k in range(args.trials)]
        rows = error_scaling_study(rho, sys_.net, list(sys_.bases), shot_list, seeds)
        if args.format == "json":
            payload = {
                "n": args.n,
                "state": args.state,
                "trials": args.trials,
                "seed": args.seed,
                "rows": [
                    {
                        "shots": r.shots,
                        "mean_max_wigner_error": round_float(r.mean_max_wigner_error, precision),
                        "mean_trace_distance": round_float(r.mean_trace_distance, precision),
                    }
                    for r in rows
                ],
            }
            print(dumps_canonical(payload), end="")
        elif args.format == "csv":
            print("shots,mean_max_wigner_error,mean_trace_distance")
            for r in rows:
                print(
                    f"{r.shots},{_fmt(r.mean_max_wigner_error, precision)},"
                    f"{_fmt(r.mean_trace_distance, precision)}"
                )
        else:
            print(f"scaling study: state={args.state} trials={args.trials} seed={args.seed}")
            print("  shots  mean max|dW|  mean trace distance")
            for r in rows:
                print(
                    f"  {r.shots:<6} {_fmt(r.mean_max_wigner_error, precision):<13}"
                    f" {_fmt(r.mean_trace_distance, precision)}"
                )
        return 0

    if args.shots is None:
        raise UsageError("tomo needs --shots M (or --scaling)")
    plan = MeasurementPlan(bases=sys_.bases, shots_per_basis=args.shots, seed=args.seed)
    counts, report = simulate_and_estimate(rho, plan, sys_.net)

    if args.format == "json":
        payload = {
            "n": args.n,
            "state": args.state,
            "shots": report.shots,
            "seed": report.seed,
            "fidelity": round_float(report.fidelity, precision),
            "trace_distance": round_float(report.trace_distance, precision),
            "max_wigner_error": round_float(report.max_wigner_error, precision),
            "counts": counts.to_json_dict(),
            "wigner": report.wigner.to_json_dict(precision),
            "rho_raw": matrix_to_json(report.rho_raw, precision),
            "rho_projected": matrix_to_json(report.rho_projected, precision),
        }
        print(dumps_canonical(payload), end="")
        return 0
    if args.format == "csv":
        print("metric,value")
        print(f"shots,{report.shots}")
        print(f"seed,{report.seed}")
        print(f"fidelity,{_fmt(report.fidelity, precision)}")
        print(f"trace_distance,{_fmt(report.trace_distance, precision)}")
        print(f"max_wigner_error,{_fmt(report.max_wigner_error, precision)}")
        return 0

    mode = "exact probabilities" if plan.exact else f"{report.shots} shots per basis"
    print(f"tomography: n={args.n} state={args.state} ({mode}, seed {report.seed})")
    print(f"  fidelity         {_fmt(report.fidelity, precision)}")
    print(f"  trace distance   {_fmt(report.trace_distance, precision)}")
    print(f"  max |dW|         {_fmt(report.max_wigner_error, precision)}")
    print("reconstructed Wigner grid:")
    print(grid_ascii(report.wigner, precision))
    return 0


# -- verify ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.n_max < 1:
        raise UsageError(f"n_max must be at least 1, got {args.n_max}")
    if args.n_max > MAX_PHASE_DEGREE:
        raise UsageError(f"n_max must be at most {MAX_PHASE_DEGREE}, got {args.n_max}")
    results = run_checks(args.n_max)
    failures = [r for r in results if not r.passed]

    if args.format == "json":
        payload = {
            "n_max": args.n_max,
            "passed": len(results) - len(failures),
            "failed": len(failures),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        print(dumps_canonical(payload), end="")
    elif args.format == "csv":
        print("name,passed,detail")
        for r in results:
            detail = r.detail.replace(",", ";")
            print(f"{r.name},{r.passed},{detail}")
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark}  {r.name:<{width}}  {r.detail}")
        print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


# -- parser ---------------------------------------------------------------------------


_GLOBAL_DEFAULTS = {"format": "ascii", "precision": 3, "seed": 0}


def _build_parser() -> argparse.ArgumentParser:
    # The global flags are accepted both before and after the subcommand;
    # SUPPRESS keeps a subparser from clobbering a value parsed up front.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("ascii", "json", "csv"),
        default=argparse.SUPPRESS,
        help="output format (default ascii)",
    )
    common.add_argument(
        "--precision",
        type=int,
        default=argparse.SUPPRESS,
        help="decimal places for numeric output, 1..12 (default 3)",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="base random seed, 0..2^64-1 (default 0)"
    )

    parser = argparse.ArgumentParser(
        prog="qphase",
        parents=[common],
        description=(
            "Discrete phase space over GF(2^n): field tables, striations, "
            "mutually conjugate bases, Wigner grids, and tomography simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[common], help="addition and multiplication tables of GF(2^n)")
    p.add_argument("n", type=int)
    p.set_defaults(handler=cmd_field)

    p = sub.add_parser("striations", parents=[common], help="the N+1 striations of the N x N grid")
    p.add_argument("n", type=int)
    p.set_defaults(handler=cmd_striations)

    p = sub.add_parser("mub", parents=[common], help="the N+1 conjugate bases, optionally verified")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true", help="check all pairwise overlaps")
    p.set_defaults(handler=cmd_mub)

    p = sub.add_parser("wigner", parents=[common], help="Wigner grid of a state")
    p.add_argument("n", type=int)
    p.add_argument("--state", required=True, help="registry name or inline JSON vector/matrix")
    p.add_argument("--lines", action="store_true", help="append per-line sums")
    p.set_defaults(handler=cmd_wigner)

    p = sub.add_parser("tomo", parents=[common], help="simulate conjugate-basis tomography and reconstruct")
    p.add_argument("n", type=int)
    p.add_argument("--state", required=True, help="registry name or inline JSON vector/matrix")
    p.add_argument("--shots", type=int, default=None, help="shots per basis (0 = exact mode)")
    p.add_argument(
        "--scaling",
        default=None,
        metavar="M1,M2,...",
        help="run the error-scaling study over these ascending shot counts",
    )
    p.add_argument("--trials", type=int, default=50, help="seeds per point in --scaling mode")
    p.set_defaults(handler=cmd_tomo)

    p = sub.add_parser("verify", parents=[common], help="run the full invariant suite for n = 1..n_max")
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    for key, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, default)

    if not 1 <= args.precision <= 12:
        print(f"error: --precision must be in 1..12, got {args.precision}", file=sys.stderr)
        return 2

    try:
        return args.handler(args)
    except (UsageError, InvalidStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except (FieldError, LabelingError, NetConstructionError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream reader closed the pipe (e.g. | head); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
