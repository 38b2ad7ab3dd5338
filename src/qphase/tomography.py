"""Conjugate-basis measurement simulation and statistical state reconstruction.

Stabilizer i of basis s changes sign on the outcomes k with popcount(k &
flips_si) odd (``StriationBasis.flips``), so one Sylvester-Hadamard product
takes Pauli expectations to every outcome probability, and one takes
frequencies back to expectations, from which the Wigner map (see wigner)
gives the grid and rho, optionally projected to the physical set.  No step
reads a basis vector, the outcome table or the phase-point stack; with a
power-of-two shot count the reconstruction is exact in floating point.
Counts come from one Philox generator per call, re-keyed to (seed,
striation) before each basis: the same stream as Philox(key=(seed,
striation)), so bit-exact and order-insensitive, with one search of the N
cumulative edges per basis and every basis's counts in one array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .mub import StriationBasis, _sign_frame
from .operators import _I_POWERS
from .states import InvalidStateError, validate_density_matrix
from .wigner import QuantumNet, WignerGrid, state_from_wigner, wigner_from_state
from .wigner import _grid_from_expectations, _pauli_expectations, _sylvester_tables

PROB_DRIFT_TOL = 1e-9
MAX_SEED = (1 << 64) - 1  # a Philox key word: a larger or negative seed would alias one in range


@dataclass(frozen=True)
class MeasurementPlan:
    """A full conjugate-measurement schedule.

    shots_per_basis = 0 is the exact-probability sentinel: the true outcome
    distribution flows through the same reconstruction path, giving the
    infinite-ensemble limit.  seed is 0..MAX_SEED.  The bases' sign frame
    (``mub._sign_frame``) is checked at construction and kept as ``frame``.
    """

    bases: tuple[StriationBasis, ...]
    shots_per_basis: int
    seed: int
    frame: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_schedule(self.shots_per_basis, self.seed)
        object.__setattr__(self, "frame", _sign_frame(self.bases))
        ids = sorted(b.striation for b in self.bases)
        if ids != list(range(self.dim + 1)):
            raise ValueError(f"plan needs one basis per striation 0..{self.dim}, got ids {ids}")

    @property
    def dim(self) -> int:
        return self.bases[0].dim

    @property
    def exact(self) -> bool:
        return self.shots_per_basis == 0


def _check_schedule(shots: int, seed: int) -> None:
    """MeasurementPlan's rules for shots_per_basis and seed, else ValueError."""
    if shots < 0:
        raise ValueError("shots_per_basis must be >= 0 (0 = exact mode)")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be between 0 and 2^64 - 1, got {seed}")


class InvalidCountsError(ValueError):
    """A counts payload does not describe one measurement per conjugate basis."""


@dataclass(eq=False)
class CountsRecord:
    """Per-striation outcome counts (or exact frequencies when shots = 0)."""

    n: int
    shots: int
    seed: int
    counts: dict[int, np.ndarray]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountsRecord):
            return NotImplemented
        head = (self.n, self.shots, self.seed, self.counts.keys())
        same = head == (other.n, other.shots, other.seed, other.counts.keys())
        return same and all(np.array_equal(c, other.counts[k]) for k, c in self.counts.items())

    def frequencies(self, striation: int) -> np.ndarray:
        """Outcome frequencies of one striation; InvalidCountsError unless it has 2^n."""
        c = self.counts.get(striation, ())
        if np.shape(c) != (1 << self.n,):
            raise InvalidCountsError(f"striation {striation} has {np.size(c)} outcomes, expected {1 << self.n}")
        return c if self.shots == 0 else c / self.shots

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "shots": self.shots,
            "seed": self.seed,
            "counts": {
                str(k): [float(x) if self.shots == 0 else int(x) for x in v]
                for k, v in self.counts.items()
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CountsRecord":
        """Inverse of to_json_dict.

        Raises InvalidCountsError unless n >= 1, shots >= 0 and seed are
        whole numbers, the striation keys are "0".."N" as written by
        to_json_dict (not "02" or " 2"), and every vector has
        N = 2^n finite non-negative entries that, when shots > 0, are whole
        and sum to shots, and otherwise sum to 1 within PROB_DRIFT_TOL.
        """
        n = _whole_number(payload, "n", minimum=1)
        shots = _whole_number(payload, "shots", minimum=0)
        seed = _whole_number(payload, "seed")
        try:
            items = [(k, np.array(v, dtype=float)) for k, v in payload["counts"].items()]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidCountsError(f"counts must map striation numbers to lists of numbers ({exc!r})") from None
        # N = 2^n is read off the key count, so a huge n builds no 2^n.
        dim, keys = len(items) - 1, [s for s, _ in items]
        if dim & (dim - 1) or dim.bit_length() != n + 1 or set(keys) != {str(s) for s in range(dim + 1)}:
            raise InvalidCountsError(f"counts for n = {n} need striation keys 0..2^{n}, got {keys}")
        counts = {}
        for s, c in items:
            if c.shape != (dim,):
                raise InvalidCountsError(f"striation {s} has {c.size} outcomes, expected {dim}")
            if not (np.isfinite(c) & (c >= 0)).all():
                raise InvalidCountsError(f"striation {s} has a negative or non-finite entry")
            if shots > 0:
                if (c != np.round(c)).any():
                    raise InvalidCountsError(f"striation {s} has a fractional count")
                if c.sum() != shots:
                    raise InvalidCountsError(f"striation {s} counts sum to {c.sum():g}, expected {shots}")
                c = c.astype(np.int64)
            elif abs(c.sum() - 1.0) >= PROB_DRIFT_TOL:
                raise InvalidCountsError(f"striation {s} frequencies sum to {float(c.sum())!r}, expected 1")
            counts[int(s)] = c
        return cls(n=n, shots=shots, seed=seed, counts=counts)


def _whole_number(payload: dict, key: str, minimum: int | None = None) -> int:
    """payload[key] as an int; InvalidCountsError if missing, fractional or below minimum."""
    value = payload.get(key) if isinstance(payload, dict) else None
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidCountsError(f"{key} must be a whole number{bound}, got {value!r}")
    return int(value)


def outcome_probabilities(rho: np.ndarray, bases: Sequence[StriationBasis]) -> np.ndarray:
    """p[s, k] for outcome k of bases[s], clipped to [0, 1] and renormalised.

    Outcome k projects onto the average of the stabilizer group U_i =
    X^x_si Z^z_si with the signs of U_i v_k = i^e[s,k,i] v_k, where e[s, k]
    is e[s, 0] flipped by 2 at the columns with popcount(k & flips) odd.
    So with E = tr(rho X^x Z^z), f_s[0] = tr rho and f_s[flips_si] =
    Re(i^-e[s,0,i] E_si), p[s] = h @ f_s / N.  rho must be physical and
    the bases pass the checks of ``mub._sign_frame``.
    """
    frame = _sign_frame(bases)
    return _outcome_probabilities(_pauli_expectations(validate_density_matrix(rho, bases[0].dim)), frame)


def _outcome_probabilities(e: np.ndarray, frame: tuple[np.ndarray, ...]) -> np.ndarray:
    """outcome_probabilities from the expectations e[z, x] of a valid rho and a checked sign frame."""
    x, z, row0, flips = frame
    at = e[z, x]
    f = np.full((len(x), len(e)), e[0, 0].real)  # f_s[0] = tr rho; the flips fill 1..N-1
    f[np.arange(len(x))[:, None], flips] = np.where(row0 & 1, at.imag, at.real) * (1 - (row0 & 2))
    p = np.clip(f @ _sylvester_tables(len(e))[1] / len(e), 0.0, 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def _basis_stream(seed: int, striation: int) -> np.random.Generator:
    """A fresh generator on the counter-based stream keyed by (seed, striation)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, striation], dtype=np.uint64)))


def _basis_streams(seed: int, striations: Iterable[int]) -> Iterator[np.random.Generator]:
    """_basis_stream(seed, s) for each s in turn, as one generator re-keyed
    before each yield.  Philox is counter-based, its stream a pure function
    of (key, counter): the state a fresh Philox(key=(seed, s)) starts in,
    counter 0 and its four-word block buffer empty, gives the same stream
    without building (and OS-seeding) a generator per basis."""
    bits = np.random.Philox(0)  # its first state is replaced before any draw
    rng = np.random.Generator(bits)
    for s in striations:
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, s]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _sample_counts(p: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome counts of `shots` categorical draws from rng (``_sample_rows``)."""
    return _sample_rows(p[None], shots, [rng])[0]


def _sample_rows(probs: np.ndarray, shots: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Outcome counts of `shots` draws from each row of probs, row s drawing
    from the next generator of rngs; shot i uses stream position i.

    Inverse transform places draw u at the first k with u < edges[k].  The
    float cumsum never decreases, and forcing edges[-1] = 1 can only put the
    last edge below an earlier one that is already >= 1; every u is below 1.
    So outcome(u) <= k exactly when u < edges[k], and the number of draws
    below each edge, found with one search of the N edges into the sorted
    draws, gives the per-shot counts exactly, without a search per shot.
    Each row's numbers below its edges go into one int64 array after a
    column of zeros, so one subtraction gives every row's counts.
    """
    edges = np.cumsum(probs, axis=1)
    edges[:, -1] = 1.0
    below = np.zeros((len(probs), probs.shape[1] + 1), dtype=np.int64)
    for row, e, rng in zip(below[:, 1:], edges, rngs):
        u = rng.random(shots)
        u.sort()
        row[:] = np.searchsorted(u, e, side="left")
    return below[:, 1:] - below[:, :-1]


def simulate_counts(rho: np.ndarray, plan: MeasurementPlan) -> CountsRecord:
    """Measure shots_per_basis copies in each conjugate basis.

    Deterministic: the same (rho, plan) always yields the identical record,
    independent of the order the bases are processed in.  One generator
    per call is re-keyed to (seed, striation) before each basis, which gives
    the same stream as Philox(key=(seed, striation)) (see _basis_streams).
    The plan's sign frame was checked when the plan was made.
    """
    e = _pauli_expectations(validate_density_matrix(rho, plan.dim))
    probs = _outcome_probabilities(e, plan.frame)
    return _record_from_probabilities(probs, plan, plan.shots_per_basis, plan.seed)


def _record_from_probabilities(probs: np.ndarray, plan: MeasurementPlan, shots: int, seed: int) -> CountsRecord:
    """simulate_counts from clipped, renormalised probabilities probs[s, k]
    of the plan's bases, with shots and seed in place of the plan's."""
    striations = [b.striation for b in plan.bases]
    rows = probs if shots == 0 else _sample_rows(probs, shots, _basis_streams(seed, striations))
    counts = dict(zip(striations, rows))
    return CountsRecord(n=plan.dim.bit_length() - 1, shots=shots, seed=seed, counts=counts)


def estimate_wigner(counts: CountsRecord, net: QuantumNet) -> WignerGrid:
    """Linear-inversion grid estimate from outcome frequencies.

    The inverse of outcome_probabilities: g = freqs @ h has g[s, flips_si]
    = Re(i^-e[s,0,i] E_si), and E at the origin is sum_s g[s, 0] - N, so W
    is (sum over the N+1 lines through a of the frequency of the line's
    outcome, minus 1) / N, computed as in wigner_from_state.
    """
    if counts.n != net.ctx.n:
        raise InvalidCountsError(f"counts are for n = {counts.n}, the net for n = {net.ctx.n}")
    freqs = np.array([counts.frequencies(b.striation) for b in net.bases], dtype=float)
    x, z, row0, flips = net.sign_frame
    g = freqs @ _sylvester_tables(net.dim)[1]
    e = np.full((net.dim, net.dim), g[:, 0].sum() - net.dim, dtype=complex)  # e[z, x] sets all but e[0, 0]
    e[z, x] = _I_POWERS[row0 & 3] * np.take_along_axis(g, flips, axis=1)
    return _grid_from_expectations(e, net)


# -- distance measures ------------------------------------------------------


def _floored(eigvals: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, 0 below the rounding floor N eps max(eigvals)."""
    floor = len(eigvals) * np.finfo(float).eps * max(eigvals[-1], 0.0)
    return np.where(eigvals > floor, eigvals, 0.0)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared-overlap fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.  Both
    roots floor the eigenvalues, so ~1e-17 of rounding where a rank-deficient
    matrix has 0 does not add its root, ~3e-9, to the result."""
    eigvals, eigvecs = np.linalg.eigh(rho)
    root = (eigvecs * np.sqrt(_floored(eigvals))) @ eigvecs.conj().T
    return float(np.sqrt(_floored(np.linalg.eigvalsh(root @ sigma @ root))).sum() ** 2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma."""
    eigvals = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.abs(eigvals).sum())


def project_to_physical(rho: np.ndarray) -> np.ndarray:
    """A physical state from eigenvalue truncation: clip negatives, renormalize.

    The result keeps the eigenvectors of the Hermitian part of rho.  It is
    not in general the nearest physical state: for eigenvalues
    (0.7, 0.5, -0.2, 0) it lies at Frobenius distance 0.2461, while
    (0.6, 0.4, 0, 0) lies at 0.2449.
    """
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    eigvals = np.clip(eigvals, 0.0, None)
    total = eigvals.sum()
    if total <= 0:
        raise InvalidStateError("estimate has no positive eigenvalue to keep")
    eigvals = eigvals / total
    return (eigvecs * eigvals) @ eigvecs.conj().T


@dataclass(eq=False)
class ReconstructionReport:
    """Outcome of a simulate-and-reconstruct run, with metrics when truth is known."""

    wigner: WignerGrid
    rho_raw: np.ndarray
    rho_projected: np.ndarray | None
    shots: int
    seed: int
    fidelity: float | None = None
    trace_distance: float | None = None
    max_wigner_error: float | None = None

    @property
    def estimate(self) -> np.ndarray:
        return self.rho_projected if self.rho_projected is not None else self.rho_raw


def estimate_state(
    counts: CountsRecord,
    net: QuantumNet,
    project: bool = True,
    truth: np.ndarray | None = None,
) -> ReconstructionReport:
    """Reconstruct rho from counts; optionally project to the physical set.

    When the true state is supplied the report carries fidelity, trace
    distance and the worst grid deviation, all measured against the projected
    estimate (or the raw one when projection is disabled).
    """
    grid = estimate_wigner(counts, net)
    rho_raw = state_from_wigner(grid, net)
    rho_proj = project_to_physical(rho_raw) if project else None
    report = ReconstructionReport(grid, rho_raw, rho_proj, shots=counts.shots, seed=counts.seed)
    if truth is not None:
        _score(report, np.asarray(truth, dtype=complex), wigner_from_state(truth, net))
    return report


def simulate_and_estimate(
    rho: np.ndarray, plan: MeasurementPlan, net: QuantumNet
) -> tuple[CountsRecord, ReconstructionReport]:
    """simulate_counts(rho, plan), then estimate_state(counts, net,
    truth=rho), with the same results; rho is validated once, and one table
    of its Pauli expectations gives both its outcome probabilities and its
    true grid."""
    rho, probs, true_grid = _truth(rho, net, plan.frame)
    counts = _record_from_probabilities(probs, plan, plan.shots_per_basis, plan.seed)
    report = estimate_state(counts, net)
    _score(report, rho, true_grid)
    return counts, report


def _truth(rho: np.ndarray, net: QuantumNet, frame: tuple[np.ndarray, ...]):
    """(rho validated, its outcome probabilities under a checked sign frame, its grid)."""
    rho = validate_density_matrix(rho, net.dim)
    e = _pauli_expectations(rho)
    return rho, _outcome_probabilities(e, frame), _grid_from_expectations(e, net)


def _score(report: ReconstructionReport, truth: np.ndarray, true_grid: WignerGrid) -> None:
    """Fill the report's metrics against a validated truth and its grid."""
    estimate = report.estimate
    report.fidelity = min(fidelity(truth, estimate), 1.0)
    report.trace_distance = trace_distance(truth, estimate)
    report.max_wigner_error = float(np.max(np.abs(report.wigner.values - true_grid.values)))


@dataclass(frozen=True)
class ScalingPoint:
    """Monte-Carlo error averages for one ensemble size."""

    shots: int
    mean_max_wigner_error: float
    mean_trace_distance: float


def error_scaling_study(
    rho: np.ndarray,
    net: QuantumNet,
    mub_set: list[StriationBasis],
    shot_list: list[int],
    seeds: list[int],
) -> list[ScalingPoint]:
    """Mean reconstruction errors across seeds for each ensemble size.

    shot_list must be ascending; the expected statistical behavior is a
    log-log slope near -1/2 for both error measures.  rho and the bases are
    fixed, so rho is validated and its line probabilities and true grid are
    computed once; each trial only samples, reconstructs and measures, with
    results identical to simulate_counts and estimate_state(truth=rho).
    """
    if sorted(shot_list) != list(shot_list):
        raise ValueError("shot_list must be ascending")
    if not seeds:
        raise ValueError("need at least one seed")
    plan = MeasurementPlan(bases=tuple(mub_set), shots_per_basis=0, seed=0)  # rejects a malformed basis set
    rho, probs, true_grid = _truth(rho, net, plan.frame)
    rows = []
    for shots in shot_list:
        dw, td = [], []
        for seed in seeds:
            _check_schedule(shots, seed)
            report = estimate_state(_record_from_probabilities(probs, plan, shots, seed), net, project=True)
            _score(report, rho, true_grid)
            dw.append(report.max_wigner_error)
            td.append(report.trace_distance)
        rows.append(ScalingPoint(shots, float(np.mean(dw)), float(np.mean(td))))
    return rows


def loglog_slope(points: list[ScalingPoint]) -> float:
    """Least-squares slope of log(mean max error) against log(shots)."""
    x = np.log([p.shots for p in points])
    y = np.log([p.mean_max_wigner_error for p in points])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
