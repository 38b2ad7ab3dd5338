"""Line-to-state assignments, phase-point operators, and Wigner grids.

A quantum net assigns one basis vector v_l to every line l so that translated
lines carry translated vectors.  Both directions of the Wigner map go through
the line probabilities p_l = <v_l|rho|v_l>: W_a = (sum of p_l over the N+1
lines through a, minus 1)/N, and rho = sum_l p_l |v_l><v_l| - I with p_l the
line sums of the grid.  These are W_a = tr(rho A_a)/N and rho = sum_a W_a A_a
for the phase-point operators A_a (the line projectors through a, minus the
identity), whose dense stack of 16 N^4 bytes is built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import ContextMismatchError, FieldContext
from .geometry import Line, Point, Striation, enumerate_striations
from .mub import StriationBasis
from .operators import QubitLabeling, pauli_permutation
from .serialize import round_float
from .states import InvalidStateError, validate_density_matrix

CLOSURE_TOL = 1e-9
PROB_DRIFT_TOL = 1e-9


class NetConstructionError(RuntimeError):
    """The requested line-to-vector assignment cannot be realized consistently."""


def _ray_vectors_1q() -> list[np.ndarray]:
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([1, 0], dtype=complex),           # vertical ray (q = 0): spin up
        np.array([s, s], dtype=complex),           # horizontal ray (p = 0): spin right
        np.array([s, 1j * s], dtype=complex),      # diagonal ray: +1 eigenstate of sigma_y
    ]


def _ray_vectors_2q() -> list[np.ndarray]:
    return [
        np.array([1, 0, 0, 0], dtype=complex),                     # q = 0: up-up
        np.array([1, 1, 1, 1], dtype=complex) / 2,                 # p = 0: right-right
        np.array([1, -1j, 1j, 1], dtype=complex) / 2,              # slope 1 ray
        np.array([1, 1, 1j, -1j], dtype=complex) / 2,              # slope w ray
        np.array([1, -1j, 1, 1j], dtype=complex) / 2,              # slope w2 ray
    ]


def _hermitian_phase(x: int, z: int) -> complex:
    """Scalar c in {1, i} that makes c * X^x Z^z a Hermitian involution.

    (sigma_x sigma_z)^dag = -sigma_x sigma_z, so the string is Hermitian when
    an even number of slots carry both factors and anti-Hermitian otherwise.
    """
    return 1j if (x & z).bit_count() & 1 else 1


def _lex_sign_ray_vector(striation: Striation, basis: StriationBasis, labeling: QubitLabeling) -> np.ndarray:
    """Ray vector for n >= 3: lexicographically-first stabilizer sign pattern.

    Each stabilizer unitary is rescaled by a fourth root of unity to a
    Hermitian involution; each basis vector then carries a tuple of +-1
    eigenvalues.  The vector whose sign tuple is lexicographically first
    (+1 before -1, stabilizers in canonical ray-point order) is selected.
    """
    vectors = basis.vectors
    signs = []
    for w in striation.stabilizer_vectors:
        x, z = labeling.masks(w)
        src, sign = pauli_permutation(x, z, labeling.dim)
        moved = vectors[:, src] * sign
        vals = np.real(_hermitian_phase(x, z) * np.einsum("ki,ki->k", vectors.conj(), moved))
        if np.max(np.abs(np.abs(vals) - 1.0)) > 1e-6:
            raise NetConstructionError("basis vector is not a stabilizer eigenvector")
        signs.append(vals < 0)
    keys = np.array(signs).T.tolist()
    return vectors[min(range(len(keys)), key=lambda k: keys[k])]


@dataclass(frozen=True, eq=False)
class QuantumNet:
    """Covariant assignment of basis vectors to lines.

    vector_index maps each line to the index of its vector within the
    striation's basis.  The outcome table, the stacked basis vectors and
    the phase-point stack are built on first use and shared read-only.
    """

    ctx: FieldContext
    labeling: QubitLabeling
    striations: tuple[Striation, ...]
    bases: tuple[StriationBasis, ...]
    vector_index: dict[Line, int]
    striation_of: dict[Line, int]
    _lines_through: dict[Point, tuple[Line, ...]] = field(repr=False, compare=False)
    _aux: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.ctx.order

    def projector(self, line: Line) -> np.ndarray:
        return self.bases[self.striation_of[line]].projector(self.vector_index[line])

    def lines_through(self, pt: Point) -> tuple[Line, ...]:
        return self._lines_through[pt]

    def phase_point_matrix(self, pt: Point) -> np.ndarray:
        """A at pt: a read-only row of phase_point_stack()."""
        if pt.ctx is not self.ctx:
            raise ContextMismatchError("point and net use different field contexts")
        return self.phase_point_stack()[pt.q.index * self.dim + pt.p.index]

    def phase_point_stack(self) -> np.ndarray:
        """All A operators as one array, indexed [q_index * N + p_index].

        Each A starts at -I and gains the projectors of the lines through
        its point in striation order; every A must have trace 1.
        """
        cached = self._aux.get("stack")
        if cached is None:
            table = self.outcome_index_table()
            cached = np.empty((len(table), self.dim, self.dim), dtype=complex)
            cached[:] = -np.eye(self.dim, dtype=complex)
            for s, basis in enumerate(self.bases):
                for k in range(self.dim):
                    cached[table[:, s] == k] += basis.projector(k)
            traces = np.trace(cached, axis1=1, axis2=2)
            bad = np.flatnonzero(np.abs(traces - 1.0) > CLOSURE_TOL)
            if bad.size:
                elements = self.ctx.elements()
                q, p = divmod(int(bad[0]), self.ctx.order)
                raise NetConstructionError(
                    f"phase-point operator at {Point(elements[q], elements[p])} "
                    f"has trace {complex(traces[bad[0]])}"
                )
            cached.setflags(write=False)
            self._aux["stack"] = cached
        return cached

    def _vectors(self) -> np.ndarray:
        """vectors[s, k]: vector k of the basis of striation s."""
        cached = self._aux.get("vectors")
        if cached is None:
            cached = np.stack([b.vectors for b in self.bases])
            cached.setflags(write=False)
            self._aux["vectors"] = cached
        return cached

    def _line_ids(self) -> np.ndarray:
        """[q_index * N + p_index, s] -> s * N + k for the line through that
        point in striation s, whose vector is k: a flat index into p[s, k]."""
        return self.outcome_index_table() + self.dim * np.arange(len(self.bases))

    def outcome_index_table(self) -> np.ndarray:
        """outcome_index_table()[q_index * N + p_index, s] is the basis-vector
        index of the line through that point in striation s."""
        cached = self._aux.get("outcome_table")
        if cached is None:
            n_elems = self.ctx.order
            table = np.empty((n_elems * n_elems, len(self.striations)), dtype=np.intp)
            for s, striation in enumerate(self.striations):
                for line in striation.lines:
                    rows = [pt.q.index * n_elems + pt.p.index for pt in line.points]
                    table[rows, s] = self.vector_index[line]
            table.setflags(write=False)
            self._aux["outcome_table"] = cached = table
        return cached


def default_net(ctx: FieldContext, labeling: QubitLabeling, mub_set: list[StriationBasis]) -> QuantumNet:
    """The standard quantum net.

    Ray assignments: for one and two qubits, the conventional explicit
    choices (axis states on the axis rays, fixed vectors on the diagonal-type
    rays); for n >= 3, the lexicographic stabilizer-sign rule.  All remaining
    lines are filled in by covariance closure, and the closure is verified
    over every translation path rather than assumed.
    """
    striations = enumerate_striations(ctx)
    if len(mub_set) != len(striations):
        raise NetConstructionError(f"expected {len(striations)} bases, got {len(mub_set)}")

    if ctx.n == 1:
        rays = _ray_vectors_1q()
    elif ctx.n == 2:
        rays = _ray_vectors_2q()
    else:
        rays = [
            _lex_sign_ray_vector(s, b, labeling) for s, b in zip(striations, mub_set)
        ]

    vector_index: dict[Line, int] = {}
    striation_of: dict[Line, int] = {}
    for striation, basis, ray_vec in zip(striations, mub_set, rays):
        # The declared ray vector must be one of the striation's basis vectors.
        overlaps = np.abs(basis.vectors.conj() @ ray_vec) ** 2
        if overlaps.max() < 1.0 - CLOSURE_TOL:
            raise NetConstructionError(
                f"ray vector for striation {striation.direction} is not a basis vector "
                f"(best overlap {overlaps.max():.6f})"
            )
        ray = basis.vectors[int(np.argmax(overlaps))]

        # moved[l, m] = U_w ray for the m-th point w of line l: any point of a
        # line translates the ray onto it, and all such paths must agree up
        # to a phase.
        masks = np.array([[labeling.masks(w) for w in line.points] for line in striation.lines])
        src, sign = pauli_permutation(masks[..., 0], masks[..., 1], ctx.order)
        moved = ray[src] * sign
        reference = moved[:, 0]
        agreement = np.abs(np.einsum("li,lmi->lm", reference.conj(), moved)) ** 2
        for line, worst in zip(striation.lines, agreement.min(axis=1)):
            if worst < 1.0 - CLOSURE_TOL:
                raise NetConstructionError(
                    f"covariance closure is path-dependent on line {line} "
                    f"of striation {striation.direction}"
                )

        # fit[k, l] = |<v_k|U_w ray>|^2 = <v_k|U_w P_ray U_w^dag|v_k>.
        fit = np.abs(basis.vectors.conj() @ reference.T) ** 2
        taken: set[int] = set()
        for line, column in zip(striation.lines, fit.T):
            k = int(np.argmax(column))
            if column[k] < 1.0 - CLOSURE_TOL:
                raise NetConstructionError(
                    f"translated ray projector matches no basis vector on striation "
                    f"{striation.direction} (best fit {column[k]:.6f})"
                )
            if k in taken:
                raise NetConstructionError(
                    f"striation {striation.direction} maps two lines to one vector"
                )
            taken.add(k)
            vector_index[line] = k
            striation_of[line] = striation.direction

    # Each point lies on exactly one line of each striation; walking the
    # lines in striation order lists them in that order.  Keyed by the
    # coordinate bits while walking, since hashing a Point is far slower.
    through: dict[tuple[int, int], list[Line]] = {}
    for striation in striations:
        for line in striation.lines:
            for pt in line.points:
                through.setdefault((pt.q.bits, pt.p.bits), []).append(line)
    elements = ctx.elements()
    lines_through = {
        Point(q, p): tuple(through[(q.bits, p.bits)]) for q in elements for p in elements
    }

    return QuantumNet(
        ctx=ctx,
        labeling=labeling,
        striations=striations,
        bases=tuple(mub_set),
        vector_index=vector_index,
        striation_of=striation_of,
        _lines_through=lines_through,
    )


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Real quasi-probability values on the N x N grid, indexed [q][p].

    Indices follow the canonical element order of the context; rendering
    puts the origin bottom-left with p increasing upward.
    """

    ctx: FieldContext
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        n_elems = self.ctx.order
        if self.values.shape != (n_elems, n_elems):
            raise ValueError(f"grid must be {n_elems}x{n_elems}, got {self.values.shape}")
        self.values.setflags(write=False)

    def value_at(self, pt: Point) -> float:
        return float(self.values[pt.q.index, pt.p.index])

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def to_json_dict(self, precision: int | None = None) -> dict:
        return {
            "n": self.ctx.n,
            "order": list(self.ctx.labels),
            "values": [[round_float(x, precision) for x in row] for row in self.values],
        }


def basis_probabilities(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """p[s, k] = <v_sk|rho|v_sk> for stacked bases vectors[s, k], unclipped.

    rho is validated once (Hermitian, unit trace, PSD within 1e-9); a basis
    whose probabilities drift from 1 by PROB_DRIFT_TOL or more raises
    InvalidStateError.
    """
    vectors = np.asarray(vectors)
    return _valid_state_probabilities(validate_density_matrix(rho, vectors.shape[-1]), vectors)


def _valid_state_probabilities(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """basis_probabilities for a rho that the caller has already validated."""
    flat = vectors.reshape(-1, vectors.shape[-1])
    p = ((flat.conj() @ rho) * flat).sum(1).real.reshape(vectors.shape[:-1])
    drift = float(np.max(np.abs(p.sum(axis=-1) - 1.0)))
    if drift >= PROB_DRIFT_TOL:
        raise InvalidStateError(f"outcome probabilities drift from 1 by {drift:.3e}")
    return p


def grid_from_probabilities(p: np.ndarray, net: QuantumNet) -> WignerGrid:
    """W_a = (sum_s p[s, k_s(a)] - 1) / N, where k_s(a) is the outcome of
    striation s assigned to the line through a."""
    n_elems = net.ctx.order
    p = np.asarray(p, dtype=float)
    expected = (len(net.bases), net.dim)
    if p.shape != expected:
        raise ValueError(f"line probabilities must have shape {expected}, got {p.shape}")
    totals = sum(p.reshape(-1)[ids] for ids in net._line_ids().T)  # in striation order
    return WignerGrid(net.ctx, ((totals - 1.0) / net.dim).reshape(n_elems, n_elems))


def wigner_from_state(rho: np.ndarray, net: QuantumNet) -> WignerGrid:
    """W_a = tr(rho A_a) / N for every grid point, from the line probabilities.

    The input must be a physical state (Hermitian, unit trace, PSD within
    1e-9); otherwise InvalidStateError.
    """
    return grid_from_probabilities(basis_probabilities(rho, net._vectors()), net)


def state_from_wigner(grid: WignerGrid, net: QuantumNet) -> np.ndarray:
    """rho = sum_a W_a A_a, the exact inverse of wigner_from_state, computed
    as sum_l p_l |v_l><v_l| - (sum_a W_a) I with p_l the line sums of W."""
    if grid.ctx is not net.ctx:
        raise ContextMismatchError("grid and net use different field contexts")
    total = grid.total
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"grid sums to {total!r}, expected 1")
    # Every line has N points, so each line id occurs and p has N(N+1) entries.
    weights = np.repeat(grid.values.reshape(-1), len(net.bases))
    p = np.bincount(net._line_ids().reshape(-1), weights=weights)
    vectors = net._vectors().reshape(-1, net.dim)
    return (vectors.T * p) @ vectors.conj() - total * np.eye(net.dim)


def line_sum(grid: WignerGrid, line: Line) -> float:
    """Sum of W over the line; equals the probability of the line's outcome."""
    if grid.ctx is not line.ctx:
        raise ContextMismatchError("grid and line use different field contexts")
    return float(sum(grid.values[pt.q.index, pt.p.index] for pt in line.points))


def translate_grid(grid: WignerGrid, v: Point) -> WignerGrid:
    """Grid of the translated state: W'(a) = W(a - v).

    Covariance contract: translate_grid(wigner_from_state(rho), v) equals
    wigner_from_state(U_v rho U_v^dag) for the net's translation unitaries.
    """
    if grid.ctx is not v.ctx:
        raise ContextMismatchError("grid and vector use different field contexts")
    elements = grid.ctx.elements()
    # In characteristic 2, a - v = a + v.
    perm_q = [(e + v.q).index for e in elements]
    perm_p = [(e + v.p).index for e in elements]
    return WignerGrid(grid.ctx, grid.values[np.ix_(perm_q, perm_p)].copy())


def grid_ascii(grid: WignerGrid, precision: int = 3) -> str:
    """Fixed-point table, origin bottom-left, p increasing upward."""
    n_elems = grid.ctx.order
    labels = grid.ctx.labels
    width = max(precision + 4, max(len(lab) for lab in labels) + 1)

    def fmt(x: float) -> str:
        r = round(float(x), precision)
        if r == 0:
            r = 0.0
        return f"{r:>{width}.{precision}f}"

    lines = []
    for pi in reversed(range(n_elems)):
        row = "".join(fmt(grid.values[qi, pi]) for qi in range(n_elems))
        lines.append(f"p={labels[pi]:<3}|{row}")
    lines.append("    +" + "-" * (width * n_elems))
    lines.append("     " + "".join(f"{('q=' + lab):>{width}}" for lab in labels))
    return "\n".join(lines)
