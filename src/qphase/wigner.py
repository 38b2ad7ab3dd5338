"""Line-to-state assignments, phase-point operators, and Wigner grids.

A quantum net assigns one basis vector v_l to every line l so that translated
lines carry translated vectors.  The net is built with integers, for all
striations at once: each ray's vector is the basis vector with given
stabilizer signs, and a translation flips a stabilizer eigenvector's signs
where it anticommutes with the stabilizers, which flips the bits of the
vector's index that belong to the n stabilizers with one-bit ``flips``;
``verify`` checks the result against the line vectors.

The Wigner map runs on Pauli expectations.  A ray's projector is the average
of its stabilizer group, (1/N) sum_b i^c_b U_b over the N points b of the
ray (U_0 = I, c_0 = 0), and the line through a carries U_a P U_a^dag, whose
terms gain the sign (-1)^<a,b> of the symplectic parity of the masks.
Summed over the N+1 lines through a, minus I, this is
A_a = (1/N) sum_b i^c_b (-1)^<a,b> U_b over all N^2 points b, so with
E_b = tr(rho X^x Z^z):

    W_a = tr(rho A_a) / N = (1/N^2) sum_b (-1)^<a,b> i^c_b E_b
    rho = sum_a W_a A_a = (1/N) sum_b i^c_b (sum_a (-1)^<a,b> W_a) U_b

Every sign is an entry of the N x N Sylvester-Hadamard matrix
h[j, z] = (-1)^popcount(j & z), so each direction is three real or complex
matrix products, O(N^3), and reads no basis vector; tomography's outcome
probabilities start from ``_pauli_expectations``, and its counts end in
``_grid_from_expectations``.  The phase-point operators exist only on
request: A_0, the inverse map's last product and gather, and A_a = U_a A_0
U_a^dag, one signed-permutation gather of it (all N^2: 16 N^4 bytes).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .fields import ContextMismatchError, FieldContext
from .geometry import Line, Point, Striation, enumerate_striations, striation_points, striation_rays
from .mub import StriationBasis, _sign_frame
from .operators import _I_POWERS, QubitLabeling, _parity, exponent_rows, pauli_permutation, symplectic_parity
from .serialize import round_float
from .states import validate_density_matrix


class NetConstructionError(RuntimeError):
    """The requested line-to-vector assignment cannot be realized consistently."""


# The n = 2 rays: the sign of each stabilizer, rescaled by i^parity(x & z)
# to a Hermitian involution, in ray-point order.  Up-up on q = 0,
# right-right on p = 0, then the three diagonal-type rays.
_RAY_SIGNS_2Q = ((1, 1, 1), (1, 1, 1), (-1, 1, 1), (1, 1, -1), (-1, 1, 1))


def _ray_index(negative: np.ndarray, flips: np.ndarray, pivots: np.ndarray, n: int) -> np.ndarray:
    """Index of each striation's ray vector, chosen by its stabilizer signs.

    negative[s, i] is True where stabilizer i is -1 on vector 0 (rescaled to
    a Hermitian involution), and vector k flips it where popcount(k &
    flips[s, i]) is odd, so the vector with bit m set where pivot m is
    negative on vector 0 is +1 on every pivot.  For two qubits, the vector
    with the signs of _RAY_SIGNS_2Q.
    """
    if n != 2:
        return negative[np.arange(len(negative))[:, None], pivots] @ (1 << np.arange(n))
    k = np.arange(1 << n)[:, None, None]
    match = (negative ^ _parity(k & flips) == (np.array(_RAY_SIGNS_2Q) < 0)).all(axis=-1).T
    if not match.any(axis=-1).all():
        s = int(np.argmin(match.any(axis=-1)))
        raise NetConstructionError(f"ray signs {_RAY_SIGNS_2Q[s]} of striation {s} match no basis vector")
    return match.argmax(axis=-1)


@dataclass(frozen=True, eq=False)
class QuantumNet:
    """Covariant assignment of basis vectors to lines.

    The assignment is one index array: _line_vector[s, l] is the index of
    line l's vector within the basis of striation s.  Every other view is a
    lookup through the striation rows (``striation_points``): the outcome
    table reads the vector on the line through each point, and
    vector_index and striation_of are read-only Line-keyed views.  The
    Wigner map reads no basis vector, only _i_powers[x, z], the int8
    exponent c with i^c X^x Z^z in the stabilizer group of the ray through
    the point with masks (x, z), and c = 0 at the origin.  sign_frame is
    (x, z, exponent row 0, flips) of the bases, each (N+1, N-1) and
    read-only (``mub._sign_frame``), kept for the counts -> grid map of
    tomography.  Views, tables and the phase-point operators, gathered from
    the Pauli sum A_0, are built on first use and shared read-only.
    """

    ctx: FieldContext
    labeling: QubitLabeling
    striations: tuple[Striation, ...]
    bases: tuple[StriationBasis, ...]
    _line_vector: np.ndarray = field(repr=False, compare=False)
    _i_powers: np.ndarray = field(repr=False, compare=False)
    sign_frame: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    @cached_property
    def vector_index(self) -> Mapping[Line, int]:
        """Line -> index of its vector within its striation's basis."""
        rows = zip(self.striations, self._line_vector.tolist())
        return MappingProxyType({ln: k for st, ks in rows for ln, k in zip(st.lines, ks)})

    @cached_property
    def striation_of(self) -> Mapping[Line, int]:
        """Line -> index of its striation."""
        return MappingProxyType({ln: s for s, st in enumerate(self.striations) for ln in st.lines})

    @property
    def dim(self) -> int:
        return self.ctx.order

    def projector(self, line: Line) -> np.ndarray:
        return self.bases[self.striation_of[line]].projector(self.vector_index[line])

    def phase_point_matrix(self, pt: Point) -> np.ndarray:
        """A at pt, U_pt A_0 U_pt^dag: one O(N^2) gather of A_0, read-only."""
        if pt.ctx is not self.ctx:
            raise ContextMismatchError("point and net use different field contexts")
        return self._phase_points(*self.labeling.masks(pt))

    def phase_point_stack(self) -> np.ndarray:
        """All A operators as one array, indexed [q_index * N + p_index]."""
        return self._phase_point_stack

    @cached_property
    def _phase_point_stack(self) -> np.ndarray:
        return self._phase_points(*self.labeling.point_masks(np.arange(self.dim**2)))

    @cached_property
    def _phase_point_origin(self) -> np.ndarray:
        """A_0 = (1/N) sum_b i^c_b X^x Z^z, state_from_wigner's last product
        and gather with every sign 1: sums of +-1/N and +-i/N, so exact."""
        _, _, _, phase, h_scaled, gather = self._pauli_tables
        return (phase @ h_scaled).take(gather)

    def _phase_points(self, x, z) -> np.ndarray:
        """U A_0 U^dag = A_0[src_i, src_j] sign_i sign_j for U = X^x Z^z, with
        the masks' shape as leading axes, read-only."""
        src, sign = pauli_permutation(x, z, self.dim)
        moved = self._phase_point_origin[src[..., :, None], src[..., None, :]]
        moved *= sign[..., :, None] * sign[..., None, :]
        moved.setflags(write=False)
        return moved

    @cached_property
    def _pauli_tables(self) -> tuple[np.ndarray, ...]:
        """(hq, hp, hp / N^2, phase, h / N, gather) for the Wigner map, from
        the Sylvester-Hadamard matrix h of ``_sylvester_tables``: h read at
        the grid's masks, hq[q, z] = h[x_mask(q), z] and hp[x, p] =
        h[x, z_mask(p)]; phase = i^_i_powers; h / N as a complex array; and
        gather[j ^ x, j] = x N + j, the flat index that reads t[x, j] into
        rho[j ^ x, j].  The scales are powers of two, so folding them in
        changes no bit."""
        _, h = _sylvester_tables(self.dim)
        k = np.arange(self.dim)
        x, z = self.labeling.point_masks(k * (self.dim + 1))  # of q and p at the points (k, k)
        hp = h[:, z]
        phase = _I_POWERS[self._i_powers]
        gather = (k ^ k[:, None]) * self.dim + k
        tables = (h[x], hp, hp / self.dim**2, phase, h.astype(complex) / self.dim, gather)
        for table in tables:
            table.setflags(write=False)
        return tables

    def outcome_index_table(self) -> np.ndarray:
        """outcome_index_table()[q_index * N + p_index, s] is the basis-vector
        index of the line through that point in striation s."""
        return self._outcome_table

    @cached_property
    def _outcome_table(self) -> np.ndarray:
        points = striation_points(self.ctx)
        table = np.empty((self.dim**2, len(self.bases)), dtype=self._line_vector.dtype)
        # Each point lies on exactly one line of each striation.
        table[points, np.arange(len(self.bases))[:, None, None]] = self._line_vector[..., None]
        table.setflags(write=False)
        return table


def default_net(ctx: FieldContext, labeling: QubitLabeling, mub_set: list[StriationBasis]) -> QuantumNet:
    """The standard quantum net, computed from the bases' sign frames.

    Each ray's vector is the basis vector with given stabilizer signs: for
    two qubits the conventional rows of ``_RAY_SIGNS_2Q`` (axis states on
    the axis rays, fixed vectors on the diagonal-type rays); otherwise the
    vector that is +1 on the n pivot stabilizers, those whose ``flips`` is
    one bit (the ray points 1, w, ..., w^(n-1), so this is the
    lexicographically first sign row), which for one qubit gives spin up,
    spin right and the sigma_y +1 state.  Every other line carries the ray's
    vector translated by the line's first point w: U_w flips bit m of the
    ray vector's index where it anticommutes with pivot m, O(N^2 n) for all
    striations at once.  Every point of a line gives the same vector, so
    covariance holds by construction; ``verify`` holds the dense evidence
    (``check_line_sums``, ``check_a_covariance``).  The bases must be built
    under ``labeling``; their masks name each exponent column's stabilizer.
    The net keeps the bases as given and reads none of their vectors.
    """
    striations = enumerate_striations(ctx)
    if len(mub_set) != len(striations):
        raise NetConstructionError(f"expected {len(striations)} bases, got {len(mub_set)}")
    for s, basis in enumerate(mub_set):
        if any(op.labeling is not labeling and op.labeling != labeling for op in basis.stabilizers):
            raise NetConstructionError(f"basis of striation {s} was built under a different labeling")
    try:
        frame = x, z, row0, flips = _sign_frame(mub_set)
    except ValueError as exc:
        raise NetConstructionError(f"{exc}, so a translated ray can match no basis vector") from exc
    # pivots[s, m]: the stabilizer whose sign flips with bit m of the outcome alone.
    rows = np.arange(len(striations))[:, None]
    by_flips = np.empty((len(striations), ctx.order), dtype=np.intp)
    by_flips[rows, flips] = np.arange(ctx.order - 1)
    pivots = by_flips[:, 1 << np.arange(ctx.n)]
    # X^x Z^z is anti-Hermitian exactly when X^x and Z^z anticommute.
    ray = _ray_index((row0 + symplectic_parity(x, 0, 0, z)) % 4 == 2, flips, pivots, ctx.n)
    fx, fz = labeling.point_masks(striation_rays(ctx)[[1] + [0] * ctx.order])  # each line's first point
    px, pz = x[rows, pivots], z[rows, pivots]
    moved = symplectic_parity(fx[..., None], fz[..., None], px[:, None], pz[:, None]) @ (1 << np.arange(ctx.n))
    line_vector = moved ^ ray[:, None]
    repeats = (np.diff(np.sort(line_vector, axis=-1), axis=-1) == 0).any(axis=-1)
    if repeats.any():
        raise NetConstructionError(f"striation {int(np.argmax(repeats))} maps two lines to one vector")
    line_vector.setflags(write=False)
    # Each nonzero point lies on one ray; the ray's vector v has U_b v = i^e_b v,
    # so i^-e_b U_b is in its stabilizer group.
    i_powers = np.zeros((ctx.order, ctx.order), dtype=np.int8)
    i_powers[x, z] = -exponent_rows(row0, flips, ray[:, None]) % 4
    i_powers.setflags(write=False)

    return QuantumNet(
        ctx=ctx,
        labeling=labeling,
        striations=striations,
        bases=tuple(mub_set),
        _line_vector=line_vector,
        _i_powers=i_powers,
        sign_frame=frame,
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
        if not np.isfinite(self.values).all():
            raise ValueError("grid values must be finite")
        self.values.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def to_json_dict(self, precision: int | None = None) -> dict:
        return {
            "n": self.ctx.n,
            "order": list(self.ctx.labels),
            "values": [[round_float(x, precision) for x in row] for row in self.values],
        }


def wigner_from_state(rho: np.ndarray, net: QuantumNet) -> WignerGrid:
    """W_a = tr(rho A_a) / N for every grid point, from the Pauli expectations.

    rho must pass ``validate_density_matrix``: Hermitian and of unit trace
    within DENSITY_TOL = 1e-9, and no eigenvalue below -DENSITY_TOL, which
    one Cholesky factorisation decides; otherwise InvalidStateError.  Past
    the check, the map is one gather and three matrix products.
    """
    return _grid_from_expectations(_pauli_expectations(validate_density_matrix(rho, net.dim)), net)


@lru_cache(maxsize=None)
def _sylvester_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, h), read-only: gather[j, x] = j dim + (j ^ x), the flat index
    of rho[j, j ^ x], and the Sylvester-Hadamard matrix h[z, j] =
    (-1)^popcount(j & z), the diagonal of Z^z."""
    k = np.arange(dim)
    gather, h = k[:, None] * dim + (k ^ k[:, None]), pauli_permutation(0, k, dim)[1].astype(float)
    gather.setflags(write=False)
    h.setflags(write=False)
    return gather, h


def _pauli_expectations(rho: np.ndarray) -> np.ndarray:
    """e[z, x] = sum_j h[z, j] rho[j, j ^ x] = tr(rho X^x Z^z)."""
    gather, h = _sylvester_tables(len(rho))
    return h @ rho.take(gather)


def _grid_from_expectations(e: np.ndarray, net: QuantumNet) -> WignerGrid:
    """W from e[z, x] = tr(rho X^x Z^z): (1/N^2) sum over (x, z) of
    Re(i^c e) with the signs of the symplectic parity, one
    Sylvester-Hadamard product on each side; the right one carries the
    1/N^2."""
    hq, _, hp_scaled, phase, _, _ = net._pauli_tables
    return WignerGrid(net.ctx, hq @ (phase.T * e).real @ hp_scaled)


def state_from_wigner(grid: WignerGrid, net: QuantumNet) -> np.ndarray:
    """rho = sum_a W_a A_a, the exact inverse of wigner_from_state.

    s[x, z] = sum_a (-1)^<a,b> W_a for b = (x, z), one Sylvester-Hadamard
    product on each side; then t[x, j] = (1/N) sum_z i^c s h[z, j], with
    the 1/N in the table, and one gather reads rho[j ^ x, j] = t[x, j].
    """
    if grid.ctx is not net.ctx:
        raise ContextMismatchError("grid and net use different field contexts")
    total = grid.total
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"grid sums to {total!r}, expected 1")
    hq, hp, _, phase, h_scaled, gather = net._pauli_tables
    return ((phase * (hp @ grid.values.T @ hq)) @ h_scaled).take(gather)


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
    add, _ = grid.ctx.index_tables()
    # In characteristic 2, a - v = a + v.
    return WignerGrid(grid.ctx, grid.values[add[:, v.q.index, None], add[None, :, v.p.index]])


def grid_ascii(grid: WignerGrid, precision: int = 3) -> str:
    """Fixed-point table, origin bottom-left, p increasing upward."""
    n_elems = grid.ctx.order
    labels = grid.ctx.labels
    width = max(precision + 4, max(len(lab) for lab in labels) + 1)
    lines = []
    for pi in reversed(range(n_elems)):
        row = "".join(
            f"{round_float(x, precision):>{width}.{precision}f}" for x in grid.values[:, pi]
        )
        lines.append(f"p={labels[pi]:<3}|{row}")
    lines.append("    +" + "-" * (width * n_elems))
    lines.append("     " + "".join(f"{('q=' + lab):>{width}}" for lab in labels))
    return "\n".join(lines)
