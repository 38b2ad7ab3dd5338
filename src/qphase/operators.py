"""Translation unitaries on state space, and the joint eigenbases of commuting ones.

A phase-space translation by (q0, p0) acts on the 2^n-dimensional state space
as a tensor product of sigma_x factors (for the q component) times sigma_z
factors (for the p component).  Which tensor slot each field-basis coefficient
drives is fixed by a QubitLabeling; the representation is projective, so
products of translation unitaries close only up to fourth-root-of-unity
phases.

Two bit masks (x, z) fix such a Pauli string completely: tensor slot s
carries sigma_x when bit n-1-s of x is set and sigma_z when that bit of z is
set.  Acting on a vector it is a signed index permutation,
(X^x Z^z v)[i] = (-1)^popcount((i ^ x) & z) v[i ^ x].

Two such strings commute exactly when popcount(x1 & z2 ^ z1 & x2) is even,
and X^a Z^b X^c Z^d = (-1)^popcount(b & c) X^(a^c) Z^(b^d).
``stabilizer_eigenbasis`` builds the joint eigenbasis of a commuting group
of N-1 strings from these rules alone.  It picks n independent generators;
each of the N sign patterns of the generators (the N ways of splitting the
identity by (I +- c_j X^x Z^z)/2, c_j in {1, i}) fixes one joint
eigenvector, and the integer exponent k of its eigenvalue i^k on every
string follows from those signs and the phase of each string as a product
of generators.  The vectors are sorted on the integer tuples and read off
the exact group-average projectors (1/N) sum_i i^-k_i U_i.
``joint_eigenbasis`` is the dense eigendecomposition of the same problem, kept
as an independent reference for the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .fields import ContextMismatchError, FieldContext, FieldElement
from .geometry import Point

UNITARITY_TOL = 1e-12
EIGEN_RESIDUAL_TOL = 1e-12
COMMUTE_TOL = 1e-10
EIGEN_CLUSTER_TOL = 1e-6
# i^k for k in Z4
_I_POWERS = np.array([1, 1j, -1, -1j])


class NonCommutingError(ValueError):
    """A joint eigenbasis was requested for operators that do not commute."""

    def __init__(self, i: int, j: int, deviation: float):
        self.pair = (i, j)
        self.deviation = deviation
        super().__init__(f"operators {i} and {j} do not commute (max deviation {deviation:.3e})")


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(name: str) -> np.ndarray:
    """The 2x2 Pauli matrix in the basis where Z = diag(1, -1)."""
    try:
        return _PAULI[name].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli name {name!r}; expected one of I, X, Y, Z") from None


# -- GF(2) linear algebra for basis expansions -----------------------------


def _gf2_invert(rows: list[int], n: int) -> list[int]:
    """Invert an n x n matrix over GF(2); rows are ints, bit (n-1-c) = column c."""
    aug = [(row << n) | (1 << (n - 1 - i)) for i, row in enumerate(rows)]
    for col in range(n):
        pivot_bit = 2 * n - 1 - col
        pivot = next((r for r in range(col, n) if aug[r] >> pivot_bit & 1), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r] >> pivot_bit & 1:
                aug[r] ^= aug[col]
    return [row & ((1 << n) - 1) for row in aug]


def _expansion_matrix(basis: Sequence[FieldElement]) -> list[int]:
    """Inverse of the matrix whose columns are the basis coefficient vectors.

    Row i of the result gives element -> coefficient of basis[i]; raises if
    the basis is linearly dependent.
    """
    n = basis[0].ctx.n
    if len(basis) != n:
        raise ValueError(f"basis must have {n} elements, got {len(basis)}")
    rows = []
    for r in range(n):
        row = 0
        for c, e in enumerate(basis):
            row |= (e.bits >> r & 1) << (n - 1 - c)
        rows.append(row)
    try:
        return _gf2_invert(rows, n)
    except ValueError:
        raise ValueError("basis elements are linearly dependent over Z2") from None


# Parity of every byte value.
_PARITY8 = np.array([i.bit_count() & 1 for i in range(256)], dtype=np.intp)


def _parity(a):
    """Parity of the number of set bits, for an int or an int array (< 2^32)."""
    a = np.asarray(a)
    a = a ^ a >> 16
    return _PARITY8[(a ^ a >> 8) & 0xFF]


def pauli_permutation(x, z, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign arrays with (X^x Z^z v)[i] = sign[i] * v[src[i]].

    x and z are bit masks, as ints or as int arrays; for arrays the result
    gains their shape as leading axes, one permutation per mask pair.
    """
    src = np.arange(dim) ^ np.asarray(x)[..., None]
    return src, 1 - 2 * _parity(src & np.asarray(z)[..., None])


def _coords(bits: int, inverse_rows: list[int], n: int) -> tuple[int, ...]:
    out = []
    for r in range(n):
        acc = 0
        for k in range(n):
            acc ^= (inverse_rows[r] >> (n - 1 - k) & 1) & (bits >> k & 1)
        out.append(acc)
    return tuple(out)


def trace_dual_basis(basis: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Basis {f_j} with trace(e_i * f_j) = delta_ij for the given {e_i}."""
    ctx = basis[0].ctx
    n = ctx.n
    rows = []
    for r in range(n):
        row = 0
        for c in range(n):
            row |= (basis[r] * basis[c]).trace() << (n - 1 - c)
        rows.append(row)
    inv = _gf2_invert(rows, n)
    dual = []
    for j in range(n):
        bits = 0
        for i in range(n):
            if inv[i] >> (n - 1 - j) & 1:
                bits ^= basis[i].bits
        dual.append(ctx.element(bits))
    return tuple(dual)


@dataclass(frozen=True)
class QubitLabeling:
    """How field coordinates map onto tensor slots.

    q is expanded in q_basis and p in p_basis (both bases of GF(2^n) over
    Z2); the coefficient of basis element i drives tensor slot
    factor_order[i].  The default order puts the most significant basis
    element in the leftmost slot.

    The x and z masks of every field element (its q and p coordinates placed
    in their slots, slot 0 as the most significant bit) are tabulated once
    at construction, indexed by the element's bits.
    """

    ctx: FieldContext
    q_basis: tuple[FieldElement, ...]
    p_basis: tuple[FieldElement, ...]
    factor_order: tuple[int, ...]
    _q_inv: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _p_inv: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _x_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _z_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _x_by_index: np.ndarray = field(init=False, repr=False, compare=False)
    _z_by_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.ctx.n
        if sorted(self.factor_order) != list(range(n)):
            raise ValueError("factor_order must be a permutation of the tensor slots")
        for e in (*self.q_basis, *self.p_basis):
            if e.ctx is not self.ctx:
                raise ContextMismatchError("labeling basis elements belong to a different context")
        object.__setattr__(self, "_q_inv", tuple(_expansion_matrix(self.q_basis)))
        object.__setattr__(self, "_p_inv", tuple(_expansion_matrix(self.p_basis)))
        object.__setattr__(self, "_x_masks", self._mask_table(self._q_inv))
        object.__setattr__(self, "_z_masks", self._mask_table(self._p_inv))
        order_bits = [e.bits for e in self.ctx.elements()]
        object.__setattr__(self, "_x_by_index", np.array(self._x_masks, dtype=np.intp)[order_bits])
        object.__setattr__(self, "_z_by_index", np.array(self._z_masks, dtype=np.intp)[order_bits])

    def _mask_table(self, inverse_rows: tuple[int, ...]) -> tuple[int, ...]:
        n, rows = self.n, list(inverse_rows)
        slot_bits = [1 << (n - 1 - slot) for slot in self.factor_order]
        return tuple(
            sum(bit for bit, c in zip(slot_bits, _coords(bits, rows, n)) if c)
            for bits in range(self.dim)
        )

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def dim(self) -> int:
        return self.ctx.order

    def q_coords(self, e: FieldElement) -> tuple[int, ...]:
        """Z2 coefficients of e in q_basis (index i = basis element i)."""
        return _coords(e.bits, list(self._q_inv), self.n)

    def p_coords(self, e: FieldElement) -> tuple[int, ...]:
        return _coords(e.bits, list(self._p_inv), self.n)

    def masks(self, v: Point) -> tuple[int, int]:
        """Pauli masks (x, z) of the translation by v: U_v = X^x Z^z."""
        return self._x_masks[v.q.bits], self._z_masks[v.p.bits]

    def point_masks(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Mask arrays (x, z) of the translations by grid points given as
        integers q_index * N + p_index, in any array shape."""
        q, p = np.divmod(np.asarray(points), self.dim)
        return self._x_by_index[q], self._z_by_index[p]


def polynomial_basis(ctx: FieldContext) -> tuple[FieldElement, ...]:
    """{1, w, w^2, ..., w^(n-1)}; for n = 1 just {1}."""
    if ctx.n == 1:
        return (ctx.one,)
    return tuple(ctx.power(k) for k in range(ctx.n))


def same_basis_labeling(ctx: FieldContext) -> QubitLabeling:
    """q and p both expanded in the polynomial basis."""
    basis = polynomial_basis(ctx)
    order = tuple(ctx.n - 1 - i for i in range(ctx.n))
    return QubitLabeling(ctx, basis, basis, order)


def trace_dual_labeling(ctx: FieldContext) -> QubitLabeling:
    """q in the polynomial basis, p in its trace-dual basis.

    With this pairing the commutation form between two translations reduces
    to trace(q1*p2 + q2*p1), which vanishes identically for vectors on a
    common ray in characteristic 2 -- so every striation's stabilizers
    commute, for every n.
    """
    basis = polynomial_basis(ctx)
    order = tuple(ctx.n - 1 - i for i in range(ctx.n))
    return QubitLabeling(ctx, basis, trace_dual_basis(basis), order)


def default_labeling(ctx: FieldContext) -> QubitLabeling:
    """Same-basis for n <= 2 (matches the standard two-qubit translation
    operators exactly); trace-dual for n >= 3, where same-basis fails."""
    return same_basis_labeling(ctx) if ctx.n <= 2 else trace_dual_labeling(ctx)


@dataclass(frozen=True, eq=False)
class TranslationOperator:
    """Unitary implementing the phase-space shift by ``vector``.

    Always a tensor product of I / sigma_x / sigma_z / sigma_x*sigma_z
    factors; the global phase is fixed by the all-X-then-all-Z composition
    order.  The operator is its masks; the dense matrix is built, and its
    unitarity checked, when ``unitary`` is first read.
    """

    vector: Point
    labeling: QubitLabeling

    @property
    def masks(self) -> tuple[int, int]:
        """(x, z) with U = X^x Z^z."""
        return self.labeling.masks(self.vector)

    @property
    def dim(self) -> int:
        return self.labeling.dim

    @cached_property
    def unitary(self) -> np.ndarray:
        """The signed permutation matrix U[j ^ x, j] = (-1)^popcount(j & z)."""
        x, z = self.masks
        src, sign = pauli_permutation(x, z, self.dim)
        u = np.zeros((self.dim, self.dim), dtype=complex)
        u[np.arange(self.dim), src] = sign
        dev = np.max(np.abs(u @ u.conj().T - np.eye(self.dim)))
        if dev > UNITARITY_TOL:
            raise AssertionError(f"translation operator failed unitarity by {dev:.3e}")
        return u


def translation_unitary(v: Point, labeling: QubitLabeling) -> TranslationOperator:
    """U_v = H_q V_p with sigma_x factors from q and sigma_z factors from p.

    Its dense matrix is the signed permutation U[j ^ x, j] =
    (-1)^popcount(j & z) of the masks, built on first use.
    """
    if v.ctx is not labeling.ctx:
        raise ContextMismatchError("translation vector and labeling use different contexts")
    return TranslationOperator(v, labeling)


def projective_check(u: TranslationOperator, w: TranslationOperator) -> complex:
    """Phase lambda with U_v U_w = lambda * U_(v+w); |lambda| = 1.

    A missing scalar indicates an implementation bug, not bad input.
    """
    if u.labeling != w.labeling:
        raise ValueError("operators use different labelings")
    target = translation_unitary(u.vector + w.vector, u.labeling).unitary
    prod = u.unitary @ w.unitary
    dim = prod.shape[0]
    lam = complex(np.trace(target.conj().T @ prod) / dim)
    if abs(abs(lam) - 1) > 1e-9 or np.max(np.abs(prod - lam * target)) > 1e-9:
        raise AssertionError(f"product of translations is not proportional to U_(v+w) at {u.vector}+{w.vector}")
    return lam


def stabilizer_eigenbasis(x, z, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint eigenbasis of the commuting Pauli strings U_i = X^x[i] Z^z[i].

    The masks must be the N-1 nonzero elements of an n-generator group, N =
    dim = 2^n.  Returns (vectors, exponents) with U_i v_k = i^exponents[k, i]
    v_k, rows sorted by the exponent tuple: the order of eigenvalue angles
    that ``joint_eigenbasis`` sorts by.  Each vector is the column of its
    projector at the first of its largest diagonal entries, scaled to unit
    norm, which makes that component real positive.  Raises
    NonCommutingError for the first pair (i < j) whose symplectic product is
    odd (deviation 2, the entrywise norm of U_i U_j - U_j U_i).
    """
    x = np.asarray(x, dtype=np.intp)
    z = np.asarray(z, dtype=np.intp)
    if len(x) != dim - 1:
        raise ValueError(f"need {dim - 1} stabilizer masks for dimension {dim}, got {len(x)}")
    odd = _parity((x[:, None] & z[None, :]) ^ (z[:, None] & x[None, :]))
    bad = np.argwhere(np.triu(odd, 1))
    if len(bad):
        raise NonCommutingError(int(bad[0, 0]), int(bad[0, 1]), 2.0)
    n = dim.bit_length() - 1

    # Generators: the first n strings whose (x, z) are independent over GF(2).
    keys = (x << n) | z
    gens: list[int] = []
    echelon: list[int] = []  # reduced keys, leading bits distinct and descending
    for i, key in enumerate(keys.tolist()):
        for row in echelon:
            key = min(key, key ^ row)
        if key:
            gens.append(i)
            echelon = sorted([*echelon, key], reverse=True)
            if len(gens) == n:
                break
    if len(gens) != n:
        raise ValueError(f"stabilizer masks span fewer than {n} generators")
    gx, gz = x[gens], z[gens]
    herm = _parity(gx & gz)  # c_j = i^herm[j] makes H_j = c_j U_gj Hermitian

    # combo runs over 0..N-1 as generator subsets, sign patterns and vector
    # positions alike.  For every subset c of the generators (bit j =
    # generator j), the ordered product of its U_gj is (-1)^sign[c] X^a Z^b,
    # since X^a Z^b X^x Z^z = (-1)^popcount(b & x) X^(a^x) Z^(b^z).  So the
    # stabilizer with masks (a, b) is i^(2 sign[c] - hsum[c]) times the
    # product of its H_j.
    combo = np.arange(dim)
    a, b = np.zeros(dim, np.intp), np.zeros(dim, np.intp)
    sign, hsum = np.zeros(dim, np.intp), np.zeros(dim, np.intp)
    for j in range(n):
        on = combo >> j & 1
        sign ^= on & _parity(b & gx[j])
        a ^= on * gx[j]
        b ^= on * gz[j]
        hsum += on * herm[j]
    subset_of = np.full(1 << 2 * n, -1, dtype=np.intp)
    subset_of[(a << n) | b] = combo
    subset = subset_of[keys]
    if np.any(subset < 0):
        raise ValueError("stabilizer masks are not closed under products")

    # The joint eigenvector on which H_j = (-1)^(bit j of beta) gives U_i the
    # eigenvalue i^k with k = 2 sign - hsum + 2 parity(beta & subset), mod 4.
    exponents = ((2 * sign - hsum)[subset] + 2 * _parity(combo[:, None] & subset)) % 4
    exponents = exponents[np.lexsort(exponents.T[::-1])]

    # Its projector is the group average P = (1/N) sum_i i^-k_i U_i (with U_0
    # = I), whose entries are exact: diagonal only from strings with x = 0,
    # and column c from U_i[c ^ x_i, c] = (-1)^popcount(c & z_i).
    xs, zs = np.append(0, x), np.append(0, z)
    weights = _I_POWERS[-np.insert(exponents, 0, 0, axis=1) % 4]
    diagonal = xs == 0
    diag = (weights[:, diagonal] @ (1 - 2 * _parity(zs[diagonal, None] & combo))).real / dim
    col = diag.argmax(axis=1)
    column = (weights * (1 - 2 * _parity(col[:, None] & zs))) @ (xs[:, None] == combo)
    vectors = column[combo[:, None], combo ^ col[:, None]] / dim / np.sqrt(diag[combo, col])[:, None]

    # Float guard: every vector has its eigenvalue on every generator.
    src, flip = pauli_permutation(gx, gz, dim)
    residual = vectors[:, src] * flip - _I_POWERS[exponents[:, gens]][..., None] * vectors[:, None]
    dev = float(np.max(np.linalg.norm(residual, axis=-1)))
    if dev > EIGEN_RESIDUAL_TOL:
        raise AssertionError(f"stabilizer basis vector fails its eigenvalue by {dev:.3e}")
    return vectors, exponents.astype(np.int8)


def check_pairwise_commuting(ops: Sequence[np.ndarray], tol: float = COMMUTE_TOL) -> None:
    """Raise NonCommutingError naming the first offending pair."""
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            dev = float(np.max(np.abs(ops[i] @ ops[j] - ops[j] @ ops[i])))
            if dev > tol:
                raise NonCommutingError(i, j, dev)


def joint_eigenbasis(ops: Sequence[np.ndarray], tol: float = COMMUTE_TOL) -> np.ndarray:
    """Orthonormal simultaneous eigenvectors of commuting unitaries.

    Sequential eigenspace refinement: diagonalize the first operator, then
    recurse within each eigenspace.  Output rows are unit vectors sorted by
    the tuple of eigenvalue phases (angles in [0, 2pi)) with respect to the
    input operator list, each with its largest-magnitude component made real
    positive, so the result is deterministic.
    """
    if not len(ops):
        raise ValueError("need at least one operator")
    check_pairwise_commuting(ops, tol)
    dim = ops[0].shape[0]
    blocks: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for u in ops:
        refined: list[np.ndarray] = []
        for basis in blocks:
            if basis.shape[1] == 1:
                refined.append(basis)
                continue
            sub = basis.conj().T @ u @ basis
            eigvals, eigvecs = np.linalg.eig(sub)
            used = np.zeros(len(eigvals), dtype=bool)
            for k in range(len(eigvals)):
                if used[k]:
                    continue
                cluster = [m for m in range(len(eigvals)) if not used[m] and abs(eigvals[m] - eigvals[k]) < EIGEN_CLUSTER_TOL]
                used[cluster] = True
                q, _ = np.linalg.qr(eigvecs[:, cluster])
                refined.append(basis @ q)
        blocks = refined

    vectors = [block[:, c] for block in blocks for c in range(block.shape[1])]

    def phase_tuple(v: np.ndarray) -> tuple[float, ...]:
        out = []
        for u in ops:
            angle = float(np.angle(np.vdot(v, u @ v))) % (2 * np.pi)
            if angle > 2 * np.pi - EIGEN_CLUSTER_TOL:
                angle = 0.0
            out.append(round(angle, 6))
        return tuple(out)

    vectors.sort(key=phase_tuple)

    normalized = []
    for v in vectors:
        mags = np.abs(v)
        k = int(np.flatnonzero(mags >= mags.max() - 1e-12)[0])
        normalized.append(v * np.exp(-1j * np.angle(v[k])))
    return np.array(normalized)
