"""Translation unitaries on state space, and the joint eigenbases of commuting ones.

A phase-space translation by (q0, p0) acts on the 2^n-dimensional state space
as a tensor product of sigma_x factors (for the q component) times sigma_z
factors (for the p component).  A QubitLabeling fixes the field bases, and
the coefficient of basis element i drives tensor slot n-1-i; the
representation is projective, so products of translation unitaries close
only up to a sign (``projective_check``).

Two bit masks (x, z) fix such a Pauli string completely: tensor slot s
carries sigma_x when bit n-1-s of x is set and sigma_z when that bit of z is
set.  Acting on a vector it is a signed index permutation,
(X^x Z^z v)[i] = (-1)^popcount((i ^ x) & z) v[i ^ x].

Two such strings commute exactly when popcount(x1 & z2 ^ z1 & x2) is even,
and X^a Z^b X^c Z^d = (-1)^popcount(b & c) X^(a^c) Z^(b^d).
``stabilizer_rows`` solves many commuting groups of N-1 strings at once
from these rules alone, in integers.  A group is the translations by a ray
{t d : t in GF(2^n)}: the string of t is the product of the pivots, those
of t = 1, w, ..., w^(n-1), over the bits of t (Gibbons, Hoffman and
Wootters 2004).  ``stabilizer_rows`` runs every exact check and rebuilds
the strings from the pivots in one loop with their exponents on one joint
eigenvector.  Vector k of the basis is the one whose signs on the pivots
are the bits of k, so its exponent row is row 0 with signs flipped by the
bits of k (``exponent_rows``).  That sign frame (x, z, row 0, flips) fixes
the basis and is all ``stabilizer_rows`` returns; ``stabilizer_vectors``
reads one group's vectors off it: a stabilizer state has entries i^e /
sqrt(size) on an affine support, e read off the signs of the strings
(Dehaene and De Moor 2003).  No dense eigendecomposition is run, and
``verify`` reads each basis's stabilizers from their masks: their group
law as composed signed permutations, and the vectors' eigenvalues against
the integer exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .fields import ContextMismatchError, FieldContext, FieldElement
from .geometry import Point

UNITARITY_TOL = 1e-12
# i^k for k in Z4
_I_POWERS = np.array([1, 1j, -1, -1j])


class NonCommutingError(ValueError):
    """A joint eigenbasis was requested for operators that do not commute."""

    def __init__(self, i: int, j: int, deviation: float, group: int = 0):
        self.pair = (i, j)
        self.deviation = deviation
        self.group = group
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


# Parity of every byte value.
_PARITY8 = np.array([i.bit_count() & 1 for i in range(256)], dtype=np.int8)


def _parity(a):
    """Parity of the number of set bits, for an int or an int array (< 2^32)."""
    a = np.asarray(a)
    a = a ^ a >> 16
    return _PARITY8[(a ^ a >> 8) & 0xFF]


def symplectic_parity(x1, z1, x2, z2):
    """parity(x1 & z2 ^ z1 & x2): 1 where X^x1 Z^z1 and X^x2 Z^z2
    anticommute, 0 where they commute; elementwise, with broadcasting."""
    return _parity((np.asarray(x1) & z2) ^ (np.asarray(z1) & x2))


def pauli_permutation(x, z, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign arrays with (X^x Z^z v)[i] = sign[i] * v[src[i]].

    x and z are bit masks, as ints or as int arrays; for arrays the result
    gains their shape as leading axes, one permutation per mask pair.
    """
    src = np.arange(dim) ^ np.asarray(x)[..., None]
    return src, 1 - 2 * _parity(src & np.asarray(z)[..., None])


def _check_basis(ctx: FieldContext, basis: Sequence[FieldElement]) -> None:
    if len(basis) != ctx.n:
        raise ValueError(f"basis must have {ctx.n} elements, got {len(basis)}")
    if any(e.ctx is not ctx for e in basis):
        raise ContextMismatchError("basis elements belong to a different context")


def _basis_masks(ctx: FieldContext, basis: Sequence[FieldElement]) -> tuple[int, ...]:
    """Mask of every element in ``basis``, by canonical index: mask m stands
    for the sum of basis[i] over the set bits i of m, so listing the N sums
    and inverting the list gives the table."""
    _check_basis(ctx, basis)
    sums = [0]
    for e in basis:
        sums += [s ^ e.bits for s in sums]  # the masks with bit i set follow those without
    index = {e.bits: i for i, e in enumerate(ctx.elements())}
    table = dict(zip((index[s] for s in sums), range(ctx.order)))
    if len(table) < ctx.order:
        raise ValueError("basis elements are linearly dependent over Z2")
    return tuple(table[i] for i in range(ctx.order))


def trace_dual_basis(basis: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Basis {f_j} with trace(e_i * f_j) = delta_ij for the given {e_i}.

    Bit i of element f's pairing mask is trace(e_i * f), and f_j is the
    element whose mask is 1 << j.
    """
    ctx = basis[0].ctx
    _check_basis(ctx, basis)
    n, elements = ctx.n, ctx.elements()
    _, mul = ctx.index_tables()
    trace = np.array([e.trace() for e in elements])
    pairing = (trace[mul[[e.index for e in basis]]] << np.arange(n)[:, None]).sum(axis=0)
    hits = pairing[:, None] == 1 << np.arange(n)
    if not hits.any(axis=0).all():
        raise ValueError("basis elements are linearly dependent over Z2")
    return tuple(elements[f] for f in hits.argmax(axis=0).tolist())


@dataclass(frozen=True)
class QubitLabeling:
    """How field coordinates map onto tensor slots.

    q is expanded in q_basis and p in p_basis (both bases of GF(2^n) over
    Z2).  The coefficient of basis element i is bit i of the mask, so it
    drives tensor slot n-1-i: the last basis element sits in the leftmost
    slot, and reversing a basis tuple reverses its slot order.

    The x and z masks of every field element are tabulated once at
    construction, indexed by the element's canonical index; ``masks``,
    ``point_masks``, equality and hashing all read these two tables.
    """

    ctx: FieldContext
    q_basis: tuple[FieldElement, ...]
    p_basis: tuple[FieldElement, ...]
    _x_masks: tuple[int, ...] = field(init=False, repr=False)
    _z_masks: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_x_masks", _basis_masks(self.ctx, self.q_basis))
        object.__setattr__(self, "_z_masks", _basis_masks(self.ctx, self.p_basis))

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def dim(self) -> int:
        return self.ctx.order

    def masks(self, v: Point) -> tuple[int, int]:
        """Pauli masks (x, z) of the translation by v: U_v = X^x Z^z."""
        return self._x_masks[v.q.index], self._z_masks[v.p.index]

    def point_masks(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Mask arrays (x, z) of the translations by grid points given as
        integers q_index * N + p_index, in any array shape."""
        q, p = np.divmod(np.asarray(points), self.dim)
        return np.array(self._x_masks, dtype=np.intp)[q], np.array(self._z_masks, dtype=np.intp)[p]


def polynomial_basis(ctx: FieldContext) -> tuple[FieldElement, ...]:
    """{1, w, w^2, ..., w^(n-1)}; for n = 1 just {1}."""
    return tuple(ctx.power(k) for k in range(ctx.n))


def same_basis_labeling(ctx: FieldContext) -> QubitLabeling:
    """q and p both expanded in the polynomial basis."""
    basis = polynomial_basis(ctx)
    return QubitLabeling(ctx, basis, basis)


def trace_dual_labeling(ctx: FieldContext) -> QubitLabeling:
    """q in the polynomial basis, p in its trace-dual basis.

    With this pairing the commutation form between two translations reduces
    to trace(q1*p2 + q2*p1), which vanishes identically for vectors on a
    common ray in characteristic 2 -- so every striation's stabilizers
    commute, for every n.
    """
    basis = polynomial_basis(ctx)
    return QubitLabeling(ctx, basis, trace_dual_basis(basis))


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
    """Phase lambda with U_v U_w = lambda * U_(v+w), read from the masks.

    X^a Z^b X^c Z^d = (-1)^popcount(b & c) X^(a^c) Z^(b^d), so lambda is
    +-1.  Masks of v + w that are not the XOR of those of v and w indicate
    an implementation bug, not bad input, and raise AssertionError.
    """
    if u.labeling != w.labeling:
        raise ValueError("operators use different labelings")
    (a, b), (c, d) = u.masks, w.masks
    if u.labeling.masks(u.vector + w.vector) != (a ^ c, b ^ d):
        raise AssertionError(f"product of translations is not proportional to U_(v+w) at {u.vector}+{w.vector}")
    return complex(-1 if (b & c).bit_count() & 1 else 1)


class StabilizerRows(NamedTuple):
    """The sign frame that ``stabilizer_rows`` finds for G groups.

    x, z: (G, N-1) masks of the strings.  row0: (G, N-1) int8, with
    U_i v_0 = i^row0[g, i] v_0.  flips: (G, N-1), one read-only row broadcast
    over the groups; string i changes sign between vectors 0 and k exactly
    where popcount(k & flips[g, i]) is odd (``exponent_rows``).
    """

    x: np.ndarray
    z: np.ndarray
    row0: np.ndarray
    flips: np.ndarray


def exponent_rows(row0, flips, k=None) -> np.ndarray:
    """Rows k of a sign frame's exponent table, int8: U_i v_k = i^e[k, i] v_k
    with e[k] = row0 XOR 2 parity(k & flips), k broadcast against row0 and
    flips; by default every outcome, the (N, N-1) table of one frame row."""
    if k is None:
        k = np.arange(len(flips) + 1)[:, None]
    return (row0 ^ 2 * _parity(k & flips)).astype(np.int8)


def stabilizer_rows(x, z, dim: int, coord) -> StabilizerRows:
    """Joint eigenbases of groups of commuting Pauli strings U_i = X^x[g, i]
    Z^z[g, i] in integers: every check, and each basis's order and sign
    frame.  Row g of the masks holds the N-1 nonzero elements of an
    n-generator group, N = dim = 2^n; U_i is the product of the pivots, the
    strings of coordinate 2^j, over the bits j of coord[i], one row for all
    groups.  Rows ascend in the exponent tuples when the pivots lead in
    coordinate order.  The first group with a string that anticommutes with
    a pivot raises NonCommutingError at its first odd symplectic pair
    (i < j), deviation 2, the norm of U_i U_j - U_j U_i.

    The seed vector v is +1 on i^parity(a & b) P for every pivot P = X^a Z^b.
    One loop over the pivots rebuilds each string as the product of those of
    its coordinates, with X^a Z^b X^c Z^d = (-1)^parity(b & c) X^(a^c)
    Z^(b^d) at each step, and collects its exponent on v; parity is linear,
    so one parity of the XOR of the b & c gives all the signs.  Row k is row
    0 flipped by 2 where popcount(k & flips) is odd, flips being the
    coordinates with pivot j on bit n-1-j, and v is the vector whose number
    has its signs on the pivots as bits; only row 0 is returned.
    """
    x, z, coord = (np.asarray(a, dtype=np.intp) for a in (x, z, coord))
    if x.shape[-1] != dim - 1:
        raise ValueError(f"need {dim - 1} stabilizer masks for dimension {dim}, got {x.shape[-1]}")
    n = dim.bit_length() - 1
    if coord.shape != (dim - 1,) or np.any(np.sort(coord) != np.arange(1, dim)):
        raise ValueError(f"coordinates must be a permutation of 1..{dim - 1}")
    pivots = np.argsort(coord)[(1 << np.arange(n)) - 1]
    px, pz = x[:, pivots], z[:, pivots]
    # A string that commutes with every pivot and is their product commutes with every string.
    odd = symplectic_parity(x[..., None], z[..., None], px[:, None], pz[:, None]).any(axis=(1, 2))
    if odd.any():
        g = int(np.argmax(odd))
        pair = np.argwhere(np.triu(symplectic_parity(x[g, :, None], z[g, :, None], x[g], z[g]), 1))[0]
        raise NonCommutingError(*pair.tolist(), 2.0, g)

    built_x, built_z, swaps, base = (np.zeros_like(x) for _ in range(4))
    for j in range(n):
        a, b, c = px[:, j, None], pz[:, j, None], coord >> j & 1
        swaps ^= c * (built_z & a)
        built_x ^= c * a
        built_z ^= c * b
        base -= c * _parity(a & b)
    wrong = np.argwhere((built_x != x) | (built_z != z))
    if len(wrong):
        g, i = wrong[0].tolist()
        raise ValueError(f"stabilizer masks are not closed under products: string {i} of group {g} "
                         "is not the product of its pivots")
    if np.any((x == 0) & (z == 0)):  # a nonzero coordinate with product I
        raise ValueError(f"stabilizer masks span fewer than {n} generators")
    base += 2 * _parity(swaps)
    base %= 4

    # v is vector number seat, its pivot signs.
    weights = 1 << np.arange(n - 1, -1, -1)
    flips = (coord[:, None] >> np.arange(n) & 1) @ weights
    seat = (base[:, pivots] >> 1) @ weights
    return StabilizerRows(x, z, exponent_rows(base, flips, seat[:, None]), np.broadcast_to(flips, x.shape))


def stabilizer_vectors(x, z, row0, flips) -> np.ndarray:
    """The (N, N) joint eigenvectors of one checked group of N-1 strings
    U_i = X^x[i] Z^z[i], read off its sign frame: U_i v_k = i^e[k, i] v_k
    with e = ``exponent_rows(row0, flips)``, as ``stabilizer_rows`` gives them.

    (X^x Z^z v)[c ^ x] = (-1)^popcount(c & z) v[c], so v_k has code 0 at the
    first point c_k of its support c_k ^ {x_i} and code (2 parity(c_k & z_i)
    - e[k, i]) mod 4 at c_k ^ x_i, entry i^code / sqrt(support size), code 4
    off the support.  c_k is the least c with 2 parity(c & z_i) = e[k, i]
    for every Z-type string (x_i = 0), the identity included: a product of
    +-1 sign rows that reaches their count (Dehaene and De Moor 2003).
    """
    dim = len(x) + 1
    combo = np.arange(dim)
    # the identity, then every string
    rows = np.pad(exponent_rows(row0, flips), ((0, 0), (1, 0)))
    x, z = np.pad(x, (1, 0)), np.pad(z, (1, 0))
    ztype = x == 0
    count = np.count_nonzero(ztype)
    signs = 1.0 - 2 * _parity(combo[:, None] & z[ztype])
    first = (np.subtract(1.0, rows[:, ztype]) @ signs.T == count).argmax(-1)
    table = np.full((dim, dim), 4, dtype=np.int8)
    table[combo[:, None], first[:, None] ^ x] = (2 * _parity(first[:, None] & z) - rows) % 4
    # + 0.0 clears -0.0
    return np.take(np.append(_I_POWERS, 0) / np.sqrt(dim // count) + 0.0, table)
