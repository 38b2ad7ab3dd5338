"""Runtime invariant suite behind the ``verify`` command.

Each check re-derives a structural property from scratch (exhaustively for
small n, sampled where the count explodes) and reports pass/fail with a
short detail string.  The suite is deterministic: all sampling uses fixed
seeds.

The checks run as whole-array operations on what the library hands its
users, not on its internal tables:

- Field axioms run on addition and multiplication tables built from
  ``FieldElement`` ``+`` and ``*`` (``fields.field_axiom_failure``, the
  routine behind the construction self-test).
- Geometry checks stack the striations' ``point_indices`` rows, the (N+1,
  N, N) array of point indices q_index * N + p_index, and read off
  line_of[s, point], the line of striation s through each point: every two
  striations' lines must pair the points one to one, and a translation is
  a permutation of the point indices.  The affine check also compares the
  rows with the lines solved from tables of ``FieldElement`` ``+`` and ``*``.
- Operator checks read each translation as the signed permutation of its
  masks, U_v[j, src[v, j]] = sign[v, j].  ``check_unitarity`` ties the
  dense ``unitary`` to it entry for entry, sampled above n = 5, and one
  seeded point's to an ``np.kron`` of slot factors read by ``FieldElement``
  arithmetic; the other operator checks compose and gather permutations.
- Stabilizers are read from their masks: the group check composes their
  permutations, each basis's table lam[i, k] = <v_k|U_i|v_k> and residuals
  gather U_i v_k = sign_i * v_k[src_i]; lam must be i to the basis's integer
  exponent, its N vectors must differ in their rows of codes, and the masks
  of the N+1 groups must partition the Paulis.  No eigensolver.
- The phase-point structure is exact on the net's ``_i_powers``, the phase
  table c that defines every A it hands out (the dense stack's Gram kept for
  n <= 4); covariance compares ``phase_point_matrix`` with the paper's A_a,
  the line projectors through a minus I from the net's vectors; line sums
  compare W with v^dag rho v.  No N^4 array past n = 4.

At n = 6 every check runs under 150 MiB peak RSS, at n = 7 under 400 MiB.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fields import field_axiom_failure
from .geometry import Point, find_wraparound_witness, grid_points, line_from_equation
from .mub import check_conjugacy
from .operators import _parity, pauli, pauli_permutation, symplectic_parity, trace_dual_basis, translation_unitary
from .states import random_density_matrix, random_pure_state, registry_vector
from .system import PhaseSpaceSystem, build_system
from .tomography import (
    MeasurementPlan,
    estimate_state,
    project_to_physical,
    simulate_counts,
)
from .wigner import state_from_wigner, translate_grid, wigner_from_state

TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, dev: float, tol: float = TOL) -> CheckResult:
    return CheckResult(name, dev <= tol, f"max deviation {dev:.3e} (tol {tol:.0e})")


def _table(sys: PhaseSpaceSystem, op) -> np.ndarray:
    """t[i, j] = op(e_i, e_j).index, from the FieldElement operators."""
    elems = sys.ctx.elements()
    return np.array([[op(a, b).index for b in elems] for a in elems], dtype=np.intp)


def _translations(sys: PhaseSpaceSystem) -> tuple[np.ndarray, np.ndarray]:
    """(src, sign), (N^2, N) each, with U_v[j, src[v, j]] = sign[v, j] for
    the translation by grid point v = q_index * N + p_index: every
    translation as the signed permutation of its masks."""
    return pauli_permutation(*sys.labeling.point_masks(np.arange(sys.dim**2)), sys.dim)


def _trace(src: np.ndarray, sign: np.ndarray, v, w, t) -> np.ndarray:
    """tr(U_t^dag U_v U_w) for index arrays v, w and t, exact: row j of U_v U_w
    is sign[v, j] times row src[v, j] of U_w, and adds its sign times U_t's
    where its entry is in U_t's column.  It is N lambda when U_v U_w = lambda U_t."""
    rows = src[v]
    meets = src[w[..., None], rows] == src[t]
    return (sign[v] * sign[w[..., None], rows] * sign[t] * meets).sum(axis=-1)


# -- field ------------------------------------------------------------------


def check_field_axioms(sys: PhaseSpaceSystem) -> CheckResult:
    """Exhaustive field axioms over the tables of FieldElement + and *."""
    elems = sys.ctx.elements()
    try:
        add = _table(sys, operator.add)
        mul = _table(sys, operator.mul)
        inv = [a.inverse().index for a in elems[1:]]
        failure = field_axiom_failure(add, mul, inv)
    except Exception as exc:  # noqa: BLE001 - invariant suite reports, never raises
        return CheckResult("field axioms", False, repr(exc))
    if failure is not None:
        return CheckResult("field axioms", False, failure)
    return CheckResult("field axioms", True, f"exhaustive over {len(elems)} elements")


def check_label_bijection(sys: PhaseSpaceSystem) -> CheckResult:
    ctx = sys.ctx
    ok = all(ctx.parse(e.label) == e for e in ctx.elements())
    distinct = len(set(ctx.labels)) == ctx.order
    return CheckResult("label round-trip", ok and distinct, f"{ctx.order} labels")


# -- geometry ----------------------------------------------------------------


def _striation_lines(sys: PhaseSpaceSystem):
    """(points, line_of, bad): the stacked ``point_indices`` rows, line_of[s, point]
    = the line of striation s through the point, and None or the first striation
    that does not partition the grid with how it fails ("overlaps", "misses points")."""
    n_pts = sys.dim**2
    points = np.stack([s.point_indices for s in sys.striations])
    line_of = np.empty((len(points), n_pts), dtype=np.intp)
    for s, rows, line in zip(sys.striations, points, line_of):
        covered = np.bincount(rows.ravel(), minlength=n_pts)
        if np.any(covered != 1):
            return points, None, (s, "overlaps" if covered.max() > 1 else "misses points")
        line[rows] = np.arange(sys.dim)[:, None]
    return points, line_of, None


def check_affine_axioms(sys: PhaseSpaceSystem) -> CheckResult:
    """N+1 striations, each a partition of the grid, every two points on exactly
    one common line, and line l of striation s the solutions of q = e_l for s = 0
    and of e_(s-1) q + p = e_l for s >= 1 (e_0 = 0).  The partitions put N(N+1) C(N, 2)
    = C(N^2, 2) pairs of points on a line, so all pairs share one iff for every two
    striations s < t, (line_of[s], line_of[t]) takes each of its N^2 values once."""
    n_elems, n_pts = sys.dim, sys.dim**2
    if len(sys.striations) != n_elems + 1:
        return CheckResult("affine axioms", False, "some point is not on exactly N+1 lines")
    points, line_of, bad = _striation_lines(sys)
    if bad is not None:
        return CheckResult("affine axioms", False, f"striation {bad[0].direction} {bad[1]}")

    for s in range(n_elems):
        # key[t, point]: its lines in striations s and s+1+t, as one value below N^2
        key = line_of[s] * n_elems + line_of[s + 1 :]
        shared = np.bincount((key + np.arange(len(key))[:, None] * n_pts).ravel(), minlength=key.size)
        if np.any(shared != 1):
            t, cell = divmod(int(np.argmax(shared)), n_pts)
            p1, p2 = (grid_points(sys.ctx)[k] for k in np.flatnonzero(key[t] == cell)[:2])
            return CheckResult("affine axioms", False, f"points {p1}, {p2} share != 1 line")

    # Lines solved by FieldElement arithmetic: point m of line l of s >= 1 is (e_m, e_(s-1) e_m + e_l).
    add, mul = _table(sys, operator.add), _table(sys, operator.mul)
    idx = np.arange(n_elems)
    solved = np.concatenate(([idx[:, None] * n_elems + idx], idx * n_elems + add[mul[:, None], idx[:, None]]))
    directions = [s.direction for s in sys.striations]
    wrong = np.argwhere(np.any(points != solved[directions], axis=2))
    if len(wrong):
        (k, l), elems = wrong[0], sys.ctx.elements()
        d = directions[k]
        a, b = (1, 0) if d == 0 else (d - 1, 1)
        line = line_from_equation(elems[a], elems[b], elems[l])
        return CheckResult("affine axioms", False, f"striation {d} line {l} is not {line}")
    return CheckResult("affine axioms", True, f"{len(points) * n_elems} lines, {n_pts} points, exhaustive")


def check_translation_geometry(sys: PhaseSpaceSystem) -> CheckResult:
    """Translations map lines to lines of the same striation."""
    ctx, n_elems, n_pts = sys.ctx, sys.dim, sys.dim**2
    points, line_of, bad = _striation_lines(sys)
    if bad is not None:
        return CheckResult("translation geometry", False, f"striation {bad[0].direction} is not a partition")

    if ctx.n <= 3:
        vectors = [(q, p) for q in range(n_elems) for p in range(n_elems)]
    else:
        rng = np.random.default_rng(2024)
        vectors = [(rng.integers(n_elems), rng.integers(n_elems)) for _ in range(20)]
    vq, vp = np.array(vectors, dtype=np.intp).T
    add = _table(sys, operator.add)
    # perm[v, point] = the index of point + v.
    perm = (add[:, vq].T[:, :, None] * n_elems + add[:, vp].T[:, None, :]).reshape(len(vectors), n_pts)
    broken = np.empty((len(vectors), len(points)), dtype=bool)
    for k, rows in enumerate(points):
        # The image of a line lies on one line of its striation; as the image
        # has N distinct points, it is that line.
        image = line_of[k][perm[:, rows]]
        broken[:, k] = np.any(image != image[..., :1], axis=(1, 2))
    broken |= np.any(np.sort(perm, axis=1) != np.arange(n_pts), axis=1)[:, None]  # not a bijection
    if np.any(broken):
        v, k = np.argwhere(broken)[0]
        moved = f"translate by {grid_points(ctx)[vq[v] * n_elems + vp[v]]}"
        return CheckResult("translation geometry", False, f"{moved} broke striation {sys.striations[k].direction}")
    return CheckResult("translation geometry", True, f"{len(vectors)} vectors checked")


def check_ring_witness(sys: PhaseSpaceSystem) -> CheckResult:
    """Mod-N wrap-around lines break the geometry that GF lines satisfy."""
    if sys.n < 2:
        return CheckResult("ring-line witness", True, "skipped: Z_2 is a field")
    witness = find_wraparound_witness(sys.ctx.order)
    if witness is None:
        return CheckResult("ring-line witness", False, f"no witness found mod {sys.ctx.order}")
    eq1, eq2, shared = witness
    return CheckResult(
        "ring-line witness",
        True,
        f"mod {sys.ctx.order}: {eq1} and {eq2} share {len(shared)} points",
    )


# -- operators ----------------------------------------------------------------


def _sampled_points(sys: PhaseSpaceSystem) -> np.ndarray:
    """Every point index for n <= 5; above, the origin and 64 points drawn with seed 10."""
    points = np.arange(sys.dim**2)
    return points if sys.n <= 5 else np.append(0, np.random.default_rng(10).choice(points[1:], 64, replace=False))


def check_unitarity(sys: PhaseSpaceSystem) -> CheckResult:
    """Each sampled dense ``unitary`` is, entry for entry, the signed permutation of its masks, so
    exactly unitary; at one seeded point it is the np.kron of X^x Z^z slot factors, bit i of x being
    tr(q f_i) over the trace-dual basis {f_i} of q_basis (likewise z), and bit i driving slot n-1-i."""
    n_elems, lab, grid, points = sys.dim, sys.labeling, grid_points(sys.ctx), _sampled_points(sys)
    dev = 0.0
    for a, src, sign in zip(points, *pauli_permutation(*lab.point_masks(points), n_elems)):
        expected = np.eye(n_elems)[src] * sign[:, None]  # expected[j, src[j]] = sign[j]
        dev = max(dev, float(np.max(np.abs(translation_unitary(grid[a], lab).unitary - expected))))
    q, p = (sys.ctx.elements()[i] for i in np.random.default_rng(20).integers(1, n_elems, size=2))
    kron = np.ones((1, 1))
    for fq, fp in zip(trace_dual_basis(lab.q_basis)[::-1], trace_dual_basis(lab.p_basis)[::-1]):
        kron = np.kron(kron, pauli("IX"[(q * fq).trace()]) @ pauli("IZ"[(p * fp).trace()]))
    dev = max(dev, float(np.max(np.abs(translation_unitary(Point(q, p), lab).unitary - kron))))
    return _result("translation unitarity", dev, 1e-12)


def check_translation_homomorphism(sys: PhaseSpaceSystem) -> CheckResult:
    """H_q H_q' = H_(q+q') exactly, and likewise for V."""
    n_elems = sys.dim
    src, sign = _translations(sys)
    add = _table(sys, operator.add)
    a, b = np.indices((n_elems, n_elems))
    # H_a = U_(a,0) and V_b = U_(0,b); bad[a, b, h] compares over all pairs, h = 0 for H.
    bad = np.stack([_trace(src, sign, a * h, b * h, add[a, b] * h) != n_elems for h in (n_elems, 1)], axis=-1)
    if np.any(bad):
        a, b, h = np.argwhere(bad)[0]
        elems = sys.ctx.elements()
        return CheckResult("translation homomorphism", False, f"{'HV'[h]} at {elems[a]},{elems[b]}")
    return CheckResult("translation homomorphism", True, "entrywise exact")


def check_projective_closure(sys: PhaseSpaceSystem) -> CheckResult:
    """U_v U_w = lambda U_(v+w) with lambda = +-1, so a pass has no deviation."""
    ctx, n_elems = sys.ctx, sys.dim
    n_pts = n_elems**2
    if ctx.n <= 2:
        v, w = np.divmod(np.arange(n_pts**2), n_pts)
    else:
        rng = np.random.default_rng(99)
        v, w = np.array([(rng.integers(n_pts), rng.integers(n_pts)) for _ in range(300)]).T
    name = f"projective closure ({len(v)} pairs)"
    add = _table(sys, operator.add)
    (vq, vp), (wq, wp) = np.divmod(v, n_elems), np.divmod(w, n_elems)
    bad = np.abs(_trace(*_translations(sys), v, w, add[vq, wq] * n_elems + add[vp, wp])) != n_elems
    if np.any(bad):
        k = int(np.argmax(bad))
        vk, wk = (grid_points(ctx)[i[k]] for i in (v, w))
        return CheckResult(name, False, f"U_v U_w not proportional to U_(v+w) at {vk}+{wk}")
    return _result(name, 0.0)


def check_stabilizer_group(sys: PhaseSpaceSystem) -> CheckResult:
    """Each striation: N-1 commuting stabilizers whose products stay on the
    ray, U_v U_w = (-1)^popcount(z_v & x_w) U_(v+w) exactly, read as the
    signed permutations of their masks; the origin is U_0 = I."""
    n_elems = sys.dim
    add = _table(sys, operator.add)
    for s, basis in zip(sys.striations, sys.bases):
        ops = basis.stabilizers
        index = np.array([op.vector.index for op in ops], dtype=np.intp)
        q, p = np.divmod(index, n_elems)
        total = add[q[:, None], q[None, :]] * n_elems + add[p[:, None], p[None, :]]
        if not np.all(np.isin(total, s.point_indices[0])):
            return CheckResult("stabilizer group", False, "product leaves ray")
        # row[point]: the stabilizer at that point, the origin's the appended U_0 = I
        row = np.full(n_elems**2, -1, dtype=np.intp)
        row[index] = np.arange(len(ops))
        row[0] = len(ops)
        at = row[total]
        x, z = np.array([*(op.masks for op in ops), (0, 0)], dtype=np.intp).T
        i, j = np.arange(len(ops))[:, None], np.arange(len(ops))
        bad = (at < 0) | (symplectic_parity(x[i], z[i], x[j], z[j]) != 0)  # at < 0: a ray point with no stabilizer
        sign = 1 - 2 * _parity(z[i] & x[j]).astype(np.intp)  # int8 would overflow at N = 128
        bad |= _trace(*pauli_permutation(x, z, n_elems), i, j, at) != n_elems * sign
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            return CheckResult(
                "stabilizer group",
                False,
                f"striation {s.direction}: U_v U_w not proportional to U_(v+w) "
                f"at {ops[i].vector}+{ops[j].vector}",
            )
    return CheckResult("stabilizer group", True, "closure up to phase verified")


# -- conjugate bases -----------------------------------------------------------


def check_mub(sys: PhaseSpaceSystem) -> CheckResult:
    """Each non-identity Pauli (x, z) is in exactly one group, so the eigenbases are mutually unbiased
    (Bandyopadhyay et al., Algorithmica 34, 512 (2002)); every cross overlap is compared too."""
    if len(sys.bases) != sys.dim + 1:
        return CheckResult("mutual conjugacy", False, f"{len(sys.bases)} bases != N+1")
    x, z = np.array([op.masks for b in sys.bases for op in b.stabilizers], dtype=np.intp).T
    held = np.bincount(x * sys.dim + z, minlength=sys.dim**2)
    wrong = np.flatnonzero(held != (np.arange(sys.dim**2) > 0))  # (0, 0) in no group, the rest in one
    if len(wrong):
        masks, count = divmod(int(wrong[0]), sys.dim), held[wrong[0]]
        return CheckResult("mutual conjugacy", False, f"Pauli masks {masks} in {count} groups")
    report = check_conjugacy(list(sys.bases))
    return CheckResult(
        "mutual conjugacy",
        report.all_conjugate,
        f"{len(sys.bases)} bases, worst overlap deviation {report.worst_deviation:.3e}",
    )


def _eigen_tables(bases):
    """(lam, code, residual) per basis: lam[i, k] = <v_k|U_i|v_k>, code[i, k] = round(arg
    lam[i, k] / (pi/2)) mod 4 and residual[i] = max_k |U_i v_k - lam[i, k] v_k|, U_i v_k
    gathered as sign_i * v_k[src_i] into two buffers shared by the bases (fresh ones cost
    more in page faults than the arithmetic)."""
    uv = diff = np.empty(0, dtype=complex)
    for basis in bases:
        vt = basis.vectors.T
        src, sign = pauli_permutation(*np.array([op.masks for op in basis.stabilizers]).T, len(vt))
        if uv.shape != src.shape + vt.shape[1:]:
            uv, diff = (np.empty(src.shape + vt.shape[1:], dtype=complex) for _ in range(2))
        np.take(vt, src, axis=0, out=uv, mode="clip")  # uv[i, :, k] = U_i v_k; "raise" buffers out
        uv *= sign[..., None]
        lam = np.einsum("kj,ijk->ik", basis.vectors.conj(), uv)
        np.subtract(uv, np.multiply(lam[:, None, :], vt, out=diff), out=diff)
        # |diff|^2 as np.linalg.norm forms it, in uv's buffer
        square = np.multiply(np.conjugate(diff, out=uv), diff, out=uv).real
        yield lam, np.rint(np.angle(lam) / (np.pi / 2)).astype(int) % 4, np.sqrt(square.sum(axis=1)).max(axis=1)


def check_eigenvector_residuals(sys: PhaseSpaceSystem) -> CheckResult:
    """Every vector is an eigenvector of its stabilizers, and for a basis
    with integer exponents, the ones the net and tomography read, each
    lam[i, k] = <v_k|U_i|v_k> is a unit number with quarter-turn code
    exponents[k, i]; a basis without them is checked on residuals only."""
    dev = 0.0
    for basis, (lam, code, residual) in zip(sys.bases, _eigen_tables(sys.bases)):
        dev = max(dev, float(residual.max()))
        if basis.exponents is None:
            continue
        bad = (np.abs(np.abs(lam) - 1) > TOL) | (code != basis.exponents.T)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            return CheckResult(
                "stabilizer eigen-residuals",
                False,
                f"striation {basis.striation}: vector {k} has eigenvalue {lam[i, k]:.3f} "
                f"on stabilizer {i}, not i^{basis.exponents[k, i]}",
            )
    return _result("stabilizer eigen-residuals", dev)


def check_basis_uniqueness(sys: PhaseSpaceSystem) -> CheckResult:
    """Each vector is a unit joint eigenvector (residual, |lam| - 1 within TOL) and the N have N
    distinct rows of codes, so each spans its eigenspace: N commuting strings closed under products
    (``check_stabilizer_group``) have N characters, each with a one-dimensional eigenspace."""
    dev = 0.0
    for basis, (lam, code, residual) in zip(sys.bases, _eigen_tables(sys.bases)):
        dev = max(dev, float(residual.max()), float(np.max(np.abs(np.abs(lam) - 1))))
        if len({row.tobytes() for row in code.T}) != sys.dim:
            return CheckResult("basis uniqueness", False, f"striation {basis.striation}: two vectors share eigenvalues")
    return _result("basis uniqueness", dev)


# -- Wigner ----------------------------------------------------------------------


def check_a_structure(sys: PhaseSpaceSystem) -> CheckResult:
    """A_a = (1/N) sum_b (-1)^<a,b> i^c_b U_b on the net's phase table c, exactly:
    c[0, 0] = 0 gives tr A_a = 1, c[x, z] = popcount(x & z) (mod 2) makes each
    i^c X^x Z^z Hermitian, and with the points' masks a bijection onto the N^2
    mask pairs, the characters (-1)^<a,b> give sum_a A_a = N I and tr(A_a A_b)
    = N delta_ab.  At n <= 4 the dense stack is checked too."""
    name, dim = "phase-point operator structure", sys.dim
    c, (px, pz) = sys.net._i_powers.astype(np.intp), sys.labeling.point_masks(np.arange(dim**2))
    odd = np.argwhere((c - _parity(np.arange(dim)[:, None] & np.arange(dim))) % 2)
    if c[0, 0] % 4:
        return CheckResult(name, False, f"c[0, 0] = {c[0, 0]}, so tr A_a = i^{c[0, 0]}")
    if len(odd):
        return CheckResult(name, False, f"i^c X^x Z^z is not Hermitian at (x, z) = {tuple(odd[0].tolist())}")
    if np.any(np.bincount(px * dim + pz, minlength=dim**2) != 1):
        return CheckResult(name, False, "the points' masks are not a bijection onto the N^2 mask pairs")
    if sys.n > 4:
        return CheckResult(name, True, "exact on the phase table")
    stack = sys.net.phase_point_stack()
    dev = float(np.max(np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1))))))
    traces = np.einsum("aii->a", stack)
    dev = max(dev, float(np.max(np.abs(traces - 1.0))))
    # gram[a, b] = tr(A_a A_b), as one product of the flattened stacks
    flat = stack.reshape(len(stack), -1)
    gram = flat @ np.transpose(stack, (0, 2, 1)).reshape(len(stack), -1).T
    dev = max(dev, float(np.max(np.abs(gram - dim * np.eye(len(stack))))))
    dev = max(dev, float(np.max(np.abs(stack.sum(axis=0) - dim * np.eye(dim)))))
    return _result(name, dev)


def check_a_covariance(sys: PhaseSpaceSystem) -> CheckResult:
    """The paper's A_a, the projectors of the N+1 lines through a minus I from the
    net's vectors, is the net's phase_point_matrix(a) = U_a A_0 U_a^dag: at every
    point for n <= 5, the origin and 64 seeded points above."""
    net, grid = sys.net, grid_points(sys.ctx)
    dev = 0.0
    for a in _sampled_points(sys):
        v = np.array([basis.vectors[k] for basis, k in zip(net.bases, net.outcome_index_table()[a])])
        paper = v.T @ v.conj() - np.eye(sys.dim)  # the N+1 line projectors through a, minus I
        dev = max(dev, float(np.max(np.abs(paper - net.phase_point_matrix(grid[a])))))
    return _result("phase-point covariance", dev)


def check_wigner_roundtrip(sys: PhaseSpaceSystem) -> CheckResult:
    rng = np.random.default_rng(11)
    dev = 0.0
    for _ in range(20):
        rho = random_density_matrix(rng, sys.dim)
        grid = wigner_from_state(rho, sys.net)
        dev = max(dev, abs(grid.total - 1.0))
        back = state_from_wigner(grid, sys.net)
        dev = max(dev, float(np.max(np.abs(back - rho))))
    return _result("wigner round-trip", dev)


def check_line_sums(sys: PhaseSpaceSystem) -> CheckResult:
    """W summed over each index row is tr(rho P) = v^dag rho v for the vector the
    net's Line-keyed views give that row's ``Line``: it reads both forms of a line."""
    net, lines = sys.net, [ln for s in sys.striations for ln in s.lines]
    unknown = sum(ln not in net.vector_index for ln in lines)
    if unknown:
        return CheckResult("line sums = outcome probabilities", False, f"{unknown} lines not in the net")
    vectors = np.array([net.bases[net.striation_of[ln]].vectors[net.vector_index[ln]] for ln in lines])
    points = np.stack([s.point_indices for s in sys.striations]).reshape(len(lines), -1)
    rng = np.random.default_rng(12)
    rhos = [random_density_matrix(rng, sys.dim) for _ in range(20)]
    sums = np.array([wigner_from_state(rho, net).values.reshape(-1)[points].sum(axis=1) for rho in rhos])
    probs = np.array([np.sum((vectors.conj() @ rho) * vectors, axis=1).real for rho in rhos])
    return _result("line sums = outcome probabilities", float(np.max(np.abs(sums - probs))))


def check_grid_covariance(sys: PhaseSpaceSystem) -> CheckResult:
    ctx = sys.ctx
    n_elems, points = ctx.order, grid_points(ctx)
    rng = np.random.default_rng(13)
    rho = random_density_matrix(rng, sys.dim)
    grid = wigner_from_state(rho, sys.net)
    if ctx.n <= 2:
        vectors = points
    else:
        vectors = [points[rng.integers(n_elems) * n_elems + rng.integers(n_elems)] for _ in range(20)]
    src, sign = _translations(sys)
    dev = 0.0
    for v in vectors:
        # U_v rho U_v^dag, gathered: rho[src_i, src_j] sign_i sign_j
        rows, signs = src[v.index], sign[v.index]
        moved = wigner_from_state(rho[rows[:, None], rows] * (signs[:, None] * signs), sys.net)
        dev = max(dev, float(np.max(np.abs(translate_grid(grid, v).values - moved.values))))
    return _result("grid covariance", dev)


def _registry_grid(sys: PhaseSpaceSystem, name: str) -> np.ndarray:
    """The Wigner grid values of the named registry state."""
    _, vec = registry_vector(name)
    return wigner_from_state(np.outer(vec, vec.conj()), sys.net).values


# The one-qubit minimum of W over pure states, attained by tilted-111.
_FLOOR = (1 - math.sqrt(3)) / 4
_HI, _Q = (1 + 1 / math.sqrt(3)) / 4, 0.25
# n -> (tolerance, registry state -> its grid [q][p]).
_GOLDEN_GRIDS = {
    1: (TOL, {
        "up": [[0.5, 0.5], [0.0, 0.0]],
        "plus": [[0.5, 0.0], [0.5, 0.0]],
        "y+": [[0.5, 0.0], [0.0, 0.5]],
        "tilted-111": [[_FLOOR, _HI], [_HI, _HI]],
    }),
    2: (1e-12, {
        "upup": [[_Q, _Q, _Q, _Q], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "upright": [[_Q, 0, _Q, 0], [_Q, 0, _Q, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "singlet": [[0, 0, 0, 0], [0, _Q, _Q, 0], [0, _Q, _Q, 0], [0, 0, 0, 0]],
    }),
}


def check_golden_tables(sys: PhaseSpaceSystem) -> CheckResult:
    """Known one- and two-qubit grids, including the negativity extremum."""
    if sys.n not in _GOLDEN_GRIDS:
        return CheckResult("golden grids", True, "skipped: no reference tables beyond n=2")
    tol, grids = _GOLDEN_GRIDS[sys.n]
    dev = max(float(np.max(np.abs(_registry_grid(sys, name) - ref))) for name, ref in grids.items())
    return _result("golden grids", dev, tol)


# Pure states that check_negativity_floor samples, and states per einsum block (bounding temporaries).
_NEGATIVITY_SAMPLES = 100_000
_NEGATIVITY_BLOCK = 10_000


def check_negativity_floor(sys: PhaseSpaceSystem) -> CheckResult:
    """One-qubit minimum W over pure states is (1 - sqrt(3))/4, attained by tilted-111."""
    if sys.n != 1:
        return CheckResult("negativity floor", True, "skipped: one-qubit property")
    rng = np.random.default_rng(14)
    real = rng.standard_normal((_NEGATIVITY_SAMPLES, 2))
    imag = rng.standard_normal((_NEGATIVITY_SAMPLES, 2))
    stack = sys.net.phase_point_stack()
    observed = math.inf
    for start in range(0, _NEGATIVITY_SAMPLES, _NEGATIVITY_BLOCK):
        rows = slice(start, start + _NEGATIVITY_BLOCK)
        vecs = real[rows] + 1j * imag[rows]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        w = np.real(np.einsum("ni,aij,nj->na", vecs.conj(), stack, vecs)) / 2.0
        observed = min(observed, float(w.min()))
    attained = float(_registry_grid(sys, "tilted-111").min())
    ok = observed >= _FLOOR - 1e-6 and abs(attained - _FLOOR) <= 1e-6
    return CheckResult(
        "negativity floor", ok, f"min over {_NEGATIVITY_SAMPLES} states {observed:.6f}, floor {_FLOOR:.6f}"
    )


def check_six_states(sys: PhaseSpaceSystem) -> CheckResult:
    """Exactly the six Pauli eigenstates give two-half/two-zero grids."""
    if sys.n != 1:
        return CheckResult("six-state pattern", True, "skipped: one-qubit property")

    def is_pattern(values: np.ndarray) -> bool:
        flat = np.sort(values.reshape(-1))
        return bool(np.max(np.abs(flat - np.array([0, 0, 0.5, 0.5]))) < TOL)

    for name in ("up", "down", "plus", "minus", "y+", "y-"):
        if not is_pattern(_registry_grid(sys, name)):
            return CheckResult("six-state pattern", False, f"{name} lacks the pattern")
    rng = np.random.default_rng(15)
    for _ in range(100):
        vec = random_pure_state(rng, 2)
        if is_pattern(wigner_from_state(np.outer(vec, vec.conj()), sys.net).values):
            return CheckResult("six-state pattern", False, "random state matched the pattern")
    return CheckResult("six-state pattern", True, "6 eigenstates match, 100 random states do not")


# -- tomography -------------------------------------------------------------------


def check_tomography_exact(sys: PhaseSpaceSystem) -> CheckResult:
    rng = np.random.default_rng(16)
    dev = 0.0
    for _ in range(5):
        rho = random_density_matrix(rng, sys.dim)
        plan = MeasurementPlan(bases=sys.bases, shots_per_basis=0, seed=0)
        report = estimate_state(simulate_counts(rho, plan), sys.net, truth=rho)
        dev = max(dev, report.trace_distance)
    return _result("exact-mode reconstruction", dev)


def check_tomography_determinism(sys: PhaseSpaceSystem) -> CheckResult:
    rng = np.random.default_rng(17)
    rho = random_density_matrix(rng, sys.dim)
    plan = MeasurementPlan(bases=sys.bases, shots_per_basis=128, seed=424242)
    same = simulate_counts(rho, plan) == simulate_counts(rho, plan)
    return CheckResult("sampling determinism", same, "identical records for one seed")


def check_projection_idempotent(sys: PhaseSpaceSystem) -> CheckResult:
    rng = np.random.default_rng(18)
    dev = 0.0
    for _ in range(5):
        rho = random_density_matrix(rng, sys.dim)
        dev = max(dev, float(np.max(np.abs(project_to_physical(rho) - rho))))
    return _result("physical projection idempotence", dev, 1e-12)


def check_statistical_consistency(sys: PhaseSpaceSystem) -> CheckResult:
    """Finite-shot estimates approach the truth (coarse sanity, not the scaling study)."""
    rng = np.random.default_rng(19)
    rho = random_density_matrix(rng, sys.dim)
    dists = []
    for shots in (64, 4096):
        td = [
            estimate_state(
                simulate_counts(rho, MeasurementPlan(sys.bases, shots, seed)),
                sys.net,
                truth=rho,
            ).trace_distance
            for seed in range(8)
        ]
        dists.append(float(np.mean(td)))
    ok = dists[1] < dists[0]
    return CheckResult(
        "statistical consistency", ok, f"mean trace distance {dists[0]:.4f} -> {dists[1]:.4f}"
    )


ALL_CHECKS = [
    check_field_axioms,
    check_label_bijection,
    check_affine_axioms,
    check_translation_geometry,
    check_ring_witness,
    check_unitarity,
    check_translation_homomorphism,
    check_projective_closure,
    check_stabilizer_group,
    check_mub,
    check_eigenvector_residuals,
    check_basis_uniqueness,
    check_a_structure,
    check_a_covariance,
    check_wigner_roundtrip,
    check_line_sums,
    check_grid_covariance,
    check_golden_tables,
    check_negativity_floor,
    check_six_states,
    check_tomography_exact,
    check_tomography_determinism,
    check_projection_idempotent,
    check_statistical_consistency,
]


def run_checks(n_max: int) -> list[CheckResult]:
    """Every invariant check for n = 1..n_max, names prefixed with the degree."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    results = []
    for n in range(1, n_max + 1):
        sys = build_system(n)
        for check in ALL_CHECKS:
            res = check(sys)
            results.append(CheckResult(f"n={n}: {res.name}", res.passed, res.detail))
    return results
