"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import itertools
import math

import numpy as np

from qphase.fields import field_create
from qphase.geometry import (
    Point,
    enumerate_striations,
    find_wraparound_witness,
    intersect,
    ring_line_points,
)
from qphase.mub import check_conjugacy
from qphase.operators import pauli, translation_unitary
from qphase.states import random_density_matrix, registry_vector
from qphase.system import build_system
from qphase.tomography import (
    MeasurementPlan,
    error_scaling_study,
    estimate_state,
    loglog_slope,
    simulate_counts,
)
from qphase.wigner import line_sum, translate_grid, wigner_from_state

X, Y, Z = pauli("X"), pauli("Y"), pauli("Z")


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {name}  {detail}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def rho_of(name):
    _, v = registry_vector(name)
    return np.outer(v, v.conj())


def test_criterion_01_gf4_golden_arithmetic():
    ctx = field_create(2)
    one, w, w2 = ctx.one, ctx.omega, ctx.elements()[3]
    ok = (one + w == w2) and (w * w2 == ctx.one)
    ok = ok and all((a + a).is_zero for a in ctx.elements())
    report(1, "GF(4) golden arithmetic", ok, "1+w=w2, w*w2=1, a+a=0 exactly")


def test_criterion_02_striation_counts_and_affine_geometry():
    details = []
    ok = True
    for n, expected in ((1, 3), (2, 5), (3, 9), (4, 17)):
        ctx = field_create(n)
        striations = enumerate_striations(ctx)
        ok = ok and len(striations) == expected
        full = {Point(q, p) for q in ctx.elements() for p in ctx.elements()}
        for s in striations:
            seen = set()
            for ln in s.lines:
                ok = ok and not (seen & ln.point_set)
                seen |= ln.point_set
            ok = ok and seen == full
        lines = [ln for s in striations for ln in s.lines]
        by_striation = {id(ln): s.direction for s in striations for ln in s.lines}
        for l1, l2 in itertools.combinations(lines, 2):
            common = intersect(l1, l2)
            if by_striation[id(l1)] == by_striation[id(l2)]:
                ok = ok and len(common) == 0
            else:
                ok = ok and len(common) == 1
        details.append(f"n={n}:{len(striations)}")
    report(2, "striation counts and intersections", ok, " ".join(details) + ", exhaustive")


def test_criterion_03_two_qubit_translation_operators():
    sys = build_system(2)
    ctx = sys.ctx
    one, w, zero, w2 = ctx.one, ctx.omega, ctx.zero, ctx.elements()[3]

    def u(q, p):
        return translation_unitary(Point(q, p), sys.labeling).unitary

    dev = max(
        float(np.max(np.abs(u(one, zero) - np.kron(pauli("I"), X)))),
        float(np.max(np.abs(u(w, zero) - np.kron(X, pauli("I"))))),
        float(np.max(np.abs(u(zero, one) - np.kron(pauli("I"), Z)))),
        float(np.max(np.abs(u(zero, w) - np.kron(Z, pauli("I"))))),
    )
    combined = u(one, w2)
    ref = -1j * np.kron(Z, Y)
    phase = np.vdot(ref.reshape(-1), combined.reshape(-1)) / 4
    dev_phase = float(np.max(np.abs(combined - phase * ref)))
    ok = dev <= 1e-12 and abs(abs(phase) - 1) <= 1e-12 and dev_phase <= 1e-12
    report(3, "two-qubit translation operators", ok, f"entrywise dev {dev:.1e}, combined dev {dev_phase:.1e}")


def test_criterion_04_entangled_striation_basis():
    sys = build_system(2)
    basis = sys.bases[3]
    reference = np.array(
        [[1, 1, 1j, -1j], [1, 1, -1j, 1j], [1, -1, 1j, 1j], [1, -1, -1j, -1j]],
        dtype=complex,
    ) / 2
    worst = 0.0
    for ref in reference:
        p = np.outer(ref, ref.conj())
        best = min(
            float(np.max(np.abs(p - np.outer(v, v.conj())))) for v in basis.vectors
        )
        worst = max(worst, best)
    report(4, "fourth-striation joint eigenbasis", worst < 1e-9, f"projector distance {worst:.2e}")


def test_criterion_05_mub_property_n1_to_4():
    details = []
    ok = True
    for n in (1, 2, 3, 4):
        sys = build_system(n)
        rep = check_conjugacy(list(sys.bases), tolerance=1e-9)
        ok = ok and len(sys.bases) == sys.dim + 1 and rep.all_conjugate
        details.append(f"n={n}:{len(sys.bases)} bases dev {rep.worst_deviation:.1e}")
    report(5, "mutual conjugacy for n=1..4", ok, "; ".join(details))


def test_criterion_06_one_qubit_golden_tables():
    sys = build_system(1)
    hi = (1 + 1 / math.sqrt(3)) / 4
    lo = (1 - math.sqrt(3)) / 4
    cases = {
        "up": [[0.5, 0.5], [0.0, 0.0]],
        "plus": [[0.5, 0.0], [0.5, 0.0]],
        "y+": [[0.5, 0.0], [0.0, 0.5]],
        "tilted-111": [[lo, hi], [hi, hi]],
    }
    worst = 0.0
    for name, ref in cases.items():
        grid = wigner_from_state(rho_of(name), sys.net)
        worst = max(worst, float(np.max(np.abs(grid.values - np.array(ref)))))
    tilt = wigner_from_state(rho_of("tilted-111"), sys.net)
    prints_ok = (
        f"{tilt.values[0, 0]:.3f}" == "-0.183" and f"{tilt.values[0, 1]:.3f}" == "0.394"
    )
    ok = worst < 1e-9 and prints_ok
    report(6, "one-qubit golden grids", ok, f"dev {worst:.2e}, prints 0.394/-0.183")


def test_criterion_07_two_qubit_golden_tables():
    sys = build_system(2)
    upup = np.zeros((4, 4)); upup[0, :] = 0.25
    upright = np.zeros((4, 4)); upright[np.ix_([0, 1], [0, 2])] = 0.25
    singlet = np.zeros((4, 4)); singlet[np.ix_([1, 2], [1, 2])] = 0.25
    worst = 0.0
    for name, ref in (("upup", upup), ("upright", upright), ("singlet", singlet)):
        grid = wigner_from_state(rho_of(name), sys.net)
        worst = max(worst, float(np.max(np.abs(grid.values - ref))))
    report(7, "two-qubit golden grids", worst < 1e-12, f"dev {worst:.2e}")


def test_criterion_08_phase_point_operator_golden():
    sys = build_system(2)
    ctx = sys.ctx
    a00 = sys.net.phase_point_matrix(Point(ctx.zero, ctx.zero))
    ref = np.kron(
        np.array([[1, (1 - 1j) / 2], [(1 + 1j) / 2, 0]]),
        np.array([[1, (1 + 1j) / 2], [(1 - 1j) / 2, 0]]),
    )
    dev = float(np.max(np.abs(a00 - ref)))
    cov = 0.0
    for q in ctx.elements():
        for p in ctx.elements():
            u = translation_unitary(Point(q, p), sys.labeling).unitary
            a = sys.net.phase_point_matrix(Point(q, p))
            cov = max(cov, float(np.max(np.abs(a - u @ a00 @ u.conj().T))))
    ok = dev <= 1e-12 and cov <= 1e-12
    report(8, "origin phase-point operator", ok, f"golden dev {dev:.1e}, covariance dev {cov:.1e}")


def test_criterion_09_phase_point_structure():
    worst = 0.0
    for n in (1, 2, 3):
        sys = build_system(n)
        stack = sys.net.phase_point_stack()
        dim = sys.dim
        worst = max(worst, float(np.max(np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1)))))))
        worst = max(worst, float(np.max(np.abs(np.einsum("aii->a", stack) - 1))))
        gram = np.einsum("aij,bji->ab", stack, stack)
        worst = max(worst, float(np.max(np.abs(gram - dim * np.eye(dim * dim)))))
        worst = max(worst, float(np.max(np.abs(stack.sum(axis=0) - dim * np.eye(dim)))))
    report(9, "phase-point operator structure n<=3", worst < 1e-9, f"dev {worst:.2e}")


def test_criterion_10_line_sums_random_states():
    rng = np.random.default_rng(21)
    worst = 0.0
    for n in (1, 2, 3):
        sys = build_system(n)
        projectors = {ln: sys.net.projector(ln) for s in sys.striations for ln in s.lines}
        for _ in range(100):
            rho = random_density_matrix(rng, sys.dim)
            grid = wigner_from_state(rho, sys.net)
            for ln, proj in projectors.items():
                prob = float(np.real(np.trace(rho @ proj)))
                worst = max(worst, abs(line_sum(grid, ln) - prob))
    report(10, "line sums equal outcome probabilities", worst < 1e-9, f"dev {worst:.2e}, 100 states per n")


def test_criterion_11_translational_covariance():
    rng = np.random.default_rng(22)
    worst = 0.0
    for n in (1, 2, 3):
        sys = build_system(n)
        elems = sys.ctx.elements()
        if n <= 2:
            vectors = [Point(q, p) for q in elems for p in elems]
        else:
            vectors = [
                Point(elems[rng.integers(sys.dim)], elems[rng.integers(sys.dim)])
                for _ in range(20)
            ]
        rho = random_density_matrix(rng, sys.dim)
        grid = wigner_from_state(rho, sys.net)
        for v in vectors:
            u = translation_unitary(v, sys.labeling).unitary
            direct = wigner_from_state(u @ rho @ u.conj().T, sys.net)
            worst = max(worst, float(np.max(np.abs(translate_grid(grid, v).values - direct.values))))
    report(11, "translational covariance", worst < 1e-9, f"dev {worst:.2e}")


def test_criterion_12_negativity_floor():
    sys = build_system(1)
    rng = np.random.default_rng(23)
    samples = 100_000
    vecs = rng.standard_normal((samples, 2)) + 1j * rng.standard_normal((samples, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    stack = sys.net.phase_point_stack()
    w = np.real(np.einsum("ni,aij,nj->na", vecs.conj(), stack, vecs)) / 2.0
    floor = (1 - math.sqrt(3)) / 4
    observed = float(w.min())
    attained = float(wigner_from_state(rho_of("tilted-111"), sys.net).values.min())
    ok = observed >= floor - 1e-6 and abs(attained - floor) <= 1e-6
    report(12, "one-qubit negativity floor", ok, f"min {observed:.6f} >= {floor:.6f}; attained {attained:.6f}")


def test_criterion_13_six_state_pattern():
    sys = build_system(1)

    def matches(values):
        return bool(np.max(np.abs(np.sort(values.reshape(-1)) - [0, 0, 0.5, 0.5])) < 1e-9)

    six_ok = all(
        matches(wigner_from_state(rho_of(name), sys.net).values)
        for name in ("up", "down", "plus", "minus", "y+", "y-")
    )
    rng = np.random.default_rng(24)
    random_fail = True
    for _ in range(100):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        if matches(wigner_from_state(np.outer(v, v.conj()), sys.net).values):
            random_fail = False
    ok = six_ok and random_fail
    report(13, "exactly six half/zero states", ok, "6 eigenstates match, 100 random states do not")


def test_criterion_14_tomography_exactness():
    rng = np.random.default_rng(25)
    worst = 0.0
    for n in (1, 2, 3):
        sys = build_system(n)
        for _ in range(50):
            rho = random_density_matrix(rng, sys.dim)
            plan = MeasurementPlan(bases=sys.bases, shots_per_basis=0, seed=0)
            rep = estimate_state(simulate_counts(rho, plan), sys.net, truth=rho)
            worst = max(worst, rep.trace_distance)
    report(14, "exact-probability reconstruction", worst < 1e-9, f"trace distance {worst:.2e}, 50 states per n")


def test_criterion_15_statistical_scaling():
    sys = build_system(1)
    rho = rho_of("tilted-111")
    rows = error_scaling_study(
        rho, sys.net, list(sys.bases), [64, 256, 1024, 4096], seeds=list(range(200))
    )
    slope = loglog_slope(rows)
    ok = -0.65 <= slope <= -0.35
    detail = ", ".join(f"M={r.shots}:{r.mean_max_wigner_error:.4f}" for r in rows)
    report(15, "error scaling near M^(-1/2)", ok, f"slope {slope:.3f} [{detail}]")


def test_criterion_16_mod4_geometry_failure():
    witness = find_wraparound_witness(4)
    ok = witness is not None
    if ok:
        eq1, eq2, shared = witness
        ok = len(shared) >= 2 and ring_line_points(4, *eq1) != ring_line_points(4, *eq2)
    striations = enumerate_striations(field_create(2))
    lines = [ln for s in striations for ln in s.lines]
    gf_ok = all(
        len(intersect(l1, l2)) <= 1 for l1, l2 in itertools.combinations(lines, 2)
    )
    ok = ok and gf_ok
    detail = f"mod-4 witness {witness[0]} vs {witness[1]} shares {len(witness[2])};" if witness else ""
    report(16, "wrap-around lines break the geometry", ok, detail + " no GF(4) pair shares 2 points")
