import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qphase.fields import field_create
from qphase.geometry import Point
from qphase.operators import (
    NonCommutingError,
    TranslationOperator,
    check_pairwise_commuting,
    default_labeling,
    joint_eigenbasis,
    pauli,
    pauli_permutation,
    polynomial_basis,
    projective_check,
    same_basis_labeling,
    stabilizer_eigenbasis,
    trace_dual_basis,
    trace_dual_labeling,
    translation_unitary,
)

I2, X, Y, Z = (pauli(k) for k in "IXYZ")


def all_points(ctx):
    return [Point(q, p) for q in ctx.elements() for p in ctx.elements()]


class TestPauli:
    def test_z_matrix(self):
        assert np.array_equal(Z, np.array([[1, 0], [0, -1]], dtype=complex))

    def test_x_matrix(self):
        assert np.array_equal(X, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_x_involution(self):
        assert np.array_equal(X @ X, I2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            pauli("Q")

    def test_returns_copy(self):
        a = pauli("X")
        a[0, 0] = 9
        assert pauli("X")[0, 0] == 0


class TestKron:
    def test_dimensions_multiply(self):
        assert np.kron(I2, X).shape == (4, 4)

    def test_mixed_product_rule(self):
        assert np.allclose(np.kron(Z, I2) @ np.kron(I2, Z), np.kron(Z, Z))

    def test_i_tensor_x_swaps_within_pairs(self):
        v = np.array([1, 0, 0, 0], dtype=complex)
        assert np.array_equal(np.kron(I2, X) @ v, np.array([0, 1, 0, 0], dtype=complex))


class TestTranslationUnitaries:
    def test_two_qubit_basic_operators(self):
        ctx = field_create(2)
        lab = default_labeling(ctx)
        one, w, zero = ctx.one, ctx.omega, ctx.zero
        assert np.array_equal(translation_unitary(Point(one, zero), lab).unitary, np.kron(I2, X))
        assert np.array_equal(translation_unitary(Point(w, zero), lab).unitary, np.kron(X, I2))
        assert np.array_equal(translation_unitary(Point(zero, one), lab).unitary, np.kron(I2, Z))
        assert np.array_equal(translation_unitary(Point(zero, w), lab).unitary, np.kron(Z, I2))

    def test_identity_at_origin(self):
        ctx = field_create(2)
        lab = default_labeling(ctx)
        u = translation_unitary(Point(ctx.zero, ctx.zero), lab).unitary
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_combined_translation_matches_minus_i_zy(self):
        # vector (1, w2) decomposes as H_1 V_w V_1; up to global phase the
        # unitary equals -i Z (x) Y, and the fixed composition order makes
        # the phase exact here.
        ctx = field_create(2)
        lab = default_labeling(ctx)
        w2 = ctx.elements()[3]
        u = translation_unitary(Point(ctx.one, w2), lab).unitary
        ref = -1j * np.kron(Z, Y)
        phase = np.vdot(ref.reshape(-1), u.reshape(-1)) / 4
        assert abs(abs(phase) - 1) < 1e-12
        assert np.max(np.abs(u - phase * ref)) < 1e-12
        assert np.max(np.abs(u - ref)) < 1e-12

    def test_h_then_v_product_structure(self):
        # U_v = H_q V_p exactly
        ctx = field_create(2)
        lab = default_labeling(ctx)
        for v in all_points(ctx):
            h = translation_unitary(Point(v.q, ctx.zero), lab).unitary
            vu = translation_unitary(Point(ctx.zero, v.p), lab).unitary
            assert np.array_equal(translation_unitary(v, lab).unitary, h @ vu)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unitarity(self, n):
        ctx = field_create(n)
        lab = default_labeling(ctx)
        eye = np.eye(ctx.order)
        for v in all_points(ctx):
            u = translation_unitary(v, lab).unitary
            assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-12

    def test_h_homomorphism_exact(self):
        ctx = field_create(2)
        lab = default_labeling(ctx)
        zero = ctx.zero
        for a in ctx.elements():
            for b in ctx.elements():
                ha = translation_unitary(Point(a, zero), lab).unitary
                hb = translation_unitary(Point(b, zero), lab).unitary
                hab = translation_unitary(Point(a + b, zero), lab).unitary
                assert np.array_equal(ha @ hb, hab)

    def test_context_mismatch(self):
        lab = default_labeling(field_create(2))
        other = field_create(2)
        with pytest.raises(Exception):
            translation_unitary(Point(other.one, other.zero), lab)


class TestProjectivePhases:
    def test_hh_identity_phase(self):
        ctx = field_create(1)
        lab = default_labeling(ctx)
        h = translation_unitary(Point(ctx.one, ctx.zero), lab)
        assert projective_check(h, h) == pytest.approx(1)

    def test_vh_and_hv_differ_by_minus_one(self):
        ctx = field_create(1)
        lab = default_labeling(ctx)
        h = translation_unitary(Point(ctx.one, ctx.zero), lab)
        v = translation_unitary(Point(ctx.zero, ctx.one), lab)
        lam_vh = projective_check(v, h)
        lam_hv = projective_check(h, v)
        assert lam_vh == pytest.approx(-lam_hv)

    def test_all_pairs_fourth_roots_n2(self):
        ctx = field_create(2)
        lab = default_labeling(ctx)
        ops = [translation_unitary(v, lab) for v in all_points(ctx)]
        roots = np.array([1, 1j, -1, -1j])
        for u, w in itertools.product(ops, ops):
            lam = projective_check(u, w)
            assert np.min(np.abs(roots - lam)) < 1e-12


class TestLabelings:
    def test_default_is_same_basis_up_to_n2(self):
        for n in (1, 2):
            ctx = field_create(n)
            assert default_labeling(ctx) == same_basis_labeling(ctx)

    def test_default_is_trace_dual_from_n3(self):
        ctx = field_create(3)
        assert default_labeling(ctx) == trace_dual_labeling(ctx)

    def test_polynomial_basis_coords(self):
        ctx = field_create(2)
        lab = same_basis_labeling(ctx)
        assert lab.q_coords(ctx.one) == (1, 0)
        assert lab.q_coords(ctx.omega) == (0, 1)
        assert lab.q_coords(ctx.elements()[3]) == (1, 1)  # w2 = 1 + w

    def test_coords_invert_expansion(self):
        for n in (2, 3, 4):
            ctx = field_create(n)
            lab = trace_dual_labeling(ctx)
            for e in ctx.elements():
                bits = 0
                for coeff, basis_elem in zip(lab.p_coords(e), lab.p_basis):
                    if coeff:
                        bits ^= basis_elem.bits
                assert bits == e.bits

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_dual_pairing(self, n):
        ctx = field_create(n)
        basis = polynomial_basis(ctx)
        dual = trace_dual_basis(basis)
        for i, e in enumerate(basis):
            for j, f in enumerate(dual):
                assert (e * f).trace() == (1 if i == j else 0)

    def test_dependent_basis_rejected(self):
        ctx = field_create(2)
        from qphase.operators import QubitLabeling

        with pytest.raises(ValueError):
            QubitLabeling(ctx, (ctx.one, ctx.one), (ctx.one, ctx.omega), (1, 0))


class TestJointEigenbasis:
    def test_single_z(self):
        basis = joint_eigenbasis([Z])
        assert basis.shape == (2, 2)
        # phase sort puts eigenvalue +1 (angle 0) first
        assert np.allclose(basis[0], [1, 0])
        assert np.allclose(basis[1], [0, 1])

    def test_commuting_pair_residuals(self):
        ops = [np.kron(Z, Z), np.kron(X, X)]
        basis = joint_eigenbasis(ops)
        for v in basis:
            for u in ops:
                lam = np.vdot(v, u @ v)
                assert np.linalg.norm(u @ v - lam * v) < 1e-9

    def test_orthonormal_output(self):
        basis = joint_eigenbasis([np.kron(Z, X), np.kron(X, Z)])
        gram = basis.conj() @ basis.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_non_commuting_rejected(self):
        with pytest.raises(NonCommutingError) as err:
            joint_eigenbasis([X, Z])
        assert err.value.pair == (0, 1)

    def test_deterministic(self):
        ops = [np.kron(Z, X), np.kron(X, Z)]
        assert np.array_equal(joint_eigenbasis(ops), joint_eigenbasis(ops))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            joint_eigenbasis([])


def kron_translation(v, lab):
    """Reference U_v: the n-fold np.kron of I / X / Z / XZ factors, one per
    tensor slot, read from the labeling's coordinates and factor order."""
    n = lab.n
    x_by_slot, z_by_slot = [0] * n, [0] * n
    for i, (a, b) in enumerate(zip(lab.q_coords(v.q), lab.p_coords(v.p))):
        x_by_slot[lab.factor_order[i]] = a
        z_by_slot[lab.factor_order[i]] = b
    factors = {(0, 0): I2, (1, 0): X, (0, 1): Z, (1, 1): X @ Z}
    u = np.ones((1, 1), dtype=complex)
    for slot in range(n):
        u = np.kron(u, factors[x_by_slot[slot], z_by_slot[slot]])
    return u


class TestPauliMasksAgainstKron:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("make", [same_basis_labeling, trace_dual_labeling])
    def test_translation_unitary_equals_kron_product(self, n, make):
        ctx = field_create(n)
        lab = make(ctx)
        for v in all_points(ctx):
            assert np.array_equal(translation_unitary(v, lab).unitary, kron_translation(v, lab)), v

    @pytest.mark.parametrize("n", [1, 3])
    def test_permutation_of_mask_arrays_applies_each_translation(self, n):
        ctx = field_create(n)
        lab = trace_dual_labeling(ctx)
        points = all_points(ctx)
        masks = np.array([lab.masks(v) for v in points]).reshape(ctx.order, ctx.order, 2)
        src, sign = pauli_permutation(masks[..., 0], masks[..., 1], ctx.order)
        assert src.shape == sign.shape == (ctx.order, ctx.order, ctx.order)
        rng = np.random.default_rng(5)
        vec = rng.standard_normal(ctx.order) + 1j * rng.standard_normal(ctx.order)
        moved = (vec[src] * sign).reshape(-1, ctx.order)
        for v, row in zip(points, moved):
            assert np.array_equal(row, kron_translation(v, lab) @ vec), v


class TestLazyUnitary:
    def test_unitary_built_on_first_read_and_kept(self):
        ctx = field_create(2)
        op = translation_unitary(Point(ctx.omega, ctx.one), default_labeling(ctx))
        assert "unitary" not in vars(op)
        u = op.unitary
        assert op.unitary is u
        assert op.dim == 4
        assert np.array_equal(u, kron_translation(op.vector, op.labeling))

    def test_masks_match_labeling(self):
        ctx = field_create(3)
        lab = trace_dual_labeling(ctx)
        for v in all_points(ctx):
            assert TranslationOperator(v, lab).masks == lab.masks(v)


def pauli_string(x, z, n):
    """X^x Z^z as an n-fold kron product, slot 0 on the most significant bit."""
    u = np.ones((1, 1), dtype=complex)
    for slot in range(n):
        bit = 1 << (n - 1 - slot)
        u = np.kron(u, (X if x & bit else I2) @ (Z if z & bit else I2))
    return u


class TestStabilizerEigenbasis:
    def test_bell_basis_from_zz_xx(self):
        # ZZ, XX and their product XZ.XZ = -YY: the four Bell states
        x, z = [0b00, 0b11, 0b11], [0b11, 0b00, 0b11]
        vectors, exponents = stabilizer_eigenbasis(x, z, 4)
        dense = joint_eigenbasis([pauli_string(a, b, 2) for a, b in zip(x, z)])
        assert np.max(np.abs(vectors - dense)) <= 1e-15
        assert exponents.tolist() == [[0, 0, 0], [0, 2, 2], [2, 0, 2], [2, 2, 0]]

    def test_eigenvalue_exponents_of_anti_hermitian_strings(self):
        # XZ.I, I.Z and their product XZ.Z; XZ = -iY has eigenvalues +-i
        x, z = [0b10, 0b00, 0b10], [0b10, 0b01, 0b11]
        vectors, exponents = stabilizer_eigenbasis(x, z, 4)
        assert sorted(exponents[:, 0].tolist()) == [1, 1, 3, 3]
        for i, (a, b) in enumerate(zip(x, z)):
            u = pauli_string(a, b, 2)
            lam = np.array([1, 1j, -1, -1j])[exponents[:, i]]
            assert np.max(np.abs(vectors @ u.T - lam[:, None] * vectors)) <= 1e-15

    def test_first_odd_pair_raises_like_the_dense_check(self):
        x, z = [0b00, 0b11, 0b00], [0b11, 0b00, 0b10]  # ZZ, XX, ZI: only (1, 2) anticommutes
        masks = list(zip(x, z))
        dense = [pauli_string(a, b, 2) for a, b in masks]
        with pytest.raises(NonCommutingError) as expected:
            check_pairwise_commuting(dense)
        with pytest.raises(NonCommutingError) as err:
            stabilizer_eigenbasis(x, z, 4)
        assert err.value.pair == expected.value.pair == (1, 2)
        assert str(err.value) == str(expected.value)

    def test_wrong_number_of_strings_rejected(self):
        with pytest.raises(ValueError, match="need 3"):
            stabilizer_eigenbasis([0b11], [0b00], 4)

    def test_dependent_strings_rejected(self):
        with pytest.raises(ValueError, match="generators"):
            stabilizer_eigenbasis([0, 0, 0], [0b01, 0b01, 0b01], 4)


@functools.lru_cache(maxsize=None)
def _trace_dual(n):
    return trace_dual_labeling(field_create(n))


def ray_points(ctx, s):
    """The ray of striation s from field arithmetic: q = 0, p = 0, or p = slope * q."""
    elements = ctx.elements()
    if s == 0:
        return [Point(ctx.zero, p) for p in elements]
    if s == 1:
        return [Point(q, ctx.zero) for q in elements]
    slope = elements[s - 1]
    return [Point(q, slope * q) for q in elements]


class TestTraceDualCommutation:
    @settings(max_examples=120)
    @given(n=st.integers(1, 8), data=st.data())
    def test_stabilizers_commute_symplectically(self, n, data):
        lab = _trace_dual(n)
        s = data.draw(st.integers(0, lab.dim), label="striation")
        masks = [lab.masks(w) for w in ray_points(lab.ctx, s)[1:]]
        odd = [
            (i, j)
            for (i, (x1, z1)), (j, (x2, z2)) in itertools.combinations(enumerate(masks), 2)
            if (x1 & z2 ^ z1 & x2).bit_count() & 1
        ]
        assert odd == [], (n, s)
