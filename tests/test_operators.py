import copy
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qphase.fields import field_create
from qphase.geometry import Point, striation_rays
from qphase.operators import (
    NonCommutingError,
    QubitLabeling,
    TranslationOperator,
    default_labeling,
    pauli,
    pauli_permutation,
    polynomial_basis,
    projective_check,
    same_basis_labeling,
    symplectic_parity,
    trace_dual_basis,
    trace_dual_labeling,
    translation_unitary,
)
from qphase.system import build_system
from qphase.verify import check_eigenvector_residuals

from dense_reference import first_noncommuting_pair, joint_eigenprojectors, projector_matching
from eigenbases import stabilizer_eigenbases

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

    def test_labelings_with_different_masks_are_refused(self):
        ctx = field_create(2)
        lab = default_labeling(ctx)
        bad = copy.copy(lab)
        object.__setattr__(bad, "_x_masks", (0,) * len(lab._x_masks))
        assert bad != lab and len({lab, bad}) == 2
        assert default_labeling(ctx) == lab and hash(default_labeling(ctx)) == hash(lab)
        v = Point(ctx.one, ctx.omega)
        with pytest.raises(ValueError, match="different labelings"):
            projective_check(translation_unitary(v, lab), translation_unitary(v, bad))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mask_phase_equals_dense_phase_for_all_pairs(self, n):
        ctx = field_create(n)
        lab = default_labeling(ctx)
        points = all_points(ctx)
        dense = {v: kron_translation(v, lab) for v in points}
        for v, w in itertools.product(points, points):
            target, prod = dense[v + w], dense[v] @ dense[w]
            lam = projective_check(translation_unitary(v, lab), translation_unitary(w, lab))
            assert lam in (1, -1)
            assert np.array_equal(prod, lam * target), (v, w)
            assert lam == np.vdot(target, prod) / ctx.order

    def test_raises_exactly_where_the_dense_product_leaves_the_ray(self):
        ctx = field_create(2)
        lab = copy.copy(default_labeling(ctx))
        masks = list(lab._x_masks)
        masks[3] = 0  # the q coordinate w2 drives no sigma_x
        object.__setattr__(lab, "_x_masks", tuple(masks))
        ops = [translation_unitary(v, lab) for v in all_points(ctx)]
        seen = set()
        for u, w in itertools.product(ops, ops):
            target, prod = translation_unitary(u.vector + w.vector, lab).unitary, u.unitary @ w.unitary
            bad = not np.array_equal(prod, np.vdot(target, prod) / ctx.order * target)
            seen.add(bad)
            if bad:
                with pytest.raises(AssertionError, match="not proportional"):
                    projective_check(u, w)
            else:
                projective_check(u, w)
        assert seen == {False, True}


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
        assert lab.masks(Point(ctx.one, ctx.zero))[0] == 0b01
        assert lab.masks(Point(ctx.omega, ctx.zero))[0] == 0b10
        assert lab.masks(Point(ctx.elements()[3], ctx.zero))[0] == 0b11  # w2 = 1 + w

    def test_coords_invert_expansion(self):
        for n in (2, 3, 4):
            ctx = field_create(n)
            lab = trace_dual_labeling(ctx)
            for e in ctx.elements():
                _, z = lab.masks(Point(ctx.zero, e))
                bits = 0
                for i, basis_elem in enumerate(lab.p_basis):
                    if z >> i & 1:
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_masks_and_point_masks_read_one_table(self, n):
        ctx = field_create(n)
        lab = default_labeling(ctx)
        corrupt = copy.copy(lab)
        masks = list(lab._x_masks)
        masks[-1] = 0
        object.__setattr__(corrupt, "_x_masks", tuple(masks))
        points = all_points(ctx)
        for labeling in (lab, corrupt):
            x, z = labeling.point_masks([v.index for v in points])
            assert list(zip(x.tolist(), z.tolist())) == [labeling.masks(v) for v in points]
        assert corrupt != lab
        last = Point(ctx.elements()[-1], ctx.zero)
        assert corrupt.masks(last) == (0, 0) != lab.masks(last)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_any_tuple_is_expanded_or_refused(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        ctx = field_create(n)
        t = tuple(data.draw(st.lists(st.sampled_from(ctx.elements()), min_size=n, max_size=n), label="t"))
        if len(basis_span(t)) < ctx.order:
            with pytest.raises(ValueError):
                QubitLabeling(ctx, t, t)
            with pytest.raises(ValueError):
                trace_dual_basis(t)
            return
        lab = QubitLabeling(ctx, t, t)
        for e in ctx.elements():
            for mask in lab.masks(Point(e, e)):
                bits = 0
                for i, b in enumerate(t):
                    bits ^= b.bits if mask >> i & 1 else 0
                assert bits == e.bits
        dual = trace_dual_basis(t)
        assert [[(a * f).trace() for f in dual] for a in t] == np.eye(n, dtype=int).tolist()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_default_masks_are_the_basis_coefficients(self, n):
        ctx = field_create(n)
        lab = default_labeling(ctx)
        q_span, p_span = basis_span(lab.q_basis), basis_span(lab.p_basis)
        for e in ctx.elements():
            expected = [sum(c << i for i, c in enumerate(span[e.bits])) for span in (q_span, p_span)]
            assert list(lab.masks(Point(e, e))) == expected, e

    def test_dependent_basis_rejected(self):
        ctx = field_create(2)
        with pytest.raises(ValueError):
            QubitLabeling(ctx, (ctx.one, ctx.one), (ctx.one, ctx.omega))


def basis_span(basis):
    """{bits: Z2 coefficients} of the span of basis, found by trying all
    2^n combinations; the first combination reaching an element is kept."""
    span = {}
    for coeffs in itertools.product((0, 1), repeat=len(basis)):
        bits = 0
        for c, b in zip(coeffs, basis):
            bits ^= b.bits if c else 0
        span.setdefault(bits, coeffs)
    return span


def kron_translation(v, lab):
    """Reference U_v: the n-fold np.kron of I / X / Z / XZ factors, one per
    tensor slot; the coefficient of basis element i drives slot n-1-i."""
    n = lab.n
    x_by_slot = basis_span(lab.q_basis)[v.q.bits][::-1]
    z_by_slot = basis_span(lab.p_basis)[v.p.bits][::-1]
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


# Coordinates of two-qubit groups (A, B, AB): the pivots come first.
COORD2 = [1, 2, 3]
NOT_CLOSED = r"^stabilizer masks are not closed under products: string 2 of group 0 is not the product of its pivots$"


def one_group(x, z):
    """stabilizer_eigenbases on a batch of one group."""
    vectors, exponents = stabilizer_eigenbases([x], [z], 4, COORD2)
    return vectors[0], exponents[0]


def ray_masks(n):
    """Stabilizer masks of every striation and the coordinates of the ray points."""
    lab = trace_dual_labeling(field_create(n))
    coord = [e.bits for e in lab.ctx.elements()[1:]]
    return (*lab.point_masks(striation_rays(lab.ctx)[:, 1:]), coord)


class TestStabilizerEigenbasis:
    def test_bell_basis_from_zz_xx(self):
        # ZZ, XX and their product XZ.XZ = -YY: the four Bell states
        x, z = [0b00, 0b11, 0b11], [0b11, 0b00, 0b11]
        vectors, exponents = one_group(x, z)
        dense = joint_eigenprojectors([pauli_string(a, b, 2) for a, b in zip(x, z)])
        match, dev = projector_matching(vectors, dense)
        assert dev <= 1e-15 and sorted(match.tolist()) == [0, 1, 2, 3]
        bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
        assert np.max(np.abs(vectors - bell)) <= 1e-15
        assert exponents.tolist() == [[0, 0, 0], [0, 2, 2], [2, 0, 2], [2, 2, 0]]

    def test_eigenvalue_exponents_of_anti_hermitian_strings(self):
        # XZ.I, I.Z and their product XZ.Z; XZ = -iY has eigenvalues +-i
        x, z = [0b10, 0b00, 0b10], [0b10, 0b01, 0b11]
        vectors, exponents = one_group(x, z)
        assert sorted(exponents[:, 0].tolist()) == [1, 1, 3, 3]
        for i, (a, b) in enumerate(zip(x, z)):
            u = pauli_string(a, b, 2)
            lam = np.array([1, 1j, -1, -1j])[exponents[:, i]]
            assert np.max(np.abs(vectors @ u.T - lam[:, None] * vectors)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_batch_gives_each_group_its_own_rows(self, n):
        x, z, coord = ray_masks(n)
        vectors, exponents = stabilizer_eigenbases(x, z, 1 << n, coord)
        for g in range(len(x)):
            alone = stabilizer_eigenbases(x[g : g + 1], z[g : g + 1], 1 << n, coord)
            assert alone[0].tobytes() == vectors[g].tobytes(), g
            assert alone[1].tobytes() == exponents[g].tobytes(), g

    def test_first_odd_pair_raises_like_the_dense_check(self):
        x, z = [0b00, 0b11, 0b00], [0b11, 0b00, 0b10]  # ZZ, XX, ZI: only (1, 2) anticommutes
        masks = list(zip(x, z))
        expected = first_noncommuting_pair([pauli_string(a, b, 2) for a, b in masks])
        # Bell stabilizers first, which commute; IX, IZ, IY last, which do not either
        xs, zs = [[0b00, 0b11, 0b11], x, [0b01, 0, 0b01]], [[0b11, 0b00, 0b11], z, [0, 0b01, 0b01]]
        with pytest.raises(NonCommutingError) as err:
            stabilizer_eigenbases(xs, zs, 4, COORD2)
        assert err.value.pair == expected.pair == (1, 2)
        assert err.value.group == 1
        assert str(err.value) == str(expected)

    def test_wrong_number_of_strings_rejected(self):
        with pytest.raises(ValueError, match=r"^need 3 stabilizer masks for dimension 4, got 1$"):
            stabilizer_eigenbases([[0b11]], [[0b00]], 4, [1])

    @pytest.mark.parametrize("coord", [[1, 2], [1, 2, 2], [0, 1, 2], [1, 2, 4]])
    def test_coordinates_must_permute_the_nonzero_vectors(self, coord):
        with pytest.raises(ValueError, match=r"^coordinates must be a permutation of 1\.\.3$"):
            stabilizer_eigenbases([[0, 0, 0]], [[0b10, 0b01, 0b11]], 4, coord)

    def test_dependent_strings_rejected(self):
        # IZ three times: the pivots' product is I, not IZ
        with pytest.raises(ValueError, match=NOT_CLOSED):
            stabilizer_eigenbases([[0, 0, 0]], [[0b01, 0b01, 0b01]], 4, COORD2)

    def test_repeated_strings_are_not_a_group(self):
        # ZI, IZ and IZ again: two generators, but ZZ is missing
        with pytest.raises(ValueError, match=NOT_CLOSED):
            stabilizer_eigenbases([[0, 0, 0]], [[0b10, 0b01, 0b01]], 4, COORD2)

    @pytest.mark.parametrize("p", [(0, 0b01), (0b10, 0), (0b11, 0b11)])
    def test_dependent_pivots_rejected(self, p):
        # (P, P, I): every string is its pivots' product, but only one generator
        x, z = [p[0], p[0], 0], [p[1], p[1], 0]
        with pytest.raises(ValueError, match=r"^stabilizer masks span fewer than 2 generators$"):
            stabilizer_eigenbases([x], [z], 4, COORD2)


def maximal_two_qubit_groups():
    """Every maximal commuting group of two-qubit strings as masks (A, B,
    AB): 15 groups, of X-rank 0, 1 and 2."""
    strings = [(x, z) for x in range(4) for z in range(4)]
    groups = {}
    for (ax, az), (bx, bz) in itertools.combinations(strings[1:], 2):
        key = frozenset([(ax, az), (bx, bz), (ax ^ bx, az ^ bz)])
        if not symplectic_parity(ax, az, bx, bz) and key not in groups:
            groups[key] = ([ax, bx, ax ^ bx], [az, bz, az ^ bz])
    return list(groups.values())


def x_rank(x):
    """Rank of the x masks of a group of two-qubit strings."""
    return len({0, *x}).bit_length() - 1


TWO_QUBIT_GROUPS = maximal_two_qubit_groups()


class TestVectorLookup:
    def test_the_groups_cover_every_x_rank(self):
        assert len(TWO_QUBIT_GROUPS) == 15
        assert sorted({x_rank(x) for x, _ in TWO_QUBIT_GROUPS}) == [0, 1, 2]

    @pytest.mark.parametrize(
        "x,z", TWO_QUBIT_GROUPS, ids=[f"group{g}-xrank{x_rank(x)}" for g, (x, _) in enumerate(TWO_QUBIT_GROUPS)]
    )
    def test_every_two_qubit_group_matches_the_dense_projectors(self, x, z):
        vectors, exponents = one_group(x, z)
        ops = [pauli_string(a, b, 2) for a, b in zip(x, z)]
        match, dev = projector_matching(vectors, joint_eigenprojectors(ops))
        assert dev <= 1e-12 and sorted(match.tolist()) == [0, 1, 2, 3]
        for i, u in enumerate(ops):
            lam = np.array([1, 1j, -1, -1j])[exponents[:, i]]
            assert np.max(np.abs(vectors @ u.T - lam[:, None] * vectors)) <= 1e-15
        lead = vectors[np.arange(4), (vectors != 0).argmax(axis=-1)]
        assert np.all(lead.imag == 0) and np.all(lead.real > 0)
        assert np.count_nonzero(vectors, axis=-1).tolist() == [1 << x_rank(x)] * 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_single_corruption_of_a_basis_fails_the_eigenvalue_check(self, n):
        # at n = 1 a row is one exponent, and a step of 2 names the other
        # eigenvector: the eigenvalues read off the vectors still tell
        system = build_system(n)
        assert check_eigenvector_residuals(system).passed
        for s, basis in enumerate(system.bases):
            for (k, i), step in itertools.product(np.ndindex(basis.exponents.shape), (1, 2, 3)):
                exponents = basis.exponents.copy()
                exponents[k, i] = (exponents[k, i] + step) % 4
                bases = system.bases[:s] + (dataclasses.replace(basis, exponents=exponents),) + system.bases[s + 1 :]
                result = check_eigenvector_residuals(dataclasses.replace(system, bases=bases))
                assert not result.passed
                assert result.detail.startswith(f"striation {s}: vector {k} has eigenvalue ")
                assert result.detail.endswith(f" on stabilizer {i}, not i^{exponents[k, i]}")


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
