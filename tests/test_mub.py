import numpy as np
import pytest

from qphase.fields import field_create
from qphase.geometry import enumerate_striations
from qphase.mub import (
    LabelingError,
    StriationBasis,
    basis_for_striation,
    bell_reference_basis,
    check_conjugacy,
    full_mub_set,
)
from qphase.operators import (
    TranslationOperator,
    default_labeling,
    pauli,
    same_basis_labeling,
    translation_unitary,
)
from qphase.system import build_system

from dense_reference import first_noncommuting_pair, joint_eigenprojectors, projector_matching

X, Y, Z = pauli("X"), pauli("Y"), pauli("Z")


def projector_match(vector, basis_vectors, tol=1e-9):
    """Distance from the vector's projector to the closest basis projector."""
    vector = np.asarray(vector, dtype=complex)
    p = np.outer(vector, vector.conj())
    return min(float(np.max(np.abs(p - np.outer(v, v.conj())))) for v in basis_vectors)


class TestSingleQubitBases:
    def setup_method(self):
        self.ctx = field_create(1)
        self.lab = default_labeling(self.ctx)
        self.striations = enumerate_striations(self.ctx)

    def test_vertical_is_computational(self):
        basis = basis_for_striation(self.striations[0], self.lab)
        assert projector_match([1, 0], basis.vectors) < 1e-12
        assert projector_match([0, 1], basis.vectors) < 1e-12

    def test_horizontal_is_x_eigenbasis(self):
        basis = basis_for_striation(self.striations[1], self.lab)
        s = 1 / np.sqrt(2)
        assert projector_match([s, s], basis.vectors) < 1e-12
        assert projector_match([s, -s], basis.vectors) < 1e-12

    def test_diagonal_is_y_eigenbasis(self):
        # the diagonal striation is fixed by the combined translation, whose
        # unitary is proportional to sigma_y
        basis = basis_for_striation(self.striations[2], self.lab)
        s = 1 / np.sqrt(2)
        assert projector_match([s, 1j * s], basis.vectors) < 1e-12
        assert projector_match([s, -1j * s], basis.vectors) < 1e-12

    def test_three_bases(self):
        assert len(full_mub_set(self.ctx)) == 3


class TestTwoQubitBases:
    def test_striation3_matches_displayed_vectors(self):
        # joint eigenbasis of the slope-w striation's stabilizers
        ctx = field_create(2)
        striations = enumerate_striations(ctx)
        basis = basis_for_striation(striations[3], default_labeling(ctx))
        reference = np.array(
            [
                [1, 1, 1j, -1j],
                [1, 1, -1j, 1j],
                [1, -1, 1j, 1j],
                [1, -1, -1j, -1j],
            ],
            dtype=complex,
        ) / 2
        for ref in reference:
            assert projector_match(ref, basis.vectors) < 1e-9

    def test_five_bases(self):
        assert len(full_mub_set(field_create(2))) == 5

    def test_vertical_basis_is_computational_any_n(self):
        for n in (1, 2, 3):
            ctx = field_create(n)
            basis = basis_for_striation(enumerate_striations(ctx)[0], default_labeling(ctx))
            eye = np.eye(ctx.order, dtype=complex)
            for col in eye:
                assert projector_match(col, basis.vectors) < 1e-12


class TestConjugacy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_set_conjugate(self, n):
        bases = full_mub_set(field_create(n))
        report = check_conjugacy(bases)
        assert report.all_conjugate
        assert report.worst_deviation < 1e-9

    def test_z_vs_x_overlap(self):
        zb = StriationBasis(0, np.eye(2, dtype=complex), ())
        s = 1 / np.sqrt(2)
        xb = StriationBasis(1, np.array([[s, s], [s, -s]], dtype=complex), ())
        report = check_conjugacy([zb, xb])
        lo, hi = report.pair_overlaps[(0, 1)]
        assert lo == pytest.approx(s)
        assert hi == pytest.approx(s)
        assert report.all_conjugate

    def test_basis_against_itself_fails_conjugacy(self):
        zb = StriationBasis(0, np.eye(2, dtype=complex), ())
        report = check_conjugacy([zb, zb])
        lo, hi = report.pair_overlaps[(0, 1)]
        assert (lo, hi) == (0.0, 1.0)  # identity overlap pattern
        assert not report.all_conjugate

    def test_report_carries_orthonormality(self):
        skewed = StriationBasis(0, np.array([[1, 0], [1, 0]], dtype=complex), ())
        report = check_conjugacy([skewed, skewed])
        assert report.orthonormality_dev[0] > 0.5
        assert not report.all_conjugate


class TestUniqueness:
    def test_permuted_stabilizers_same_subspaces(self):
        ctx = field_create(2)
        striations = enumerate_striations(ctx)
        lab = default_labeling(ctx)
        for s in striations:
            b1 = basis_for_striation(s, lab)
            b2 = basis_for_striation(s, lab)
            assert np.array_equal(b1.vectors, b2.vectors)
            for v in b1.vectors:
                assert projector_match(v, b1.vectors) < 1e-12

    def test_stabilizer_count(self):
        for n in (1, 2, 3):
            ctx = field_create(n)
            for basis in full_mub_set(ctx):
                assert len(basis.stabilizers) == ctx.order - 1


class TestLabelingFallback:
    def test_same_basis_fails_at_n3(self):
        ctx = field_create(3)
        lab = same_basis_labeling(ctx)
        with pytest.raises(LabelingError) as err:
            full_mub_set(ctx, lab)
        assert isinstance(err.value.striation, int)

    def test_default_path_succeeds_at_n3(self):
        bases = full_mub_set(field_create(3))
        assert len(bases) == 9
        assert check_conjugacy(bases).all_conjugate

    @pytest.mark.parametrize("n", [3, 4])
    def test_same_basis_error_text_matches_dense_check(self, n):
        ctx = field_create(n)
        lab = same_basis_labeling(ctx)
        with pytest.raises(LabelingError) as err:
            full_mub_set(ctx, lab)
        for s in enumerate_striations(ctx):
            exc = first_noncommuting_pair(
                [translation_unitary(v, lab).unitary for v in s.stabilizer_vectors]
            )
            if exc is not None:
                expected = str(LabelingError(s.direction, exc))
                break
        assert str(err.value) == expected
        assert expected.endswith("(pair (0, 1), deviation 2.000e+00)")


I4 = np.array([1, 1j, -1, -1j])


class TestAgainstDenseEigenbasis:
    """The bases from Pauli generators against a dense eigh of their stabilizers."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_projectors_match_dense_eigenprojectors_one_to_one(self, n):
        for basis in full_mub_set(field_create(n)):
            dense = joint_eigenprojectors([op.unitary for op in basis.stabilizers])
            match, dev = projector_matching(basis.vectors, dense)
            assert dev <= 1e-12, (basis.striation, dev)
            assert sorted(match.tolist()) == list(range(basis.dim)), basis.striation

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_ascend_in_eigenvalue_angles(self, n):
        for basis in full_mub_set(field_create(n)):
            u = np.array([op.unitary for op in basis.stabilizers])
            lam = np.einsum("kj,ijl,kl->ki", basis.vectors.conj(), u, basis.vectors)
            quarter_turns = np.rint(np.angle(lam) / (np.pi / 2)).astype(int) % 4
            assert np.max(np.abs(lam - I4[quarter_turns])) <= 1e-12, basis.striation
            angles = [tuple(row) for row in quarter_turns.tolist()]
            assert angles == sorted(set(angles)), basis.striation

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_first_largest_entry_real_positive(self, n):
        for basis in full_mub_set(field_create(n)):
            for v in basis.vectors:
                mags = np.abs(v)
                lead = v[np.flatnonzero(mags >= mags.max() - 1e-12)[0]]
                assert lead.real > 0 and abs(lead.imag) <= 1e-15, basis.striation

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_vector_has_its_integer_eigenvalue(self, n):
        for basis in full_mub_set(field_create(n)):
            assert basis.exponents.shape == (basis.dim, basis.dim - 1)
            for i, op in enumerate(basis.stabilizers):
                lam = I4[basis.exponents[:, i]]
                residual = basis.vectors @ op.unitary.T - lam[:, None] * basis.vectors
                assert np.max(np.abs(residual)) <= 1e-12, (basis.striation, i)


class TestBuildWithoutDenseAlgebra:
    def test_no_eig_and_no_dense_stabilizer_on_the_build(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra on the build")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(TranslationOperator, "unitary", property(refuse))
        build_system.cache_clear()
        try:
            for n in range(1, 6):
                system = build_system(n)
                system.net.outcome_index_table()
                assert len(system.bases) == system.dim + 1
        finally:
            build_system.cache_clear()


class TestBellReference:
    def test_first_vector(self):
        b = bell_reference_basis()
        assert np.allclose(b[0], np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_orthonormal(self):
        b = bell_reference_basis()
        assert np.max(np.abs(b.conj() @ b.T - np.eye(4))) < 1e-12

    def test_not_conjugate_to_computational(self):
        # overlaps with the computational basis are 1/sqrt(2) or 0 -- the Bell
        # measurement itself is not conjugate to ZZ, which is why the two
        # entangled striation bases differ from it
        b = bell_reference_basis()
        overlaps = np.abs(b.conj() @ np.eye(4).T)
        s = 1 / np.sqrt(2)
        assert set(np.round(overlaps.reshape(-1), 12)) == {0.0, round(s, 12)}


class TestMixedDimension:
    def test_mixed_dims_rejected(self):
        b2 = StriationBasis(0, np.eye(2, dtype=complex), ())
        b4 = StriationBasis(1, np.eye(4, dtype=complex), ())
        with pytest.raises(ValueError):
            check_conjugacy([b2, b4])
