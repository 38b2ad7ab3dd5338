import dataclasses
import hashlib

import numpy as np
import pytest

from qphase.fields import field_create
from qphase.geometry import enumerate_striations
from qphase.mub import (
    LabelingError,
    StriationBasis,
    _stabilizer_bases,
    check_conjugacy,
    full_mub_set,
)
from qphase.operators import (
    TranslationOperator,
    default_labeling,
    exponent_rows,
    pauli,
    same_basis_labeling,
    translation_unitary,
)
from qphase.system import build_system
from qphase.tomography import MeasurementPlan

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

    def test_vertical_is_computational(self):
        basis = full_mub_set(self.ctx, self.lab)[0]
        assert projector_match([1, 0], basis.vectors) < 1e-12
        assert projector_match([0, 1], basis.vectors) < 1e-12

    def test_horizontal_is_x_eigenbasis(self):
        basis = full_mub_set(self.ctx, self.lab)[1]
        s = 1 / np.sqrt(2)
        assert projector_match([s, s], basis.vectors) < 1e-12
        assert projector_match([s, -s], basis.vectors) < 1e-12

    def test_diagonal_is_y_eigenbasis(self):
        # the diagonal striation is fixed by the combined translation, whose
        # unitary is proportional to sigma_y
        basis = full_mub_set(self.ctx, self.lab)[2]
        s = 1 / np.sqrt(2)
        assert projector_match([s, 1j * s], basis.vectors) < 1e-12
        assert projector_match([s, -1j * s], basis.vectors) < 1e-12

    def test_three_bases(self):
        assert len(full_mub_set(self.ctx)) == 3


class TestTwoQubitBases:
    def test_striation3_matches_displayed_vectors(self):
        # joint eigenbasis of the slope-w striation's stabilizers
        ctx = field_create(2)
        basis = full_mub_set(ctx, default_labeling(ctx))[3]
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
            basis = full_mub_set(ctx, default_labeling(ctx))[0]
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
        lab = default_labeling(ctx)
        for k in range(ctx.order + 1):
            b1 = full_mub_set(ctx, lab)[k]
            b2 = full_mub_set(ctx, lab)[k]
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
                [translation_unitary(v, lab).unitary for v in s.lines[0].points[1:]]
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


class TestOneIntegerStack:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bases_read_their_arrays_off_the_net_frame(self, n):
        system = build_system(n)
        dim, frame = system.dim, system.net.sign_frame
        assert system.bases is system.net.bases
        for s, basis in enumerate(system.bases):
            assert basis.exponents.shape == (dim, dim - 1) and basis.masks.shape == (2, dim - 1)
            assert np.array_equal(basis.exponents, exponent_rows(frame.row0[s], frame.flips[s]))
            assert np.array_equal(basis.masks, [frame.x[s], frame.z[s]])
            assert not basis.exponents.flags.writeable and not basis.masks.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_basis_holds_its_own_read_only_vectors(self, n):
        system = build_system(n)
        vectors = [basis.vectors for basis in system.bases]
        for basis, v in zip(system.bases, vectors):
            assert basis.vectors is v  # computed once
            assert v.shape == (system.dim, system.dim) and v.base is None and not v.flags.writeable


class TestSignFlips:
    """Row k of each basis's exponents is row 0 with sign i flipped where
    popcount(k & flips[i]) is odd; tomography's transforms rest on it."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_are_row_zero_flipped_by_outcome_bits(self, n):
        system = build_system(n)
        dim = system.dim
        parity = np.array([bin(v).count("1") & 1 for v in range(dim)])
        rows = np.stack([b.exponents for b in system.bases]).astype(int)
        flips = np.stack([b.flips for b in system.bases])
        outcomes = np.arange(dim)[None, :, None]
        assert np.array_equal(rows, (rows[:, :1] + 2 * parity[outcomes & flips[:, None]]) % 4)
        assert (np.sort(flips, axis=-1) == np.arange(1, dim)).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_single_entry_corruption_is_refused(self, n):
        bases = build_system(n).bases
        for s, basis in enumerate(bases):
            for k, i in np.ndindex(basis.exponents.shape):
                for step in (1, 2):
                    rows = basis.exponents.copy()
                    rows[k, i] = (rows[k, i] + step) % 4
                    bad = bases[:s] + (dataclasses.replace(basis, exponents=rows),) + bases[s + 1 :]
                    with pytest.raises(ValueError, match=f"exponent rows of striation {s} "):
                        MeasurementPlan(bases=bad, shots_per_basis=0, seed=0)


class TestMixedDimension:
    def test_mixed_dims_rejected(self):
        b2 = StriationBasis(0, np.eye(2, dtype=complex), ())
        b4 = StriationBasis(1, np.eye(4, dtype=complex), ())
        with pytest.raises(ValueError):
            check_conjugacy([b2, b4])

    def test_no_bases_rejected(self):
        with pytest.raises(ValueError, match="no bases to check"):
            check_conjugacy([])


def _digest(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


# sha256 of the stacked basis vectors (<c16), the stacked exponents (<i1),
# the net's line-to-vector array and its outcome table (both <i8).
BUILD_DIGESTS = {
    1: (
        "fe584e1355fc93325b6b82e12a3f93913912d5c6baaad0b6a427555ce8ee3970",
        "4fd3585a8c0af2ce330c746dd6959b60b1db698c6bdc6a99bd62e4c2218b5add",
        "08a3eabe03ccd84d534cfe5aabb8158407ab007f600462499eb238931ec3febe",
        "1ef4b767ae4f84f04a8c78c4ac065d41e88b7f88c223eced76d20d3a2d88d385",
    ),
    2: (
        "b1dff2c72213d4320f20b3fc1d2c5e251b20260f98b6587e5713aa13b17ea0dd",
        "dbc35af5a6b65ad8bb1b173d8178f02e0e12a74272f4cd525c828af219fab141",
        "906b504421664da35aabd67defc5f26e49afb1acd78f1d74f268bcb64fbf53ad",
        "7f1242f5707037508485efcd709aab0344d6e89cfe73e8269a7d2af7cad9a378",
    ),
    3: (
        "5764f9902845f09b41b866ca8558f86a22967a4b9af95eb4c5234fc3c872ba6f",
        "bd39671c425b233fe36def8aa521f880340f11dd84c331c824db7a0dfce1e988",
        "b20bf5c863fea3185e80971661a57e1e8ceb5697c3a7ec91f367c893c932682f",
        "b2753017a6dd26e986554c95e5bf9d7607c45b047d9bfca48ed0854efe246659",
    ),
    4: (
        "c3a52bfd90ac94f8b917d46cde77622c24b9b5f5a4a0412e9382e2860b5d712f",
        "d7948ff0b6fb8607a153984c95e61ae4e66e1167f5f5f8dcf49bdfa3185c4f93",
        "b26c0d01a3c779485f775fc4a2782e3a7269389a2b8549c588582f5f17625346",
        "c295b388a389b658de7556d49e77181940fecca423836e6e603daaf69684642c",
    ),
    5: (
        "c8d71dc6a95148d1f0fb39c2e7209806e06ea8b9786d5858f0875ae376d0d7a7",
        "719184e836273f4f4cb4c290baafda5fc186b84bdd733570ef2e51103587ddd0",
        "22d47b366da109d5fd9a0f8258d14a596bf303317d6c9903b9e5089b057189d1",
        "a1df90f71c06b4044652faf532ec6aece946cee3f90353225dd46b0c3af3a268",
    ),
    6: (
        "84ae389252540f8fa32ecf732abc73e7ecda5e4936b116c903413113780a9e2e",
        "e2480cfe3bdd33ccdbd95c2fadb8a5a7918a6cb8236677c678b717f0b3faa6ff",
        "a00452d2068cd3952abd945666e335e96851d4fa2958520703655e291f36e13d",
        "cf4bd71855084a601e575a9a8a6b57fccd8f6ea9f8512479991b247cd1ac5daf",
    ),
    7: (
        "f7f6202cd0cfca678e4371a97e92990ccec771cb814319761182c1db47064c47",
        "db5bddfb0f3aa075c2b4b9f4894d5c1f6a5176319f570f88315a75da4378a0de",
        "24d7883bf042db44acd9b8b23a3612ea2af31069d5949af4249b7f79c9f8724c",
        "5d284c4f03199b98765fe1b9cd5212cf34f10edcdfe121aa2f1fae4bbde06bd9",
    ),
}


# sha256 of the n = 8 integer pass under the default labeling: exponents
# (<i1), then flips (<i8).
INTEGER_PASS_DIGESTS_8 = (
    "574c409285b08586bb7a6afcc1aebeb58ac95e4cd3b771af5ec07e5166ba00a4",
    "48861b829780a0dc9d68d5c242e13fbbe28096b455b25cb4963cdc44eaaeef2b",
)


# sha256 of the n = 8 basis vectors (<c16), basis by basis in striation order.
VECTOR_DIGEST_8 = "fed5d2d0e5013bb4d746c4d6e29d06ccdf0cd85f72746395edbe0a60fb76bced"


class TestBuildPinnedByBytes:
    @pytest.mark.parametrize("n", sorted(BUILD_DIGESTS))
    def test_bases_and_net_bytes(self, n):
        system = build_system(n)
        got = (
            _digest(np.stack([b.vectors for b in system.bases]), "<c16"),
            _digest(np.stack([b.exponents for b in system.bases]), "<i1"),
            _digest(system.net._line_vector, "<i8"),
            _digest(system.net.outcome_index_table(), "<i8"),
        )
        assert got == BUILD_DIGESTS[n]

    def test_integer_pass_bytes_at_n8(self):
        frame = _stabilizer_bases(default_labeling(field_create(8)))
        exponents = np.stack([exponent_rows(row0, flips) for row0, flips in zip(frame.row0, frame.flips)])
        got = (_digest(exponents, "<i1"), _digest(frame.flips, "<i8"))
        assert got == INTEGER_PASS_DIGESTS_8

    def test_vector_bytes_at_n8(self):
        # one basis at a time, each dropped with its vectors once hashed
        bases, digest = full_mub_set(field_create(8))[::-1], hashlib.sha256()
        while bases:
            digest.update(np.ascontiguousarray(bases.pop().vectors, dtype="<c16").tobytes())
        assert digest.hexdigest() == VECTOR_DIGEST_8
