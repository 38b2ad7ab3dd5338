"""The build's integer pass: pivot-ordered exponent rows, each basis's vectors
and the striations' point array built only when read, and the memory a
build takes without them."""

import collections
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qphase.mub
from qphase import cli
from qphase.fields import field_create
from qphase.geometry import striation_points
from qphase.mub import _sign_frame
from qphase.operators import (
    default_labeling,
    same_basis_labeling,
    symplectic_parity,
    trace_dual_labeling,
)
from qphase.states import random_density_matrix
from qphase.system import build_system
from qphase.tomography import MeasurementPlan, estimate_state, simulate_counts
from qphase.wigner import state_from_wigner, wigner_from_state

from dense_reference import joint_eigenprojectors
from eigenbases import stabilizer_eigenbases


_PAULI_FACTORS = {(0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]), (0, 1): np.diag([1, -1])}
_PAULI_FACTORS[1, 1] = _PAULI_FACTORS[1, 0] @ _PAULI_FACTORS[0, 1]


def pauli_strings(x, z, n):
    """Dense X^x Z^z as kron products, slot 0 on the most significant bit."""
    out = []
    for a, b in zip(x, z):
        u = np.ones((1, 1), dtype=complex)
        for slot in range(n - 1, -1, -1):
            u = np.kron(u, _PAULI_FACTORS[a >> slot & 1, b >> slot & 1])
        out.append(u)
    return np.array(out)


def reference_exponents(x, z, tx, tz, n):
    """Exponent rows of every group as the sorted translates of one joint
    eigenvector's row: its row is read off a dense eigenvector, each
    translation flips it by 2 where it anticommutes, and the N rows are
    sorted lexicographically."""
    out = []
    for g in range(len(x)):
        u = pauli_strings(x[g], z[g], n)
        p = joint_eigenprojectors(list(u))[0]
        v = p[:, np.argmax(np.abs(np.diag(p)))]
        v = v / np.linalg.norm(v)
        seed = np.rint(np.angle(np.einsum("i,gij,j->g", v.conj(), u, v)) / (np.pi / 2)).astype(int) % 4
        rows = (seed + 2 * symplectic_parity(tx[g, :, None], tz[g, :, None], x[g], z[g])) % 4
        out.append(rows[np.lexsort(rows.T[::-1])])
    return np.array(out, dtype=np.int8)


def labeling_of(kind, ctx):
    """The default, trace-dual or same-basis labeling, or the default with
    its tensor slots reversed."""
    if kind == "trace-dual":
        return trace_dual_labeling(ctx)
    if kind == "same-basis":
        return same_basis_labeling(ctx)
    lab = default_labeling(ctx)
    if kind == "slot-swapped":
        return dataclasses.replace(lab, q_basis=lab.q_basis[::-1], p_basis=lab.p_basis[::-1])
    return lab


class TestPivotOrder:
    @settings(max_examples=30)
    @given(
        n=st.integers(1, 5),
        kind=st.sampled_from(["default", "trace-dual", "slot-swapped", "same-basis"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exponents_equal_sorted_translated_rows(self, n, kind, seed):
        # Every ray in the field's order, under each labeling whose stabilizers
        # commute (same-basis only for n <= 2); the dense reference translates
        # its eigenvector along any other ray of each group.
        assume(kind != "same-basis" or n <= 2)
        rng = np.random.default_rng(seed)
        lab = labeling_of(kind, field_create(n))
        rays = striation_points(lab.ctx)[:, 0]
        groups, dim = len(rays), lab.dim
        x, z = lab.point_masks(rays[:, 1:])
        transverse = (np.arange(groups) + 1 + rng.integers(0, groups - 1, groups)) % groups
        tx, tz = lab.point_masks(rays[transverse])
        coord = [e.bits for e in lab.ctx.elements()[1:]]
        vectors, exponents = stabilizer_eigenbases(x, z, dim, coord)
        assert np.array_equal(exponents, reference_exponents(x, z, tx, tz, n))
        u = np.stack([pauli_strings(x[g], z[g], n) for g in range(groups)])
        lam = np.array([1, 1j, -1, -1j])[exponents]
        moved = np.einsum("giab,gkb->gkia", u, vectors)
        assert np.max(np.abs(moved - lam[..., None] * vectors[:, :, None])) < 1e-12


@pytest.fixture
def vector_reads(monkeypatch):
    """The (x, z) masks of every basis whose vectors are computed, starting
    from a cold cache."""
    calls = []
    real = qphase.mub.stabilizer_vectors

    def counted(x, z, row0, flips):
        calls.append(masks_key(x, z))
        return real(x, z, row0, flips)

    monkeypatch.setattr(qphase.mub, "stabilizer_vectors", counted)
    build_system.cache_clear()
    yield calls
    build_system.cache_clear()


def masks_key(x, z):
    return tuple(x.tolist()), tuple(z.tolist())


def computed(bases, name="vectors"):
    """The striations of the bases holding a computed ``name`` array."""
    return [b.striation for b in bases if name in vars(b)]


def basis_state(n):
    return json.dumps([[1, 0]] + [[0, 0]] * ((1 << n) - 1))


class TestVectorsOnlyWhenRead:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_no_per_state_path_builds_vectors(self, n, vector_reads, capsys):
        sys = build_system(n)
        rho = random_density_matrix(np.random.default_rng(n), sys.dim)
        grid = wigner_from_state(rho, sys.net)
        state_from_wigner(grid, sys.net)
        counts = simulate_counts(rho, MeasurementPlan(bases=sys.bases, shots_per_basis=64, seed=1))
        estimate_state(counts, sys.net, truth=rho)
        assert vector_reads == []
        assert computed(sys.bases) == computed(sys.bases, "exponents") == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])  # the CLI's degrees
    def test_no_cli_state_command_builds_vectors(self, n, vector_reads, capsys):
        assert cli.main(["wigner", str(n), "--state", basis_state(n), "--lines"]) == 0
        build_system.cache_clear()
        assert cli.main(["tomo", str(n), "--state", basis_state(n), "--shots", "64"]) == 0
        assert vector_reads == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reading_one_basis_computes_that_basis_only(self, n, vector_reads):
        sys = build_system(n)
        for s in reversed(range(sys.dim + 1)):
            sys.bases[s].vectors
            assert vector_reads == [masks_key(*b.masks) for b in sys.bases[s:][::-1]]
            assert computed(sys.bases) == list(range(s, sys.dim + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mub_builds_them_once(self, n, vector_reads, capsys):
        assert cli.main(["mub", str(n)]) == 0
        assert vector_reads == [masks_key(*b.masks) for b in build_system(n).bases]

    def test_verify_builds_them_once_per_system(self, vector_reads, capsys):
        assert cli.main(["verify", "3"]) == 0
        every = [masks_key(*b.masks) for n in (1, 2, 3) for b in build_system(n).bases]
        assert len(set(every)) == len(every) == 3 + 5 + 9
        assert collections.Counter(vector_reads) == collections.Counter(every)

    def test_each_basis_computes_its_own_read_only_vectors_once(self, vector_reads):
        sys = build_system(3)
        vectors = [b.vectors for b in sys.bases]
        assert all(b.vectors is v and v.shape == (8, 8) and not v.flags.writeable for b, v in zip(sys.bases, vectors))
        assert not any(np.shares_memory(v, w) for v, w in itertools.combinations(vectors, 2))
        assert len(vector_reads) == 9


class TestExponentsOnlyWhenRead:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_reading_one_basis_expands_that_basis_only(self, n, cold):
        sys = build_system(n)
        assert computed(sys.bases, "exponents") == []
        for s in reversed(range(sys.dim + 1)):
            sys.bases[s].exponents
            assert computed(sys.bases, "exponents") == list(range(s, sys.dim + 1))
        assert computed(sys.bases) == []

    def test_a_stacked_frame_reads_built_rows_off_the_build(self, cold):
        sys = build_system(3)
        frame = _sign_frame(sys.bases[::-1])
        for got, ref in zip(frame, sys.net.sign_frame):
            assert np.array_equal(got, ref[::-1]) and not got.flags.writeable
        assert computed(sys.bases) == computed(sys.bases, "exponents") == []


@pytest.fixture
def cold():
    build_system.cache_clear()
    yield
    build_system.cache_clear()


def has_point_array(system):
    return "striation_points" in system.ctx._derived


class TestPointArrayOnlyWhenRead:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_reading_point_indices_builds_it(self, n, cold):
        system = build_system(n)
        assert not has_point_array(system)
        indices = system.striations[-1].point_indices
        assert has_point_array(system) and indices.shape == (system.dim, system.dim)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_outcome_table_builds_it(self, n, cold):
        system = build_system(n)
        assert not has_point_array(system)
        system.net.outcome_index_table()
        assert has_point_array(system)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])  # the CLI's degrees
    def test_wigner_lines_builds_it(self, n, cold, capsys):
        assert cli.main(["wigner", str(n), "--state", basis_state(n)]) == 0
        assert not has_point_array(build_system(n))
        assert cli.main(["wigner", str(n), "--state", basis_state(n), "--lines"]) == 0
        assert has_point_array(build_system(n))


class TestBuildMemory:
    def test_cold_n8_build_stays_below_twice_the_exponent_table(self, cold):
        tracemalloc.start()
        try:
            sys = build_system(8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (sys.dim + 1) * sys.dim * (sys.dim - 1), peak  # 32 MiB

    def test_cold_n7_build_stays_below_the_point_array(self, cold):
        tracemalloc.start()
        try:
            sys = build_system(7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not has_point_array(sys)
        assert peak < 8 * (sys.dim + 1) * sys.dim**2, peak  # 16.9 MB

    def test_cold_n7_build_stays_below_the_vector_stack(self):
        build_system.cache_clear()
        tracemalloc.start()
        try:
            sys = build_system(7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            assert computed(sys.bases) == []
            assert peak < 16 * (sys.dim + 1) * sys.dim**2, peak  # 33.8 MB
        finally:
            build_system.cache_clear()
