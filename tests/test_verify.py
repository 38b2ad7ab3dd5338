import copy
import dataclasses
import gc
import subprocess
import sys
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import pytest

from qphase import verify
from qphase.fields import FieldContext
from qphase.geometry import Line, Striation, grid_points, line_from_equation
from qphase.mub import check_conjugacy
from qphase.operators import same_basis_labeling, translation_unitary
from qphase.system import build_system
from qphase.verify import (
    ALL_CHECKS,
    CheckResult,
    check_a_covariance,
    check_a_structure,
    check_affine_axioms,
    check_basis_uniqueness,
    check_eigenvector_residuals,
    check_field_axioms,
    check_grid_covariance,
    check_line_sums,
    check_mub,
    check_projective_closure,
    check_stabilizer_group,
    check_translation_geometry,
    check_translation_homomorphism,
    check_unitarity,
    run_checks,
)
from qphase.wigner import QuantumNet, default_net


def test_all_checks_pass_for_n_up_to_4():
    results = run_checks(4)
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) == 4 * len(ALL_CHECKS) == 96


def test_names_carry_degree_prefix():
    results = run_checks(1)
    assert all(r.name.startswith("n=1: ") for r in results)


def test_run_checks_keeps_no_system_alive():
    # run_checks holds no reference to a system once it returns
    build_system.cache_clear()
    try:
        run_checks(3)
        ref = weakref.ref(build_system(3))
        build_system.cache_clear()
        gc.collect()
        assert ref() is None
    finally:
        build_system.cache_clear()


def test_a_check_called_alone_keeps_no_system_alive():
    # a check keeps no cache that holds its system
    build_system.cache_clear()
    try:
        sys_ = build_system(3)
        assert check_unitarity(sys_).passed
        ref = weakref.ref(sys_)
        del sys_
        build_system.cache_clear()
        gc.collect()
        assert ref() is None
    finally:
        build_system.cache_clear()


def test_rejects_zero():
    with pytest.raises(ValueError):
        run_checks(0)


def test_module_entry_point_runs_verify():
    out = subprocess.run(
        [sys.executable, "-m", "qphase", "verify", "1"], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "24/24 checks passed" in out.stdout


# -- corrupted systems: each check reports the fault, none raises -------------


def with_rows(sys_, s, rows):
    """Striation s reads the (N, N) index rows given in place of its row of
    striation_points; its lines are made from them."""

    class Replaced(Striation):
        point_indices = rows

    striations = list(sys_.striations)
    striations[s] = Replaced(sys_.ctx, s)
    return dataclasses.replace(sys_, striations=tuple(striations))


def swapped_points(sys_, s=2, m=0):
    """Point m of lines 1 and 2 of striation s trade places; the striation
    still partitions the grid, but the lines are no longer lines."""
    rows = sys_.striations[s].point_indices.copy()
    rows[[1, 2], m] = rows[[2, 1], m]
    return with_rows(sys_, s, rows)


def swapped_lines(sys_, s=2):
    """Lines 1 and 2 of striation s trade places: still an affine plane, but
    line 1 no longer solves its equation."""
    order = [0, 2, 1, *range(3, sys_.dim)]
    return with_rows(sys_, s, sys_.striations[s].point_indices[order])


def corrupted_masks(sys_):
    """The labeling (and the bases' stabilizers built on it) sends the q
    coordinate with coefficient bits 0b011 (w2 at n = 2, w3 at n = 3) to no
    sigma_x at all."""
    labeling = copy.copy(sys_.labeling)
    masks = list(labeling._x_masks)
    masks[sys_.ctx.element(0b011).index] = 0
    object.__setattr__(labeling, "_x_masks", tuple(masks))
    bases = tuple(
        dataclasses.replace(
            b, stabilizers=tuple(translation_unitary(op.vector, labeling) for op in b.stabilizers)
        )
        for b in sys_.bases
    )
    return dataclasses.replace(sys_, labeling=labeling, bases=bases)


def misassigned_line(sys_):
    """The net's projector for one line of striation 1 reads a vector of
    the basis of striation 0, while the index arrays that the Wigner map
    reads stay as built."""
    line = sys_.striations[1].lines[1]
    net = sys_.net

    class Misassigned(QuantumNet):
        @property
        def striation_of(self):
            return {**net.striation_of, line: 0}

    kept = {f.name: getattr(net, f.name) for f in dataclasses.fields(net)}
    return dataclasses.replace(sys_, net=Misassigned(**kept))


def mixed_basis(sys_, angle=np.pi / 4, b=2):
    """Vectors 0 and 1 of basis b become cos(t) v0 + sin(t) v1 and
    sin(t) v0 - cos(t) v1, (v0 +- v1)/sqrt(2) at the default angle: still an
    orthonormal basis, but no longer one of joint eigenvectors."""
    c, s = np.cos(angle), np.sin(angle)

    def mix(vectors):
        vectors[:2] = np.array([[c, s], [s, -c]]) @ vectors[:2]

    return with_vectors(sys_, mix, b)


def with_vectors(sys_, edit, b=2):
    """Basis b's vectors, with edit applied to a copy."""
    vectors = sys_.bases[b].vectors.copy()
    edit(vectors)
    bases = list(sys_.bases)
    bases[b] = dataclasses.replace(bases[b], vectors=vectors)
    return dataclasses.replace(sys_, bases=tuple(bases))


def repeated_vector(vectors):
    """Vector 1 becomes a copy of vector 0, still a joint eigenvector."""
    vectors[1] = vectors[0]


def zeroed_vector(vectors):
    """Vector 1 becomes 0: U_i 0 = lam 0 for any lam, so its residual is 0."""
    vectors[1] = 0


def with_phase_table(sys_, edit):
    """The net's phase table c, with edit applied to a copy, in a fresh net."""
    table = sys_.net._i_powers.copy()
    edit(table)
    return dataclasses.replace(sys_, net=dataclasses.replace(sys_.net, _i_powers=table))


def moved_phase(table):
    """One entry of c moves by 1: its i^c X^x Z^z is no longer Hermitian."""
    table[-1, -1] = (table[-1, -1] + 1) % 4


def origin_phase_two(table):
    """c[0, 0] = 2: the origin's term is -I, so tr A_a = -1."""
    table[0, 0] = 2


def corrupted_multiplication(sys_):
    """A fresh context of the same degree whose w * w is w instead of w2."""
    ctx = FieldContext(sys_.n)
    mul_bits = ctx._mul_bits
    ctx._mul_bits = lambda a, b: mul_bits(a, b) ^ (a == b == 2)
    return dataclasses.replace(sys_, ctx=ctx)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "corrupt", [swapped_points, swapped_lines, corrupted_masks, misassigned_line]
)
@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.__name__)
def test_no_check_raises_on_a_corrupted_system(check, corrupt, n):
    assert isinstance(check(corrupt(build_system(n))), CheckResult)


# The group check reads only the stabilizers' masks, so a basis that is no
# longer one of joint eigenvectors passes it; the two checks that read the
# vectors against the stabilizers fail it, even at angle 1e-6.
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("check", [check_eigenvector_residuals, check_basis_uniqueness])
@pytest.mark.parametrize("angle", [np.pi / 4, 1e-6])
def test_mixed_basis_fails_eigenvalue_table_checks(angle, n, check):
    good = check(build_system(n))
    mixed = mixed_basis(build_system(n), angle)
    bad = check(mixed)
    assert good.passed and not bad.passed
    assert bad.name == good.name
    assert check_stabilizer_group(mixed).passed


# Every vector keeps a zero residual; the basis no longer spans the space.
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "edit, detail",
    [
        (repeated_vector, "striation 2: two vectors share eigenvalues"),
        (zeroed_vector, "max deviation 1.000e+00 (tol 1e-09)"),
    ],
)
def test_a_basis_missing_an_eigenspace_fails_uniqueness(edit, detail, n):
    bad = check_basis_uniqueness(with_vectors(build_system(n), edit))
    assert not bad.passed and bad.detail == detail


@pytest.mark.parametrize("n", [2, 3])
def test_a_stabilizer_in_two_groups_fails_the_pauli_partition(n):
    # the overlaps read only the vectors, which stay mutually unbiased
    sys_ = build_system(n)
    bases = list(sys_.bases)
    lost, doubled = bases[2].stabilizers[0], bases[3].stabilizers[0]
    bases[2] = dataclasses.replace(bases[2], stabilizers=(doubled, *bases[2].stabilizers[1:]))
    bad = check_mub(dataclasses.replace(sys_, bases=tuple(bases)))
    assert check_conjugacy(bases).all_conjugate and not bad.passed
    masks = min(lost.masks, doubled.masks)
    assert bad.detail == f"Pauli masks {masks} in {2 if masks == doubled.masks else 0} groups"


def test_bases_without_exponents_are_checked_on_residuals_only():
    system = build_system(3)
    bare = tuple(dataclasses.replace(basis, exponents=None) for basis in system.bases)
    assert check_eigenvector_residuals(dataclasses.replace(system, bases=bare)) == check_eigenvector_residuals(system)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "check", [check_affine_axioms, check_translation_geometry, check_line_sums]
)
def test_swapped_points_fail_geometry(n, check):
    good = check(build_system(n))
    bad = check(swapped_points(build_system(n)))
    assert good.passed and not bad.passed
    assert bad.name == good.name


def test_swapped_points_name_the_pair_and_the_translation():
    sys_ = swapped_points(build_system(2))
    assert "share != 1 line" in check_affine_axioms(sys_).detail
    assert check_translation_geometry(sys_).detail.startswith("translate by ")
    assert check_line_sums(sys_).detail == "2 lines not in the net"


@pytest.mark.parametrize("n", [2, 3])
def test_swapped_lines_fail_the_equation_check(n):
    good = check_affine_axioms(build_system(n))
    bad = check_affine_axioms(swapped_lines(build_system(n)))
    assert good.passed and not bad.passed
    assert bad.detail.startswith("striation 2 line 1 is not 1*q + ")


def test_a_line_that_repeats_a_point_overlaps_its_striation():
    sys_ = build_system(2)
    rows = sys_.striations[2].point_indices.copy()
    rows[1, 1] = rows[1, 0]
    bad = with_rows(sys_, 2, rows)
    assert check_affine_axioms(bad).detail == "striation 2 overlaps"
    assert check_translation_geometry(bad).detail == "striation 2 is not a partition"


@pytest.mark.parametrize("n", [2, 3])
def test_swapped_points_name_a_pair_on_two_common_lines(n):
    sys_ = swapped_points(build_system(n))
    detail = check_affine_axioms(sys_).detail
    assert detail.startswith("points ") and detail.endswith(" share != 1 line")
    index = {str(pt): pt.index for pt in grid_points(sys_.ctx)}
    p1, p2 = (index[name] for name in detail[len("points ") : -len(" share != 1 line")].split(", "))
    line_of = np.empty((sys_.dim + 1, sys_.dim**2), dtype=int)
    for line, s in zip(line_of, sys_.striations):
        line[s.point_indices] = np.arange(sys_.dim)[:, None]
    assert p1 != p2 and np.sum(line_of[:, p1] == line_of[:, p2]) == 2


@pytest.mark.parametrize("check", [check_affine_axioms, check_translation_geometry])
def test_geometry_checks_trace_under_4_mib_at_n5(check):
    # one line_of table and one striation's temporaries at a time stay near
    # 2 MiB; a count over all N^4 point pairs takes 20 MiB
    sys_ = build_system(5)
    assert check(sys_).passed
    tracemalloc.start()
    try:
        result = check(sys_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed and peak < 4 * 2**20, peak


def test_every_check_passes_at_n5():
    # The CLI stops at n = 4; nothing else runs the whole suite at n = 5.
    results = run_checks(5)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 120


@pytest.mark.parametrize(
    "check", [check_affine_axioms, check_translation_geometry, check_stabilizer_group]
)
def test_geometry_and_group_checks_read_no_striation_line(monkeypatch, check):
    """A passing system makes no Line here: the affine check solves its
    lines from index tables and calls line_from_equation only to word a
    failure, so the refusal below never fires."""
    init = Line.__init__

    def refuse(self, *args, **kwargs):
        if sys._getframe(1).f_code is not line_from_equation.__code__:
            raise AssertionError("a Line outside line_from_equation")
        init(self, *args, **kwargs)

    monkeypatch.setattr(Line, "__init__", refuse)
    build_system.cache_clear()
    try:
        for n in range(1, 5):
            assert check(build_system(n)).passed
    finally:
        build_system.cache_clear()


@pytest.mark.parametrize(
    "check", [check_translation_homomorphism, check_projective_closure, check_stabilizer_group]
)
def test_corrupted_masks_fail_operator_checks(check):
    good = check(build_system(2))
    bad = check(corrupted_masks(build_system(2)))
    assert good.passed and not bad.passed
    assert bad.name == good.name


def test_corrupted_masks_name_the_offending_pair():
    sys_ = corrupted_masks(build_system(2))
    assert check_translation_homomorphism(sys_).detail == "H at 1,w"
    assert "not proportional to U_(v+w) at " in check_projective_closure(sys_).detail


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corrupted_masks_name_the_first_stabilizer_pair(n):
    detail = check_stabilizer_group(corrupted_masks(build_system(n))).detail
    assert detail == "striation 1: U_v U_w not proportional to U_(v+w) at (1,0)+(w,0)"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_flipped_sign_in_one_dense_translation_fails_unitarity(n, monkeypatch):
    # the flipped matrix is still exactly unitary; it is no longer the
    # signed permutation of its masks
    sys_ = build_system(n)
    assert check_unitarity(sys_).passed
    last = grid_points(sys_.ctx)[-1]

    def flipped(v, labeling):
        op = translation_unitary(v, labeling)
        if v != last:
            return op
        u = op.unitary.copy()
        u[0] *= -1
        assert np.array_equal(u @ u.conj().T, np.eye(sys_.dim))
        return types.SimpleNamespace(unitary=u)

    monkeypatch.setattr("qphase.verify.translation_unitary", flipped)
    bad = check_unitarity(sys_)
    assert not bad.passed and bad.detail == "max deviation 2.000e+00 (tol 1e-12)"


def test_unitarity_samples_the_dense_translations_above_n5():
    # the origin, 64 seeded points and the kron anchor, of N^2 = 4096 points
    with mock.patch.object(verify, "translation_unitary", wraps=translation_unitary) as spy:
        assert check_unitarity(build_system(6)).passed
    assert spy.call_count <= 66


@pytest.mark.parametrize("n", [2, 3])
def test_masks_linear_but_off_the_field_fail_only_the_kron_anchor(n):
    """x masks read from w q instead of q stay linear, so every product
    composes; only the kron point, whose bits come from field arithmetic,
    sees that the translations are not the labeling's."""
    sys_ = build_system(n)
    labeling, elems = copy.copy(sys_.labeling), sys_.ctx.elements()
    masks = labeling._x_masks
    object.__setattr__(labeling, "_x_masks", tuple(masks[(sys_.ctx.omega * q).index] for q in elems))
    bad = dataclasses.replace(sys_, labeling=labeling)
    assert check_translation_homomorphism(bad).passed and check_projective_closure(bad).passed
    assert not check_unitarity(bad).passed


def test_stabilizers_under_the_same_basis_labeling_fail_the_group_check():
    # at n = 3 the rays of striations 0..2 still commute under the same-basis
    # labeling; striation 3 is the first whose stabilizers anticommute
    sys_ = build_system(3)
    labeling = same_basis_labeling(sys_.ctx)
    bases = tuple(
        dataclasses.replace(b, stabilizers=tuple(translation_unitary(op.vector, labeling) for op in b.stabilizers))
        for b in sys_.bases
    )
    bad = check_stabilizer_group(dataclasses.replace(sys_, bases=bases))
    assert not bad.passed
    assert bad.detail.startswith("striation 3: U_v U_w not proportional to U_(v+w) at ")


def test_basis_checks_cache_no_dense_stabilizer():
    build_system.cache_clear()
    try:
        sys_ = build_system(3)
        for check in (check_stabilizer_group, check_eigenvector_residuals, check_basis_uniqueness):
            assert check(sys_).passed
        assert not [op for b in sys_.bases for op in b.stabilizers if "unitary" in vars(op)]
    finally:
        build_system.cache_clear()


@pytest.mark.parametrize("n", [1, 3])
def test_an_unmoved_grid_fails_grid_covariance(n, monkeypatch):
    good = check_grid_covariance(build_system(n))
    monkeypatch.setattr("qphase.verify.translate_grid", lambda grid, v: grid)
    bad = check_grid_covariance(build_system(n))
    assert good.passed and not bad.passed
    assert bad.name == good.name


def test_projective_closure_reports_a_sampled_failure():
    # n = 3 draws 300 seeded pairs instead of running over all of them
    bad = check_projective_closure(corrupted_masks(build_system(3)))
    assert bad.name == "projective closure (300 pairs)"
    assert not bad.passed


@pytest.mark.parametrize("n", [1, 2, 4])
def test_misassigned_line_fails_line_sums(n):
    good = check_line_sums(build_system(n))
    bad = check_line_sums(misassigned_line(build_system(n)))
    assert good.passed and not bad.passed
    assert bad.name == good.name


@pytest.mark.parametrize("n", [2, 3])
def test_corrupted_multiplication_fails_field_axioms(n):
    good = check_field_axioms(build_system(n))
    bad = check_field_axioms(corrupted_multiplication(build_system(n)))
    assert good.passed and not bad.passed
    assert bad.name == good.name
    assert bad.detail.endswith("failed")


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("edit", [moved_phase, origin_phase_two])
def test_corrupted_phase_table_fails_a_structure_and_covariance(n, edit):
    bad = with_phase_table(build_system(n), edit)
    for check in (check_a_structure, check_a_covariance):
        good, broken = check(build_system(n)), check(bad)
        assert good.passed and not broken.passed and broken.name == good.name
    assert check_a_structure(bad).detail.startswith("c[0, 0] = 2" if edit is origin_phase_two else "i^c X^x Z^z")


def test_phase_point_checks_at_n6_build_no_stack():
    # the stack of all N^2 operators alone is 256 MiB at n = 6
    system = build_system(6)
    system = dataclasses.replace(system, net=default_net(system.ctx, system.labeling, list(system.bases)))
    tracemalloc.start()
    try:
        results = [check(system) for check in (check_a_structure, check_a_covariance, check_line_sums)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results), results
    assert "_phase_point_stack" not in vars(system.net)
    assert peak < 64 * 2**20, peak


def test_stabilizer_group_passes_at_n7():
    # N = 128 does not fit the int8 parities that the group law scales by N
    assert check_stabilizer_group(build_system(7)).passed
