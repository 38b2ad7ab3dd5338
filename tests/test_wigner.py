import copy
import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qphase.fields import field_create
from qphase.geometry import Point, line_from_equation
from qphase.geometry import striation_points
from qphase.mub import StriationBasis, full_mub_set
from qphase.operators import pauli, pauli_permutation, translation_unitary
from qphase.states import density_from_vector, random_pure_state
from qphase.states import (
    InvalidStateError,
    random_density_matrix,
    registry_vector,
    validate_density_matrix,
)
from qphase.system import build_system
from qphase import wigner
from qphase.tomography import (
    CountsRecord,
    InvalidCountsError,
    MeasurementPlan,
    error_scaling_study,
    estimate_wigner,
    estimate_state,
    outcome_probabilities,
    simulate_counts,
)
from qphase.wigner import (
    NetConstructionError,
    QuantumNet,
    WignerGrid,
    default_net,
    grid_ascii,
    line_sum,
    state_from_wigner,
    translate_grid,
    wigner_from_state,
)

X, Y, Z = pauli("X"), pauli("Y"), pauli("Z")


def rho_of(name):
    _, v = registry_vector(name)
    return np.outer(v, v.conj())


def grid_of(n, name):
    return wigner_from_state(rho_of(name), build_system(n).net)


def pt(ctx, q, p):
    return Point(ctx.parse(q), ctx.parse(p))


class TestNetAssignments1Q:
    def test_diagonal_ray_carries_y_plus(self):
        sys = build_system(1)
        ray = sys.striations[2].lines[0]
        v = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(sys.net.projector(ray) - np.outer(v, v.conj()))) < 1e-12

    def test_antidiagonal_carries_y_minus(self):
        sys = build_system(1)
        other = next(ln for ln in sys.striations[2].lines if ln is not sys.striations[2].lines[0])
        v = np.array([1, -1j], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(sys.net.projector(other) - np.outer(v, v.conj()))) < 1e-12

    def test_line_vectors_pinned(self):
        assert build_system(1).net._line_vector.tolist() == [[0, 1], [0, 1], [1, 0]]

    def test_axis_lines_carry_axis_states(self):
        sys = build_system(1)
        ctx = sys.ctx
        q1 = next(ln for ln in sys.striations[0].lines if pt(ctx, "1", "0") in ln)
        assert np.allclose(sys.net.projector(q1), np.diag([0, 1]))
        p1 = next(ln for ln in sys.striations[1].lines if pt(ctx, "0", "1") in ln)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(sys.net.projector(p1) - np.outer(minus, minus.conj()))) < 1e-12


class TestNetAssignments2Q:
    def test_three_diagonal_ray_vectors(self):
        sys = build_system(2)
        refs = {
            2: np.array([1, -1j, 1j, 1], dtype=complex) / 2,
            3: np.array([1, 1, 1j, -1j], dtype=complex) / 2,
            4: np.array([1, -1j, 1, 1j], dtype=complex) / 2,
        }
        for direction, ref in refs.items():
            ray = sys.striations[direction].lines[0]
            assert np.max(np.abs(sys.net.projector(ray) - np.outer(ref, ref.conj()))) < 1e-9

    def test_vertical_lines_follow_axis_labels(self):
        # columns q = 0, 1, w, w2 carry the four computational product states
        sys = build_system(2)
        ctx = sys.ctx
        for qi, q in enumerate(ctx.elements()):
            column = next(ln for ln in sys.striations[0].lines if Point(q, ctx.zero) in ln)
            e = np.zeros(4, dtype=complex)
            e[qi] = 1
            assert np.max(np.abs(sys.net.projector(column) - np.outer(e, e.conj()))) < 1e-12

    def test_line_vectors_pinned(self):
        assert build_system(2).net._line_vector.tolist() == [
            [0, 2, 1, 3],
            [0, 2, 1, 3],
            [1, 3, 0, 2],
            [1, 3, 0, 2],
            [0, 2, 1, 3],
        ]

    def test_lines_map_to_distinct_vectors(self):
        sys = build_system(2)
        for s in sys.striations:
            indices = [sys.net.vector_index[ln] for ln in s.lines]
            assert sorted(indices) == list(range(4))


class TestPhasePointOperators:
    def test_origin_operator_1q_from_ray_sum(self):
        # independent construction: sum the three ray projectors, subtract identity
        sys = build_system(1)
        expected = -np.eye(2, dtype=complex)
        for s in sys.striations:
            expected += sys.net.projector(s.lines[0])
        a00 = sys.net.phase_point_matrix(Point(sys.ctx.zero, sys.ctx.zero))
        assert np.max(np.abs(a00 - expected)) < 1e-12
        assert np.allclose(np.diag(a00), [1, 0])
        assert np.max(np.abs(a00 - 0.5 * (np.eye(2) + X + Y + Z))) < 1e-12

    def test_origin_operator_2q_golden(self):
        sys = build_system(2)
        a00 = sys.net.phase_point_matrix(Point(sys.ctx.zero, sys.ctx.zero))
        ref = np.kron(
            np.array([[1, (1 - 1j) / 2], [(1 + 1j) / 2, 0]]),
            np.array([[1, (1 + 1j) / 2], [(1 - 1j) / 2, 0]]),
        )
        assert np.max(np.abs(a00 - ref)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_covariance_via_translation_unitaries(self, n):
        sys = build_system(n)
        ctx = sys.ctx
        origin = Point(ctx.zero, ctx.zero)
        a0 = sys.net.phase_point_matrix(origin)
        for q in ctx.elements():
            for p in ctx.elements():
                u = translation_unitary(Point(q, p), sys.labeling).unitary
                a = sys.net.phase_point_matrix(Point(q, p))
                assert np.max(np.abs(a - u @ a0 @ u.conj().T)) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_one_operator_builds_no_stack(self, n):
        sys = build_system(n)
        net = default_net(sys.ctx, sys.labeling, list(sys.bases))
        elems = sys.ctx.elements()
        rng = np.random.default_rng(n)
        pt = Point(elems[rng.integers(sys.dim)], elems[rng.integers(sys.dim)])
        a0 = net.phase_point_matrix(Point(sys.ctx.zero, sys.ctx.zero))
        a = net.phase_point_matrix(pt)
        assert "_phase_point_stack" not in vars(net)
        u = translation_unitary(pt, sys.labeling).unitary
        assert np.max(np.abs(a - u @ a0 @ u.conj().T)) < 1e-12
        assert not a.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structure(self, n):
        sys = build_system(n)
        stack = sys.net.phase_point_stack()
        dim = sys.dim
        assert np.max(np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1))))) < 1e-9
        assert np.max(np.abs(np.einsum("aii->a", stack) - 1)) < 1e-9
        gram = np.einsum("aij,bji->ab", stack, stack)
        assert np.max(np.abs(gram - dim * np.eye(dim * dim))) < 1e-9
        assert np.max(np.abs(stack.sum(axis=0) - dim * np.eye(dim))) < 1e-9


class TestOneQubitGrids:
    def test_up(self):
        assert np.max(np.abs(grid_of(1, "up").values - [[0.5, 0.5], [0, 0]])) < 1e-12

    def test_right(self):
        assert np.max(np.abs(grid_of(1, "plus").values - [[0.5, 0], [0.5, 0]])) < 1e-12

    def test_y_plus(self):
        assert np.max(np.abs(grid_of(1, "y+").values - [[0.5, 0], [0, 0.5]])) < 1e-12

    def test_tilted_111_values_and_placement(self):
        grid = grid_of(1, "tilted-111")
        hi = (1 + 1 / math.sqrt(3)) / 4
        lo = (1 - math.sqrt(3)) / 4
        assert np.max(np.abs(grid.values - [[lo, hi], [hi, hi]])) < 1e-9
        assert f"{grid.values[0, 0]:.3f}" == "-0.183"
        assert f"{grid.values[1, 1]:.3f}" == "0.394"

    def test_maximally_mixed_uniform(self):
        sys = build_system(1)
        grid = wigner_from_state(np.eye(2, dtype=complex) / 2, sys.net)
        assert np.max(np.abs(grid.values - 0.25)) < 1e-12


class TestTwoQubitGrids:
    def test_upup_first_column(self):
        ref = np.zeros((4, 4))
        ref[0, :] = 0.25
        assert np.max(np.abs(grid_of(2, "upup").values - ref)) < 1e-12

    def test_upright_block(self):
        ref = np.zeros((4, 4))
        ref[np.ix_([0, 1], [0, 2])] = 0.25  # q in {0,1}, p in {0,w}
        assert np.max(np.abs(grid_of(2, "upright").values - ref)) < 1e-12

    def test_singlet_center_block(self):
        ref = np.zeros((4, 4))
        ref[np.ix_([1, 2], [1, 2])] = 0.25  # q,p in {1,w}
        assert np.max(np.abs(grid_of(2, "singlet").values - ref)) < 1e-12


class TestRoundTrip:
    def test_upup_recovers_projector(self):
        sys = build_system(2)
        rho = rho_of("upup")
        back = state_from_wigner(wigner_from_state(rho, sys.net), sys.net)
        assert np.max(np.abs(back - rho)) < 1e-9

    def test_y_plus_grid_reconstructs_rank_one_state(self):
        # feed the tabulated grid for the +1 y-eigenstate back through the net
        sys = build_system(1)
        grid = WignerGrid(sys.ctx, np.array([[0.5, 0.0], [0.0, 0.5]]))
        rho = state_from_wigner(grid, sys.net)
        eigvals = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(eigvals, [0, 1], atol=1e-9)
        assert np.max(np.abs(rho - rho_of("y+"))) < 1e-9

    def test_uniform_grid_gives_maximally_mixed(self):
        sys = build_system(2)
        grid = WignerGrid(sys.ctx, np.full((4, 4), 1 / 16))
        assert np.max(np.abs(state_from_wigner(grid, sys.net) - np.eye(4) / 4)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_states_round_trip(self, n):
        sys = build_system(n)
        rng = np.random.default_rng(101)
        for _ in range(20):
            rho = random_density_matrix(rng, sys.dim)
            grid = wigner_from_state(rho, sys.net)
            assert abs(grid.total - 1) < 1e-9
            assert np.max(np.abs(state_from_wigner(grid, sys.net) - rho)) < 1e-9


class TestLineSums:
    def test_y_plus_diagonal_line(self):
        sys = build_system(1)
        grid = grid_of(1, "y+")
        diag = sys.striations[2].lines[0]
        assert line_sum(grid, diag) == pytest.approx(1.0)

    def test_upup_first_vertical_line(self):
        sys = build_system(2)
        grid = grid_of(2, "upup")
        first = sys.striations[0].lines[0]
        assert line_sum(grid, first) == pytest.approx(1.0)

    def test_striation_sums_to_one(self):
        sys = build_system(2)
        grid = grid_of(2, "singlet")
        for s in sys.striations:
            assert sum(line_sum(grid, ln) for ln in s.lines) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_projector_probability(self, n):
        sys = build_system(n)
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density_matrix(rng, sys.dim)
            grid = wigner_from_state(rho, sys.net)
            for s in sys.striations:
                for ln in s.lines:
                    prob = float(np.real(np.trace(rho @ sys.net.projector(ln))))
                    assert line_sum(grid, ln) == pytest.approx(prob, abs=1e-9)


class TestGridTranslation:
    def test_up_translates_to_down(self):
        sys = build_system(1)
        moved = translate_grid(grid_of(1, "up"), pt(sys.ctx, "1", "0"))
        assert np.max(np.abs(moved.values - grid_of(1, "down").values)) < 1e-12

    def test_zero_vector_identity(self):
        sys = build_system(2)
        grid = grid_of(2, "singlet")
        same = translate_grid(grid, Point(sys.ctx.zero, sys.ctx.zero))
        assert np.array_equal(same.values, grid.values)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pointwise_field_arithmetic(self, n):
        ctx = build_system(n).ctx
        elements = ctx.elements()
        grid = WignerGrid(ctx, np.random.default_rng(n).standard_normal((ctx.order, ctx.order)))
        for v in (Point(q, p) for q in elements for p in elements):
            expected = np.empty_like(grid.values)
            for a in (Point(q, p) for q in elements for p in elements):
                before = a + v  # a - v, in characteristic 2
                expected[a.q.index, a.p.index] = grid.values[before.q.index, before.p.index]
            assert np.array_equal(translate_grid(grid, v).values, expected), v

    @pytest.mark.parametrize("n", [1, 2])
    def test_covariance_all_translations(self, n):
        sys = build_system(n)
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, sys.dim)
        grid = wigner_from_state(rho, sys.net)
        for q in sys.ctx.elements():
            for p in sys.ctx.elements():
                v = Point(q, p)
                u = translation_unitary(v, sys.labeling).unitary
                direct = wigner_from_state(u @ rho @ u.conj().T, sys.net)
                assert np.max(np.abs(translate_grid(grid, v).values - direct.values)) < 1e-12


class TestValidationAndRendering:
    def test_non_hermitian_rejected(self):
        sys = build_system(1)
        bad = np.array([[1, 1], [0, 0]], dtype=complex)
        with pytest.raises(InvalidStateError):
            wigner_from_state(bad, sys.net)

    def test_wrong_dimension_rejected(self):
        sys = build_system(2)
        with pytest.raises(InvalidStateError):
            wigner_from_state(np.eye(2, dtype=complex) / 2, sys.net)

    def test_nonunit_trace_rejected(self):
        sys = build_system(1)
        with pytest.raises(InvalidStateError):
            wigner_from_state(np.eye(2, dtype=complex), sys.net)

    def test_negative_state_rejected(self):
        sys = build_system(1)
        with pytest.raises(InvalidStateError):
            wigner_from_state(np.diag([1.5, -0.5]).astype(complex), sys.net)

    def test_validate_accepts_valid(self):
        rho = np.eye(4, dtype=complex) / 4
        assert validate_density_matrix(rho, 4) is rho

    def test_grid_json_dict(self):
        grid = grid_of(1, "up")
        payload = grid.to_json_dict(precision=3)
        assert payload["n"] == 1
        assert payload["order"] == ["0", "1"]
        assert payload["values"] == [[0.5, 0.5], [0.0, 0.0]]

    def test_grid_ascii_shows_paper_numbers(self):
        text = grid_ascii(grid_of(1, "tilted-111"), precision=3)
        assert "-0.183" in text and "0.394" in text
        # origin row is printed last (p increasing upward)
        rows = text.splitlines()
        assert rows[1].startswith("p=0")
        assert "-0.183" in rows[1]

    @pytest.mark.parametrize(
        "values", [[[np.nan] * 2] * 2, [[np.inf, 0.0], [0.0, 0.0]], [[np.inf, 0.0], [-np.inf, 1.0]]]
    )
    def test_grid_values_must_be_finite(self, values):
        # NaN passes state_from_wigner's total check, and inf - inf is NaN.
        with pytest.raises(ValueError, match="finite"):
            WignerGrid(build_system(1).ctx, np.array(values))

    def test_grid_values_read_only(self):
        grid = grid_of(1, "up")
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1.0

    def test_line_and_grid_context_must_match(self):
        sys = build_system(1)
        other = field_create(1)
        line = line_from_equation(other.one, other.one, other.zero)
        with pytest.raises(Exception):
            line_sum(grid_of(1, "up"), line)


def dense_vector_index(system):
    """Line -> basis index by the dense construction: the lexicographic
    stabilizer-sign ray, then argmax_k <v_k|U_w P_ray U_w^dag|v_k> for
    every point w of the line (all of which must agree)."""
    lab = system.labeling
    index = {}
    for striation, basis in zip(system.striations, system.bases):
        vectors = basis.vectors
        forms = []
        for w in striation.lines[0].points[1:]:
            u = translation_unitary(w, lab).unitary
            forms.append(u if np.allclose(u, u.conj().T) else 1j * u)
        keys = [tuple(int(np.real(np.vdot(v, t @ v)) < 0) for t in forms) for v in vectors]
        ray = vectors[keys.index(min(keys))]
        proj = np.outer(ray, ray.conj())
        for line in striation.lines:
            picks = set()
            for w in line.points:
                u = translation_unitary(w, lab).unitary
                fit = np.real(np.einsum("ki,ij,kj->k", vectors.conj(), u @ proj @ u.conj().T, vectors))
                picks.add(int(np.argmax(fit)))
            assert len(picks) == 1, line
            index[line] = picks.pop()
    return index


def float_lex_sign_reference(system):
    """Line -> basis index and the outcome table by the float rule: each
    vector's signs on the Hermitian-scaled stabilizers from gathers, the
    lexicographically first sign tuple as the ray, each line's vector as
    argmax_k |<v_k|U_w ray>|^2 for its first point w, and the table filled
    point by point."""
    lab, dim = system.labeling, system.dim
    index = {}
    for striation, basis in zip(system.striations, system.bases):
        vectors = basis.vectors
        signs = []
        for w in striation.lines[0].points[1:]:
            x, z = lab.masks(w)
            src, sign = pauli_permutation(x, z, dim)
            scale = 1j if (x & z).bit_count() & 1 else 1
            vals = np.real(scale * np.einsum("ki,ki->k", vectors.conj(), vectors[:, src] * sign))
            assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-6
            signs.append(vals < 0)
        keys = np.array(signs).T.tolist()
        ray = vectors[min(range(len(keys)), key=lambda k: keys[k])]
        for line in striation.lines:
            src, sign = pauli_permutation(*lab.masks(line.points[0]), dim)
            index[line] = int(np.argmax(np.abs(vectors.conj() @ (ray[src] * sign)) ** 2))
    table = np.empty((dim * dim, len(system.striations)), dtype=np.intp)
    for s, striation in enumerate(system.striations):
        for line in striation.lines:
            for pt in line.points:
                table[pt.q.index * dim + pt.p.index, s] = index[line]
    return index, table


class TestNetAgainstDenseReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_vector_index_and_table_match_float_lex_sign_rule(self, n):
        system = build_system(n)
        index, table = float_lex_sign_reference(system)
        line_vector = np.array([[index[ln] for ln in s.lines] for s in system.striations])
        assert system.net._line_vector.tobytes() == line_vector.tobytes()
        assert system.net.vector_index == index
        assert system.net.outcome_index_table().tobytes() == table.tobytes()
        assert system.net.outcome_index_table().flags.c_contiguous

    @pytest.mark.parametrize("n", [3, 4])
    def test_vector_index_matches_dense_closure(self, n):
        system = build_system(n)
        assert system.net.vector_index == dense_vector_index(system)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_and_stack_agree_with_membership(self, n):
        system = build_system(n)
        net = system.net
        table = net.outcome_index_table()
        stack = net.phase_point_stack()
        for q in system.ctx.elements():
            for p in system.ctx.elements():
                pt = Point(q, p)
                row = q.index * system.dim + p.index
                member = [next(ln for ln in s.lines if pt in ln) for s in system.striations]
                assert table[row].tolist() == [net.vector_index[ln] for ln in member]
                a = -np.eye(system.dim, dtype=complex)
                for line in member:
                    a = a + net.projector(line)
                assert np.max(np.abs(stack[row] - a)) < 1e-15, pt


class TestNetGuards:
    """Each exact guard of default_net raises NetConstructionError."""

    def test_corrupted_exponent_row_has_no_basis_vector(self):
        system = build_system(2)
        bases = list(system.bases)
        exponents = bases[2].exponents.copy()
        k = system.net._line_vector[2, 1]
        # Every Hermitian-scaled exponent of the row turns odd, which no eigenvector has.
        exponents[k] = (exponents[k] + 1) % 4
        bases[2] = dataclasses.replace(bases[2], exponents=exponents)
        with pytest.raises(NetConstructionError, match="no basis vector"):
            default_net(system.ctx, system.labeling, bases)

    def test_two_lines_with_equal_rows_are_refused(self):
        # Zeroing the x mask of w2, in the labeling and in the stabilizers
        # built under it, gives the vertical line through (w2, 0) the flips
        # of the ray itself, so both look up the ray's row.
        system = build_system(2)
        labeling = copy.copy(system.labeling)
        x_masks = list(labeling._x_masks)
        x_masks[3] = 0
        object.__setattr__(labeling, "_x_masks", tuple(x_masks))
        bases = [
            dataclasses.replace(
                b, stabilizers=tuple(translation_unitary(op.vector, labeling) for op in b.stabilizers)
            )
            for b in system.bases
        ]
        with pytest.raises(NetConstructionError, match="striation 0 maps two lines to one vector"):
            default_net(system.ctx, labeling, bases)

    @pytest.mark.parametrize("n", [2, 3])
    def test_bases_from_another_labeling_are_refused(self, n):
        # Swapping the tensor slots keeps the stabilizers commuting, and a
        # Pauli conjugation flips exponent rows onto valid rows either way:
        # at n = 3 no other guard notices the mismatch.
        system = build_system(n)
        lab = system.labeling
        swapped = dataclasses.replace(lab, q_basis=lab.q_basis[::-1], p_basis=lab.p_basis[::-1])
        assert swapped != system.labeling
        with pytest.raises(NetConstructionError, match="different labeling"):
            default_net(system.ctx, system.labeling, full_mub_set(system.ctx, swapped))

    def test_ray_signs_that_no_vector_has_are_refused(self, monkeypatch):
        # On q = 0 the stabilizers are Z-type strings, the third the product
        # of the first two, so no vector has the sign -1 on all three.
        system = build_system(2)
        signs = ((-1, -1, -1), *wigner._RAY_SIGNS_2Q[1:])
        monkeypatch.setattr(wigner, "_RAY_SIGNS_2Q", signs)
        with pytest.raises(NetConstructionError, match="striation 0 match no basis vector"):
            default_net(system.ctx, system.labeling, list(system.bases))

    @pytest.mark.parametrize("n", [1, 2])
    def test_bare_bases_are_refused_naming_the_striation(self, n):
        # a basis assembled by hand carries no exponents or masks
        system = build_system(n)
        bases = list(system.bases)
        bases[1] = StriationBasis(1, bases[1].vectors, bases[1].stabilizers)
        with pytest.raises(NetConstructionError, match="^basis of striation 1 carries no stabilizer exponents"):
            default_net(system.ctx, system.labeling, bases)

    def test_line_maps_are_read_only(self):
        net = build_system(1).net
        line = net.striations[0].lines[0]
        with pytest.raises(TypeError):
            net.vector_index[line] = 1
        with pytest.raises(TypeError):
            net.striation_of[line] = 1

    def test_cold_build_leaves_numpy_ma_unimported(self):
        code = "import sys; from qphase import build_system; build_system(5); print('numpy.ma' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestPhasePointReference:
    """The line-probability formulas against the dense phase-point stack."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_grid_and_inverse_match_stack(self, n, seed, pure):
        sys = build_system(n)
        rng = np.random.default_rng(seed)
        if pure:
            v = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
        else:
            rho = random_density_matrix(rng, sys.dim)
        stack = sys.net.phase_point_stack()
        grid = wigner_from_state(rho, sys.net)
        ref = np.einsum("aij,ji->a", stack, rho).real / sys.dim
        assert np.max(np.abs(grid.values.reshape(-1) - ref)) < 1e-12
        back = state_from_wigner(grid, sys.net)
        assert np.max(np.abs(back - np.einsum("a,aij->ij", grid.values.reshape(-1), stack))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_stack_on_the_hot_path(self, n, monkeypatch):
        sys = build_system(n)
        net = default_net(sys.ctx, sys.labeling, list(sys.bases))

        def refuse(self):
            raise AssertionError("phase-point stack built")

        monkeypatch.setattr(QuantumNet, "phase_point_stack", refuse)
        rho = random_density_matrix(np.random.default_rng(n), sys.dim)
        back = state_from_wigner(wigner_from_state(rho, net), net)
        assert np.max(np.abs(back - rho)) < 1e-12
        for shots in (0, 64):
            counts = simulate_counts(rho, MeasurementPlan(bases=sys.bases, shots_per_basis=shots, seed=1))
            estimate_state(counts, net, truth=rho)

    def test_drifting_probabilities_rejected(self):
        sys = build_system(1)
        bases = list(sys.bases)
        exponents = bases[0].exponents.copy()
        exponents[1, 0] = 0  # both outcomes of Z now claim Z = +1
        bases[0] = dataclasses.replace(bases[0], exponents=exponents)
        with pytest.raises(ValueError, match="exponent rows of striation 0"):
            outcome_probabilities(rho_of("up"), bases)

    def test_grid_needs_one_row_per_striation(self):
        sys = build_system(1)
        counts = {s: np.array([0.5, 0.5]) for s in range(3)}
        counts[2] = np.array([0.5, 0.25, 0.25])
        with pytest.raises(InvalidCountsError, match="striation 2 has 3 outcomes, expected 2"):
            estimate_wigner(CountsRecord(n=1, shots=0, seed=0, counts=counts), sys.net)


class TestPauliMap:
    """The Pauli form of the Wigner map against the basis vectors and the
    dense phase-point operators, which it never reads."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 16))
    def test_matches_the_stack_and_inverts(self, n, seed, rank):
        sys = build_system(n)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((sys.dim, min(rank, sys.dim))) * (1 + 0j)
        g += 1j * rng.standard_normal(g.shape)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        grid = wigner_from_state(rho, sys.net)
        ref = np.einsum("aij,ji->a", sys.net.phase_point_stack(), rho).real / sys.dim
        assert np.max(np.abs(grid.values.reshape(-1) - ref)) < 1e-12
        assert np.max(np.abs(state_from_wigner(grid, sys.net) - rho)) < 1e-12

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_line_sums_are_basis_probabilities(self, n):
        sys = build_system(n)
        points = striation_points(sys.ctx)
        vectors = np.stack([b.vectors for b in sys.bases])
        rng = np.random.default_rng(n)
        for rho in (random_density_matrix(rng, sys.dim), density_from_vector(random_pure_state(rng, sys.dim))):
            sums = wigner_from_state(rho, sys.net).values.reshape(-1)[points].sum(axis=-1)
            probs = ((vectors.conj() @ rho) * vectors).sum(axis=-1).real
            # The vector on line l of striation s is the outcome at its first point.
            k = sys.net.outcome_index_table()[points[..., 0], np.arange(len(points))[:, None]]
            line_probs = np.take_along_axis(probs, k, axis=1)
            assert np.max(np.abs(sums - line_probs)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_probabilities_are_line_sums_and_overlaps(self, n, seed, pure):
        sys = build_system(n)
        rng = np.random.default_rng(seed)
        if pure:
            rho = density_from_vector(random_pure_state(rng, sys.dim))
        else:
            rho = random_density_matrix(rng, sys.dim)
        counts = simulate_counts(rho, MeasurementPlan(bases=sys.bases, shots_per_basis=0, seed=0))
        p = np.stack([counts.counts[s] for s in range(sys.dim + 1)])
        points = striation_points(sys.ctx)
        sums = wigner_from_state(rho, sys.net).values.reshape(-1)[points].sum(axis=-1)
        # The vector on line l of striation s is the outcome at its first point.
        k = sys.net.outcome_index_table()[points[..., 0], np.arange(len(points))[:, None]]
        assert np.max(np.abs(np.take_along_axis(p, k, axis=1) - sums)) < 1e-12
        vectors = np.stack([b.vectors for b in sys.bases])
        assert np.max(np.abs(p - ((vectors.conj() @ rho) * vectors).sum(axis=-1).real)) < 1e-12
        back = estimate_state(counts, sys.net, project=False).rho_raw
        assert np.max(np.abs(back - rho)) < 1e-12

    def test_reads_no_basis_vector(self):
        net = build_system(3).net
        bases = tuple(dataclasses.replace(b, vectors=np.full(b.vectors.shape, np.nan + 0j)) for b in net.bases)
        blind = dataclasses.replace(net, bases=bases)
        rho = random_density_matrix(np.random.default_rng(3), net.dim)
        grid = wigner_from_state(rho, net)
        assert np.array_equal(wigner_from_state(rho, blind).values, grid.values)
        assert np.array_equal(state_from_wigner(grid, blind), state_from_wigner(grid, net))
        for shots in (0, 4096):
            record = simulate_counts(rho, MeasurementPlan(bases=net.bases, shots_per_basis=shots, seed=5))
            blind_record = simulate_counts(rho, MeasurementPlan(bases=bases, shots_per_basis=shots, seed=5))
            assert blind_record == record
            assert all(c.tobytes() == record.counts[s].tobytes() for s, c in blind_record.counts.items())
        rows = error_scaling_study(rho, net, list(net.bases), [64, 256], [1, 2])
        assert error_scaling_study(rho, blind, list(bases), [64, 256], [1, 2]) == rows
