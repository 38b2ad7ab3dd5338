import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qphase.fields import ContextMismatchError, field_create
from qphase.geometry import Point, line_from_equation
from qphase.operators import pauli, pauli_permutation, translation_unitary
from qphase.states import (
    InvalidStateError,
    random_density_matrix,
    registry_vector,
    validate_density_matrix,
)
from qphase.system import build_system
from qphase.tomography import MeasurementPlan, estimate_state, simulate_counts
from qphase.wigner import (
    QuantumNet,
    WignerGrid,
    basis_probabilities,
    default_net,
    grid_from_probabilities,
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
        ray = sys.striations[2].ray
        v = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(sys.net.projector(ray) - np.outer(v, v.conj()))) < 1e-12

    def test_antidiagonal_carries_y_minus(self):
        sys = build_system(1)
        other = next(ln for ln in sys.striations[2].lines if ln is not sys.striations[2].ray)
        v = np.array([1, -1j], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(sys.net.projector(other) - np.outer(v, v.conj()))) < 1e-12

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
            ray = sys.striations[direction].ray
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
            expected += sys.net.projector(s.ray)
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
        diag = sys.striations[2].ray
        assert line_sum(grid, diag) == pytest.approx(1.0)

    def test_upup_first_vertical_line(self):
        sys = build_system(2)
        grid = grid_of(2, "upup")
        first = sys.striations[0].ray
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
        for w in striation.stabilizer_vectors:
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
        for w in striation.stabilizer_vectors:
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
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_vector_index_and_table_match_float_lex_sign_rule(self, n):
        system = build_system(n)
        index, table = float_lex_sign_reference(system)
        assert system.net.vector_index == index
        assert np.array_equal(system.net.outcome_index_table(), table)
        assert system.net.outcome_index_table().flags.c_contiguous

    def test_lines_through_rejects_a_foreign_point(self):
        other = field_create(2)
        with pytest.raises(ContextMismatchError):
            build_system(2).net.lines_through(Point(other.zero, other.one))

    @pytest.mark.parametrize("n", [3, 4])
    def test_vector_index_matches_dense_closure(self, n):
        system = build_system(n)
        assert system.net.vector_index == dense_vector_index(system)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lines_through_table_and_stack_agree_with_membership(self, n):
        system = build_system(n)
        net = system.net
        table = net.outcome_index_table()
        stack = net.phase_point_stack()
        for q in system.ctx.elements():
            for p in system.ctx.elements():
                pt = Point(q, p)
                row = q.index * system.dim + p.index
                member = [next(ln for ln in s.lines if pt in ln) for s in system.striations]
                assert net.lines_through(pt) == tuple(member)
                assert table[row].tolist() == [net.vector_index[ln] for ln in member]
                a = -np.eye(system.dim, dtype=complex)
                for line in member:
                    a = a + net.projector(line)
                assert stack[row].tobytes() == a.tobytes(), pt


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
        vectors = np.stack([b.vectors for b in sys.bases])
        vectors[1] *= 1.001  # no longer unit vectors
        with pytest.raises(InvalidStateError, match="drift"):
            basis_probabilities(rho_of("up"), vectors)

    def test_grid_needs_one_row_per_striation(self):
        sys = build_system(1)
        with pytest.raises(ValueError, match="shape"):
            grid_from_probabilities(np.full((2, 2), 0.5), sys.net)
