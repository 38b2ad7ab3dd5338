import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qphase.operators import pauli
from qphase.states import (
    InvalidStateError,
    parse_state_spec,
    random_density_matrix,
    random_pure_state,
    registry_names,
    registry_vector,
    validate_density_matrix,
)


class TestRegistry:
    def test_known_names(self):
        assert set(registry_names()) == {
            "up", "down", "plus", "minus", "y+", "y-", "tilted-111",
            "upup", "upright", "singlet", "bell0",
        }

    def test_vectors_are_unit(self):
        for name in registry_names():
            _, v = registry_vector(name)
            assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_tilted_111_is_minus_one_eigenstate(self):
        _, v = registry_vector("tilted-111")
        h = (pauli("X") + pauli("Y") + pauli("Z")) / math.sqrt(3)
        assert np.max(np.abs(h @ v + v)) < 1e-12

    def test_singlet_components(self):
        _, v = registry_vector("singlet")
        s = 1 / math.sqrt(2)
        assert np.allclose(v, [0, s, -s, 0])

    def test_unknown_name(self):
        with pytest.raises(InvalidStateError):
            registry_vector("sideways")


class TestParseSpec:
    def test_registry_name(self):
        rho, warnings = parse_state_spec("up", 1)
        assert warnings == []
        assert np.allclose(rho, np.diag([1, 0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidStateError):
            parse_state_spec("up", 2)
        with pytest.raises(InvalidStateError):
            parse_state_spec("singlet", 1)

    def test_inline_vector(self):
        s = 1 / math.sqrt(2)
        spec = json.dumps([[s, 0], [0, s]])
        rho, warnings = parse_state_spec(spec, 1)
        assert warnings == []
        assert np.allclose(rho, np.array([[0.5, -0.5j], [0.5j, 0.5]]))

    def test_inline_vector_autonormalizes_with_warning(self):
        rho, warnings = parse_state_spec("[[2, 0], [0, 0]]", 1)
        assert len(warnings) == 1
        assert np.allclose(rho, np.diag([1, 0]))

    def test_inline_matrix(self):
        spec = json.dumps([[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]])
        rho, warnings = parse_state_spec(spec, 1)
        assert warnings == []
        assert np.allclose(rho, np.eye(2) / 2)

    def test_inline_matrix_renormalizes_trace(self):
        spec = json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
        rho, warnings = parse_state_spec(spec, 1)
        assert len(warnings) == 1
        assert np.allclose(rho, np.eye(2) / 2)

    def test_inline_matrix_must_be_hermitian(self):
        spec = json.dumps([[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]])
        with pytest.raises(InvalidStateError):
            parse_state_spec(spec, 1)

    def test_inline_matrix_must_be_positive(self):
        spec = json.dumps([[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]])
        with pytest.raises(InvalidStateError):
            parse_state_spec(spec, 1)

    def test_wrong_length_vector(self):
        with pytest.raises(InvalidStateError):
            parse_state_spec("[[1, 0], [0, 0], [0, 0]]", 1)

    def test_malformed_json(self):
        with pytest.raises(InvalidStateError):
            parse_state_spec("[1, 0", 1)

    def test_zero_vector(self):
        with pytest.raises(InvalidStateError):
            parse_state_spec("[[0, 0], [0, 0]]", 1)

    def test_nan_vector_entry(self):
        with pytest.raises(InvalidStateError, match="finite"):
            parse_state_spec("[[NaN, 0], [0, 0]]", 1)

    def test_infinite_matrix_entry(self):
        spec = (
            "[[[1,0],[0,0],[0,0],[0,0]],[[0,0],[Infinity,0],[0,0],[0,0]],"
            "[[0,0],[0,0],[0,0],[0,0]],[[0,0],[0,0],[0,0],[0,0]]]"
        )
        with pytest.raises(InvalidStateError, match="finite"):
            parse_state_spec(spec, 2)


    def test_ragged_matrix_rejected(self):
        with pytest.raises(InvalidStateError, match="square"):
            parse_state_spec("[[[1,0],[0,0]],[[0,0]]]", 1)
        with pytest.raises(InvalidStateError, match="square"):
            parse_state_spec("[[[1,0],[0,0]],5]", 1)

    @pytest.mark.parametrize("spec", ["[[true,false],[0,0]]", "[[1,0],[0,false]]", "[[[true,0],[0,0]],[[0,0],[0,0]]]"])
    def test_boolean_entries_rejected(self, spec):
        with pytest.raises(InvalidStateError, match="pair"):
            parse_state_spec(spec, 1)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(InvalidStateError, match="finite"):
            parse_state_spec(f"[[{10**400},0],[0,0]]", 1)

    @pytest.mark.parametrize(
        "spec",
        ["[[1e308,0],[1e308,0]]", "[[[1e308,0],[0,0]],[[0,0],[1e308,0]]]"],
    )
    def test_overflowing_norm_or_trace_rejected_without_warnings(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="not finite"):
                parse_state_spec(spec, 1)

    def test_overflowing_matrix_entries_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="Hermitian"):
                parse_state_spec("[[[0.5,0],[1e308,0]],[[-1e308,0],[0.5,0]]]", 1)

    def test_trace_message_prints_a_plain_float(self):
        with pytest.raises(InvalidStateError, match=r"trace 0\.5 is not 1"):
            validate_density_matrix(np.diag([0.5, 0.0]).astype(complex), 2)

    def test_vector_with_unit_norm_but_trace_off_is_renormalized(self):
        # norm 1 + 9e-10 is within the tolerance, its trace 1 + 1.8e-9 is not
        rho, warnings = parse_state_spec("[[1.0000000009,0],[0,0]]", 1)
        assert warnings == ["vector norm 1 renormalized to 1"]
        assert abs(np.trace(rho).real - 1.0) <= 1e-15
        validate_density_matrix(rho, 2)

    @pytest.mark.parametrize("re", [1.0, 1.0000000004, 0.9999999996, 1 - 1e-16])
    def test_vector_with_trace_within_tolerance_is_kept_as_is(self, re):
        rho, warnings = parse_state_spec(json.dumps([[re, 0], [0, 0]]), 1)
        assert warnings == []
        assert rho.tobytes() == np.diag([re * re, 0.0]).astype(complex).tobytes()


_NUMBERS = st.one_of(
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.booleans(),
)
_ENTRIES = st.one_of(st.lists(_NUMBERS, min_size=2, max_size=2), st.lists(_NUMBERS, max_size=3), _NUMBERS)
_VECTORS = st.lists(_ENTRIES, min_size=1, max_size=5)
_MATRICES = st.lists(st.one_of(_VECTORS, _NUMBERS), min_size=1, max_size=5)
_ANY_JSON = st.recursive(
    st.one_of(st.none(), _NUMBERS, st.text(max_size=4)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=16,
)


class TestParseSpecFuzz:
    @given(payload=st.one_of(_ANY_JSON, _VECTORS, _MATRICES), n=st.integers(1, 2))
    def test_inline_json_raises_only_invalid_state_error(self, payload, n):
        # arbitrary JSON (NaN, Infinity and integers beyond float range
        # included) either parses to a finite 2^n x 2^n matrix or raises
        # InvalidStateError, without numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rho, _ = parse_state_spec(json.dumps(payload), n)
            except InvalidStateError:
                return
        assert rho.shape == (1 << n, 1 << n)
        assert np.isfinite(rho).all()


class TestValidation:
    def test_accepts_mixed_state(self):
        validate_density_matrix(np.eye(4, dtype=complex) / 4, 4)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        rho[1, 1] = bad
        with pytest.raises(InvalidStateError, match="NaN or infinite"):
            validate_density_matrix(rho, 2)

    @pytest.mark.parametrize(
        "rho,message",
        [
            ([[0.5, 1e308], [-1e308, 0.5]], "Hermitian"),  # the difference overflows
            ([[1e308, 0], [0, 1e308]], "trace"),  # the trace overflows
        ],
    )
    def test_entries_near_float_limit_rejected_without_warnings(self, rho, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match=message):
                validate_density_matrix(np.array(rho, dtype=complex))

    def test_library_entry_points_reject_overflowing_matrix_without_warnings(self):
        from qphase.system import build_system
        from qphase.tomography import MeasurementPlan, simulate_counts
        from qphase.wigner import wigner_from_state

        system = build_system(1)
        rho = np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="Hermitian"):
                wigner_from_state(rho, system.net)
            with pytest.raises(InvalidStateError, match="Hermitian"):
                simulate_counts(rho, MeasurementPlan(bases=system.bases, shots_per_basis=16, seed=0))

    def test_random_density_matrices_are_physical(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 8):
            for _ in range(5):
                validate_density_matrix(random_density_matrix(rng, dim), dim)

    def test_random_pure_states_are_unit(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert np.linalg.norm(random_pure_state(rng, 4)) == pytest.approx(1.0)
