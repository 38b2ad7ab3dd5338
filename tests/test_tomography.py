import dataclasses
import gc
import hashlib
import math
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qphase.tomography
import qphase.wigner
from qphase import cli
from qphase.geometry import Point
from qphase.mub import StriationBasis, _sign_frame
from qphase.states import (
    InvalidStateError,
    random_density_matrix,
    random_pure_state,
    registry_vector,
    validate_density_matrix,
)
from qphase.system import build_system
from qphase.tomography import (
    CountsRecord,
    InvalidCountsError,
    MeasurementPlan,
    _basis_stream,
    _basis_streams,
    _sample_counts,
    error_scaling_study,
    estimate_state,
    estimate_wigner,
    fidelity,
    loglog_slope,
    outcome_probabilities,
    project_to_physical,
    simulate_and_estimate,
    simulate_counts,
    trace_distance,
)
from qphase.wigner import line_sum, state_from_wigner, wigner_from_state


def rho_of(name):
    _, v = registry_vector(name)
    return np.outer(v, v.conj())


def plan_for(sys, shots, seed=0):
    return MeasurementPlan(bases=sys.bases, shots_per_basis=shots, seed=seed)


class TestOutcomeProbabilities:
    def test_up_in_z_basis(self):
        sys = build_system(1)
        p = outcome_probabilities(rho_of("up"), sys.bases)[0]
        assert np.allclose(p, [1, 0])

    def test_up_in_x_basis_equal_superposition(self):
        sys = build_system(1)
        p = outcome_probabilities(rho_of("up"), sys.bases[1:2])[0]
        assert np.allclose(p, [0.5, 0.5])
        # the +1 eigenvector of X comes first in basis 1
        assert np.allclose(outcome_probabilities(rho_of("plus"), sys.bases)[1], [1, 0])

    def test_singlet_in_entangled_basis_cross_checked_against_line_sums(self):
        # dual route: the Pauli expectations under the basis's exponent rows
        # versus <v|rho|v> and the sums of the singlet grid over the
        # striation's lines
        sys = build_system(2)
        rho = rho_of("singlet")
        grid = wigner_from_state(rho, sys.net)
        basis = sys.bases[3]
        p = outcome_probabilities(rho, [basis])[0]
        assert np.all(p >= 0) and np.all(p <= 1)
        assert p.sum() == pytest.approx(1.0)
        assert np.allclose(p, [(v.conj() @ rho @ v).real for v in basis.vectors], atol=1e-12)
        striation = sys.striations[3]
        for line in striation.lines:
            k = sys.net.vector_index[line]
            assert p[k] == pytest.approx(line_sum(grid, line), abs=1e-12)

    def test_unphysical_state_rejected(self):
        sys = build_system(1)
        with pytest.raises(InvalidStateError):
            outcome_probabilities(np.diag([1.2, -0.2]).astype(complex), sys.bases)

    def test_bases_without_integer_rows_refused(self):
        sys = build_system(1)
        bare = [StriationBasis(b.striation, b.vectors, b.stabilizers) for b in sys.bases]
        with pytest.raises(ValueError, match="striation 0 carries no stabilizer exponents"):
            outcome_probabilities(rho_of("up"), bare)
        with pytest.raises(ValueError, match="no bases"):
            outcome_probabilities(rho_of("up"), [])


class TestSimulateCounts:
    def test_deterministic_outcome_state(self):
        sys = build_system(1)
        for seed in (0, 1, 123456):
            counts = simulate_counts(rho_of("up"), plan_for(sys, 200, seed))
            assert counts.counts[0].tolist() == [200, 0]

    def test_counts_sum_to_shots(self):
        sys = build_system(2)
        counts = simulate_counts(rho_of("singlet"), plan_for(sys, 77, seed=3))
        for arr in counts.counts.values():
            assert arr.sum() == 77

    def test_identical_records_for_fixed_seed(self):
        sys = build_system(1)
        rho = rho_of("tilted-111")
        a = simulate_counts(rho, plan_for(sys, 100, seed=42))
        b = simulate_counts(rho, plan_for(sys, 100, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        sys = build_system(1)
        rho = rho_of("tilted-111")
        a = simulate_counts(rho, plan_for(sys, 5000, seed=0))
        b = simulate_counts(rho, plan_for(sys, 5000, seed=1))
        assert a != b

    def test_exact_mode_carries_probabilities(self):
        sys = build_system(1)
        counts = simulate_counts(rho_of("up"), plan_for(sys, 0))
        assert counts.shots == 0
        assert np.allclose(counts.frequencies(1), [0.5, 0.5])

    def test_plan_validation(self):
        sys = build_system(2)
        with pytest.raises(ValueError):
            MeasurementPlan(bases=sys.bases[:3], shots_per_basis=10, seed=0)
        with pytest.raises(ValueError):
            MeasurementPlan(bases=sys.bases, shots_per_basis=-1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_plan_refuses_a_seed_outside_the_key_range(self, seed):
        # a stream key word is 64 bits: taken mod 2^64 these seeds would
        # give the counts of 2^64 - 1, 0 and 7
        with pytest.raises(ValueError, match="seed must be between 0 and 2"):
            MeasurementPlan(bases=build_system(1).bases, shots_per_basis=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_plan_takes_the_ends_of_the_key_range(self, seed):
        sys = build_system(1)
        record = simulate_counts(rho_of("tilted-111"), plan_for(sys, 64, seed))
        assert record.seed == seed
        for basis, p in zip(sys.bases, outcome_probabilities(rho_of("tilted-111"), sys.bases)):
            ref = _sample_counts(p, 64, _basis_stream(seed, basis.striation))
            assert np.array_equal(record.counts[basis.striation], ref)

    def test_plan_without_bases_names_the_fault(self):
        with pytest.raises(ValueError, match="no bases"):
            MeasurementPlan(bases=(), shots_per_basis=10, seed=0)

    def test_plan_refuses_a_basis_without_integer_rows(self):
        sys = build_system(2)
        bases = list(sys.bases)
        bases[3] = StriationBasis(3, bases[3].vectors, bases[3].stabilizers)
        with pytest.raises(ValueError, match="basis of striation 3 carries no stabilizer exponents or masks"):
            MeasurementPlan(bases=tuple(bases), shots_per_basis=10, seed=0)
        bases[3] = dataclasses.replace(sys.bases[3], masks=None)
        with pytest.raises(ValueError, match="basis of striation 3"):
            MeasurementPlan(bases=tuple(bases), shots_per_basis=0, seed=0)

    def test_json_round_trip(self):
        sys = build_system(1)
        counts = simulate_counts(rho_of("y+"), plan_for(sys, 64, seed=9))
        assert CountsRecord.from_json_dict(counts.to_json_dict()) == counts
        exact = simulate_counts(rho_of("y+"), plan_for(sys, 0, seed=9))
        back = CountsRecord.from_json_dict(exact.to_json_dict())
        assert back == exact


def per_shot_counts(p, u):
    """Reference sampler: inverse transform with one binary search per draw."""
    edges = np.cumsum(p)
    edges[-1] = 1.0
    return np.bincount(np.searchsorted(edges, u, side="right"), minlength=len(p))


class FixedDraws:
    """Stands in for a Generator whose next draws are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shots):
        assert shots == len(self.u)
        return self.u.copy()


def state_of_kind(kind, dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "haar":
        v = random_pure_state(rng, dim)
        return np.outer(v, v.conj())
    if kind == "wishart":
        return random_density_matrix(rng, dim)
    rho = np.zeros((dim, dim), dtype=complex)  # a computational-basis state
    k = int(rng.integers(dim))
    rho[k, k] = 1.0
    return rho


class TestSortedDrawCounting:
    """simulate_counts counts sorted draws; the counts must equal per-shot placement."""

    @settings(max_examples=100)
    @given(
        n=st.integers(1, 4),
        shots=st.sampled_from([1, 2, 63, 4096]),
        kind=st.sampled_from(["haar", "wishart", "basis"]),
        state_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_counts_equal_per_shot_inverse_transform(self, n, shots, kind, state_seed, seed):
        sys = build_system(n)
        rho = state_of_kind(kind, sys.dim, state_seed)
        record = simulate_counts(rho, plan_for(sys, shots, seed))
        probs = outcome_probabilities(rho, sys.bases)
        for basis, p in zip(sys.bases, probs):
            got = record.counts[basis.striation]
            ref = per_shot_counts(p, _basis_stream(seed, basis.striation).random(shots))
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)

    def test_cumsum_past_one_before_a_trailing_zero(self):
        # the float cumsum of this p exceeds 1 at the second-to-last edge, so
        # forcing the last edge to 1 leaves it below its predecessor
        p = np.append(np.random.default_rng(0).random(7), 0.0)
        p /= p.sum()
        assert np.cumsum(p)[-2] > 1.0
        for seed in range(5):
            got = _sample_counts(p, 4096, _basis_stream(seed, 3))
            assert np.array_equal(got, per_shot_counts(p, _basis_stream(seed, 3).random(4096)))
        u = [0.0, 0.5, 1 - 2**-20, np.nextafter(1.0, 0.0), 1 - 2**-53]
        got = _sample_counts(p, len(u), FixedDraws(u))
        assert np.array_equal(got, per_shot_counts(p, u))
        assert got[-1] == 0

    def test_cumsum_short_of_one(self):
        # the float cumsum ends just below 1; the largest draw still lands
        # in the last outcome because the last edge is forced to 1
        p = np.random.default_rng(1).random(5)
        p /= p.sum()
        assert np.cumsum(p)[-1] < 1.0
        u = [np.nextafter(1.0, 0.0), 0.5]
        got = _sample_counts(p, len(u), FixedDraws(u))
        assert got.sum() == 2 and got[-1] == 1
        assert np.array_equal(got, per_shot_counts(p, u))

    def test_draws_exactly_on_the_edges(self):
        # edges [0.25, 0.5, 0.5, 1]: a draw equal to an edge belongs to the
        # next outcome with nonzero probability
        p = np.array([0.25, 0.25, 0.0, 0.5])
        u = [0.5, 0.0, 0.25, 0.75, 0.25, np.nextafter(1.0, 0.0), 0.5]
        got = _sample_counts(p, len(u), FixedDraws(u))
        assert got.tolist() == [1, 2, 0, 4]
        assert np.array_equal(got, per_shot_counts(p, u))

    def test_pinned_record(self):
        # a literal record: any change to the streams or the sampling rule shows here
        sys = build_system(1)
        record = simulate_counts(rho_of("tilted-111"), plan_for(sys, 100, seed=42))
        assert record.to_json_dict() == {
            "n": 1,
            "shots": 100,
            "seed": 42,
            "counts": {"0": [19, 81], "1": [21, 79], "2": [74, 26]},
        }


class TestOneGeneratorPerCall:
    """simulate_counts re-keys one Philox per call; each basis still draws
    exactly the stream of a fresh Philox(key=(seed, striation))."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rekeyed_draws_equal_fresh_streams(self, n, seed):
        # Philox buffers four 64-bit words per block, so 1, 2, 3 or 5 draws
        # leave the buffer mid-block; a re-key that kept its position would
        # shift the next basis's draws
        striations = range((1 << n) + 1)
        for shots in (1, 2, 3, 5, 4096):
            seen = []
            for s, rng in zip(striations, _basis_streams(seed, striations)):
                seen.append(rng)
                assert np.array_equal(rng.random(shots), _basis_stream(seed, s).random(shots))
            assert len(seen) == len(striations) and all(rng is seen[0] for rng in seen)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_philox_per_call(self, n, monkeypatch):
        sys = build_system(n)
        rho = state_of_kind("wishart", sys.dim, n)
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        for seed in (0, 1):
            simulate_counts(rho, plan_for(sys, 64, seed))
        assert len(built) == 2


class TestNetSignFrame:
    def test_estimate_wigner_reads_the_frame_stacked_once(self, monkeypatch):
        sys = build_system(3)
        counts = simulate_counts(state_of_kind("wishart", sys.dim, 3), plan_for(sys, 64, seed=1))
        grid = estimate_wigner(counts, sys.net)
        frame = sys.net.sign_frame
        for got, ref in zip(frame, _sign_frame(sys.bases)):
            assert np.array_equal(got, ref) and not got.flags.writeable

        def refuse(bases):
            raise AssertionError("stacked the sign frame again")

        monkeypatch.setattr(qphase.tomography, "_sign_frame", refuse)
        assert np.array_equal(estimate_wigner(counts, sys.net).values, grid.values)
        assert sys.net.sign_frame is frame

    def test_simulate_counts_reads_the_build_frame(self, monkeypatch):
        sys = build_system(3)
        frame = sys.bases[0]._frame
        assert _sign_frame(sys.bases) is frame and _sign_frame(list(sys.bases)) is frame
        assert all(not a.flags.writeable for a in frame)
        seen = []

        def record(bases):
            seen.append(_sign_frame(bases))
            return seen[-1]

        monkeypatch.setattr(qphase.tomography, "_sign_frame", record)
        simulate_counts(state_of_kind("wishart", sys.dim, 3), plan_for(sys, 64, seed=1))
        assert len(seen) == 1 and seen[0] is frame

    def test_other_basis_lists_are_stacked_anew(self):
        sys = build_system(3)
        frame = _sign_frame(sys.bases)
        swapped = [sys.bases[1], sys.bases[0], *sys.bases[2:]]
        copied = [dataclasses.replace(b) for b in sys.bases]
        for bases in (swapped, copied, sys.bases[:-1]):
            got = _sign_frame(bases)
            assert got is not frame
            for a, ref in zip(got, frame):
                assert np.array_equal(a, ref[[b.striation for b in bases]])

    def test_a_cleared_build_frees_the_net(self):
        # the frame lives on the net, so clearing build_system frees both
        def used_net():
            sys = build_system(3)
            rho = state_of_kind("haar", sys.dim, 0)
            estimate_state(simulate_counts(rho, plan_for(sys, 64, seed=1)), sys.net, truth=rho)
            return weakref.ref(sys.net)

        build_system.cache_clear()
        try:
            ref = used_net()
            assert ref() is not None
            build_system.cache_clear()
            gc.collect()
            assert ref() is None
        finally:
            build_system.cache_clear()


class TestCountsValidation:
    GOOD = {"n": 1, "shots": 10, "seed": 0, "counts": {"0": [5, 5], "1": [10, 0], "2": [5, 5]}}

    def payload(self, **counts):
        return {**self.GOOD, "counts": {**self.GOOD["counts"], **counts}}

    def test_valid_payload_accepted(self):
        record = CountsRecord.from_json_dict(self.GOOD)
        assert record.counts[1].tolist() == [10, 0]
        assert record.counts[1].dtype == np.int64

    def test_negative_counts_rejected(self):
        # Sums to shots in every striation; without the check estimate_state
        # returned rho_raw = [[-0.5, 0.5], [0.5, 1.5]].
        with pytest.raises(InvalidCountsError, match="negative"):
            CountsRecord.from_json_dict(self.payload(**{"0": [-5, 15]}))

    def test_negative_frequency_rejected_in_exact_mode(self):
        payload = {"n": 1, "shots": 0, "seed": 0,
                   "counts": {"0": [1.5, -0.5], "1": [1.0, 0.0], "2": [0.5, 0.5]}}
        with pytest.raises(InvalidCountsError, match="negative"):
            CountsRecord.from_json_dict(payload)

    def test_non_finite_frequency_rejected(self):
        payload = {"n": 1, "shots": 0, "seed": 0,
                   "counts": {"0": [float("nan"), 1.0], "1": [1.0, 0.0], "2": [0.5, 0.5]}}
        with pytest.raises(InvalidCountsError, match="non-finite"):
            CountsRecord.from_json_dict(payload)

    def test_fractional_count_rejected(self):
        with pytest.raises(InvalidCountsError, match="fractional"):
            CountsRecord.from_json_dict(self.payload(**{"0": [5.5, 4.5]}))

    def test_non_numeric_entries_and_keys_rejected(self):
        with pytest.raises(InvalidCountsError):
            CountsRecord.from_json_dict(self.payload(**{"0": ["five", 5]}))
        with pytest.raises(InvalidCountsError):
            CountsRecord.from_json_dict({**self.GOOD, "counts": {"x": [5, 5]}})

    def test_total_must_equal_shots(self):
        with pytest.raises(InvalidCountsError, match="sum to 9"):
            CountsRecord.from_json_dict(self.payload(**{"1": [9, 0]}))

    def test_vector_length_must_be_dimension(self):
        with pytest.raises(InvalidCountsError, match="3 outcomes"):
            CountsRecord.from_json_dict(self.payload(**{"2": [5, 5, 0]}))

    # Only the keys to_json_dict writes: "02" must neither replace nor stand for "2".
    @pytest.mark.parametrize(
        "keys",
        [
            ["0", "1"], ["0", "1", "2", "3"], ["0", "1", "3"], ["0", "1", "2", "02"],
            ["0", "0_1", "2"], ["0", "1", " +2 "], ["0", "1", "２"], ["0", "1", "02"],
        ],
    )
    def test_striation_keys_must_be_complete(self, keys):
        payload = {**self.GOOD, "counts": {k: [5, 5] for k in keys}}
        with pytest.raises(InvalidCountsError, match="keys 0..2"):
            CountsRecord.from_json_dict(payload)

    def test_huge_n_rejected_by_key_count(self):
        # The key count is compared with N + 1 before the N + 1 expected
        # keys are listed, so n = 64 does not try to build 2^64 strings.
        with pytest.raises(InvalidCountsError, match=r"n = 64 need striation keys 0..2\^64"):
            CountsRecord.from_json_dict({**self.GOOD, "n": 64})

    @pytest.mark.parametrize("n", [20000, 10**9])
    def test_huge_n_builds_no_power_of_two(self, n):
        # 2^20000 has more decimal digits than int-to-str allows, and 2^(10^9)
        # takes 125 MB; N is read off the three keys instead.
        start = time.perf_counter()
        with pytest.raises(InvalidCountsError, match=f"n = {n} need"):
            CountsRecord.from_json_dict({**self.GOOD, "n": n})
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize(
        "field, value",
        [("shots", -10), ("shots", 10.7), ("n", -1), ("n", 0), ("seed", 0.5), ("seed", "0"), ("n", True)],
    )
    def test_header_must_be_whole_numbers_in_range(self, field, value):
        with pytest.raises(InvalidCountsError, match=field):
            CountsRecord.from_json_dict({**self.GOOD, field: value})

    @pytest.mark.parametrize("field", ["n", "shots", "seed", "counts"])
    def test_missing_key_rejected(self, field):
        payload = {k: v for k, v in self.GOOD.items() if k != field}
        with pytest.raises(InvalidCountsError):
            CountsRecord.from_json_dict(payload)

    def test_whole_float_header_accepted(self):
        assert CountsRecord.from_json_dict({**self.GOOD, "shots": 10.0}).shots == 10

    def test_exact_frequencies_must_sum_to_one(self):
        payload = {"n": 1, "shots": 0, "seed": 0,
                   "counts": {"0": [0.5, 0.4], "1": [1.0, 0.0], "2": [0.5, 0.5]}}
        with pytest.raises(InvalidCountsError, match="sum to 0.9"):
            CountsRecord.from_json_dict(payload)
        payload["counts"]["0"] = [0.5, 0.5 + 1e-12]
        assert CountsRecord.from_json_dict(payload).counts[0][1] == 0.5 + 1e-12

    def test_error_is_a_value_error_exported_from_package(self):
        import qphase

        assert qphase.InvalidCountsError is InvalidCountsError
        assert issubclass(InvalidCountsError, ValueError)


class TestEstimateWigner:
    def test_exact_up_reproduces_table(self):
        sys = build_system(1)
        counts = simulate_counts(rho_of("up"), plan_for(sys, 0))
        grid = estimate_wigner(counts, sys.net)
        assert np.max(np.abs(grid.values - [[0.5, 0.5], [0, 0]])) < 1e-12

    def test_exact_maximally_mixed_uniform(self):
        sys = build_system(2)
        counts = simulate_counts(np.eye(4, dtype=complex) / 4, plan_for(sys, 0))
        grid = estimate_wigner(counts, sys.net)
        assert np.max(np.abs(grid.values - 1 / 16)) < 1e-12

    def test_exact_singlet_pattern(self):
        sys = build_system(2)
        counts = simulate_counts(rho_of("singlet"), plan_for(sys, 0))
        grid = estimate_wigner(counts, sys.net)
        ref = np.zeros((4, 4))
        ref[np.ix_([1, 2], [1, 2])] = 0.25
        assert np.max(np.abs(grid.values - ref)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_equals_direct_inverse_path(self, n):
        # the line-sum formula must agree with wigner_from_state on exact input
        sys = build_system(n)
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho = random_density_matrix(rng, sys.dim)
            counts = simulate_counts(rho, plan_for(sys, 0))
            est = estimate_wigner(counts, sys.net)
            direct = wigner_from_state(rho, sys.net)
            assert np.max(np.abs(est.values - direct.values)) < 1e-12

    def test_missing_striation_rejected(self):
        sys = build_system(1)
        counts = simulate_counts(rho_of("up"), plan_for(sys, 16))
        del counts.counts[2]
        with pytest.raises(ValueError):
            estimate_wigner(counts, sys.net)

    def test_counts_for_another_size_rejected(self):
        # Only the first two entries of each vector would be read: the
        # estimate came out as I/2 without an error.
        record = CountsRecord(n=2, shots=0, seed=0, counts={s: np.array([0.5, 0.5, 0, 0]) for s in range(5)})
        with pytest.raises(InvalidCountsError, match="n = 2"):
            estimate_state(record, build_system(1).net)

    def test_grid_sums_to_one_even_at_finite_shots(self):
        sys = build_system(1)
        counts = simulate_counts(rho_of("tilted-111"), plan_for(sys, 13, seed=2))
        assert estimate_wigner(counts, sys.net).total == pytest.approx(1.0)

    def test_no_per_state_path_reads_the_outcome_table(self, monkeypatch):
        sys = build_system(3)

        def refuse(self):
            raise AssertionError("outcome table read")

        monkeypatch.setattr(qphase.wigner.QuantumNet, "outcome_index_table", refuse)
        rho = random_density_matrix(np.random.default_rng(8), sys.dim)
        for shots in (0, 64):
            estimate_state(simulate_counts(rho, plan_for(sys, shots, seed=3)), sys.net, truth=rho)
        error_scaling_study(rho, sys.net, list(sys.bases), [16, 64], [0, 1])


class TestEstimateState:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_reconstruction(self, n):
        sys = build_system(n)
        rng = np.random.default_rng(47)
        for _ in range(5):
            rho = random_density_matrix(rng, sys.dim)
            counts = simulate_counts(rho, plan_for(sys, 0))
            report = estimate_state(counts, sys.net, truth=rho)
            assert report.trace_distance < 1e-9
            assert report.fidelity == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(report.rho_raw - rho)) < 1e-9

    def test_truth_equal_estimate_gives_zero_distance(self):
        sys = build_system(1)
        rho = rho_of("up")
        counts = simulate_counts(rho, plan_for(sys, 0))
        report = estimate_state(counts, sys.net, truth=rho)
        assert report.trace_distance == pytest.approx(0.0, abs=1e-12)
        assert report.fidelity == pytest.approx(1.0)

    def test_projection_yields_physical_state_at_low_shots(self):
        sys = build_system(1)
        rho = rho_of("tilted-111")
        saw_nonphysical_raw = False
        for seed in range(100):
            counts = simulate_counts(rho, plan_for(sys, 10, seed))
            report = estimate_state(counts, sys.net)
            if np.linalg.eigvalsh(report.rho_raw).min() < -1e-12:
                saw_nonphysical_raw = True
            proj = report.rho_projected
            assert np.linalg.eigvalsh(proj).min() >= -1e-12
            assert np.trace(proj).real == pytest.approx(1.0)
        assert saw_nonphysical_raw  # 10 shots routinely produce a non-PSD raw estimate

    def test_without_projection(self):
        sys = build_system(1)
        counts = simulate_counts(rho_of("up"), plan_for(sys, 0))
        report = estimate_state(counts, sys.net, project=False)
        assert report.rho_projected is None
        assert np.max(np.abs(report.estimate - report.rho_raw)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shots", [0, 64])
    def test_simulate_and_estimate_gives_the_two_step_results(self, n, shots):
        sys = build_system(n)
        rho = state_of_kind("wishart", sys.dim, n)
        counts, report = simulate_and_estimate(rho, plan_for(sys, shots, seed=5), sys.net)
        assert counts == simulate_counts(rho, plan_for(sys, shots, seed=5))
        ref = estimate_state(counts, sys.net, truth=rho)
        assert report.wigner.values.tobytes() == ref.wigner.values.tobytes()
        assert report.estimate.tobytes() == ref.estimate.tobytes()
        metrics = ("fidelity", "trace_distance", "max_wigner_error")
        assert [getattr(report, m) for m in metrics] == [getattr(ref, m) for m in metrics]

    def test_cli_tomo_validates_the_state_once(self, monkeypatch, capsys):
        calls = []
        real = qphase.tomography.validate_density_matrix

        def counted(rho, dim=None):
            calls.append(dim)
            return real(rho, dim)

        for module in (qphase.tomography, qphase.wigner):
            monkeypatch.setattr(module, "validate_density_matrix", counted)
        assert cli.main(["tomo", "2", "--state", "bell0", "--shots", "64"]) == 0
        assert calls == [4]


def _digest(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


# sha256, at n = 5..7 where the stdout corpus does not reach, of a seeded
# state's wigner_from_state grid (<f8), the state_from_wigner state of that
# grid (<c16), the 4096-shot simulate_counts rows (<i8) and
# estimate_state(project=False).rho_raw from those counts (<c16).
PER_STATE_DIGESTS = {
    (5, 'haar'): (
        "2230cd92a467ccd983869513467ee00bd231ac42f9cf979b7efe29665b3fc0cc",
        "a585de1fe75b26f4cbf715a094a9c8a57135a2ab792ade7c89155a3dc541b866",
        "20b97466e592bc95d87c71b90b70158dfc2c62b11bcde365d632cdc568415a8f",
        "f32782c621e7828e30d89cb8fe9d8070f798f194e204b098a4d32a97c0426b1a",
    ),
    (5, 'wishart'): (
        "56cb6ca2baaa7103991ddc8840f93decb3f8708ee1fb63e0dca222d52ad6ef9b",
        "8ed7a9381b75e5d8b7e0cedd36255a8057b2e11f340dc0ee85ef05debe4bf948",
        "bb3dfc36f4060dc5e7ef14783294a31adf26582e679e7e17eb7e008319671e1c",
        "37659da635150e8e26675cc2d5a02be47492e119ca2fc8ec62be9b2b9736d853",
    ),
    (6, 'haar'): (
        "98c8dfa96274bd10e25afb30b3b9d4e64a78106a3cb9e41ef11963d7fb81f1dc",
        "1c2a6b4d70af0ab1cdcccd4a545d39dc131a7e70b08ec0cadbf078db7a001560",
        "78a6479390be266b4b3f538e1a9116878a5f079e7a775876e5be6fa4578fdcb4",
        "540ddc32446a19a56ae01248d1ee5b724a38262d1a389b7c46969e2e9a6bee7d",
    ),
    (6, 'wishart'): (
        "273c39fcd8f1536d6c49ee8c48b3c24f731d3e7bf249709f9cc994f643e92e14",
        "4bb3c3bb0a2e49c64daca7987c4d0a1410a1ab6ac3f1309e22a10314273a86ee",
        "a6245cd90b3b491277db4a7a97472a9c32a0019d8a63aca7e427cdc10488f2a4",
        "7e9fcbf985b21a7b16e16aba89eb5c58248f111711e262fa1866d7d7635b7ac8",
    ),
    (7, 'haar'): (
        "ed9beff9fc6d8a1e96f992dd5d3b1a454a9b53a62f4734b5abeea9db8d53688e",
        "c13530ca5f7c8450135b852106fb0bc73873eacb6d5a48b66e7a9f86dbe50ffa",
        "1fe491bdcde9df72f379e7c378dac9700235c83868912c7a736ec06bb8721a1b",
        "0b81220f6cade4d81a03149d87f3ada3505c12d31bcd3b743ba48992e21b7eb9",
    ),
    (7, 'wishart'): (
        "202e968d49de3786ab218c42d1ca7ab395fd8177dccd020ee6fbbd090d098bdf",
        "41ee814155a641e33ad6f884db78e5e9818aeb2a60e1d359efc99958f85e78e2",
        "137ac7a47240475089c392d2766b604d4b41a586e15cda643a6e2c0cf4d7031f",
        "9dbd793b1c3283fedac7f02c3c8c07cc8b0f3677a71669c9021927611eb33ab5",
    ),
}


class TestPerStatePinnedByBytes:
    @pytest.mark.parametrize("n,kind", sorted(PER_STATE_DIGESTS))
    def test_per_state_bytes(self, n, kind):
        sys = build_system(n)
        rho = state_of_kind(kind, sys.dim, seed=n)
        grid = wigner_from_state(rho, sys.net)
        counts = simulate_counts(rho, plan_for(sys, 4096, seed=n))
        got = (
            _digest(grid.values, "<f8"),
            _digest(state_from_wigner(grid, sys.net), "<c16"),
            _digest(np.stack([counts.counts[b.striation] for b in sys.bases]), "<i8"),
            _digest(estimate_state(counts, sys.net, project=False).rho_raw, "<c16"),
        )
        assert got == PER_STATE_DIGESTS[n, kind]


class TestExactReconstruction:
    """With a power-of-two shot count every intermediate of the raw estimate
    is a dyadic rational, so rho_raw is exact and printed digits at a
    rounding tie do not depend on summation order."""

    @pytest.mark.parametrize("seed", range(10))
    def test_raw_estimate_equals_the_rational_sum(self, seed):
        sys, shots = build_system(3), 4096
        dim = sys.dim
        counts = simulate_counts(state_of_kind("wishart", dim, seed), plan_for(sys, shots, seed))
        report = estimate_state(counts, sys.net)
        # W_a = (sum over the lines through a of count / shots - 1) / N.
        w = [
            (sum(Fraction(int(counts.counts[s][k]), shots) for s, k in enumerate(row)) - 1) / dim
            for row in sys.net.outcome_index_table().tolist()
        ]
        assert [Fraction(x) for x in report.wigner.values.reshape(-1).tolist()] == w
        # N A_a is a sum of Pauli strings with +-1 and +-i weights: Gaussian integers.
        scaled = sys.net.phase_point_stack() * dim
        whole = np.round(scaled)
        assert np.max(np.abs(scaled - whole)) < 1e-9
        for part in (np.real, np.imag):
            # Column e of the (N^2, N^2) table holds entry e of every N A_a.
            columns = part(whole).reshape(len(w), -1).T.tolist()
            exact = [sum(w[a] * int(m) for a, m in enumerate(col) if m) / dim for col in columns]
            assert [Fraction(x) for x in part(report.rho_raw).reshape(-1).tolist()] == exact


class TestMetrics:
    def test_fidelity_identity(self):
        rho = rho_of("singlet")
        assert fidelity(rho, rho) == pytest.approx(1.0)

    def test_fidelity_orthogonal_states(self):
        assert fidelity(rho_of("up"), rho_of("down")) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fidelity_with_a_pure_truth_is_the_overlap(self, n):
        # For rho = |psi><psi| the fidelity is <psi|sigma|psi>; rounding noise
        # in the zero eigenvalues must not reach it through the square roots.
        sys = build_system(n)
        for seed in range(20):
            psi = random_pure_state(np.random.default_rng(seed), sys.dim)
            rho = np.outer(psi, psi.conj())
            counts = simulate_counts(rho, plan_for(sys, 64, seed))
            sigma = estimate_state(counts, sys.net).estimate
            assert abs(fidelity(rho, sigma) - (psi.conj() @ sigma @ psi).real) < 1e-12

    def test_trace_distance_extremes(self):
        assert trace_distance(rho_of("up"), rho_of("up")) == pytest.approx(0.0)
        assert trace_distance(rho_of("up"), rho_of("down")) == pytest.approx(1.0)

    def test_projection_clips_and_renormalizes(self):
        # Eigenvalue truncation, which is not the nearest physical state:
        # (0.6, 0.4, 0, 0) is closer to this input than the result.
        rho = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
        out = project_to_physical(rho)
        assert np.allclose(out, np.diag([0.7, 0.5, 0.0, 0.0]) / 1.2, atol=1e-12)
        assert np.linalg.norm(out - rho) == pytest.approx(0.2461, abs=1e-4)
        assert np.linalg.norm(np.diag([0.6, 0.4, 0, 0]) - rho) < np.linalg.norm(out - rho)

    def test_projection_idempotent_on_physical(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_density_matrix(rng, 4)
            assert np.max(np.abs(project_to_physical(rho) - rho)) < 1e-12


class TestUnbiasedness:
    def test_mean_estimate_tracks_truth(self):
        # mean of the grid estimator over 10^4 seeds at 64 shots stays within
        # three standard errors of the exact value, spot-checked at 5 points
        sys = build_system(2)
        rho = rho_of("singlet")
        truth = wigner_from_state(rho, sys.net).values
        seeds = range(10_000)
        spots = [(0, 0), (1, 1), (2, 1), (3, 3), (0, 2)]
        samples = np.empty((len(seeds), len(spots)))
        for row, seed in enumerate(seeds):
            grid = estimate_wigner(
                simulate_counts(rho, plan_for(sys, 64, seed)), sys.net
            ).values
            samples[row] = [grid[qi, pi] for qi, pi in spots]
        means = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(len(seeds))
        for k, (qi, pi) in enumerate(spots):
            assert abs(means[k] - truth[qi, pi]) <= 3 * stderr[k]


class TestScaling:
    def test_exact_mode_zero_error(self):
        sys = build_system(1)
        rho = rho_of("tilted-111")
        counts = simulate_counts(rho, plan_for(sys, 0))
        report = estimate_state(counts, sys.net, truth=rho)
        assert report.max_wigner_error < 1e-12

    def test_error_decreases_and_slope_matches_root_m(self):
        sys = build_system(1)
        rho = rho_of("tilted-111")
        rows = error_scaling_study(
            rho, sys.net, list(sys.bases), [64, 256, 1024], seeds=list(range(60))
        )
        errors = [r.mean_max_wigner_error for r in rows]
        assert errors[0] > errors[1] > errors[2]
        assert -0.65 <= loglog_slope(rows) <= -0.35

    def test_doubling_ratio(self):
        # doubling the ensemble should shrink the mean error by ~1/sqrt(2),
        # within 20%, averaged over 200 seeds
        sys = build_system(1)
        rho = rho_of("tilted-111")
        rows = error_scaling_study(
            rho, sys.net, list(sys.bases), [512, 1024], seeds=list(range(200))
        )
        ratio = rows[1].mean_max_wigner_error / rows[0].mean_max_wigner_error
        target = 1 / math.sqrt(2)
        assert abs(ratio - target) < 0.2 * target

    @pytest.mark.parametrize("n,kind", [(1, "haar"), (2, "wishart"), (3, "haar")])
    def test_study_equals_per_trial_pipeline(self, n, kind):
        sys = build_system(n)
        rho = state_of_kind(kind, sys.dim, 5)
        shot_list, seeds = [16, 256], list(range(4))
        rows = error_scaling_study(rho, sys.net, list(sys.bases), shot_list, seeds)
        for row, shots in zip(rows, shot_list):
            reports = [
                estimate_state(simulate_counts(rho, plan_for(sys, shots, seed)), sys.net, truth=rho)
                for seed in seeds
            ]
            assert row.mean_max_wigner_error == float(np.mean([r.max_wigner_error for r in reports]))
            assert row.mean_trace_distance == float(np.mean([r.trace_distance for r in reports]))

    def test_study_validates_rho_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return validate_density_matrix(*args, **kwargs)

        for module in (qphase.tomography, qphase.wigner):
            monkeypatch.setattr(module, "validate_density_matrix", counting)
        sys = build_system(2)
        error_scaling_study(rho_of("singlet"), sys.net, list(sys.bases), [64, 256], seeds=[0, 1, 2])
        assert len(calls) == 1

    def test_study_checks_the_sign_frame_once(self, monkeypatch):
        sys = build_system(3)
        copied = [dataclasses.replace(b) for b in sys.bases]  # no shared build: each frame is stacked anew
        rho, shot_list, seeds = state_of_kind("wishart", sys.dim, 2), [16, 64, 256], [0, 1, 2]
        expected = error_scaling_study(rho, sys.net, list(sys.bases), shot_list, seeds)
        calls = []

        def counting(bases):
            calls.append(1)
            return _sign_frame(bases)

        monkeypatch.setattr(qphase.tomography, "_sign_frame", counting)
        assert error_scaling_study(rho, sys.net, copied, shot_list, seeds) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("shots,seed", [(-1, 0), (16, -1), (16, 1 << 64)])
    def test_study_rejects_what_a_plan_rejects(self, shots, seed):
        sys = build_system(1)
        with pytest.raises(ValueError) as plan_error:
            plan_for(sys, shots, seed)
        with pytest.raises(ValueError) as study_error:
            error_scaling_study(rho_of("up"), sys.net, list(sys.bases), [shots], [seed])
        assert str(study_error.value) == str(plan_error.value)

    def test_study_rejects_unphysical_state(self):
        sys = build_system(1)
        with pytest.raises(InvalidStateError):
            error_scaling_study(np.diag([1.2, -0.2]).astype(complex), sys.net, list(sys.bases), [16], seeds=[0])

    def test_shot_list_must_ascend(self):
        sys = build_system(1)
        with pytest.raises(ValueError):
            error_scaling_study(
                rho_of("up"), sys.net, list(sys.bases), [256, 64], seeds=[0]
            )


class TestPointHelper:
    def test_estimate_closed_form_identity(self):
        # every point lies on N+1 lines and shares exactly one line with any
        # other point, which is what makes the closed form exact; verify the
        # combinatorial facts directly on the net
        sys = build_system(2)
        ctx = sys.ctx
        pts = [Point(q, p) for q in ctx.elements() for p in ctx.elements()]
        for a in pts:
            lines_a = [next(ln for ln in s.lines if a in ln) for s in sys.striations]
            assert len(lines_a) == 5
            for b in pts:
                if a == b:
                    continue
                shared = [ln for ln in lines_a if b in ln]
                assert len(shared) == 1
