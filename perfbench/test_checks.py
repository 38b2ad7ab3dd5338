"""The benchmark's own tests: each checker passes a correct output and
rejects a deliberately corrupted one.

    python3 -m pytest perfbench -q
"""

import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qphase as qp  # noqa: E402

import checks  # noqa: E402
from tracing import layer_stats, read_spans  # noqa: E402


@pytest.fixture(scope="module")
def two_qubits():
    system = qp.build_system(2)
    view = checks.system_view(system)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return system, view, rho


def test_geometry(two_qubits):
    _, view, _ = two_qubits
    checks.check_geometry(view["lines"], 4)
    bad = view["lines"].copy()
    bad[2, 0, 0], bad[2, 1, 0] = view["lines"][2, 1, 0], view["lines"][2, 0, 0]
    with pytest.raises(checks.CheckError):
        checks.check_geometry(bad, 4)


def test_basis_vector_with_one_phase_flipped(two_qubits):
    _, view, _ = two_qubits
    checks.check_bases(view["vectors"])
    checks.check_stabilizers(view["vectors"], view["stabilizers"])
    bad = view["vectors"].copy()
    bad[1, 0, 1] *= -1
    with pytest.raises(checks.CheckError):
        checks.check_bases(bad)
    with pytest.raises(checks.CheckError):
        checks.check_stabilizers(bad, view["stabilizers"])


def test_phase_points(two_qubits):
    system, _, _ = two_qubits
    stack = system.net.phase_point_stack()
    checks.check_phase_points(stack)
    bad = stack.copy()
    bad[[0, 1]] = bad[[1, 0]] * 1.001
    with pytest.raises(checks.CheckError):
        checks.check_phase_points(bad)
    # Hermitian, traces and sum kept: only tr(A_a A_b) changes.
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = 1e-6
    bad = stack.copy()
    bad[5] += h
    bad[6] -= h
    with pytest.raises(checks.CheckError, match="delta"):
        checks.check_phase_points(bad)


def test_grid_with_two_cells_swapped(two_qubits):
    system, view, rho = two_qubits
    vecs = checks.line_vectors(view)
    grid = qp.wigner_from_state(rho, system.net).values
    checks.check_line_sums(grid, view["lines"], vecs, rho)
    checks.check_close(checks.state_from_lines(checks.line_sums(grid, view["lines"]), vecs), rho, "state")
    bad = grid.copy()
    bad[0, 0], bad[1, 2] = grid[1, 2], grid[0, 0]
    assert grid[0, 0] != grid[1, 2]
    with pytest.raises(checks.CheckError):
        checks.check_line_sums(bad, view["lines"], vecs, rho)


def test_count_moved_between_outcomes(two_qubits):
    system, view, rho = two_qubits
    plan = qp.MeasurementPlan(bases=system.bases, shots_per_basis=4096, seed=3)
    counts = qp.simulate_counts(rho, plan).counts
    probs = checks.line_probabilities(rho, view["vectors"])
    checks.check_counts(counts, 4, 4096, probs)
    checks.check_same_counts(counts, qp.simulate_counts(rho, plan).counts)
    moved = {s: c.copy() for s, c in counts.items()}
    moved[2][0] -= 1
    moved[2][1] += 1
    with pytest.raises(checks.CheckError):
        checks.check_same_counts(counts, moved)
    far = {s: c.copy() for s, c in counts.items()}
    top = int(np.argmax(far[2]))  # at least 4096 / 4 counts
    far[2][top] -= 1000
    far[2][(top + 1) % 4] += 1000
    with pytest.raises(checks.CheckError):
        checks.check_counts(far, 4, 4096, probs)
    short = {s: c.copy() for s, c in counts.items()}
    short[0][0] -= 1
    with pytest.raises(checks.CheckError):
        checks.check_counts(short, 4, 4096, probs)


def test_estimate_metrics(two_qubits):
    system, _, rho = two_qubits
    plan = qp.MeasurementPlan(bases=system.bases, shots_per_basis=4096, seed=3)
    report = qp.estimate_state(qp.simulate_counts(rho, plan), system.net, truth=rho)
    checks.check_estimate(report.rho_projected, rho, report.fidelity, report.trace_distance)
    with pytest.raises(checks.CheckError):
        checks.check_estimate(report.rho_projected, rho, report.fidelity - 1e-3, report.trace_distance)
    with pytest.raises(checks.CheckError):
        checks.check_estimate(report.rho_raw * 1.01, rho, report.fidelity, report.trace_distance)


def test_cli_stdout_differing_in_one_byte():
    out = b'{\n  "n": 2,\n  "values": [0.25]\n}\n'
    checks.check_cli_identical(out, bytes(out), "wigner")
    assert checks.check_cli_json(out, "wigner") == {"n": 2, "values": [0.25]}
    for pos in (0, out.index(b"0.25") + 3):
        bad = bytearray(out)
        bad[pos] ^= 0x01
        with pytest.raises(checks.CheckError):
            checks.check_cli_identical(out, bytes(bad), "wigner")
    with pytest.raises(checks.CheckError):
        checks.check_cli_json(out[:-3], "wigner")


def test_tracer_sees_functions_imported_by_name(tmp_path):
    """translation_unitary is looked up in mub, not operators: its calls
    must still nest under the basis construction."""
    path = tmp_path / "spans.tsv"
    cmd = [sys.executable, os.path.join(HERE, "qphase_cmd.py"), "--spans", str(path), "--", "mub", "2"]
    assert subprocess.run(cmd, capture_output=True).returncode == 0
    spans = read_spans(path)
    names = {s[0] for s in spans}
    assert {"cli.import", "cli.main", "system.build_system", "mub.full_mub_set"} <= names
    parents = {spans[s[3]][0] for s in spans if s[0] == "operators.translation_unitary"}
    assert "mub.basis_for_striation" in parents
    # Spans outside a benchmark root count for no layer.
    assert layer_stats(spans) == {}
