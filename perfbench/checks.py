"""Output checkers, computed with numpy apart from the program.

Each checker takes plain arrays (see ``system_view``) and raises
``CheckError`` naming the first property that fails.  None of them calls a
qphase function, so the traced layers are not touched by checking.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9
# Per-outcome tail probability of the sampling check.  One tomo run tests
# about 4e5 outcomes; a fixed 6-standard-error rule would fail by chance on
# a few percent of seeds (binomial tails are heavy at small counts), so the
# bound is Bernstein's inequality at this tail instead.
SAMPLING_TAIL = 1e-12


class CheckError(AssertionError):
    """An output of the program violates a property it must have."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def system_view(system) -> dict:
    """Plain arrays taken from a built system, for the checkers below.

    lines[s, l, k] = (q index, p index) of point k of line l of striation s;
    vectors[s, k] = basis vector k of striation s; line_vector[s, l] = index
    of the vector the net assigns to line l of striation s; stabilizers[s][j]
    = j-th stabilizer unitary of striation s.
    """
    net = system.net
    lines = np.array(
        [[[(pt.q.index, pt.p.index) for pt in ln.points] for ln in s.lines] for s in net.striations]
    )
    vectors = np.array([b.vectors for b in net.bases])
    line_vector = np.array([[net.vector_index[ln] for ln in s.lines] for s in net.striations])
    stabilizers = [np.array([op.unitary for op in b.stabilizers]) for b in net.bases]
    return {
        "dim": system.dim,
        "lines": lines,
        "vectors": vectors,
        "line_vector": line_vector,
        "stabilizers": stabilizers,
    }


def line_vectors(view: dict) -> np.ndarray:
    """[s, l] -> the net's vector for line l of striation s."""
    s_idx = np.arange(view["vectors"].shape[0])[:, None]
    return view["vectors"][s_idx, view["line_vector"]]


def check_geometry(lines: np.ndarray, dim: int) -> None:
    """N+1 striations of N lines of N points; each striation partitions the
    N^2 points, and lines of different striations meet in exactly one point."""
    require(lines.shape == (dim + 1, dim, dim, 2), f"geometry has shape {lines.shape}")
    ids = lines[..., 0] * dim + lines[..., 1]
    for s in range(dim + 1):
        require(
            np.array_equal(np.sort(ids[s].ravel()), np.arange(dim * dim)),
            f"striation {s} does not partition the grid",
        )
    incidence = np.zeros((dim + 1, dim, dim * dim), dtype=np.float32)  # exact up to 2^24
    np.put_along_axis(incidence, ids, 1, axis=2)
    incidence = incidence.reshape((dim + 1) * dim, dim * dim)
    meet = incidence @ incidence.T
    same = np.kron(np.eye(dim + 1, dtype=bool), np.ones((dim, dim), dtype=bool))
    require(bool(np.all(meet[~same] == 1)), "two lines of different striations do not meet in one point")


def check_bases(vectors: np.ndarray, tol: float = TOL) -> None:
    """Each basis orthonormal; every cross-basis |<v|w>|^2 equals 1/N."""
    n_bases, dim, _ = vectors.shape
    flat = vectors.reshape(n_bases * dim, dim)
    overlap = np.abs(flat.conj() @ flat.T) ** 2
    expected = np.full_like(overlap, 1.0 / dim)
    for s in range(n_bases):
        expected[s * dim : (s + 1) * dim, s * dim : (s + 1) * dim] = np.eye(dim)
    dev = float(np.max(np.abs(overlap - expected)))
    require(dev <= tol, f"bases are not orthonormal and mutually unbiased (deviation {dev:.3e})")


def check_stabilizers(vectors: np.ndarray, stabilizers: list[np.ndarray], tol: float = TOL) -> None:
    """Every basis vector is an eigenvector of its striation's stabilizers."""
    for s in range(vectors.shape[0]):
        v = vectors[s]  # rows are vectors
        images = np.einsum("jab,kb->jka", stabilizers[s], v)  # U_j v_k
        eig = np.einsum("ka,jka->jk", v.conj(), images)
        resid = images - eig[..., None] * v[None, :, :]
        dev = float(np.max(np.abs(resid)))
        require(dev <= tol, f"basis {s} vectors are not stabilizer eigenvectors (residual {dev:.3e})")


def check_phase_points(stack: np.ndarray, tol: float = TOL) -> None:
    """A_a Hermitian with trace 1, sum_a A_a = N I, tr(A_a A_b) = N delta_ab.

    The last is checked as G x = N x for the Gram matrix G of the flattened
    operators and a few fixed random vectors x (Freivalds' test): O(N^4),
    where forming G is O(N^6) and takes seconds at n = 5.
    """
    count, dim, _ = stack.shape
    require(count == dim * dim, f"{count} phase-point operators for dimension {dim}")
    for block in np.split(stack, dim):  # N at a time: no N^4-sized temporaries
        herm = float(np.max(np.abs(block - block.conj().transpose(0, 2, 1))))
        require(herm <= tol, f"phase-point operator not Hermitian ({herm:.3e})")
    traces = np.einsum("aii->a", stack)
    require(float(np.max(np.abs(traces - 1))) <= tol, "phase-point operator trace is not 1")
    total = stack.sum(axis=0)
    require(float(np.max(np.abs(total - dim * np.eye(dim)))) <= tol, "sum of phase-point operators is not N I")
    flat = stack.reshape(count, dim * dim)
    x = np.random.default_rng(0).standard_normal((count, 4))
    dev = float(np.max(np.abs(flat @ (flat.conj().T @ x) - dim * x)))
    require(dev <= tol, f"tr(A_a A_b) is not N delta_ab (deviation {dev:.3e})")


def line_probabilities(rho: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<v|rho|v> for every vector vecs[s, l]."""
    flat = vecs.reshape(-1, vecs.shape[-1])
    return np.real(np.sum((flat.conj() @ rho) * flat, axis=1)).reshape(vecs.shape[:-1])


def line_sums(grid: np.ndarray, lines: np.ndarray) -> np.ndarray:
    return grid[lines[..., 0], lines[..., 1]].sum(axis=-1)


def check_line_sums(grid: np.ndarray, lines: np.ndarray, vecs: np.ndarray, rho: np.ndarray, tol: float = TOL) -> None:
    """The grid sums to 1 and every line's sum of W equals <v_line|rho|v_line>."""
    require(abs(float(grid.sum()) - 1.0) <= tol, f"grid sums to {float(grid.sum())!r}")
    dev = float(np.max(np.abs(line_sums(grid, lines) - line_probabilities(rho, vecs))))
    require(dev <= tol, f"line sums differ from outcome probabilities by {dev:.3e}")


def state_from_lines(probs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """rho = sum over lines of p_line P_line - I, from the bases alone."""
    flat = vecs.reshape(-1, vecs.shape[-1])
    return (flat.T * probs.ravel()) @ flat.conj() - np.eye(flat.shape[1])


def check_close(actual: np.ndarray, expected: np.ndarray, what: str, tol: float = TOL) -> None:
    dev = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    require(dev <= tol, f"{what} differs by {dev:.3e}")


def check_counts(counts: dict, dim: int, shots: int, probs: np.ndarray) -> None:
    """Every striation present with N non-negative integer counts summing to
    the shots, each frequency within the Bernstein bound of its probability."""
    require(sorted(counts) == list(range(dim + 1)), f"counts cover striations {sorted(counts)}")
    log_term = math.log(2.0 / SAMPLING_TAIL)
    for s in range(dim + 1):
        c = np.asarray(counts[s])
        require(c.shape == (dim,), f"striation {s} has {c.shape} counts")
        require(np.issubdtype(c.dtype, np.integer), f"striation {s} counts are not integers")
        require(bool(np.all(c >= 0)) and int(c.sum()) == shots, f"striation {s} counts do not sum to {shots}")
        p = probs[s]
        var = shots * p * (1 - p)
        allowed = log_term / 3 + np.sqrt(log_term**2 / 9 + 2 * var * log_term)
        worst = float(np.max(np.abs(c - shots * p) - allowed))
        require(worst <= 0, f"striation {s} counts stray from the outcome probabilities")


def check_same_counts(a: dict, b: dict) -> None:
    require(a.keys() == b.keys(), "repeated simulation covers other striations")
    for s in a:
        require(np.array_equal(a[s], b[s]), f"repeated simulation differs on striation {s}")


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(tr |sqrt(rho) sqrt(sigma)|)^2, via singular values."""
    return float(np.linalg.svd(_psd_root(rho) @ _psd_root(sigma), compute_uv=False).sum() ** 2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def _psd_root(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T


def check_estimate(estimate: np.ndarray, truth: np.ndarray, fid: float, dist: float, tol: float = TOL) -> None:
    """Hermitian, unit trace, PSD; reported fidelity and trace distance match."""
    check_close(estimate, estimate.conj().T, "estimate and its adjoint", tol)
    require(abs(np.trace(estimate).real - 1) <= tol, "estimate trace is not 1")
    require(float(np.linalg.eigvalsh(estimate).min()) >= -tol, "estimate has a negative eigenvalue")
    require(abs(min(fidelity(truth, estimate), 1.0) - fid) <= 1e-6, f"reported fidelity {fid!r} is off")
    require(abs(trace_distance(truth, estimate) - dist) <= 1e-9, f"reported trace distance {dist!r} is off")


def check_cli_json(stdout: bytes, what: str) -> dict:
    try:
        return json.loads(stdout)
    except ValueError:
        raise CheckError(f"{what} did not print JSON") from None


def check_cli_identical(first: bytes, second: bytes, what: str) -> None:
    require(first == second, f"two runs of {what} printed different stdout")
