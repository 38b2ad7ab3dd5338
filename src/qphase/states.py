"""Named example states, inline state parsing, and density-matrix validation."""

from __future__ import annotations

import json
import math

import numpy as np

from .operators import pauli

DENSITY_TOL = 1e-9


class InvalidStateError(ValueError):
    """State specification is malformed or not physical."""


def _real_trace(rho: np.ndarray) -> float:
    """Real part of the trace; inf or nan, without a warning, when entries
    near the float limit overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.trace(rho).real)


def validate_density_matrix(rho: np.ndarray, dim: int | None = None, tol: float = DENSITY_TOL) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity; returns rho unchanged.

    Finite entries near the float limit can overflow in the checks; the
    overflowed deviation or trace is not finite and fails its check.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvalidStateError(f"density matrix has dimension {rho.shape[0]}, expected {dim}")
    if not np.isfinite(rho).all():
        raise InvalidStateError("density matrix has a NaN or infinite entry")
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = float(np.max(np.abs(rho - rho.conj().T)))
    if not asymmetry <= tol:
        raise InvalidStateError("density matrix is not Hermitian")
    trace = _real_trace(rho)
    if not abs(trace - 1.0) <= tol:
        raise InvalidStateError(f"density matrix trace {trace!r} is not 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise InvalidStateError("density matrix has a negative eigenvalue")
    return rho


def density_from_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def _tilted_111() -> np.ndarray:
    """-1 eigenstate of (sigma_x + sigma_y + sigma_z)/sqrt(3)."""
    h = (pauli("X") + pauli("Y") + pauli("Z")) / math.sqrt(3.0)
    eigvals, eigvecs = np.linalg.eigh(h)
    v = eigvecs[:, int(np.argmin(eigvals))]
    k = int(np.argmax(np.abs(v)))
    return v * np.exp(-1j * np.angle(v[k]))


_SQ2 = 1.0 / math.sqrt(2.0)

# name -> (qubit count, state vector builder)
_REGISTRY = {
    "up": (1, lambda: np.array([1, 0], dtype=complex)),
    "down": (1, lambda: np.array([0, 1], dtype=complex)),
    "plus": (1, lambda: np.array([_SQ2, _SQ2], dtype=complex)),
    "minus": (1, lambda: np.array([_SQ2, -_SQ2], dtype=complex)),
    "y+": (1, lambda: np.array([_SQ2, 1j * _SQ2], dtype=complex)),
    "y-": (1, lambda: np.array([_SQ2, -1j * _SQ2], dtype=complex)),
    "tilted-111": (1, _tilted_111),
    "upup": (2, lambda: np.array([1, 0, 0, 0], dtype=complex)),
    "upright": (2, lambda: np.array([_SQ2, _SQ2, 0, 0], dtype=complex)),
    "singlet": (2, lambda: np.array([0, _SQ2, -_SQ2, 0], dtype=complex)),
    "bell0": (2, lambda: np.array([_SQ2, 0, 0, _SQ2], dtype=complex)),
}


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def registry_vector(name: str) -> tuple[int, np.ndarray]:
    """(qubit count, unit vector) for a named state."""
    try:
        n, builder = _REGISTRY[name]
    except KeyError:
        raise InvalidStateError(
            f"unknown state name {name!r}; known names: {', '.join(registry_names())}"
        ) from None
    return n, builder()


def _complex_from_pair(pair) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise InvalidStateError(f"expected a [re, im] pair, got {pair!r}")
    try:
        re, im = float(pair[0]), float(pair[1])
    except OverflowError:
        re = im = math.inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InvalidStateError(f"expected finite numbers, got {pair!r}")
    return complex(re, im)


def parse_state_spec(spec: str, n: int) -> tuple[np.ndarray, list[str]]:
    """Resolve a state spec to a density matrix of dimension 2^n.

    The spec is either a registry name or inline JSON: a vector as a list of
    [re, im] pairs, or a density matrix as a list of such rows.  A vector
    whose squared norm (the trace of its density matrix) is off 1 by more
    than 1e-9 is renormalized with a warning, and so is a matrix whose trace
    is.  Returns
    (rho, warnings).  Malformed, non-finite or unphysical input raises
    InvalidStateError.
    """
    dim = 1 << n
    warnings: list[str] = []
    spec = spec.strip()

    if spec.startswith("[") or spec.startswith("{"):
        try:
            payload = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InvalidStateError(f"inline state is not valid JSON: {exc}") from None
        if not isinstance(payload, list) or not payload:
            raise InvalidStateError("inline state must be a non-empty JSON array")
        if isinstance(payload[0], list) and payload[0] and isinstance(payload[0][0], list):
            if not all(isinstance(row, list) and len(row) == len(payload) for row in payload):
                raise InvalidStateError("inline matrix must be a square list of rows of [re, im] pairs")
            rows = [[_complex_from_pair(entry) for entry in row] for row in payload]
            rho = np.array(rows, dtype=complex)
            if rho.shape != (dim, dim):
                raise InvalidStateError(f"inline matrix has shape {rho.shape}, expected {(dim, dim)}")
            trace = _real_trace(rho)
            if not math.isfinite(trace):
                raise InvalidStateError("inline density matrix trace is not finite")
            if abs(trace - 1.0) > DENSITY_TOL:
                if trace <= DENSITY_TOL:
                    raise InvalidStateError("inline density matrix has non-positive trace")
                warnings.append(f"density matrix trace {trace:.6g} renormalized to 1")
                rho = rho / trace
            return validate_density_matrix(rho, dim), warnings
        vec = np.array([_complex_from_pair(entry) for entry in payload], dtype=complex)
        if vec.shape != (dim,):
            raise InvalidStateError(f"inline vector has length {vec.shape[0]}, expected {dim}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm):
            raise InvalidStateError("inline vector norm is not finite")
        if norm <= DENSITY_TOL:
            raise InvalidStateError("inline vector has zero norm")
        # Keep the vector only if its density matrix has unit trace within
        # DENSITY_TOL, which a norm within DENSITY_TOL of 1 does not ensure.
        rho = density_from_vector(vec) if abs(norm - 1.0) <= DENSITY_TOL else None
        if rho is None or abs(_real_trace(rho) - 1.0) > DENSITY_TOL:
            warnings.append(f"vector norm {norm:.6g} renormalized to 1")
            rho = density_from_vector(vec / norm)
        return rho, warnings

    state_n, vec = registry_vector(spec)
    if state_n != n:
        raise InvalidStateError(f"state {spec!r} is a {state_n}-qubit state, but n={n} was requested")
    return density_from_vector(vec), warnings


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unit vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank mixed state (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
