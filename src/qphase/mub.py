"""Measurement bases from striations, and mutual-conjugacy verification.

Each striation's line-preserving translations commute (given a valid axis
labeling), and their joint eigenbasis is the orthonormal basis attached to
that striation.  The N+1 bases so produced are pairwise conjugate: every
cross-basis overlap magnitude equals 1/sqrt(N).

A basis is built from the stabilizers' Pauli masks alone
(``operators.stabilizer_eigenbasis``): commutation is the exact symplectic
parity test, the N sign patterns of n independent stabilizers fix the N
vectors and the integer exponents k of their eigenvalues i^k on every
stabilizer, the vectors are ordered by those integer tuples (stabilizers in
ray order), and each is read off its exact projector.  No dense stabilizer
matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FieldContext
from .geometry import Striation, enumerate_striations
from .operators import (
    NonCommutingError,
    QubitLabeling,
    TranslationOperator,
    default_labeling,
    stabilizer_eigenbasis,
    translation_unitary,
)

CONJUGACY_TOL = 1e-9


class LabelingError(RuntimeError):
    """A striation's stabilizer unitaries fail to commute under this labeling."""

    def __init__(self, striation: int, cause: NonCommutingError):
        self.striation = striation
        self.cause = cause
        super().__init__(
            f"labeling invalid: stabilizers of striation {striation} do not commute "
            f"(pair {cause.pair}, deviation {cause.deviation:.3e})"
        )


@dataclass(frozen=True, eq=False)
class StriationBasis:
    """Orthonormal basis attached to one striation.

    vectors[k] is the k-th unit vector; every vector is a simultaneous
    eigenvector of all the striation's stabilizer unitaries, with
    stabilizers[i] v_k = i^exponents[k, i] v_k.  A basis assembled by hand
    may leave exponents as None.
    """

    striation: int
    vectors: np.ndarray
    stabilizers: tuple[TranslationOperator, ...]
    exponents: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def projector(self, k: int) -> np.ndarray:
        v = self.vectors[k]
        return np.outer(v, v.conj())


def basis_for_striation(striation: Striation, labeling: QubitLabeling) -> StriationBasis:
    """Joint eigenbasis of the striation's stabilizer translations.

    Unique up to per-vector phase and order; raises LabelingError (naming the
    striation) when the stabilizers do not commute under this labeling.
    """
    stabilizers = tuple(translation_unitary(v, labeling) for v in striation.stabilizer_vectors)
    x, z = np.array([op.masks for op in stabilizers]).T
    try:
        vectors, exponents = stabilizer_eigenbasis(x, z, labeling.dim)
    except NonCommutingError as exc:
        raise LabelingError(striation.direction, exc) from exc
    return StriationBasis(striation.direction, vectors, stabilizers, exponents)


def full_mub_set(ctx: FieldContext, labeling: QubitLabeling | None = None) -> list[StriationBasis]:
    """One basis per striation, N+1 in all, in striation order.

    The labeling defaults to default_labeling(ctx), which always yields
    commuting stabilizers; a labeling that does not raises LabelingError.
    """
    if labeling is None:
        labeling = default_labeling(ctx)
    return [basis_for_striation(s, labeling) for s in enumerate_striations(ctx)]


@dataclass
class ConjugacyReport:
    """Cross-basis overlap extrema and per-pair verdicts.

    A pair passes when every cross overlap |<v|w>| equals 1/sqrt(N) within
    tolerance; the report also records within-basis orthonormality.
    """

    dimension: int
    tolerance: float
    target: float
    pair_overlaps: dict[tuple[int, int], tuple[float, float]]
    pair_ok: dict[tuple[int, int], bool]
    orthonormality_dev: dict[int, float]

    @property
    def all_conjugate(self) -> bool:
        bases_ok = all(dev <= self.tolerance for dev in self.orthonormality_dev.values())
        return bases_ok and all(self.pair_ok.values())

    @property
    def worst_deviation(self) -> float:
        devs = [
            max(abs(lo - self.target), abs(hi - self.target))
            for lo, hi in self.pair_overlaps.values()
        ]
        return max(devs, default=0.0)


def check_conjugacy(bases: list[StriationBasis], tolerance: float = CONJUGACY_TOL) -> ConjugacyReport:
    """Overlap audit of a basis collection; conjugacy failures go in the
    report rather than raising (only mixed dimensions raise)."""
    dims = {b.dim for b in bases}
    if len(dims) != 1:
        raise ValueError("bases have mixed dimensions")
    dim = dims.pop()
    target = float(1.0 / np.sqrt(dim))

    ortho = {}
    for idx, b in enumerate(bases):
        gram = b.vectors.conj() @ b.vectors.T
        ortho[idx] = float(np.max(np.abs(gram - np.eye(dim))))

    overlaps, verdicts = {}, {}
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            cross = np.abs(bases[i].vectors.conj() @ bases[j].vectors.T)
            lo, hi = float(cross.min()), float(cross.max())
            overlaps[(i, j)] = (lo, hi)
            verdicts[(i, j)] = bool(max(abs(lo - target), abs(hi - target)) <= tolerance)
    return ConjugacyReport(dim, tolerance, target, overlaps, verdicts, ortho)


def bell_reference_basis() -> np.ndarray:
    """The four maximally entangled two-qubit reference vectors.

    Rows: (|00> + |11>)/sqrt2, (|00> - |11>)/sqrt2, (|01> + |10>)/sqrt2,
    (|01> - |10>)/sqrt2.  Used in docs and tests to relate the two
    entangled striation bases to the standard Bell measurement, which is
    itself not conjugate to the product bases.
    """
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [s, 0, 0, s],
            [s, 0, 0, -s],
            [0, s, s, 0],
            [0, s, -s, 0],
        ],
        dtype=complex,
    )
