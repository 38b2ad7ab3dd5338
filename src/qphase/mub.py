"""Measurement bases from striations, and mutual-conjugacy verification.

Each striation's line-preserving translations commute (given a valid axis
labeling), and their joint eigenbasis is the orthonormal basis attached to
that striation.  The N+1 bases so produced are pairwise conjugate: every
cross-basis overlap magnitude equals 1/sqrt(N).

All N+1 bases are built in one batched integer pass over the stabilizers'
Pauli masks (``operators.stabilizer_rows``): the stabilizer of ray point
t d is the product of the pivots, those of t = 1, w, ..., w^(n-1), over the
bits of t, which gives its integer eigenvalue exponent on one joint
eigenvector.  Vector k is the one whose signs on the pivots are the bits of
k, so its exponent row is row 0 with the signs flipped by those bits
(``StriationBasis.flips``); the pass reads only the N+1 rays
(``geometry.striation_rays``) and returns only the sign frame (x, z,
exponent row 0, flips), one row per basis.  A basis reads its masks,
exponent table and vectors off its row when each is first read: exponent
row k is row 0 XOR 2 parity(k & flips) (``operators.exponent_rows``), and
entry c ^ x of vector k is i^-e (-1)^popcount(c & z) / sqrt(support size)
for each stabilizer X^x Z^z with exponent e, c the first point of the
support (``operators.stabilizer_vectors``).  Building a system, the quantum
net and tomography read only the frame, and no dense stabilizer matrix is
formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import FieldContext
from .geometry import Striation, enumerate_striations, grid_points, striation_rays
from .operators import (
    NonCommutingError,
    QubitLabeling,
    StabilizerRows,
    TranslationOperator,
    default_labeling,
    exponent_rows,
    stabilizer_rows,
    stabilizer_vectors,
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


class _FromFrame:
    """A field of StriationBasis: the array given at construction, or for a
    basis that ``full_mub_set`` built, read off its row (x, z, exponent row
    0, flips) of the build's sign frame on the first read and kept,
    read-only, in the basis's ``vars``."""

    def __init__(self, read):
        self.read = read

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, basis, owner=None):
        if basis is None:  # the dataclass default: vectors is required, the rest default to None
            if self.name == "vectors":
                raise AttributeError(self.name)
            return None
        value = basis.__dict__.get(self.name)
        if value is None and basis._frame is not None:
            value = basis.__dict__[self.name] = self.read(*(a[basis.striation] for a in basis._frame))
            value.setflags(write=False)
        return value

    def __set__(self, basis, value):
        if isinstance(value, StabilizerRows):
            basis.__dict__["_frame"] = value
        elif value is not None:
            basis.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class StriationBasis:
    """Orthonormal basis attached to one striation.

    vectors[k] is the k-th unit vector; every vector is a simultaneous
    eigenvector of all the striation's stabilizer unitaries, with
    stabilizers[i] v_k = i^exponents[k, i] v_k, and masks[:, i] = (x, z)
    of stabilizers[i].  A basis from ``full_mub_set`` holds the build's sign
    frame and reads each of the three off its row when first read
    (``_FromFrame``); measurement and the quantum net read only the frame.
    A basis assembled by hand may leave exponents and masks as None:
    ``check_conjugacy`` audits it, ``MeasurementPlan`` and ``default_net``
    refuse it.
    """

    striation: int
    vectors: np.ndarray = _FromFrame(lambda *row: stabilizer_vectors(*row))
    stabilizers: tuple[TranslationOperator, ...]
    exponents: np.ndarray | None = _FromFrame(lambda x, z, row0, flips: exponent_rows(row0, flips))
    masks: np.ndarray | None = _FromFrame(lambda x, z, row0, flips: np.stack([x, z]))
    _frame = None  # not a field: a built basis's sign frame, put in its vars by ``_FromFrame``

    @property
    def dim(self) -> int:
        return self.vectors.shape[1] if self.masks is None else self.masks.shape[1] + 1

    @cached_property
    def flips(self) -> np.ndarray:
        """Stabilizer i flips sign on outcomes k with popcount(k & flips[i]) odd:
        the build's, or for any other basis read off and checked by ``_sign_flips``."""
        if self._frame is not None:
            return self._frame.flips[self.striation]
        return _sign_flips(self.exponents, self.striation)

    def projector(self, k: int) -> np.ndarray:
        v = self.vectors[k]
        return np.outer(v, v.conj())


def basis_for_striation(striation: Striation, labeling: QubitLabeling, frame: StabilizerRows) -> StriationBasis:
    """Joint eigenbasis of the striation's stabilizer translations.

    frame is ``full_mub_set``'s batched integer pass; the stabilizers are
    the translations by the nonzero points of the striation's ray.
    """
    s, grid = striation.direction, grid_points(striation.ctx)
    ray = striation_rays(striation.ctx)[s, 1:].tolist()
    stabilizers = tuple(translation_unitary(grid[i], labeling) for i in ray)
    return StriationBasis(s, frame, stabilizers)


def full_mub_set(ctx: FieldContext, labeling: QubitLabeling | None = None) -> list[StriationBasis]:
    """One basis per striation, N+1 in all, in striation order.

    The labeling defaults to default_labeling(ctx), which always yields
    commuting stabilizers; a labeling that does not raises LabelingError
    (naming the striation).  Each basis is unique up to per-vector phase and
    order.
    """
    if labeling is None:
        labeling = default_labeling(ctx)
    frame = _stabilizer_bases(labeling)
    return [basis_for_striation(s, labeling, frame) for s in enumerate_striations(ctx)]


def _stabilizer_bases(labeling: QubitLabeling) -> StabilizerRows:
    """The sign frame of all striations, read-only: row s holds the masks of
    the ray's nonzero points t d, t's bits their coordinates."""
    x, z = labeling.point_masks(striation_rays(labeling.ctx)[:, 1:])
    coord = [e.bits for e in labeling.ctx.elements()[1:]]
    try:
        frame = stabilizer_rows(x, z, labeling.dim, coord)
    except NonCommutingError as exc:
        raise LabelingError(exc.group, exc) from exc
    for a in frame:
        a.setflags(write=False)
    return frame


def _sign_flips(exponents: np.ndarray, striation: int) -> np.ndarray:
    """flips[i] of an (N, N-1) exponent table, read-only: bit j is set where
    row 2^j differs from row 0 in column i.  Exact check: the table is
    ``exponent_rows`` of its row 0 and these flips, and the flips are a
    permutation of 1..N-1; else ValueError naming the striation."""
    dim = len(exponents)
    bits = 1 << np.arange(dim.bit_length() - 1)
    flips = ((exponents[bits] ^ exponents[0]) >> 1).T @ bits
    if (exponent_rows(exponents[0], flips) != exponents).any() or (np.sort(flips) != np.arange(1, dim)).any():
        raise ValueError(f"exponent rows of striation {striation} are not row 0 with signs flipped by outcome bits")
    flips.setflags(write=False)
    return flips


def _sign_frame(bases) -> StabilizerRows:
    """The sign frame (x, z, exponent row 0, flips) of bases, each
    (len(bases), N-1) and read-only; row s, column i names stabilizer i of
    bases[s] and its sign pattern (``StriationBasis.flips``).  The bases of
    one ``full_mub_set`` call in striation order give their build's frame;
    any other list is checked (ValueError for none, mixed dimensions, or a
    basis, named, with no exponents or masks or rows that fail
    ``_sign_flips``) and stacked, a built basis's row 0 read off its frame."""
    if not bases:
        raise ValueError("no bases to measure")
    frame = bases[0]._frame
    if frame is not None and len(bases) == len(frame.x):
        if all(b._frame is frame and b.striation == s for s, b in enumerate(bases)):
            return frame
    for b in bases:
        if b.masks is None or (b._frame is None and b.exponents is None):
            raise ValueError(f"basis of striation {b.striation} carries no stabilizer exponents or masks")
        b.flips  # the exact row check, naming the striation
    if len({b.dim for b in bases}) != 1:
        raise ValueError("bases have mixed dimensions")
    x, z = np.array([b.masks for b in bases]).transpose(1, 0, 2)
    row0 = [b.exponents[0] if b._frame is None else b._frame.row0[b.striation] for b in bases]
    frame = StabilizerRows(x, z, np.array(row0), np.array([b.flips for b in bases]))
    for a in frame:
        a.setflags(write=False)
    return frame


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
    report rather than raising (only no bases or mixed dimensions raise)."""
    if not bases:
        raise ValueError("no bases to check")
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

