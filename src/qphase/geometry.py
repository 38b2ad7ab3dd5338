"""The N x N discrete phase space: points, lines, striations, translations.

Lines are the solution sets of a*q + b*p = c over GF(2^n).  The N+1 parallel
classes (striations) partition the grid, and because the coordinates live in
a field rather than a ring, two distinct lines meet in at most one point.
``ring_line_points`` exists solely to demonstrate that the mod-N analogue
breaks this geometry.

The striations are computed as integer index arrays: a point is the integer
q_index * N + p_index, and ``striation_points`` gives the (N+1, N, N) array of
every line's points, built with a few gathers from the field's index tables.
The ``Point``/``Line``/``Striation`` objects are views of that array, built
from the shared grid points without any sorting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .fields import ContextMismatchError, FieldContext, FieldElement


class DegenerateLineError(ValueError):
    """Both leading coefficients of a line equation are zero."""


@dataclass(frozen=True)
class Point:
    """Grid point (q, p); both coordinates share one field context."""

    q: FieldElement
    p: FieldElement

    def __post_init__(self) -> None:
        if self.q.ctx is not self.p.ctx:
            raise ContextMismatchError("point coordinates belong to different field contexts")

    @property
    def ctx(self) -> FieldContext:
        return self.q.ctx

    def __add__(self, other: "Point") -> "Point":
        return Point(self.q + other.q, self.p + other.p)

    @property
    def is_origin(self) -> bool:
        return self.q.is_zero and self.p.is_zero

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.q.index, self.p.index)

    def __str__(self) -> str:
        return f"({self.q},{self.p})"


@dataclass(frozen=True)
class Line:
    """Solution set of a*q + b*p = c, in canonical form.

    The triple is canonicalized so that the first nonzero coefficient of
    (a, b) equals 1; points are sorted ascending by canonical element order.
    The canonical triple determines the points, so only it is hashed.
    """

    a: FieldElement
    b: FieldElement
    c: FieldElement
    points: tuple[Point, ...] = field(hash=False)

    @property
    def ctx(self) -> FieldContext:
        return self.a.ctx

    def __contains__(self, pt: Point) -> bool:
        return self.a * pt.q + self.b * pt.p == self.c

    @property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)

    def __str__(self) -> str:
        return f"{self.a}*q + {self.b}*p = {self.c}"


def line_from_equation(a: FieldElement, b: FieldElement, c: FieldElement) -> Line:
    """Line with equation a*q + b*p = c; (a, b) must not both be zero."""
    if a.ctx is not b.ctx or a.ctx is not c.ctx:
        raise ContextMismatchError("line coefficients belong to different field contexts")
    if a.is_zero and b.is_zero:
        raise DegenerateLineError("line equation needs a nonzero coefficient on q or p")
    ctx = a.ctx
    scale = a.inverse() if not a.is_zero else b.inverse()
    a, b, c = scale * a, scale * b, scale * c
    if not a.is_zero:
        # a == 1: q = c + b*p for every p.
        pts = [Point(c + b * p, p) for p in ctx.elements()]
    else:
        # b == 1: p = c for every q.
        pts = [Point(q, c) for q in ctx.elements()]
    pts.sort(key=lambda pt: pt.sort_key)
    return Line(a, b, c, tuple(pts))


@dataclass(frozen=True)
class Striation:
    """One of the N+1 parallel classes: N disjoint lines covering the grid.

    The ray is the member line through the origin; its N-1 nonzero points are
    the stabilizer vectors, the translations that map every member line to
    itself.
    """

    direction: int
    lines: tuple[Line, ...]
    ray: Line
    stabilizer_vectors: tuple[Point, ...]

    @property
    def ctx(self) -> FieldContext:
        return self.ray.ctx


def enumerate_striations(ctx: FieldContext) -> tuple[Striation, ...]:
    """All N+1 striations in canonical order.

    Order: vertical lines (q = const) first, horizontal lines (p = const)
    second, then slopes s = 1, w, w2, ... with lines p = s*q + c.  Within a
    striation, lines are ordered by the constant c in canonical element order.
    The context fully determines the result, so it is built once per context
    and the same tuple is returned on later calls.
    """
    cached = ctx._derived.get("striations")
    if cached is None:
        cached = ctx._derived["striations"] = _build_striations(ctx)
    return cached


def striation_points(ctx: FieldContext) -> np.ndarray:
    """points[s, l, m] = q_index * N + p_index of point m of line l of
    striation s, in the order of ``enumerate_striations``; read-only, cached
    on the context.

    With e_i the element of index i, line l of striation s >= 2 is
    p = e_(s-1) * q + e_l and its point m has q = e_m, so the points come out
    sorted by (q index, p index); the vertical and horizontal striations are
    plain index grids.
    """
    cached = ctx._derived.get("striation_points")
    if cached is None:
        n_elems = ctx.order
        add, mul = ctx.index_tables()
        idx = np.arange(n_elems)
        cached = np.empty((n_elems + 1, n_elems, n_elems), dtype=np.intp)
        cached[0] = idx[:, None] * n_elems + idx[None, :]
        cached[1] = idx[None, :] * n_elems + idx[:, None]
        cached[2:] = idx * n_elems + add[mul[1:, None, :], idx[None, :, None]]
        cached.setflags(write=False)
        ctx._derived["striation_points"] = cached
    return cached


def _build_striations(ctx: FieldContext) -> tuple[Striation, ...]:
    elements = ctx.elements()
    one, zero = ctx.one, ctx.zero
    grid = [Point(q, p) for q in elements for p in elements]
    points = striation_points(ctx)
    _, mul = ctx.index_tables()
    # The canonical triple of p = s*q + c is (1, 1/s, c/s).
    inverse = (mul == 1).argmax(axis=1)
    striations = []
    for s, rows in enumerate(points.tolist()):
        if s == 0:
            triples = [(one, zero, c) for c in elements]
        elif s == 1:
            triples = [(zero, one, c) for c in elements]
        else:
            inv_s = int(inverse[s - 1])
            b = elements[inv_s]
            triples = [(one, b, elements[c]) for c in mul[inv_s].tolist()]
        lines = tuple(
            Line(a, b, c, itemgetter(*row)(grid)) for (a, b, c), row in zip(triples, rows)
        )
        # Line 0 (c = 0) is the ray, and the origin is its first point.
        striations.append(Striation(s, lines, lines[0], lines[0].points[1:]))
    return tuple(striations)


def intersect(l1: Line, l2: Line) -> frozenset[Point]:
    """Common points: empty if parallel and distinct, one point otherwise."""
    if l1.ctx is not l2.ctx:
        raise ContextMismatchError("lines belong to different field contexts")
    return l1.point_set & l2.point_set


def ring_line_points(modulus: int, a: int, b: int, c: int) -> frozenset[tuple[int, int]]:
    """Solution set of a*q + b*p = c (mod modulus) on the modulus x modulus grid.

    Demonstration-only: over Z_N with composite N these "wrap-around lines"
    are not a geometry -- two distinct ones can share two or more points.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    a, b, c = a % modulus, b % modulus, c % modulus
    if a == 0 and b == 0:
        raise DegenerateLineError("ring line equation needs a nonzero coefficient mod modulus")
    return frozenset(
        (q, p)
        for q in range(modulus)
        for p in range(modulus)
        if (a * q + b * p) % modulus == c
    )


def find_wraparound_witness(
    modulus: int,
) -> tuple[tuple[int, int, int], tuple[int, int, int], frozenset[tuple[int, int]]] | None:
    """First pair of distinct mod-N "lines" sharing at least two points.

    Searches equations in lexicographic (a, b, c) order; returns the two
    equations and their shared points, or None when the modulus is prime.
    """
    seen: list[tuple[tuple[int, int, int], frozenset[tuple[int, int]]]] = []
    for a in range(modulus):
        for b in range(modulus):
            if a == 0 and b == 0:
                continue
            for c in range(modulus):
                pts = ring_line_points(modulus, a, b, c)
                for eq_prev, pts_prev in seen:
                    if pts_prev != pts and len(pts_prev & pts) >= 2:
                        return eq_prev, (a, b, c), pts_prev & pts
                seen.append(((a, b, c), pts))
    return None


# -- rendering ------------------------------------------------------------

FILLED, EMPTY = "•", "∘"  # bullet / ring operator


def line_glyph_rows(line: Line) -> list[str]:
    """N rows of filled/empty glyphs, origin bottom-left, p increasing upward."""
    n_elems = line.ctx.order
    members = line.point_set
    rows = []
    for pi in reversed(range(n_elems)):
        p = line.ctx.elements()[pi]
        row = " ".join(
            FILLED if Point(q, p) in members else EMPTY for q in line.ctx.elements()
        )
        rows.append(row)
    return rows


def striation_ascii(striation: Striation, gap: str = "   ") -> str:
    """The striation's N lines as side-by-side glyph grids."""
    grids = [line_glyph_rows(ln) for ln in striation.lines]
    return "\n".join(gap.join(grid[r] for grid in grids) for r in range(len(grids[0])))


def striation_to_json_dict(striation: Striation) -> dict:
    """JSON form: {"direction": k, "lines": [[["q","p"], ...], ...]}."""
    return {
        "direction": striation.direction,
        "lines": [
            [[pt.q.label, pt.p.label] for pt in line.points] for line in striation.lines
        ],
    }
