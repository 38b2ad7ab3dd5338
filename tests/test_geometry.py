import itertools

import numpy as np
import pytest

from qphase.fields import field_create
from qphase.geometry import (
    DegenerateLineError,
    Point,
    Striation,
    enumerate_striations,
    find_wraparound_witness,
    intersect,
    line_from_equation,
    line_glyph_rows,
    ring_line_points,
    striation_ascii,
    striation_points,
    striation_to_json_dict,
)


def pt(ctx, q_label, p_label):
    return Point(ctx.parse(q_label), ctx.parse(p_label))


class TestLines:
    def test_gf2_diagonal_line(self):
        ctx = field_create(1)
        line = line_from_equation(ctx.one, ctx.one, ctx.zero)
        assert line.point_set == {pt(ctx, "0", "0"), pt(ctx, "1", "1")}

    def test_gf2_antidiagonal_line(self):
        ctx = field_create(1)
        line = line_from_equation(ctx.one, ctx.one, ctx.one)
        assert line.point_set == {pt(ctx, "0", "1"), pt(ctx, "1", "0")}

    def test_gf4_vertical_axis(self):
        ctx = field_create(2)
        line = line_from_equation(ctx.one, ctx.zero, ctx.zero)
        assert line.point_set == {Point(ctx.zero, p) for p in ctx.elements()}

    def test_degenerate_equation(self):
        ctx = field_create(2)
        with pytest.raises(DegenerateLineError):
            line_from_equation(ctx.zero, ctx.zero, ctx.one)

    def test_scaled_equation_same_line(self):
        ctx = field_create(2)
        w = ctx.omega
        base = line_from_equation(ctx.one, w, w)
        scaled = line_from_equation(w, w * w, w * w)
        assert base == scaled

    def test_points_sorted_canonically(self):
        ctx = field_create(2)
        line = line_from_equation(ctx.omega, ctx.one, ctx.one)
        keys = [p.sort_key for p in line.points]
        assert keys == sorted(keys)

    def test_line_size_is_n(self):
        for n in (1, 2, 3):
            ctx = field_create(n)
            line = line_from_equation(ctx.one, ctx.one, ctx.zero)
            assert len(line.points) == ctx.order


class TestStriations:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 5), (3, 9)])
    def test_striation_count(self, n, count):
        assert len(enumerate_striations(field_create(n))) == count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_striation_partitions_grid(self, n):
        ctx = field_create(n)
        full = {Point(q, p) for q in ctx.elements() for p in ctx.elements()}
        for s in enumerate_striations(ctx):
            seen = set()
            for line in s.lines:
                assert not (seen & line.point_set)
                seen |= line.point_set
            assert seen == full

    def test_canonical_order_n2(self):
        # vertical, horizontal, then slopes 1, w, w2
        ctx = field_create(2)
        striations = enumerate_striations(ctx)
        assert striations[0].lines[0].point_set == {Point(ctx.zero, p) for p in ctx.elements()}
        assert striations[1].lines[0].point_set == {Point(q, ctx.zero) for q in ctx.elements()}
        for idx, s in zip((2, 3, 4), ("1", "w", "w2")):
            slope = ctx.parse(s)
            expected = {Point(q, slope * q) for q in ctx.elements()}
            assert striations[idx].ray.point_set == expected

    def test_slope_w_ray_contents(self):
        ctx = field_create(2)
        ray = enumerate_striations(ctx)[3].ray
        assert ray.point_set == {
            pt(ctx, "0", "0"), pt(ctx, "1", "w"), pt(ctx, "w", "w2"), pt(ctx, "w2", "1")
        }

    def test_stabilizer_vectors_on_ray(self):
        ctx = field_create(2)
        s = enumerate_striations(ctx)[3]
        assert set(s.stabilizer_vectors) == {
            pt(ctx, "1", "w"), pt(ctx, "w", "w2"), pt(ctx, "w2", "1")
        }

    def test_ray_invariant_under_stabilizers(self):
        # translating any member line by any stabilizer vector reproduces it
        for n in (1, 2, 3):
            ctx = field_create(n)
            for s in enumerate_striations(ctx):
                for line in s.lines:
                    for v in s.stabilizer_vectors:
                        assert {p + v for p in line.points} == line.point_set

    def test_direction_ids(self):
        striations = enumerate_striations(field_create(2))
        assert [s.direction for s in striations] == [0, 1, 2, 3, 4]


class TestIntersection:
    def test_parallel_lines_disjoint(self):
        ctx = field_create(1)
        l0 = line_from_equation(ctx.one, ctx.one, ctx.zero)
        l1 = line_from_equation(ctx.one, ctx.one, ctx.one)
        assert intersect(l0, l1) == frozenset()

    def test_line_with_itself(self):
        ctx = field_create(2)
        line = line_from_equation(ctx.one, ctx.omega, ctx.one)
        assert intersect(line, line) == line.point_set

    def test_gf4_nonparallel_pairs_exhaustive(self):
        # all 20 lines; every non-parallel distinct pair meets in exactly one point
        ctx = field_create(2)
        striations = enumerate_striations(ctx)
        for s1, s2 in itertools.combinations(striations, 2):
            for l1 in s1.lines:
                for l2 in s2.lines:
                    assert len(intersect(l1, l2)) == 1
        for s in striations:
            for l1, l2 in itertools.combinations(s.lines, 2):
                assert len(intersect(l1, l2)) == 0


def striations_from_equations(ctx):
    """The striations built line by line with line_from_equation, in the
    documented order, the ray found by membership of the origin."""
    one, zero = ctx.one, ctx.zero
    origin = Point(zero, zero)

    def build(direction, eqs):
        lines = tuple(line_from_equation(a, b, c) for a, b, c in eqs)
        ray = next(ln for ln in lines if origin in ln)
        return Striation(direction, lines, ray, tuple(p for p in ray.points if not p.is_origin))

    out = [build(0, [(one, zero, c) for c in ctx.elements()]), build(1, [(zero, one, c) for c in ctx.elements()])]
    for k, slope in enumerate(ctx.nonzero_elements()):
        out.append(build(2 + k, [(slope, one, c) for c in ctx.elements()]))
    return tuple(out)


class TestIntegerStriations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equal_to_equation_build(self, n):
        ctx = field_create(n)
        built = enumerate_striations(ctx)
        reference = striations_from_equations(ctx)
        assert built == reference
        for s_built, s_ref in zip(built, reference):
            assert [(ln.a, ln.b, ln.c) for ln in s_built.lines] == [(ln.a, ln.b, ln.c) for ln in s_ref.lines]
            assert s_built.ray == s_ref.ray
            assert s_built.stabilizer_vectors == s_ref.stabilizer_vectors

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_index_array_lists_the_line_points(self, n):
        ctx = field_create(n)
        points = striation_points(ctx)
        assert points.shape == (ctx.order + 1, ctx.order, ctx.order)
        expected = [
            [[pt.q.index * ctx.order + pt.p.index for pt in ln.points] for ln in s.lines]
            for s in enumerate_striations(ctx)
        ]
        assert points.tolist() == expected
        assert striation_points(ctx) is points
        with pytest.raises(ValueError):
            points[0, 0, 0] = 1

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_each_striation_partitions_the_grid(self, n):
        ctx = field_create(n)
        for lines in striation_points(ctx):
            assert np.array_equal(np.sort(lines.reshape(-1)), np.arange(ctx.order**2))


class TestTranslate:
    def test_origin_translation(self):
        ctx = field_create(2)
        moved = pt(ctx, "0", "0") + pt(ctx, "1", "w")
        assert moved == pt(ctx, "1", "w")

    def test_identity_translation(self):
        ctx = field_create(2)
        p = pt(ctx, "w", "w2")
        assert p + pt(ctx, "0", "0") == p

    def test_translation_is_bijection(self):
        ctx = field_create(2)
        v = pt(ctx, "w", "1")
        grid = [Point(q, p) for q in ctx.elements() for p in ctx.elements()]
        images = {g + v for g in grid}
        assert len(images) == len(grid)


class TestRingLines:
    def test_mod2_matches_gf2(self):
        ctx = field_create(1)
        field_line = line_from_equation(ctx.one, ctx.one, ctx.zero)
        ring = ring_line_points(2, 1, 1, 0)
        assert ring == frozenset((p.q.bits, p.p.bits) for p in field_line.points)

    def test_mod4_coordinate_line(self):
        assert ring_line_points(4, 1, 0, 0) == frozenset((0, p) for p in range(4))

    def test_mod4_witness_exists(self):
        witness = find_wraparound_witness(4)
        assert witness is not None
        eq1, eq2, shared = witness
        assert len(shared) >= 2
        assert ring_line_points(4, *eq1) != ring_line_points(4, *eq2)

    def test_no_gf4_witness(self):
        # over the field, distinct lines never share two points
        striations = enumerate_striations(field_create(2))
        lines = [ln for s in striations for ln in s.lines]
        for l1, l2 in itertools.combinations(lines, 2):
            assert len(intersect(l1, l2)) <= 1

    def test_degenerate_ring_equation(self):
        with pytest.raises(DegenerateLineError):
            ring_line_points(4, 0, 4, 1)


class TestRendering:
    def test_glyph_rows_orientation(self):
        # origin bottom-left: the vertical line q=0 fills the first column
        ctx = field_create(1)
        line = line_from_equation(ctx.one, ctx.zero, ctx.zero)
        assert line_glyph_rows(line) == ["• ∘", "• ∘"]

    def test_striation_ascii_shape(self):
        s = enumerate_striations(field_create(2))[3]
        text = striation_ascii(s)
        rows = text.splitlines()
        assert len(rows) == 4
        assert all(row.count("•") == 4 for row in rows)

    def test_json_dict(self):
        s = enumerate_striations(field_create(1))[2]
        payload = striation_to_json_dict(s)
        assert payload["direction"] == 2
        assert payload["lines"] == [[["0", "0"], ["1", "1"]], [["0", "1"], ["1", "0"]]]
