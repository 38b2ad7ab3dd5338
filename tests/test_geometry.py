import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from qphase.fields import field_create
from qphase.geometry import (
    DegenerateLineError,
    Line,
    Point,
    Striation,
    enumerate_striations,
    find_wraparound_witness,
    grid_points,
    intersect,
    line_from_equation,
    line_glyph_rows,
    ring_line_points,
    striation_ascii,
    striation_points,
    striation_rays,
    striation_to_json_dict,
)
from qphase.system import build_system


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
        keys = [p.index for p in line.points]
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
            assert striations[idx].lines[0].point_set == expected

    def test_slope_w_ray_contents(self):
        ctx = field_create(2)
        ray = enumerate_striations(ctx)[3].lines[0]
        assert ray.point_set == {
            pt(ctx, "0", "0"), pt(ctx, "1", "w"), pt(ctx, "w", "w2"), pt(ctx, "w2", "1")
        }

    def test_stabilizer_vectors_on_ray(self):
        ctx = field_create(2)
        s = enumerate_striations(ctx)[3]
        assert set(s.lines[0].points[1:]) == {
            pt(ctx, "1", "w"), pt(ctx, "w", "w2"), pt(ctx, "w2", "1")
        }

    def test_ray_invariant_under_stabilizers(self):
        # translating any member line by any stabilizer vector reproduces it
        for n in (1, 2, 3):
            ctx = field_create(n)
            for s in enumerate_striations(ctx):
                for line in s.lines:
                    for v in s.lines[0].points[1:]:
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
    """(lines, ray, stabilizer vectors) of each striation, built line by line
    with line_from_equation in the documented order, the ray found by
    membership of the origin."""
    one, zero = ctx.one, ctx.zero
    origin = Point(zero, zero)

    def build(eqs):
        lines = tuple(line_from_equation(a, b, c) for a, b, c in eqs)
        ray = next(ln for ln in lines if origin in ln)
        return lines, ray, tuple(p for p in ray.points if p != origin)

    out = [build([(one, zero, c) for c in ctx.elements()]), build([(zero, one, c) for c in ctx.elements()])]
    for slope in ctx.elements()[1:]:
        out.append(build([(slope, one, c) for c in ctx.elements()]))
    return tuple(out)


class TestIntegerStriations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equal_to_equation_build(self, n):
        ctx = field_create(n)
        built = enumerate_striations(ctx)
        reference = striations_from_equations(ctx)
        assert built == tuple(Striation(ctx, s) for s in range(len(reference)))
        for s_built, (lines, ray, stabilizer_vectors) in zip(built, reference):
            assert s_built.lines == lines  # equation triples and points
            assert s_built.lines[0] == ray
            assert s_built.lines[0].points[1:] == stabilizer_vectors

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
        assert [[[pt.index for pt in ln.points] for ln in s.lines] for s in enumerate_striations(ctx)] == expected
        assert striation_points(ctx) is points
        with pytest.raises(ValueError):
            points[0, 0, 0] = 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_rays_are_each_striations_first_line(self, n):
        ctx = field_create(n)
        rays = striation_rays(ctx)
        assert striation_rays(ctx) is rays
        with pytest.raises(ValueError):
            rays[0, 0] = 1
        points = striation_points(ctx)
        assert rays.dtype == points.dtype and np.array_equal(rays, points[:, 0])
        # Each line's first point, as the net reads them: point l of ray 1 for
        # the vertical striation and of ray 0 for every other.
        assert np.array_equal(rays[[1] + [0] * ctx.order], points[:, :, 0])

    def test_build_peaks_near_what_it_keeps(self):
        # Every striation's lines are read from the index array one
        # striation at a time; a list of all N^3 point indices at once
        # peaks at ~3x.
        ctx = field_create(6)
        tracemalloc.start()
        try:
            lines = [s.lines for s in enumerate_striations(ctx)]
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lines) == ctx.order + 1 and {len(ls) for ls in lines} == {ctx.order}
        assert peak <= 1.5 * kept, (peak, kept)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_each_striation_partitions_the_grid(self, n):
        ctx = field_create(n)
        for lines in striation_points(ctx):
            assert np.array_equal(np.sort(lines.reshape(-1)), np.arange(ctx.order**2))


class TestLinesOnRequest:
    def test_striation_stores_only_its_context_and_direction(self):
        assert [f.name for f in dataclasses.fields(Striation)] == ["ctx", "direction"]
        ctx = field_create(2)
        striation = Striation(ctx, 3)
        assert "lines" not in vars(striation)
        assert striation.lines is striation.lines
        assert striation.lines[0].points[0].index == 0  # line 0 is the ray

    def test_point_indices_are_a_read_only_view_of_the_array(self):
        ctx = field_create(3)
        points = striation_points(ctx)
        for s in enumerate_striations(ctx):
            assert np.shares_memory(s.point_indices, points)
            assert np.array_equal(s.point_indices, points[s.direction])
            assert not s.point_indices.flags.writeable

    def test_cold_build_constructs_no_line(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Line on the build")

        monkeypatch.setattr(Line, "__init__", refuse)
        build_system.cache_clear()
        try:
            for n in range(1, 7):
                system = build_system(n)
                system.net.outcome_index_table()
                assert not any("lines" in vars(s) for s in system.striations)
        finally:
            build_system.cache_clear()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid_points_decode_the_point_index(self, n):
        ctx = field_create(n)
        points = grid_points(ctx)
        assert points is grid_points(ctx)
        assert [pt.index for pt in points] == list(range(ctx.order**2))
        assert points == tuple(Point(q, p) for q in ctx.elements() for p in ctx.elements())
        # Every line shares the context's points.
        lines = [ln for s in enumerate_striations(ctx) for ln in s.lines]
        assert all(pt is points[pt.index] for ln in lines for pt in ln.points)


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
