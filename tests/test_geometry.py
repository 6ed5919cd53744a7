import math

import numpy as np
import pytest

from visionmpc.geometry import (
    Polyline,
    fit_quadratic_curvature,
    offset_polyline,
    ray_circle_hits,
    ray_segment_hits,
    wrap_angle,
)


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)
        for a in np.linspace(-20, 20, 101):
            w = wrap_angle(float(a))
            assert -math.pi < w <= math.pi
            assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
            assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestPolyline:
    def test_arc_length_queries(self):
        poly = Polyline([(0, 0), (3, 0), (3, 4)])
        assert poly.length == pytest.approx(7.0)
        assert poly.point_at(0.0) == (0.0, 0.0)
        assert poly.point_at(3.0) == pytest.approx((3.0, 0.0))
        assert poly.point_at(5.0) == pytest.approx((3.0, 2.0))
        assert poly.point_at(99.0) == pytest.approx((3.0, 4.0))
        assert poly.heading_at(1.0) == 0.0
        # at the vertex the later segment owns the tangent
        assert poly.heading_at(3.0) == pytest.approx(math.pi / 2)

    def test_sample_is_array_form_of_arc_length_queries(self):
        poly = Polyline([(0, 0), (3, 0), (3, 4)])
        points, headings = poly.sample([0.0, 3.0, 5.0, 99.0, 1.0])
        assert points.tolist() == [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [3.0, 4.0], [1.0, 0.0]]
        # at the interior vertex s = 3 the later segment owns point and tangent
        assert headings.tolist() == [0.0, math.pi / 2, math.pi / 2, math.pi / 2, 0.0]

    def test_sample_clamps_past_both_ends(self):
        poly = Polyline([(0, 0), (3, 0), (3, 4)])
        points, headings = poly.sample([-2.0, 7.0, 1e9])
        assert points.tolist() == [[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]]
        assert headings.tolist() == [0.0, math.pi / 2, math.pi / 2]

    def test_single_sample_shape(self):
        points, headings = Polyline([(0, 0), (3, 0), (3, 4)]).sample(5.0)
        assert points.shape == (1, 2) and headings.shape == (1,)
        assert points[0].tolist() == [3.0, 2.0]
        assert headings[0] == math.pi / 2

    def test_sample_is_bit_equal_to_per_value_arithmetic(self):
        rng = np.random.default_rng(3)
        poly = Polyline(np.cumsum(rng.uniform(0.1, 1.0, size=(12, 2)), axis=0) * [1.0, -1.0])
        # random arc lengths, some past either end, plus every vertex
        s = np.concatenate([rng.uniform(-1.0, poly.length + 1.0, 200), poly._cum])
        points, headings = poly.sample(s)
        for k, sk in enumerate(s.tolist()):
            sk = min(max(sk, 0.0), poly.length)
            i = min(max(int(np.searchsorted(poly._cum, sk, side="right")) - 1, 0), len(poly._seg_len) - 1)
            t = (sk - poly._cum[i]) / poly._seg_len[i]
            assert points[k].tolist() == (poly.points[i] + t * poly._seg[i]).tolist()
            tx, ty = poly._tangents[i]
            assert headings[k] == math.atan2(ty, tx)

    def test_projection_signed_lateral(self):
        poly = Polyline([(0, 0), (10, 0)])
        s, lat = poly.project((2.0, 0.5))
        assert s == pytest.approx(2.0)
        assert lat == pytest.approx(0.5)  # left is positive
        s, lat = poly.project((2.0, -0.25))
        assert lat == pytest.approx(-0.25)

    def test_projection_clamps_to_ends(self):
        poly = Polyline([(0, 0), (1, 0)])
        s, _ = poly.project((-5.0, 1.0))
        assert s == 0.0
        s, _ = poly.project((7.0, 1.0))
        assert s == pytest.approx(1.0)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0)])
        with pytest.raises(ValueError):
            Polyline([(0, 0), (0, 0)])
        with pytest.raises(ValueError):
            Polyline([(0, 0), (float("nan"), 1)])


class TestOffset:
    def test_straight_line_offsets(self):
        poly = Polyline([(0, 0), (4, 0)])
        left = offset_polyline(poly, 0.5)
        right = offset_polyline(poly, -0.5)
        assert np.allclose(left, [(0, 0.5), (4, 0.5)])
        assert np.allclose(right, [(0, -0.5), (4, -0.5)])

    def test_right_angle_miter_keeps_distance(self):
        poly = Polyline([(0, 0), (2, 0), (2, 2)])
        left = offset_polyline(poly, 0.3)
        # the mitered corner stays 0.3 from both adjacent segments
        corner = left[1]
        assert abs(corner[1] - 0.3) < 1e-9 or abs(corner[0] - (2 - 0.3)) < 1e-9
        d_seg1 = abs(corner[1] - 0.0)
        d_seg2 = abs(corner[0] - 2.0)
        assert min(d_seg1, d_seg2) >= 0.3 - 1e-9


class TestRayHits:
    def test_circle_hit_and_miss(self):
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        dist = ray_circle_hits((0.0, 0.0), dirs, [(3.0, 0.0)], [1.0])
        assert dist[0] == pytest.approx(2.0)
        assert dist[1] == np.inf

    def test_origin_inside_circle(self):
        dirs = np.array([[1.0, 0.0]])
        dist = ray_circle_hits((0.0, 0.0), dirs, [(0.2, 0.0)], [1.0])
        assert dist[0] == 0.0

    def test_segment_hits(self):
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        dist = ray_segment_hits((0.0, 0.0), dirs, [(2.0, -1.0)], [(2.0, 1.0)])
        assert dist[0] == pytest.approx(2.0)
        assert dist[1] == np.inf

    def test_parallel_segment_missed(self):
        dirs = np.array([[1.0, 0.0]])
        dist = ray_segment_hits((0.0, 0.0), dirs, [(0.0, 1.0)], [(5.0, 1.0)])
        assert dist[0] == np.inf


class TestQuadraticFit:
    def test_exact_recovery(self):
        xs = np.linspace(-1, 2, 9)
        ys = 0.7 - 0.3 * xs + 0.5 * 0.42 * xs ** 2
        assert fit_quadratic_curvature(xs, ys) == pytest.approx(0.42, abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fit_quadratic_curvature([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            fit_quadratic_curvature([0.0, 1.0], [0.0, 1.0])
