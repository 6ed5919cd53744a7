import math
from importlib import resources

import numpy as np
import pytest

from visionmpc import geometry
from visionmpc.geometry import (
    Polyline,
    SegmentSet,
    fit_curvature,
    offset_polyline,
    ray_circle_hits,
    ray_fan_segment_hits,
    wrap_angle,
)
from visionmpc.sim import load_scenario, ray_bearings

BUNDLED = sorted(p for p in resources.files("visionmpc").joinpath("scenarios").iterdir() if p.name.endswith(".scn"))


def ray_segment_hits(origin, directions, seg_a, seg_b) -> np.ndarray:
    """All-pairs oracle: distance to the nearest segment intersection per ray, inf if missed."""
    directions = np.asarray(directions, dtype=float)
    n_rays = directions.shape[0]
    a = np.asarray(seg_a, dtype=float).reshape(-1, 2)
    b = np.asarray(seg_b, dtype=float).reshape(-1, 2)
    if a.shape[0] == 0:
        return np.full(n_rays, np.inf)
    d = b - a
    w = a - np.asarray(origin, dtype=float)[None, :]
    denom = directions[:, 0:1] * d[None, :, 1] - directions[:, 1:2] * d[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[None, :, 0] * d[None, :, 1] - w[None, :, 1] * d[None, :, 0]) / denom
        u = (w[None, :, 0] * directions[:, 1:2] - w[None, :, 1] * directions[:, 0:1]) / denom
    valid = (np.abs(denom) > 1e-14) & (t >= 0.0) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
    dist = np.where(valid, t, np.inf)
    return dist.min(axis=1)


def circle_hits_oracle(origin, directions, centers, radii) -> np.ndarray:
    """The expressions `ray_circle_hits` evaluated, one column per circle, before it ran them on rows."""
    directions = np.asarray(directions, dtype=float)
    n_rays = directions.shape[0]
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if centers.shape[0] == 0:
        return np.full(n_rays, np.inf)
    oc = centers - np.asarray(origin, dtype=float)[None, :]
    b = directions @ oc.T
    d2 = np.sum(oc ** 2, axis=1)[None, :]
    disc = radii[None, :] ** 2 - (d2 - b ** 2)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_near = b - sq
    t_far = b + sq
    dist = np.where((disc >= 0.0) & (t_near >= 0.0), t_near, np.inf)
    inside = (disc >= 0.0) & (t_near < 0.0) & (t_far >= 0.0)
    dist = np.where(inside, 0.0, dist)
    return dist.min(axis=1)


def fan(rho, n_rays=180):
    """Unit vectors of the sensor's full fan, as `sim.sense` builds them."""
    bearings = ray_bearings(n_rays) + rho
    return np.stack([np.cos(bearings), np.sin(bearings)], axis=1)


def old_project(poly, point):
    """The per-point projection `project_batch` replaced, kept as its oracle."""
    q = np.asarray(point, dtype=float)
    rel = q[None, :] - poly.points[:-1]
    t = np.einsum("ij,ij->i", rel, poly._seg) / (poly._seg_len ** 2)
    t = np.clip(t, 0.0, 1.0)
    foot = poly.points[:-1] + t[:, None] * poly._seg
    d2 = np.sum((q[None, :] - foot) ** 2, axis=1)
    i = len(d2) - 1 - int(np.argmin(d2[::-1]))
    s = poly._cum[i] + t[i] * poly._seg_len[i]
    dx, dy = q - foot[i]
    tx, ty = poly._tangents[i]
    lateral = tx * dy - ty * dx
    return float(s), float(lateral)


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
        assert poly.sample(0.0)[0].tolist() == [[0.0, 0.0]]
        assert poly.sample(3.0)[0][0] == pytest.approx((3.0, 0.0))
        assert poly.sample(5.0)[0][0] == pytest.approx((3.0, 2.0))
        assert poly.sample(99.0)[0][0] == pytest.approx((3.0, 4.0))
        assert poly.sample(1.0)[1][0] == 0.0
        # at the vertex the later segment owns the tangent
        assert poly.sample(3.0)[1][0] == pytest.approx(math.pi / 2)

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

    def test_point_at_is_bit_equal_to_sample(self):
        rng = np.random.default_rng(5)
        poly = Polyline(np.cumsum(rng.uniform(0.1, 1.0, size=(12, 2)), axis=0) * [1.0, -1.0])
        # every vertex and its float neighbours on both sides, random arc
        # lengths, and values past either end
        at = poly._cum
        s = np.concatenate([
            at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
            rng.uniform(-1.0, poly.length + 1.0, 200), [-0.0, 1e9],
        ])
        for sk in s.tolist():
            point = poly.point_at(sk)
            assert point == tuple(poly.sample(sk)[0][0].tolist())
            assert all(type(c) is float for c in point)

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

    def test_projection_batch_is_bit_equal_to_per_point_code(self):
        rng = np.random.default_rng(5)
        poly = Polyline(np.cumsum(rng.uniform(0.1, 1.0, size=(15, 2)), axis=0) * [1.0, -1.0])
        lo, hi = poly.points.min(axis=0) - 2.0, poly.points.max(axis=0) + 2.0
        # random points, every vertex, and points beyond both ends along the end tangents
        beyond = [poly.points[0] - 0.7 * poly._tangents[0], poly.points[-1] + 0.7 * poly._tangents[-1]]
        points = np.vstack([rng.uniform(lo, hi, size=(400, 2)), poly.points, beyond])
        s, lateral = poly.project_batch(points)
        expect = [old_project(poly, q) for q in points]
        assert s.tolist() == [e[0] for e in expect]
        assert lateral.tolist() == [e[1] for e in expect]
        assert [poly.project(q) for q in points] == expect

    def test_projection_batch_ties_prefer_the_later_segment(self):
        poly = Polyline([(0, 0), (2, 0), (2, 2), (0, 2)])
        # each vertex, points equidistant from several segments, and points past both ends
        points = [(2.0, 0.0), (2.0, 2.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.0), (-1.0, 2.5)]
        s, lateral = poly.project_batch(points)
        expect = [old_project(poly, q) for q in points]
        assert s.tolist() == [e[0] for e in expect]
        assert lateral.tolist() == [e[1] for e in expect]
        # (0, 1) is as far from the first segment as from the last, (1, 1) from all
        # three: the last wins, with the point on its left
        assert s[2] == 6.0 and lateral[2] == 1.0
        assert s[3] == 5.0 and lateral[3] == 1.0
        assert s[0] == 2.0 and s[1] == 4.0
        assert s[4] == 0.0 and s[5] == 6.0

    def test_projection_batch_shapes(self):
        poly = Polyline([(0, 0), (3, 0), (3, 4)])
        s, lateral = poly.project_batch(np.zeros((0, 2)))
        assert s.shape == (0,) and lateral.shape == (0,)
        s, lateral = poly.project_batch([(1.0, 0.5)])
        assert s.tolist() == [1.0] and lateral.tolist() == [0.5]

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

    def test_circle_hits_equal_the_column_oracle(self):
        rng = np.random.default_rng(11)
        for n_circles in (1, 2, 3, 5):
            for _ in range(40):
                origin = rng.uniform(-1.0, 1.0, 2)
                centers = rng.uniform(-2.0, 2.0, (n_circles, 2))
                radii = rng.uniform(0.05, 1.5, n_circles)  # some circles hold the origin
                dirs = fan(float(rng.uniform(-4.0, 4.0)))
                got = ray_circle_hits(origin, dirs, centers, radii)
                assert np.array_equal(got, circle_hits_oracle(origin, dirs, centers, radii))
        assert np.array_equal(ray_circle_hits((0.0, 0.0), fan(0.0), np.zeros((0, 2)), []), np.full(180, np.inf))

    def test_segment_hits(self):
        dist = ray_fan_segment_hits((0.0, 0.0), 0.0, fan(0.0, 2), SegmentSet([(2.0, -1.0)], [(2.0, 1.0)]))
        assert dist[0] == pytest.approx(2.0)
        assert dist[1] == np.inf

    def test_parallel_segment_missed(self):
        dist = ray_fan_segment_hits((0.0, 0.0), 0.0, fan(0.0, 4), SegmentSet([(0.0, 1.0)], [(5.0, 1.0)]))
        assert dist[0] == np.inf and dist[2] == np.inf
        assert dist[1] == pytest.approx(1.0)

    def test_no_segments_misses_every_ray(self):
        dist = ray_fan_segment_hits((0.0, 0.0), 0.3, fan(0.3), SegmentSet(np.zeros((0, 2)), np.zeros((0, 2))))
        assert dist.shape == (180,) and np.all(dist == np.inf)


def fan_and_oracle(origin, rho, seg_a, seg_b, n_rays=180):
    # the segment set is built here, after any monkeypatch of the kernel's constants
    dirs = fan(rho, n_rays)
    segments = SegmentSet(seg_a, seg_b)
    return ray_fan_segment_hits(origin, rho, dirs, segments), ray_segment_hits(origin, dirs, seg_a, seg_b)


def adversarial_cases():
    """(origin, rho, seg_a, seg_b) poses where rounding decides a hit."""
    cases = []
    for path in BUNDLED:
        walls = load_scenario(path)[0].walls
        seg_a, seg_b = walls.a, walls.b
        for k in range(0, len(seg_a), max(1, len(seg_a) // 6)):
            a, b = seg_a[k], seg_b[k]
            for rho in (0.0, math.pi, -math.pi, 0.4):
                cases.append((a, rho, seg_a, seg_b))  # on a wall vertex
                cases.append((b + 1e-12, rho, seg_a, seg_b))  # within 1e-12 of an endpoint
                cases.append((a - 0.5 * (b - a), rho, seg_a, seg_b))  # on a wall's line, beyond its end
                cases.append((0.5 * (a + b), rho, seg_a, seg_b))  # on the wall itself
    ring = np.array([(2.0, -0.5), (2.0, 0.5), (-2.0, 0.5), (-2.0, -0.5)])
    box = (ring, np.roll(ring, -1, axis=0))
    for rho in (0.0, math.pi, -math.pi, 1e-15, -1e-15, 2.0 * math.pi / 180.0 * 0.5):
        cases.append((np.zeros(2), rho, *box))  # walls straddling ray 0 / ray n-1
    # rays grazing an endpoint inside the validity test's 1e-9 slack
    for eps in (1e-12, 1e-11, -1e-12):
        cases.append((np.zeros(2), 0.0, [(2.0, eps)], [(2.0, 1.0)]))
        cases.append((np.zeros(2), math.pi, [(-2.0, -eps)], [(-2.0, -1.0)]))
        cases.append((np.zeros(2), 0.0, [(2.0, -1.0)], [(2.0, -eps)]))
    return cases


class TestFanSegmentKernel:
    """The windowed kernel against the all-pairs oracle, bit for bit, inf included."""

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
    def test_equals_all_pairs_on_random_poses(self, path):
        scenario = load_scenario(path)[0]
        seg_a, seg_b = scenario.walls.a, scenario.walls.b
        rng = np.random.default_rng(sum(map(ord, path.name)))
        corners = np.vstack([seg_a, seg_b])
        lo, hi = corners.min(axis=0) - 1.0, corners.max(axis=0) + 1.0
        route = scenario.route_polyline
        s = rng.uniform(0.0, route.length, 150)
        near_route = route.sample(s)[0] + rng.normal(0.0, 0.3, (150, 2))
        for origin in np.vstack([rng.uniform(lo, hi, (150, 2)), near_route]):
            rho = float(rng.uniform(-4.0, 4.0))
            got, expect = fan_and_oracle(origin, rho, seg_a, seg_b, scenario.sensor.n_rays)
            assert np.array_equal(got, expect)

    def test_equals_all_pairs_on_adversarial_poses(self):
        for origin, rho, seg_a, seg_b in adversarial_cases():
            got, expect = fan_and_oracle(origin, rho, seg_a, seg_b)
            assert np.array_equal(got, expect), (origin, rho)

    @pytest.mark.parametrize("n_rays", [2, 3, 4, 7, 720])
    def test_equals_all_pairs_for_other_fan_sizes(self, n_rays):
        rng = np.random.default_rng(n_rays)
        walls = load_scenario(BUNDLED[0])[0].walls
        seg_a, seg_b = walls.a, walls.b
        corners = np.vstack([seg_a, seg_b])
        for origin in rng.uniform(corners.min(axis=0), corners.max(axis=0), (60, 2)):
            got, expect = fan_and_oracle(origin, float(rng.uniform(-4.0, 4.0)), seg_a, seg_b, n_rays)
            assert np.array_equal(got, expect)

    def test_some_adversarial_pose_fails_without_the_widening(self, monkeypatch):
        monkeypatch.setattr(geometry, "_WINDOW_MARGIN_RAYS", 0)
        mismatches = 0
        for origin, rho, seg_a, seg_b in adversarial_cases():
            got, expect = fan_and_oracle(origin, rho, seg_a, seg_b)
            mismatches += not np.array_equal(got, expect)
        assert mismatches > 0

    def test_some_adversarial_pose_fails_without_the_near_fallback(self, monkeypatch):
        monkeypatch.setattr(geometry, "_NEAR", 0.0)
        mismatches = 0
        for origin, rho, seg_a, seg_b in adversarial_cases():
            got, expect = fan_and_oracle(origin, rho, seg_a, seg_b)
            mismatches += not np.array_equal(got, expect)
        assert mismatches > 0


class TestQuadraticFit:
    def test_exact_recovery(self):
        xs = np.linspace(-1, 2, 9)
        ys = 0.7 - 0.3 * xs + 0.5 * 0.42 * xs ** 2
        assert fit_curvature(xs, ys, 0.0) == pytest.approx(0.42, abs=1e-12)

    def test_fits_in_the_frame_of_the_first_point(self):
        # the parabola above, turned by 0.9 rad and moved: rho0 = 0.9 turns it back
        xs = np.linspace(-1, 2, 9)
        ys = 0.7 - 0.3 * xs + 0.5 * 0.42 * xs ** 2
        c, s = math.cos(0.9), math.sin(0.9)
        assert fit_curvature(c * xs - s * ys + 4.0, s * xs + c * ys - 2.0, 0.9) == pytest.approx(0.42, abs=1e-9)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="distinct abscissae"):
            fit_curvature([1.0, 1.0, 1.0], [0.0, 1.0, 2.0], 0.0)
        # two distinct abscissae after rounding to 12 decimals
        with pytest.raises(ValueError, match="distinct abscissae"):
            fit_curvature([0.0, 1.0, 1.0 + 1e-14, 0.0], [0.0, 1.0, 2.0, 3.0], 0.0)
        # in the frame of the first point these points lie on one vertical line
        with pytest.raises(ValueError, match="distinct abscissae"):
            fit_curvature([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], math.pi / 4 + math.pi / 2)
        with pytest.raises(ValueError, match="at least 3"):
            fit_curvature([0.0, 1.0], [0.0, 1.0], 0.0)
