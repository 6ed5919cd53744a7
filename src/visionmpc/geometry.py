"""Planar geometry: angle wrapping, polyline arc-length queries, ray casting.

The scan is a full fan: ray k has bearing rho + k * 2*pi/n. A wall segment
can only be hit by the rays inside its angular extent as seen from the
origin, so `ray_fan_segment_hits` evaluates just those (ray, segment) pairs,
with the extent widened by one ray spacing on each side. Each kept pair runs
the all-pairs expressions for denom, t and u and the all-pairs validity test
(a denom that fails it becomes nan, which fails every later comparison
without a warning), so a ray's minimum is bit-identical to evaluating every
pair as long as every dropped pair is a miss there too. It is: a dropped ray
lies at least one spacing (angle delta) outside the extent, so its line
meets the segment's line at least r * sin(delta) / |d| in segment units u
beyond the nearer endpoint, r being the origin's distance to that endpoint
and d = b - a. The fast path requires |w x d| (w = a - origin), |d| times
the origin's distance to the segment's line, to exceed 1e-6 (`_NEAR`) *
|d| * (r_a + r_b) * 2 / sin(delta). So the origin is off that line by more
than 1e-6 of the endpoint distance (the sign of t and the side of the extent
are not left to rounding), and as |w x d| <= min(r_a, r_b) * |d| <=
min(r_a, r_b) * (r_a + r_b), a dropped ray misses by more than 2e-6 in u,
far over the 1e-9 endpoint slack of the validity test and the rounding of u.
A segment that fails the test (the origin on or within rounding of its line
or an endpoint) is tested against every ray. Both kernels run a fixed, small
number of numpy calls on contiguous rows per pose: at these sizes a call
costs about a microsecond whatever its length.

The values that no pose changes are computed once. A `SegmentSet` holds
each segment's endpoints (also as coordinate rows), `b - a` and its
`_NEAR` tolerance, and `sim.Scenario.walls` builds one per scenario.
`Polyline.project` is the per-point form that `sim_step` calls every step,
and `project_batch` the form for a whole trial log; both give the same bits
and resolve ties the same way. Likewise `Polyline.point_at` is the
per-point form of `sample` that places a moving obstacle every step and
the DWA-NMPC goal. Every cached array is read-only (`read_only`), so no
caller can change what later calls read.
"""

import bisect
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def read_only(array: np.ndarray) -> np.ndarray:
    """`array`, marked read-only: a value cached once and shared by later calls."""
    array.setflags(write=False)
    return array


def wrap_angle(angle):
    """Wrap an angle, or an array of them elementwise, to (-pi, pi]: numpy's
    % on floats rounds as Python's does, so both give the same bits."""
    return math.pi - (math.pi - angle) % TWO_PI


def rotate(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


class Polyline:
    """Piecewise-linear path with arc-length parametrization.

    Points are an (N, 2) array, N >= 2. Zero-length segments are rejected,
    so every arc-length value maps to a unique segment. Ties at interior
    vertices (projection or sampling exactly at a vertex) resolve to the
    later segment.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs an (N, 2) array with N >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline points must be finite")
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len <= 1e-12):
            raise ValueError("polyline contains a zero-length segment")
        self.points = pts
        self._seg_starts = read_only(pts[:-1])
        self._seg = seg
        self._seg_len = seg_len
        self._cum = np.concatenate(([0.0], np.cumsum(seg_len)))
        self._tangents = seg / seg_len[:, None]
        self._headings = np.array([math.atan2(ty, tx) for tx, ty in self._tangents])
        self._seg_len_sq = seg_len ** 2
        # per-segment values that `project` and `point_at` pick one of, as Python floats
        self._cum_list = self._cum.tolist()
        self._picks = list(zip(self._cum_list, seg_len.tolist(), self._tangents.tolist()))
        self._starts = list(zip(pts[:-1].tolist(), seg.tolist()))

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    def sample(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Points (N, 2) and tangent headings (N,) at arc lengths s.

        s is a scalar or a 1-D array; values are clamped to [0, length].
        """
        s = np.clip(np.asarray(s, dtype=float).reshape(-1), 0.0, self.length)
        i = np.clip(np.searchsorted(self._cum, s, side="right") - 1, 0, len(self._seg_len) - 1)
        t = (s - self._cum[i]) / self._seg_len[i]
        return self.points[i] + t[:, None] * self._seg[i], self._headings[i]

    def point_at(self, s: float) -> tuple[float, float]:
        """The point `sample` gives at one arc length s, in Python floats.

        It clamps s, picks the segment and interpolates with the IEEE
        operations of `sample`, in their order, so the bits are the same.
        """
        cum = self._cum_list
        s = min(max(float(s), 0.0), cum[-1])
        i = min(max(bisect.bisect_right(cum, s) - 1, 0), len(cum) - 2)
        (px, py), (sx, sy) = self._starts[i]
        t = (s - cum[i]) / self._picks[i][1]
        return px + t * sx, py + t * sy

    def project(self, point) -> tuple[float, float]:
        """Closest point on the path to one `point`: (arc_length,
        signed_lateral), the values project_batch gives for it, with the
        same ties."""
        q = np.asarray(point, dtype=float)
        t = np.einsum("ij,ij->i", q - self._seg_starts, self._seg)
        t /= self._seg_len_sq
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        foot = t[:, None] * self._seg
        foot += self._seg_starts
        sq = q - foot
        sq *= sq
        d2 = sq[:, 0] + sq[:, 1]
        i = d2.shape[0] - 1 - int(d2[::-1].argmin())
        cum, seg_len, (tx, ty) = self._picks[i]
        fx, fy = foot[i].tolist()
        qx, qy = q.tolist()
        dx, dy = qx - fx, qy - fy
        return cum + float(t[i]) * seg_len, tx * dy - ty * dx

    def project_batch(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Closest points on the path to the (N, 2) `points`.

        Returns arrays (arc_length, signed_lateral) of shape (N,); lateral is
        positive to the left of the local tangent. Equidistant candidates
        prefer the later segment.
        """
        q = np.asarray(points, dtype=float).reshape(-1, 2)
        n_seg = self._seg_len.shape[0]
        rel = q[:, None, :] - self._seg_starts
        t = np.einsum("pij,ij->pi", rel, self._seg) / self._seg_len_sq
        t = np.clip(t, 0.0, 1.0)
        foot = self._seg_starts + t[:, :, None] * self._seg
        sq = (q[:, None, :] - foot) ** 2
        d2 = sq[:, :, 0] + sq[:, :, 1]
        i = n_seg - 1 - np.argmin(d2[:, ::-1], axis=1)
        # row-wise picks by flat index (`take` is much faster than fancy indexing)
        flat = np.arange(0, q.shape[0] * n_seg, n_seg) + i
        s = self._cum.take(i) + t.take(flat) * self._seg_len.take(i)
        dx, dy = (q - foot.reshape(-1, 2).take(flat, axis=0)).T
        tx, ty = self._tangents.take(i, axis=0).T
        lateral = tx * dy - ty * dx
        return s, lateral


def offset_polyline(poly: Polyline, offset: float) -> np.ndarray:
    """Parallel curve at signed offset (positive = left), mitered at joints.

    Miter length is clamped at 4x the offset to keep sharp joints bounded.
    """
    pts = poly.points
    tans = poly._tangents
    n = len(pts)
    out = np.empty_like(pts)
    for i in range(n):
        if i == 0:
            tan = tans[0]
        elif i == n - 1:
            tan = tans[-1]
        else:
            m = tans[i - 1] + tans[i]
            norm = math.hypot(m[0], m[1])
            tan = tans[i] if norm < 1e-9 else m / norm
        normal = np.array([-tan[1], tan[0]])
        if 0 < i < n - 1:
            # miter scale so the joint stays at the requested distance
            cos_half = float(normal @ np.array([-tans[i][1], tans[i][0]]))
            scale = 1.0 / max(cos_half, 0.25)
        else:
            scale = 1.0
        out[i] = pts[i] + offset * scale * normal
    return out


def ray_circle_hits(origin, directions, centers, radii) -> np.ndarray:
    """Distance to the nearest circle intersection per ray, inf if missed.

    directions must be unit vectors, shape (R, 2); centers (C, 2); radii (C,).
    Rays starting inside a circle report distance 0.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    if centers.shape[0] == 0:
        return np.full(len(directions), np.inf)
    oc = centers - np.asarray(origin, dtype=float)
    # the product on C-ordered rays (the layout the tests pin its rounding in), then one row per circle
    b = (np.ascontiguousarray(directions, dtype=float) @ oc.T).T.copy()
    disc = np.square(np.asarray(radii, dtype=float))[:, None] - (np.add.reduce(oc * oc, axis=1)[:, None] - b * b)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_near = b - sq
    # a ray that starts inside the circle (t_near < 0 <= t_far) reports 0
    dist = np.where(t_near >= 0.0, t_near, 0.0)
    b += sq
    dist[(disc < 0.0) | (b < 0.0)] = np.inf
    return dist.min(axis=0)


# rays kept on each side of a segment's angular extent, in ray spacings
_WINDOW_MARGIN_RAYS = 1
# relative distance below which the origin counts as on a segment's line or
# endpoint, and the segment is tested against every ray (module docstring)
_NEAR = 1e-6


class SegmentSet:
    """Line segments a[i] -> b[i] with the values of each that no pose
    changes: d = b - a and tol = `_NEAR` * |d|, the distance within which
    `ray_fan_segment_hits` counts an origin as on the segment's line or an
    endpoint. Every array is read-only."""

    def __init__(self, a, b):
        a = np.array(a, dtype=float).reshape(-1, 2)
        b = np.array(b, dtype=float).reshape(-1, 2)
        if a.shape != b.shape:
            raise ValueError("segment starts and ends must pair up")
        d = b - a
        self.a, self.b, self.d = read_only(a), read_only(b), read_only(d)
        self.tol = read_only(_NEAR * np.hypot(d[:, 0], d[:, 1]))
        # x and y rows of a then b, so one subtraction moves both endpoints to a pose
        self._ends = read_only(np.hstack([a.T, b.T]))

    def __len__(self) -> int:
        return self.a.shape[0]


def ray_fan_segment_hits(origin, rho: float, directions, segments: SegmentSet) -> np.ndarray:
    """Distance to the nearest segment intersection per ray, inf if missed.

    directions (R, 2) must be the unit vectors of a full fan, ray k at
    bearing rho + k * 2*pi/R. Each segment is tested only against the rays
    of its widened angular extent; the result equals the all-pairs test bit
    for bit (module docstring).
    """
    n_rays = directions.shape[0]
    out = np.empty(n_rays)
    out.fill(np.inf)
    n_seg = len(segments)
    if n_seg == 0:
        return out
    # endpoint offsets from the origin, x row then y row
    rel = segments._ends - np.asarray(origin, dtype=float)[:, None]
    w = rel[:, :n_seg]
    d = segments.d.T
    t_num = w[0] * d[1] - w[1] * d[0]

    # endpoint bearings in ray units counted from ray 0, b reached the short way from a
    x = np.arctan2(rel[1], rel[0])
    x -= rho
    x *= n_rays / TWO_PI
    x_a, x_b = x[:n_seg], x[n_seg:]
    delta = x_b - x_a
    x_b = x_a + (delta - n_rays * np.rint(delta / n_rays))
    # the window: the extent's rays, widened by the margin on each side
    first = np.ceil(np.minimum(x_a, x_b))
    count = np.floor(np.maximum(x_a, x_b)) - first + (2 * _WINDOW_MARGIN_RAYS + 1)
    r = np.hypot(rel[0], rel[1])
    sin_spacing = math.sin(min(TWO_PI / n_rays, 0.5 * math.pi))
    near = np.abs(t_num) <= (r[:n_seg] + r[n_seg:]) * (segments.tol * (2.0 / sin_spacing))
    np.minimum(count, n_rays, out=count)
    # a full fan from any first ray holds each ray once
    count[near] = n_rays
    count = count.astype(np.intp)

    # the kept pairs, segment-major, each window's rays wrapped around the fan
    # (`repeat` gathers a segment's values for its pairs faster than `take`)
    ends = count.cumsum()
    ray = (first.astype(np.intp) - ends + count).repeat(count)
    ray += np.arange(-_WINDOW_MARGIN_RAYS, ends[-1] - _WINDOW_MARGIN_RAYS)
    ray %= n_rays
    dirs = directions.T.take(ray, axis=1)
    prod = dirs * d[::-1].repeat(count, axis=1)
    denom = prod[0] - prod[1]
    # a (near-)parallel pair is no hit: nan fails every test below and divides without a warning
    denom[np.abs(denom) <= 1e-14] = np.nan
    t = t_num.repeat(count) / denom
    prod = w.repeat(count, axis=1) * dirs[::-1]
    u = (prod[0] - prod[1]) / denom
    # small slack on the segment parameter so endpoint hits survive rounding
    hit = (t >= 0.0) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
    np.minimum.at(out, ray, np.where(hit, t, np.inf))
    return out


def fit_curvature(xs, ys, rho0: float) -> float:
    """Curvature 2*a2 of the least-squares fit y = a0 + a1*x + a2*x^2 to the
    points (xs, ys), taken in the frame of the first point with heading rho0.

    Raises ValueError for fewer than 3 points or fewer than 3 distinct
    abscissae (at 12 decimals) in that frame.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] < 3:
        raise ValueError("need at least 3 trajectory points")
    cos_r, sin_r = math.cos(-rho0), math.sin(-rho0)
    dx, dy = xs - xs[0], ys - ys[0]
    x, y = cos_r * dx - sin_r * dy, sin_r * dx + cos_r * dy
    # counted on sorted values: np.unique would import numpy.ma (about 15 ms) on first use
    if np.count_nonzero(np.diff(np.sort(np.round(x, 12)))) < 2:
        raise ValueError("degenerate quadratic fit: fewer than 3 distinct abscissae")
    vander = np.stack([np.ones_like(x), x, x ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(vander, y, rcond=None)
    return float(2.0 * coef[2])
