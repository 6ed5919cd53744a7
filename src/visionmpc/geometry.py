"""Planar geometry: angle wrapping, polyline arc-length queries, ray casting."""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
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
        self._seg = seg
        self._seg_len = seg_len
        self._cum = np.concatenate(([0.0], np.cumsum(seg_len)))
        self._tangents = seg / seg_len[:, None]
        self._headings = np.array([math.atan2(ty, tx) for tx, ty in self._tangents])

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
        return tuple(self.sample(s)[0][0].tolist())

    def project(self, point) -> tuple[float, float]:
        """Closest point on the path to `point`.

        Returns (arc_length, signed_lateral); lateral is positive to the
        left of the local tangent. Equidistant candidates prefer the later
        segment.
        """
        q = np.asarray(point, dtype=float)
        rel = q[None, :] - self.points[:-1]
        t = np.einsum("ij,ij->i", rel, self._seg) / (self._seg_len ** 2)
        t = np.clip(t, 0.0, 1.0)
        foot = self.points[:-1] + t[:, None] * self._seg
        d2 = np.sum((q[None, :] - foot) ** 2, axis=1)
        i = len(d2) - 1 - int(np.argmin(d2[::-1]))
        s = self._cum[i] + t[i] * self._seg_len[i]
        dx, dy = q - foot[i]
        tx, ty = self._tangents[i]
        lateral = tx * dy - ty * dx
        return float(s), float(lateral)


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


def ray_segment_hits(origin, directions, seg_a, seg_b) -> np.ndarray:
    """Distance to the nearest segment intersection per ray, inf if missed."""
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
    # small slack on the segment parameter so endpoint hits survive rounding
    valid = (np.abs(denom) > 1e-14) & (t >= 0.0) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
    dist = np.where(valid, t, np.inf)
    return dist.min(axis=1)


def fit_quadratic_curvature(xs, ys) -> float:
    """Curvature 2*a2 of the least-squares fit y = a0 + a1*x + a2*x^2.

    Raises ValueError when fewer than three distinct x values exist.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("quadratic fit needs at least 3 points")
    if np.unique(np.round(xs, 12)).size < 3:
        raise ValueError("degenerate quadratic fit: fewer than 3 distinct abscissae")
    vander = np.stack([np.ones_like(xs), xs, xs ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(vander, ys, rcond=None)
    return float(2.0 * coef[2])
