"""Scene-dynamics algebra.

A driving scene is summarized by (c, w): road curvature in 1/m and a
normalized traversable width in [0, 1]. This module converts between that
pair and geometric objects the controller consumes: a lateral path
projection, a corrected desired trajectory, a model residual, and the
quadratic-cost gain schedule.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import fit_quadratic_curvature, rotate, wrap_angle
from .vehicle import VehicleState


@dataclass(frozen=True)
class SceneDynamics:
    """Road curvature c (1/m) and normalized traversable width w in [0, 1]."""

    c: float
    w: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError("curvature must be finite")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError(f"traversable width must be in [0, 1], got {self.w}")


@dataclass(frozen=True)
class ResidualWeights:
    """Weights mapping (c, w) to a per-step state increment.

    k_v scales a longitudinal increment by w, k_w a lateral increment by w,
    and k_c a heading increment by c. The increments apply at every
    prediction step, so at a 0.05 s sampling time the defaults correspond
    to at most 0.1*c rad/s of phantom yaw and 0.04*w m/s of lateral drift,
    an order of magnitude below the steering authority of the nominal
    model. Larger values let the residual claim motion the vehicle never
    performs, and the optimizer stops steering for it.
    """

    k_c: float = 0.005
    k_w: float = 0.002
    k_v: float = 0.0

    def __post_init__(self):
        for v in (self.k_c, self.k_w, self.k_v):
            if not math.isfinite(v):
                raise ValueError("residual weights must be finite")


@dataclass(frozen=True)
class GainSchedule:
    """Diagonal weights of the tracking cost: q_diag for state, r_diag for input."""

    q_diag: float
    r_diag: float

    def __post_init__(self):
        if not (0.0 <= self.q_diag <= 1.0):
            raise ValueError("q_diag must be in [0, 1]")
        if not (0.0 < self.r_diag <= 1.0):
            raise ValueError("r_diag must be in (0, 1]")


@dataclass(frozen=True)
class CorrectionConfig:
    """Parameters of the reference-to-desired trajectory correction."""

    tau_o: int = 20
    horizon_dt: float = 0.05
    k_lat: float = 1.0
    lookahead_time_s: float = 3.0
    min_lookahead_m: float = 0.5

    def __post_init__(self):
        if self.tau_o < 1:
            raise ValueError("tau_o must be at least 1")
        if self.horizon_dt <= 0.0:
            raise ValueError("horizon_dt must be positive")


def project_path(d: SceneDynamics, rho: float, lookahead: float, xs, k_lat: float = 1.0) -> np.ndarray:
    """Lateral offsets of the predicted path at longitudinal samples xs.

    y_i = k_lat * w - rho * (x_i - lookahead) + 0.5 * c * x_i^2
    """
    if lookahead < 0.0:
        raise ValueError("lookahead must be non-negative")
    xs = np.asarray(xs, dtype=float)
    return k_lat * d.w - rho * (xs - lookahead) + 0.5 * d.c * xs ** 2


def desired_trajectory(
    ref_slice: Sequence[VehicleState],
    d: SceneDynamics,
    current: VehicleState,
    cfg: CorrectionConfig,
) -> tuple[VehicleState, ...]:
    """Reference slice plus the scene-dynamics correction, one pose per slice pose.

    The correction is evaluated in the vehicle frame at cumulative
    arc-length samples along the slice, then rotated into world
    coordinates and added to the reference poses. The lookahead anchor is
    capped at the slice arc length: anchoring the heading term beyond the
    horizon turns it into positive feedback on heading drift. Headings
    pick up the slope of the curvature term (the correction is positional
    in the lateral channel).
    """
    if len(ref_slice) != cfg.tau_o:
        raise ValueError(
            f"reference slice length {len(ref_slice)} does not match horizon {cfg.tau_o}"
        )
    # arc-length samples measured from the current position through the slice
    xs = np.empty(cfg.tau_o)
    prev_x, prev_y = current.x, current.y
    acc = 0.0
    for i, z in enumerate(ref_slice):
        acc += math.hypot(z.x - prev_x, z.y - prev_y)
        xs[i] = acc
        prev_x, prev_y = z.x, z.y
    v_ref = acc / (cfg.tau_o * cfg.horizon_dt)
    lookahead = max(v_ref * cfg.lookahead_time_s, cfg.min_lookahead_m)
    if acc > 0.0:
        lookahead = min(lookahead, acc)
    rho_rel = wrap_angle(current.rho - ref_slice[0].rho)
    ys = project_path(d, rho_rel, lookahead, xs, cfg.k_lat)
    states = []
    for z, y_off, x_i in zip(ref_slice, ys, xs):
        ox, oy = rotate(0.0, float(y_off), current.rho)
        # headings carry the curvature channel only; folding the relative
        # heading into the targets destabilizes steady curve tracking
        heading = wrap_angle(z.rho + math.atan(d.c * float(x_i)))
        states.append(VehicleState(z.x + ox, z.y + oy, heading))
    return tuple(states)


def residual_h(d: SceneDynamics, weights: ResidualWeights, rho: float = 0.0) -> np.ndarray:
    """Per-step state increment implied by the scene dynamics.

    (k_v*w, k_w*w, k_c*c) in the vehicle frame; the position part is
    rotated by rho into world coordinates.
    """
    local_x = weights.k_v * d.w
    local_y = weights.k_w * d.w
    wx, wy = rotate(local_x, local_y, rho)
    return np.array([wx, wy, weights.k_c * d.c])


def dynamics_from_trajectory(traj: Sequence[VehicleState], v: float, v_max: float) -> SceneDynamics:
    """Recover (c, w) from a trajectory and the agent speed.

    Curvature is 2*a2 of the least-squares quadratic fit in the frame of
    the first pose; w = v / v_max clamped to [0, 1].
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 trajectory points")
    if v_max <= 0.0:
        raise ValueError("v_max must be positive")
    if not (0.0 <= v <= v_max):
        raise ValueError(f"v must be in [0, v_max], got {v}")
    c = fit_curvature(traj)
    w = min(max(v / v_max, 0.0), 1.0)
    return SceneDynamics(c, w)


def fit_curvature(traj: Sequence[VehicleState]) -> float:
    """Quadratic-fit curvature of a pose sequence in the first pose's frame."""
    if len(traj) < 3:
        raise ValueError("need at least 3 trajectory points")
    origin = traj[0]
    cos_r, sin_r = math.cos(-origin.rho), math.sin(-origin.rho)
    xs = np.empty(len(traj))
    ys = np.empty(len(traj))
    for i, z in enumerate(traj):
        dx, dy = z.x - origin.x, z.y - origin.y
        xs[i] = cos_r * dx - sin_r * dy
        ys[i] = sin_r * dx + cos_r * dy
    return fit_quadratic_curvature(xs, ys)


def gain_schedule(d: SceneDynamics, eps_r: float = 1e-3) -> GainSchedule:
    """diag(Q) = w, diag(R) = 1 - w, with R clamped positive definite."""
    if eps_r <= 0.0:
        raise ValueError("eps_r must be positive")
    return GainSchedule(q_diag=d.w, r_diag=max(1.0 - d.w, eps_r))
