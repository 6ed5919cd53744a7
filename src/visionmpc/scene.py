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

# the path projection's heading term is anchored LOOKAHEAD_TIME_S ahead at
# the slice's mean speed, at least MIN_LOOKAHEAD_M and at most the slice end
# (so a horizon up to LOOKAHEAD_TIME_S long anchors at its end)
LOOKAHEAD_TIME_S = 3.0
MIN_LOOKAHEAD_M = 0.5
# floor of diag(R): keeps the input penalty positive definite at w = 1
EPS_R = 1e-3
# per-step residual of RESIDUAL_K_C * c heading and RESIDUAL_K_W * w lateral
# offset: at 0.05 s steps at most 0.1*c rad/s of phantom yaw and 0.04*w m/s
# of drift, an order of magnitude below the nominal model's steering
# authority; larger values claim motion the vehicle never performs, and the
# optimizer stops steering for it
RESIDUAL_K_C = 0.005
RESIDUAL_K_W = 0.002


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
class GainSchedule:
    """Diagonal weights of the tracking cost: q_diag for state, r_diag for input."""

    q_diag: float
    r_diag: float

    def __post_init__(self):
        if not (0.0 <= self.q_diag <= 1.0):
            raise ValueError("q_diag must be in [0, 1]")
        if not (0.0 < self.r_diag <= 1.0):
            raise ValueError("r_diag must be in (0, 1]")


def project_path(d: SceneDynamics, rho: float, lookahead: float, xs) -> np.ndarray:
    """Lateral offsets of the predicted path at longitudinal samples xs.

    y_i = -rho * (x_i - lookahead) + 0.5 * c * x_i^2
    """
    if lookahead < 0.0:
        raise ValueError("lookahead must be non-negative")
    xs = np.asarray(xs, dtype=float)
    # no width term: a lateral shift by w is one-sided and destabilizes
    # corridor tracking, so w only drives speed and the gain schedule
    return -rho * (xs - lookahead) + 0.5 * d.c * xs ** 2


def desired_trajectory(
    ref_slice: Sequence[VehicleState],
    d: SceneDynamics,
    current: VehicleState,
    horizon_dt: float,
) -> tuple[VehicleState, ...]:
    """Reference slice plus the scene-dynamics correction, one pose per slice pose.

    The correction is evaluated in the vehicle frame at cumulative
    arc-length samples along the slice, then rotated into world
    coordinates and added to the reference poses. The slice poses are
    horizon_dt apart in time. Headings pick up the slope of the curvature
    term (the correction is positional in the lateral channel).
    """
    n = len(ref_slice)
    # arc-length samples measured from the current position through the slice
    xs = np.empty(n)
    prev_x, prev_y = current.x, current.y
    acc = 0.0
    for i, z in enumerate(ref_slice):
        acc += math.hypot(z.x - prev_x, z.y - prev_y)
        xs[i] = acc
        prev_x, prev_y = z.x, z.y
    v_ref = acc / (n * horizon_dt)
    lookahead = max(v_ref * LOOKAHEAD_TIME_S, MIN_LOOKAHEAD_M)
    # anchoring the heading term beyond the horizon turns it into positive
    # feedback on heading drift
    if acc > 0.0:
        lookahead = min(lookahead, acc)
    rho_rel = wrap_angle(current.rho - ref_slice[0].rho)
    ys = project_path(d, rho_rel, lookahead, xs)
    states = []
    for z, y_off, x_i in zip(ref_slice, ys, xs):
        ox, oy = rotate(0.0, float(y_off), current.rho)
        # headings carry the curvature channel only; folding the relative
        # heading into the targets destabilizes steady curve tracking
        heading = wrap_angle(z.rho + math.atan(d.c * float(x_i)))
        states.append(VehicleState(z.x + ox, z.y + oy, heading))
    return tuple(states)


def residual_h(d: SceneDynamics, rho: float) -> np.ndarray:
    """Per-step state increment implied by the scene dynamics.

    (0, RESIDUAL_K_W*w, RESIDUAL_K_C*c) in the vehicle frame; the position
    part is rotated by rho into world coordinates.
    """
    wx, wy = rotate(0.0, RESIDUAL_K_W * d.w, rho)
    return np.array([wx, wy, RESIDUAL_K_C * d.c])


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


def gain_schedule(d: SceneDynamics) -> GainSchedule:
    """diag(Q) = w, diag(R) = 1 - w, with R floored at EPS_R."""
    return GainSchedule(q_diag=d.w, r_diag=max(1.0 - d.w, EPS_R))
