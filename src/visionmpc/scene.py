"""Scene-dynamics algebra.

A driving scene is summarized by (c, w): road curvature in 1/m and a
normalized traversable width in [0, 1]. This module converts between that
pair and what the controller consumes: a lateral path projection, a
corrected desired trajectory, a model residual, the quadratic-cost gain
schedule and the reference control; and it maps a control back to its pair.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

import numpy as np

from .geometry import fit_curvature, rotate, wrap_angle
from .vehicle import ControlInput, VehicleState

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


def project_path(d: SceneDynamics, rho: float, xs) -> np.ndarray:
    """Lateral offsets of the predicted path at longitudinal samples xs.

    y_i = -rho * (x_i - x_n) + 0.5 * c * x_i^2, with the heading term
    anchored at the last sample x_n: anchored beyond the horizon it turns
    into positive feedback on heading drift.
    """
    xs = np.asarray(xs, dtype=float)
    # no width term: a lateral shift by w is one-sided and destabilizes
    # corridor tracking, so w only drives speed and the gain schedule;
    # xs[-1:] keeps an empty xs empty
    return -rho * (xs - xs[-1:]) + 0.5 * d.c * xs ** 2


def desired_trajectory(ref_slice: np.ndarray, d: SceneDynamics, current: VehicleState) -> np.ndarray:
    """Reference slice plus the scene-dynamics correction, one pose per slice pose.

    ref_slice and the result are (3, T) paths: rows x, y and heading. The
    correction is evaluated in the vehicle frame at cumulative arc-length
    samples along the slice, then rotated into world coordinates and added
    to the reference poses. Headings pick up the slope of the curvature
    term (the correction is positional in the lateral channel).
    """
    # arc-length samples measured from the current position through the
    # slice, in Python floats: math.hypot and math.atan, as np.hypot and
    # np.arctan round differently on some inputs
    x, y = ref_slice[0].tolist(), ref_slice[1].tolist()
    xs = list(accumulate(map(math.hypot, map(sub, x, [current.x] + x[:-1]), map(sub, y, [current.y] + y[:-1]))))
    rho_rel = wrap_angle(current.rho - float(ref_slice[2, 0]))
    ox, oy = rotate(0.0, project_path(d, rho_rel, xs), current.rho)
    # headings carry the curvature channel only; folding the relative
    # heading into the targets destabilizes steady curve tracking
    turn = [math.atan(d.c * x_i) for x_i in xs]
    return np.vstack((ref_slice[0] + ox, ref_slice[1] + oy, wrap_angle(ref_slice[2] + turn)))


def residual_h(d: SceneDynamics, rho: float) -> np.ndarray:
    """Per-step state increment implied by the scene dynamics.

    (0, RESIDUAL_K_W*w, RESIDUAL_K_C*c) in the vehicle frame; the position
    part is rotated by rho into world coordinates.
    """
    wx, wy = rotate(0.0, RESIDUAL_K_W * d.w, rho)
    return np.array([wx, wy, RESIDUAL_K_C * d.c])


def dynamics_from_trajectory(traj: np.ndarray, v: float, v_max: float) -> SceneDynamics:
    """Recover (c, w) from a (3, T) path and the agent speed.

    Curvature is 2*a2 of the least-squares quadratic fit in the frame of
    the first pose; w = v / v_max clamped to [0, 1].
    """
    if v_max <= 0.0:
        raise ValueError("v_max must be positive")
    if not (0.0 <= v <= v_max):
        raise ValueError(f"v must be in [0, v_max], got {v}")
    if traj.shape[1] < 3:
        raise ValueError("need at least 3 trajectory points")
    c = fit_curvature(traj[0], traj[1], float(traj[2, 0]))
    return SceneDynamics(c, min(max(v / v_max, 0.0), 1.0))


def gain_schedule(d: SceneDynamics) -> GainSchedule:
    """diag(Q) = w, diag(R) = 1 - w, with R floored at EPS_R."""
    return GainSchedule(q_diag=d.w, r_diag=max(1.0 - d.w, EPS_R))


def reference_control(d: SceneDynamics, v_full: float, wheelbase_L: float) -> ControlInput:
    """(w * v_full, asin(c * L)) with c * L clipped to [-1, 1]: the control that holds the pair d."""
    return ControlInput(d.w * v_full, math.asin(min(max(d.c * wheelbase_L, -1.0), 1.0)))


def pair_of_control(u: ControlInput, v_full: float, wheelbase_L: float) -> tuple[float, float]:
    """(sin(omega) / L, v / v_full clipped to [0, 1]): the pair (c, w) that u holds, as floats."""
    return math.sin(u.omega_cmd) / wheelbase_L, min(max(u.v_cmd / v_full, 0.0), 1.0)
