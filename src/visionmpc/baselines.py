"""Comparison policies: dynamic-window planning and a direct reactive law.

The dynamic-window planner samples (v, omega) pairs reachable within one
control period, rolls each out at constant control, discards rollouts that
come within the inflation radius of a sensed obstacle point, and scores
the survivors on goal heading, clearance, and speed. The winning rollout
becomes the desired trajectory for the tracking controller.

The direct policy maps the scan straight to actuation: steering moves in
exact multiples of a small increment toward the bearing of the most open
direction, and velocity follows a proportional law toward its target.

Both read their actuator and rate bounds, dt, wheelbase and horizon from the
shared NmpcConfig passed as `limits`, the one the tracking controller obeys.
"""

import math

import numpy as np

from .memory import Observation
from .nmpc import NmpcConfig
from .sim import ray_bearings
from .vehicle import ControlInput, VehicleState

# dynamic-window sampling grid, rollout length and scoring weights
DWA_V_SAMPLES = 11
DWA_OMEGA_SAMPLES = 21
DWA_HORIZON_S = 1.5
DWA_WEIGHT_HEADING = 0.8
DWA_WEIGHT_CLEARANCE = 0.2
DWA_WEIGHT_VELOCITY = 0.3
DWA_VEHICLE_RADIUS = 0.08
DWA_CLEARANCE_CAP = 1.0

# direct execution law: 0.01 degree steering steps, a proportional
# velocity law with gain 1.6, braking when the front cone is nearer than
# 0.45 m, and rays within 5% of the longest counted as open
DIRECT_STEER_INCREMENT_DEG = 0.01
DIRECT_K_V = 1.6
DIRECT_BRAKE_DISTANCE_M = 0.45
DIRECT_OPEN_TOLERANCE = 0.05


def _constant_rollouts(vehicle: VehicleState, vs, omegas, limits: NmpcConfig, n_steps: int):
    """Constant-control bicycle rollouts.

    Returns positions (C, H, 2) and pose headings (C, H) after each step.
    """
    v = vs[:, None]
    om = omegas[:, None]
    step_idx = np.arange(n_steps)[None, :]
    dpsi = limits.dt * v * np.sin(om) / limits.wheelbase_L
    vel_dirs = vehicle.rho + om + dpsi * step_idx
    dx = np.cos(vel_dirs) * v * limits.dt
    dy = np.sin(vel_dirs) * v * limits.dt
    xs = vehicle.x + np.cumsum(dx, axis=1)
    ys = vehicle.y + np.cumsum(dy, axis=1)
    pose_heads = vehicle.rho + dpsi * (step_idx + 1)
    return np.stack([xs, ys], axis=2), pose_heads


def _min_clearance(positions: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each rollout (C, H, 2) to its nearest point (P, 2)."""
    flat = positions.reshape(-1, 2)
    # |f|^2 - 2 f.p + |p|^2 built in place: scaling by -2 is exact and
    # x + (-y) == x - y, so no rounding differs from the three-temporary sum
    d2 = (-2.0 * flat) @ pts.T
    d2 += np.sum(flat ** 2, axis=1)[:, None]
    d2 += np.sum(pts ** 2, axis=1)[None, :]
    return np.sqrt(np.maximum(d2.reshape(positions.shape[0], -1).min(axis=1), 0.0))


def obstacle_points_from_observation(obs: Observation, vehicle: VehicleState, max_range: float) -> np.ndarray:
    """Sensed ray endpoints as world-frame point obstacles.

    Rays at full range carry no hit and are dropped.
    """
    rays = np.asarray(obs.rays)
    bearings = vehicle.rho + ray_bearings(rays.shape[0])
    hit = rays < max_range * (1.0 - 1e-9)
    if not np.any(hit):
        return np.zeros((0, 2))
    d = rays[hit]
    b = bearings[hit]
    return np.stack([vehicle.x + d * np.cos(b), vehicle.y + d * np.sin(b)], axis=1)


def dwa_plan(
    vehicle: VehicleState,
    obstacle_points: np.ndarray,
    goal: VehicleState,
    limits: NmpcConfig,
    current_u: ControlInput,
) -> tuple[VehicleState, ...]:
    """Best admissible constant-control rollout as a desired trajectory.

    The window is the set of controls within the actuator bounds of
    `limits` and reachable from current_u under its rate bounds; rollouts
    are scored on their end heading toward `goal`. Falls back to the
    hold-pose stop trajectory when every sampled rollout collides. The
    returned trajectory has limits.tau_o poses spaced limits.dt apart.
    """
    dt = limits.dt
    n_steps = max(1, int(round(DWA_HORIZON_S / dt)))
    horizon = limits.tau_o
    v_lo = max(limits.u_min.v_cmd, current_u.v_cmd + limits.du_min.v_cmd * dt)
    v_hi = min(limits.u_max.v_cmd, current_u.v_cmd + limits.du_max.v_cmd * dt)
    om_lo = max(limits.u_min.omega_cmd, current_u.omega_cmd + limits.du_min.omega_cmd * dt)
    om_hi = min(limits.u_max.omega_cmd, current_u.omega_cmd + limits.du_max.omega_cmd * dt)
    if v_lo > v_hi or om_lo > om_hi:
        return _stop_trajectory(vehicle, horizon)
    v_grid, om_grid = np.meshgrid(
        np.linspace(v_lo, v_hi, DWA_V_SAMPLES), np.linspace(om_lo, om_hi, DWA_OMEGA_SAMPLES)
    )
    vs = v_grid.ravel()
    omegas = om_grid.ravel()
    n_roll = max(n_steps, horizon)
    positions, pose_heads = _constant_rollouts(vehicle, vs, omegas, limits, n_roll)
    pts = np.asarray(obstacle_points, dtype=float).reshape(-1, 2)
    if pts.shape[0] > 0:
        reach = v_hi * dt * n_roll + DWA_VEHICLE_RADIUS + DWA_CLEARANCE_CAP
        near = np.hypot(pts[:, 0] - vehicle.x, pts[:, 1] - vehicle.y) <= reach
        pts = pts[near]
    if pts.shape[0] > 0:
        min_clear = _min_clearance(positions, pts)
    else:
        min_clear = np.full(vs.shape[0], DWA_CLEARANCE_CAP + DWA_VEHICLE_RADIUS)
    admissible = min_clear > DWA_VEHICLE_RADIUS
    if not np.any(admissible):
        return _stop_trajectory(vehicle, horizon)

    end = positions[:, n_steps - 1, :]
    to_goal = np.arctan2(goal.y - end[:, 1], goal.x - end[:, 0])
    end_heads = pose_heads[:, n_steps - 1]
    misalign = np.abs(np.arctan2(np.sin(to_goal - end_heads), np.cos(to_goal - end_heads)))
    heading_score = 1.0 - misalign / math.pi
    clearance_score = np.minimum(min_clear - DWA_VEHICLE_RADIUS, DWA_CLEARANCE_CAP) / DWA_CLEARANCE_CAP
    v_max = limits.u_max.v_cmd
    velocity_score = vs / v_max if v_max > 0 else np.zeros_like(vs)
    score = (
        DWA_WEIGHT_HEADING * heading_score
        + DWA_WEIGHT_CLEARANCE * clearance_score
        + DWA_WEIGHT_VELOCITY * velocity_score
    )
    score = np.where(admissible, score, -np.inf)
    best = int(np.argmax(score))
    return tuple(
        VehicleState(float(positions[best, k, 0]), float(positions[best, k, 1]), float(pose_heads[best, k]))
        for k in range(horizon)
    )


def _stop_trajectory(vehicle: VehicleState, horizon: int) -> tuple[VehicleState, ...]:
    return (vehicle,) * horizon


def _open_direction_signal(obs: Observation) -> tuple[float, float]:
    """(steering signal rad, min forward distance) from the scan.

    The signal is the mean bearing of the near-maximal rays in the forward
    half-plane; forward distance is the minimum over a narrow front cone.
    """
    rays = np.asarray(obs.rays)
    bearings = ray_bearings(rays.shape[0])
    bearings = np.where(bearings > math.pi, bearings - 2.0 * math.pi, bearings)
    forward = np.abs(bearings) <= math.pi / 2.0
    fb = bearings[forward]
    fd = rays[forward]
    d_max = float(fd.max())
    open_mask = fd >= d_max - DIRECT_OPEN_TOLERANCE * d_max
    signal = float(np.mean(fb[open_mask]))
    front = np.abs(bearings) <= math.radians(30.0)
    front_min = float(rays[front].min()) if np.any(front) else d_max
    return signal, front_min


def direct_policy_step(
    obs: Observation,
    limits: NmpcConfig,
    prev_u: ControlInput,
) -> ControlInput:
    """One reactive control update.

    Steering changes by an exact integer multiple of
    DIRECT_STEER_INCREMENT_DEG toward the open-direction signal, clipped to
    the actuator and rate bounds of `limits`. Velocity follows
    v' = v + DIRECT_K_V (v_target - v) dt with v_target = limits.u_max.v_cmd,
    braking to zero when the forward cone is blocked.
    """
    signal, front_min = _open_direction_signal(obs)
    incr = math.radians(DIRECT_STEER_INCREMENT_DEG)
    dt = limits.dt
    lo = max(limits.u_min.omega_cmd, prev_u.omega_cmd + limits.du_min.omega_cmd * dt) - prev_u.omega_cmd
    hi = min(limits.u_max.omega_cmd, prev_u.omega_cmd + limits.du_max.omega_cmd * dt) - prev_u.omega_cmd
    # integer step count toward the signal, clamped to the admissible
    # multiples inside [lo, hi]
    steps = int(round(abs(signal) / incr)) * (1 if signal >= 0.0 else -1)
    steps = min(max(steps, math.ceil(lo / incr - 1e-9)), math.floor(hi / incr + 1e-9))
    omega = prev_u.omega_cmd + steps * incr

    v_target = 0.0 if front_min < DIRECT_BRAKE_DISTANCE_M else limits.u_max.v_cmd
    v = prev_u.v_cmd + DIRECT_K_V * (v_target - prev_u.v_cmd) * dt
    v = min(max(v, prev_u.v_cmd + limits.du_min.v_cmd * dt), prev_u.v_cmd + limits.du_max.v_cmd * dt)
    v = min(max(v, limits.u_min.v_cmd), limits.u_max.v_cmd)
    return ControlInput(v, omega)
