"""Comparison policies: dynamic-window planning and a direct reactive law.

The dynamic-window planner samples (v, omega) pairs reachable within one
control period, rolls each out at constant control, discards rollouts that
come within the inflation radius of a sensed obstacle point, and scores
the survivors on goal heading, clearance, and speed. The winning rollout
becomes the desired trajectory and reference control of the tracker.

A rollout's clearance is the exact minimum, over its poses and the sensed
points, of (x - px)^2 + (y - py)^2, square-rooted once. It is found in
tiles of nearby poses: a point is skipped for a tile only when the triangle
inequality puts every pose of the tile farther from it than a known upper
bound on the minimum, with a margin far above rounding, so the pairs that
remain hold the minimum and the result is bit-identical to evaluating
every pair.

The direct policy maps the scan straight to actuation: steering moves in
exact multiples of a small increment toward the bearing of the most open
direction, and velocity follows a proportional law toward its target.

Both read their actuator and rate bounds, dt, wheelbase and horizon from the
shared NmpcConfig passed as `limits`, the one the tracking controller obeys.
"""

import math
from functools import cache

import numpy as np

from .geometry import read_only, wrap_angle
from .memory import Observation
from .nmpc import NmpcConfig
from .sim import ray_bearings, signed_ray_bearings
from .vehicle import ControlInput, VehicleState, rollout

# dynamic-window sampling grid, rollout length and scoring weights
DWA_V_SAMPLES = 11
DWA_OMEGA_SAMPLES = 21
DWA_HORIZON_S = 1.5
DWA_WEIGHT_HEADING = 0.8
DWA_WEIGHT_CLEARANCE = 0.2
DWA_WEIGHT_VELOCITY = 0.3
DWA_VEHICLE_RADIUS = 0.08
DWA_CLEARANCE_CAP = 1.0
# clearance tiles span this many steps; the relative and absolute widening
# of each pruning bound lies far above the rounding of its few operations
_SEGMENT_STEPS = 3
_PRUNE_SLACK = 1e-9
_PRUNE_ABS_M = 1e-12

# direct execution law: 0.01 degree steering steps, a proportional
# velocity law with gain 1.6, braking when the front cone (+-30 deg) is
# nearer than 0.45 m, and rays within 5% of the longest counted as open
DIRECT_STEER_INCREMENT_DEG = 0.01
DIRECT_K_V = 1.6
DIRECT_BRAKE_DISTANCE_M = 0.45
DIRECT_FRONT_HALF_DEG = 30.0
DIRECT_OPEN_TOLERANCE = 0.05


def _square_sum(dx, dy):
    """dx^2 + dy^2, written into dx; from differences x - px and y - py
    it rounds each pair as (x - px)^2 + (y - py)^2 does."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _gathered_square_sum(xs, ys, cols, px, py, work):
    """_square_sum of xs - px and ys - py over the columns cols of xs and
    ys, in the buffers work["x"] and work["y"]."""
    shape = (xs.shape[0], cols.size)
    # mode="clip" writes straight into out; the indices are in range
    dx = np.take(xs, cols, axis=1, out=_buffer(work, "x", shape), mode="clip")
    dx -= px
    dy = np.take(ys, cols, axis=1, out=_buffer(work, "y", shape), mode="clip")
    dy -= py
    return _square_sum(dx, dy)


def _buffer(work: dict, key: str, shape, dtype=float) -> np.ndarray:
    """An uninitialized array of `shape` on the buffer work[key], which is
    grown to fit and kept in `work` for the next call."""
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(max(size, 0 if buf is None else 2 * buf.size), dtype)
    return buf[:size].reshape(shape)


def _pruning_bound(upper, radius):
    """Squared distance from a centre beyond which no pose within radius of
    it can come nearer a point than upper, widened well past rounding."""
    reach = upper * (1.0 + _PRUNE_SLACK) + radius + _PRUNE_ABS_M
    return reach * reach


def _min_clearance(positions: np.ndarray, pts: np.ndarray, work: dict | None = None) -> np.ndarray:
    """Distance from each rollout (C, H, 2) to its nearest point (P >= 1, 2).

    The result is sqrt of the minimum of (x - px)^2 + (y - py)^2 over every
    pose and point, bit for bit, but only pairs that can hold the minimum
    are evaluated. The poses form tiles of DWA_V_SAMPLES consecutive
    rollouts by _SEGMENT_STEPS steps (dwa_plan orders its rollouts speed
    first, so a tile follows one steering arc), and each tile one segment
    per rollout; padding repeats the last rollout and the last pose, which
    moves no minimum. The centre of a segment is its middle pose, that of a
    tile the middle rollout's segment centre, and each radius bounds the
    distance from the centre to every pose it covers.

    1. Each tile centre against every point bounds the minimum of every
       rollout in the tile's block: centre distance plus tile radius.
    2. For the (tile, point) pairs left, each segment centre is a pose of
       its rollout, so its distances give a tighter bound per rollout.
    3. For the (segment, point) pairs left, every pose is evaluated and
       each rollout keeps its smallest square.

    Pass 1 drops a point for a tile, and pass 2 for a segment, only when its
    distance from the centre exceeds the bound plus the radius, widened by
    _PRUNE_SLACK and _PRUNE_ABS_M. Every pose covered is then farther from
    that point than the rollout's minimum by far more than rounding can
    close, so no dropped pair holds or ties the minimum.

    The squares, bounds and masks of the passes are written into buffers
    kept in `work`, grown to fit. A caller that passes the same dict on
    every call reuses them; allocating them afresh costs hundreds of page
    faults whenever the allocator has handed the last call's memory back.
    """
    work = {} if work is None else work
    C, H, _ = positions.shape
    B, K = DWA_V_SAMPLES, _SEGMENT_STEPS
    nb, nk = -(-C // B), -(-H // K)
    if (nb * B, nk * K) != (C, H):
        positions = np.pad(positions, ((0, nb * B - C), (0, nk * K - H), (0, 0)), mode="edge")
    # pose coordinates as (pose in segment, block, rollout in block, segment)
    X = positions[..., 0].reshape(nb, B, nk, K).transpose(3, 0, 1, 2).copy()
    Y = positions[..., 1].reshape(nb, B, nk, K).transpose(3, 0, 1, 2).copy()
    px, py = pts[:, 0], pts[:, 1]
    sx, sy = X[K // 2], Y[K // 2]
    seg_rad = np.sqrt(_square_sum(X - sx, Y - sy).max(axis=0))
    tx, ty = sx[:, B // 2], sy[:, B // 2]
    tile_rad = (np.sqrt(_square_sum(sx - tx[:, None], sy - ty[:, None])) + seg_rad).max(axis=1)

    shape = (nb, nk, pts.shape[0])
    dx = np.subtract(tx[..., None], px, out=_buffer(work, "x", shape))
    d = _square_sum(dx, np.subtract(ty[..., None], py, out=_buffer(work, "y", shape)))
    upper = (np.sqrt(d.min(axis=2)) + tile_rad).min(axis=1)
    bound = _pruning_bound(upper[:, None, None], tile_rad[..., None])
    kept = np.flatnonzero(np.less_equal(d, bound, out=_buffer(work, "kept", shape, bool)))
    tile, point = np.divmod(kept, pts.shape[0])
    block = tile // nk

    # (rollout in block, tile) layouts; every block keeps the pair that set its bound
    sx_t = sx.transpose(1, 0, 2).reshape(B, nb * nk)
    sy_t = sy.transpose(1, 0, 2).reshape(B, nb * nk)
    d = _gathered_square_sum(sx_t, sy_t, tile, px[point], py[point], work)
    upper_roll = np.sqrt(np.minimum.reduceat(d, np.searchsorted(block, np.arange(nb)), axis=1))
    bound = _pruning_bound(np.repeat(upper_roll, nk, axis=1), seg_rad.transpose(1, 0, 2).reshape(B, nb * nk))
    bound = np.take(bound, tile, axis=1, out=_buffer(work, "bound", d.shape), mode="clip")
    kept = np.flatnonzero(np.less_equal(d, bound, out=_buffer(work, "kept", d.shape, bool)))
    b, pair = np.divmod(kept, tile.shape[0])

    rollout = block[pair] * B + b
    seg = rollout * nk + tile[pair] % nk
    point = point[pair]
    d = _gathered_square_sum(X.reshape(K, -1), Y.reshape(K, -1), seg, px[point], py[point], work).min(axis=0)
    # pairs run rollout-in-block major, block minor: one run per rollout
    key = b * nb + block[pair]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    out = np.full(nb * B, np.inf)
    out[rollout[starts]] = np.minimum.reduceat(d, starts)
    return np.sqrt(out[:C])


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
    goal: tuple[float, float],
    limits: NmpcConfig,
    current_u: ControlInput,
    work: dict | None = None,
) -> tuple[ControlInput, np.ndarray]:
    """Best admissible constant-control rollout: its sampled (v, omega) and its poses.

    The window is the set of controls within the actuator bounds of
    `limits` and reachable from current_u under its rate bounds; rollouts
    are scored on their end heading toward the point `goal`, (x, y). Falls
    back to (0, 0) and the hold-pose stop trajectory when every sampled
    rollout collides. The trajectory is a (3, limits.tau_o) path, rows x, y
    and wrapped heading, its poses spaced limits.dt apart.
    A caller that plans every step passes one dict as `work` on every
    call, and the clearance kernel keeps its buffers there.
    """
    dt = limits.dt
    n_steps = max(1, int(round(DWA_HORIZON_S / dt)))
    horizon = limits.tau_o
    (v_lo, v_hi), (om_lo, om_hi) = limits.reachable(current_u)
    if v_lo > v_hi or om_lo > om_hi:
        return ControlInput(0.0, 0.0), np.tile(((vehicle.x,), (vehicle.y,), (vehicle.rho,)), horizon)
    # the grid, speed varying fastest, as columns: each command is held over
    # its rollout, as the NMPC predicts a plan's command held
    vs = np.tile(np.linspace(v_lo, v_hi, DWA_V_SAMPLES), DWA_OMEGA_SAMPLES)[:, None]
    omegas = np.repeat(np.linspace(om_lo, om_hi, DWA_OMEGA_SAMPLES), DWA_V_SAMPLES)[:, None]
    n_roll = max(n_steps, horizon)
    xy, heads, _ = rollout(vehicle, vs, omegas, n_roll, limits)
    pts = np.asarray(obstacle_points, dtype=float).reshape(-1, 2)
    if pts.shape[0] > 0:
        reach = v_hi * dt * n_roll + DWA_VEHICLE_RADIUS + DWA_CLEARANCE_CAP
        near = np.hypot(pts[:, 0] - vehicle.x, pts[:, 1] - vehicle.y) <= reach
        pts = pts[near]
    if pts.shape[0] > 0:
        min_clear = _min_clearance(np.moveaxis(xy, 0, -1), pts, work)
    else:
        min_clear = np.full(vs.shape[0], DWA_CLEARANCE_CAP + DWA_VEHICLE_RADIUS)
    admissible = min_clear > DWA_VEHICLE_RADIUS
    if not np.any(admissible):
        return ControlInput(0.0, 0.0), np.tile(((vehicle.x,), (vehicle.y,), (vehicle.rho,)), horizon)

    gx, gy = goal
    to_goal = np.arctan2(gy - xy[1, :, n_steps - 1], gx - xy[0, :, n_steps - 1])
    off_goal = to_goal - heads[:, n_steps]
    misalign = np.abs(np.arctan2(np.sin(off_goal), np.cos(off_goal)))
    heading_score = 1.0 - misalign / math.pi
    clearance_score = np.minimum(min_clear - DWA_VEHICLE_RADIUS, DWA_CLEARANCE_CAP) / DWA_CLEARANCE_CAP
    v_max = limits.u_max.v_cmd
    velocity_score = vs[:, 0] / v_max if v_max > 0 else 0.0
    score = (
        DWA_WEIGHT_HEADING * heading_score
        + DWA_WEIGHT_CLEARANCE * clearance_score
        + DWA_WEIGHT_VELOCITY * velocity_score
    )
    score = np.where(admissible, score, -np.inf)
    best = int(np.argmax(score))
    plan = np.vstack((xy[:, best, :horizon], wrap_angle(heads[best, 1:horizon + 1])))
    return ControlInput(float(vs[best, 0]), float(omegas[best, 0])), plan


@cache
def _direct_fan(n_rays: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only constants of a fan of n_rays for the direct law: the rays
    of the forward half-plane, their signed bearings, and the rays of the
    front cone."""
    bearings = signed_ray_bearings(n_rays)
    forward = np.flatnonzero(np.abs(bearings) <= math.pi / 2.0)
    front = np.flatnonzero(np.abs(bearings) <= math.radians(DIRECT_FRONT_HALF_DEG))
    return read_only(forward), read_only(bearings[forward]), read_only(front)


def _open_direction_signal(obs: Observation) -> tuple[float, float]:
    """(steering signal rad, min forward distance) from the scan.

    The signal is the mean bearing of the near-maximal rays in the forward
    half-plane; forward distance is the minimum over a narrow front cone.
    """
    rays = np.asarray(obs.rays)
    forward, fb, front = _direct_fan(rays.shape[0])
    fd = rays.take(forward)
    d_max = float(fd.max())
    open_mask = fd >= d_max - DIRECT_OPEN_TOLERANCE * d_max
    # the mean as np.mean computes it, without its wrapper
    signal = float(np.add.reduce(fb[open_mask]) / np.count_nonzero(open_mask))
    front_min = float(rays.take(front).min()) if front.shape[0] > 0 else d_max
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
    (v_lo, v_hi), (om_lo, om_hi) = limits.reachable(prev_u)
    lo, hi = om_lo - prev_u.omega_cmd, om_hi - prev_u.omega_cmd
    # integer step count toward the signal, clamped to the admissible
    # multiples inside [lo, hi]
    steps = int(round(abs(signal) / incr)) * (1 if signal >= 0.0 else -1)
    steps = min(max(steps, math.ceil(lo / incr - 1e-9)), math.floor(hi / incr + 1e-9))
    omega = prev_u.omega_cmd + steps * incr

    v_target = 0.0 if front_min < DIRECT_BRAKE_DISTANCE_M else limits.u_max.v_cmd
    v = prev_u.v_cmd + DIRECT_K_V * (v_target - prev_u.v_cmd) * limits.dt
    return ControlInput(min(max(v, v_lo), v_hi), omega)
