"""Kinematic bicycle model: nominal step, noisy true step, and the array rollout of the nominal model.

The nominal model advances the planar pose (x, y, rho) with the controlled
slip angle acting on both the velocity direction and the yaw rate:

    z' = z + dt * [cos(rho + omega), sin(rho + omega), sin(omega) / L] * v

A VehicleState's heading is normalized to (-pi, pi]; `rollout`, the one
array form of the model that the NMPC prediction and the DWA planner
share, leaves its headings unwrapped.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import wrap_angle


def require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class VehicleState:
    """Planar pose: position in meters, heading in radians.

    Heading is normalized to (-pi, pi] on construction.
    """

    x: float
    y: float
    rho: float

    def __post_init__(self):
        require_finite("VehicleState", self.x, self.y, self.rho)
        object.__setattr__(self, "rho", wrap_angle(self.rho))


@dataclass(frozen=True)
class ControlInput:
    """Longitudinal velocity command (m/s) and steering/slip angle (rad)."""

    v_cmd: float
    omega_cmd: float

    def __post_init__(self):
        require_finite("ControlInput", self.v_cmd, self.omega_cmd)


@dataclass(frozen=True)
class ModelParams:
    """Bicycle model parameters.

    wheelbase_L: front-to-rear axle distance, meters.
    dt: sampling time, seconds.
    sigma_f: per-axis standard deviation of additive state noise.
    """

    wheelbase_L: float = 0.36
    dt: float = 0.05
    sigma_f: float = 0.0

    def __post_init__(self):
        require_finite("ModelParams", self.wheelbase_L, self.dt, self.sigma_f)
        if self.wheelbase_L <= 0.0:
            raise ValueError("wheelbase_L must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.sigma_f < 0.0:
            raise ValueError("sigma_f must be non-negative")


def step_nominal(state: VehicleState, u: ControlInput, p: ModelParams) -> VehicleState:
    """Advance one sampling period with the nominal bicycle model."""
    heading = state.rho + u.omega_cmd
    dx = math.cos(heading) * u.v_cmd * p.dt
    dy = math.sin(heading) * u.v_cmd * p.dt
    drho = math.sin(u.omega_cmd) / p.wheelbase_L * u.v_cmd * p.dt
    return VehicleState(state.x + dx, state.y + dy, state.rho + drho)


def step_true(
    state: VehicleState,
    u: ControlInput,
    p: ModelParams,
    rng: Optional[np.random.Generator] = None,
) -> VehicleState:
    """Nominal step plus Gaussian state noise.

    Noise is drawn only when sigma_f > 0, so noiseless calls leave the
    generator untouched.
    """
    nominal = step_nominal(state, u, p)
    nx, ny, nr = 0.0, 0.0, 0.0
    if p.sigma_f > 0.0:
        if rng is None:
            raise ValueError("sigma_f > 0 requires a random generator")
        noise = rng.normal(0.0, p.sigma_f, size=3)
        nx, ny, nr = float(noise[0]), float(noise[1]), float(noise[2])
    return VehicleState(nominal.x + nx, nominal.y + ny, nominal.rho + nr)


def rollout(state: VehicleState, v, w, n_steps: int, p: ModelParams, residual=None):
    """Nominal-model prediction from one pose, on arrays.

    v and w broadcast to (..., n_steps): one control sequence per leading
    index, so held commands may be passed as (C, 1). residual, when given,
    is a constant (x, y, rho) increment added after every nominal step. p
    needs only dt and wheelbase_L, so an NmpcConfig serves as well.

    Returns the positions (2, ..., n_steps) after each step, the headings
    (..., n_steps + 1) from state.rho on, and the cosine and sine
    (2, ..., n_steps) of each step's direction of travel. Every running
    total is an np.add.accumulate in step order, z + increment + residual,
    so a row's values do not depend on its batch or on how its controls
    broadcast. Headings are not wrapped: they enter through cos and sin,
    and a caller wraps them where it compares them.
    """
    shape = np.broadcast(v, w).shape[:-1]
    dt = p.dt
    # rows x, y and rho of the increments, each after its start value; the
    # residual's increments interleave with the nominal ones (a transpose
    # puts the rows last, where a 3-vector broadcasts)
    k = 1 if residual is None else 2
    steps = np.empty((3,) + shape + (k * n_steps + 1,))
    steps[..., 0].T[...] = state.x, state.y, state.rho
    if residual is not None:
        steps[..., 2::2].T[...] = residual
    steps[2, ..., 1::k] = np.sin(w) / p.wheelbase_L * v * dt
    rho = np.add.accumulate(steps[2], axis=-1, out=steps[2])[..., ::k]
    # each step's direction of travel, rho + w, goes in the sine's place
    trig = np.empty((2,) + rho[..., :-1].shape)
    head = np.add(rho[..., :-1], w, out=trig[1])
    np.cos(head, out=trig[0])
    np.sin(head, out=trig[1])
    travel = np.multiply(trig, v, out=steps[:2, ..., 1::k])
    travel *= dt
    xy = np.add.accumulate(steps[:2], axis=-1, out=steps[:2])[..., k::k]
    return xy, rho, trig
