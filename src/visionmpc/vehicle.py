"""Kinematic bicycle model: nominal step, noisy true step, residual-augmented rollouts.

The nominal model advances the planar pose (x, y, rho) with the controlled
slip angle acting on both the velocity direction and the yaw rate:

    z' = z + dt * [cos(rho + omega), sin(rho + omega), sin(omega) / L] * v

Heading is renormalized to (-pi, pi] after every update.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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


def rollout(
    state: VehicleState,
    u_seq: Sequence[ControlInput],
    residual_seq=None,
    p: ModelParams = ModelParams(),
) -> list[VehicleState]:
    """Predict the state sequence for a control sequence (no noise).

    residual_seq, when given, must match u_seq in length; each element is a
    3-vector increment added after the corresponding nominal step.
    """
    if residual_seq is not None and len(residual_seq) not in (0, len(u_seq)):
        raise ValueError(
            f"residual_seq length {len(residual_seq)} does not match horizon {len(u_seq)}"
        )
    states: list[VehicleState] = []
    z = state
    for k, u in enumerate(u_seq):
        res = None
        if residual_seq is not None and len(residual_seq) > 0:
            res = residual_seq[k]
        z = step_nominal(z, u, p)
        if res is not None:
            r = np.asarray(res, dtype=float).reshape(-1)
            if r.shape[0] != 3:
                raise ValueError("residual entries must be 3-vectors")
            z = VehicleState(z.x + r[0], z.y + r[1], z.rho + r[2])
        states.append(z)
    return states
