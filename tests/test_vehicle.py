import math

import numpy as np
import pytest

from visionmpc.vehicle import ControlInput, ModelParams, VehicleState, rollout, step_nominal, step_true


def test_zero_velocity_leaves_state_fixed():
    state = VehicleState(0.0, 0.0, 0.0)
    out = step_nominal(state, ControlInput(0.0, 0.3), ModelParams())
    assert out == VehicleState(0.0, 0.0, 0.0)


def test_straight_line_advance():
    p = ModelParams(wheelbase_L=0.36, dt=0.1)
    out = step_nominal(VehicleState(0.0, 0.0, 0.0), ControlInput(1.0, 0.0), p)
    assert out.x == pytest.approx(0.1, abs=1e-15)
    assert out.y == 0.0
    assert out.rho == 0.0


def test_constant_control_traces_analytic_circle():
    # continuous-time model: circle of radius L / sin(omega) around
    # (-R sin(omega), R cos(omega)) for a start at the origin heading 0
    p = ModelParams(wheelbase_L=0.36, dt=1e-3)
    v, omega = 1.0, 0.2
    radius = p.wheelbase_L / math.sin(omega)
    turn_rate = v * math.sin(omega) / p.wheelbase_L
    cx, cy = -radius * math.sin(omega), radius * math.cos(omega)
    n_steps = int((math.pi / 2) / turn_rate / p.dt)
    u = ControlInput(v, omega)
    z = VehicleState(0.0, 0.0, 0.0)
    worst_radius_err = 0.0
    for _ in range(n_steps):
        z = step_nominal(z, u, p)
        r = math.hypot(z.x - cx, z.y - cy)
        worst_radius_err = max(worst_radius_err, abs(r - radius) / radius)
    assert worst_radius_err < 1e-3
    # end point should sit near the analytic quarter-turn position
    t = n_steps * p.dt
    x_exact = radius * (math.sin(turn_rate * t + omega) - math.sin(omega))
    y_exact = radius * (math.cos(omega) - math.cos(turn_rate * t + omega))
    assert math.hypot(z.x - x_exact, z.y - y_exact) < 5e-3


def test_step_true_zero_noise_is_nominal():
    p = ModelParams(sigma_f=0.0)
    state = VehicleState(0.3, -0.2, 0.4)
    u = ControlInput(0.7, -0.1)
    assert step_true(state, u, p) == step_nominal(state, u, p)


def test_step_true_deterministic_given_seed():
    p = ModelParams(sigma_f=0.01)
    state = VehicleState(0.0, 0.0, 0.0)
    u = ControlInput(0.5, 0.1)
    a = step_true(state, u, p, np.random.default_rng(42))
    b = step_true(state, u, p, np.random.default_rng(42))
    assert a == b
    c = step_true(state, u, p, np.random.default_rng(43))
    assert a != c


def test_step_true_noise_requires_rng():
    with pytest.raises(ValueError):
        step_true(VehicleState(0, 0, 0), ControlInput(0, 0), ModelParams(sigma_f=0.1))


def test_rollout_empty_and_zero_controls():
    p = ModelParams()
    start = VehicleState(1.0, 2.0, 0.5)
    assert rollout(start, [], p=p) == []
    out = rollout(start, [ControlInput(0.0, 0.0)] * 3, p=p)
    assert out == [start] * 3


def test_rollout_matches_independent_composition():
    rng = np.random.default_rng(7)
    p = ModelParams()
    start = VehicleState(0.2, -0.1, 0.3)
    u_seq = [ControlInput(rng.uniform(0, 1), rng.uniform(-0.3, 0.3)) for _ in range(5)]
    out = rollout(start, u_seq, p=p)
    z = start
    for k, u in enumerate(u_seq):
        z = step_nominal(z, u, p)
        assert out[k] == z


def test_rollout_prefix_property():
    rng = np.random.default_rng(3)
    p = ModelParams()
    start = VehicleState(0.0, 0.0, 0.0)
    u_seq = [ControlInput(rng.uniform(0, 1), rng.uniform(-0.3, 0.3)) for _ in range(6)]
    assert rollout(start, u_seq[:5], p=p) == rollout(start, u_seq, p=p)[:5]


def test_rollout_residual_length_mismatch():
    with pytest.raises(ValueError):
        rollout(VehicleState(0, 0, 0), [ControlInput(0, 0)] * 3, [[0, 0, 0]] * 2)


def test_translation_equivariance():
    rng = np.random.default_rng(11)
    p = ModelParams()
    for _ in range(20):
        x, y, rho = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)
        a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
        u = ControlInput(rng.uniform(0, 1), rng.uniform(-0.3, 0.3))
        base = step_nominal(VehicleState(x, y, rho), u, p)
        shifted = step_nominal(VehicleState(x + a, y + b, rho), u, p)
        assert shifted.x == pytest.approx(base.x + a, abs=1e-12)
        assert shifted.y == pytest.approx(base.y + b, abs=1e-12)
        assert shifted.rho == base.rho


def test_rotation_equivariance():
    rng = np.random.default_rng(13)
    p = ModelParams()
    for _ in range(20):
        rho = rng.uniform(-2, 2)
        theta = rng.uniform(-2, 2)
        u = ControlInput(rng.uniform(0, 1), rng.uniform(-0.3, 0.3))
        base = step_nominal(VehicleState(0.0, 0.0, rho), u, p)
        rotated = step_nominal(VehicleState(0.0, 0.0, rho + theta), u, p)
        dx, dy = base.x, base.y
        want_x = math.cos(theta) * dx - math.sin(theta) * dy
        want_y = math.sin(theta) * dx + math.cos(theta) * dy
        assert rotated.x == pytest.approx(want_x, abs=1e-12)
        assert rotated.y == pytest.approx(want_y, abs=1e-12)


def test_heading_normalized_to_half_open_interval():
    assert VehicleState(0, 0, math.pi).rho == pytest.approx(math.pi)
    assert VehicleState(0, 0, -math.pi).rho == pytest.approx(math.pi)
    assert VehicleState(0, 0, 3 * math.pi + 0.1).rho == pytest.approx(-math.pi + 0.1)
    with pytest.raises(ValueError):
        VehicleState(float("nan"), 0, 0)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(wheelbase_L=0.0)
    with pytest.raises(ValueError):
        ModelParams(dt=-0.1)
    with pytest.raises(ValueError):
        ModelParams(sigma_f=-1.0)
