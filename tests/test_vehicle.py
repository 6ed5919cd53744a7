import math

import numpy as np
import pytest

from visionmpc.geometry import wrap_angle
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


def scalar_rollout(state, u_seq, p, residual=(0.0, 0.0, 0.0)):
    """The nominal model as a per-step loop, z + increment + residual with
    the heading left unwrapped: the oracle that rollout's arrays must equal
    bit for bit. The poses come back as VehicleStates, so their headings
    are wrapped."""
    x, y, r = state.x, state.y, state.rho
    rx, ry, rr = residual
    out = []
    for u in u_seq:
        head = r + u.omega_cmd
        x = x + math.cos(head) * u.v_cmd * p.dt + rx
        y = y + math.sin(head) * u.v_cmd * p.dt + ry
        r = r + math.sin(u.omega_cmd) / p.wheelbase_L * u.v_cmd * p.dt + rr
        out.append(VehicleState(x, y, r))
    return out


def path_of(states):
    """The (3, T) path array, rows x, y and heading, of a sequence of VehicleStates."""
    return np.array([[z.x for z in states], [z.y for z in states], [z.rho for z in states]])


def poses(xy, rho):
    """One rollout's arrays as (x, y, wrapped heading) per step."""
    return [(x, y, wrap_angle(r)) for x, y, r in zip(xy[0].tolist(), xy[1].tolist(), rho[1:].tolist())]


def random_controls(rng, shape):
    return rng.uniform(0.0, 1.0, size=shape), rng.uniform(-0.35, 0.35, size=shape)


def test_rollout_empty_and_zero_controls():
    p = ModelParams()
    start = VehicleState(1.0, 2.0, 0.5)
    xy, rho, trig = rollout(start, np.zeros(0), np.zeros(0), 0, p)
    assert xy.shape == (2, 0) and trig.shape == (2, 0) and rho.tolist() == [0.5]
    xy, rho, _ = rollout(start, 0.0, 0.0, 3, p)
    assert xy.tolist() == [[1.0] * 3, [2.0] * 3]
    assert rho.tolist() == [0.5] * 4


def test_rollout_equals_the_scalar_loop():
    rng = np.random.default_rng(5)
    p = ModelParams()
    for trial in range(40):
        start = VehicleState(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
        T = int(rng.integers(1, 31))
        residual = tuple(rng.uniform(-0.02, 0.02, size=3)) if trial % 2 else None
        v, w = random_controls(rng, (4, T))
        xy, rho, trig = rollout(start, v, w, T, p, residual)
        assert xy.shape == trig.shape == (2, 4, T) and rho.shape == (4, T + 1)
        for c in range(4):
            u_seq = [ControlInput(a, b) for a, b in zip(v[c].tolist(), w[c].tolist())]
            want = scalar_rollout(start, u_seq, p, residual or (0.0, 0.0, 0.0))
            assert poses(xy[:, c], rho[c]) == [(z.x, z.y, z.rho) for z in want]
            assert np.array_equal(trig[:, c], [np.cos(rho[c, :-1] + w[c]), np.sin(rho[c, :-1] + w[c])])


def test_rollout_matches_independent_composition():
    # the simulator's step wraps the heading after every update, the
    # rollout does not: the two agree to rounding
    rng = np.random.default_rng(7)
    p = ModelParams()
    start = VehicleState(0.2, -0.1, 3.0)
    v, w = random_controls(rng, 25)
    xy, rho, _ = rollout(start, v, w, 25, p)
    z = start
    for k, (x, y, r) in enumerate(poses(xy, rho)):
        z = step_nominal(z, ControlInput(v[k], w[k]), p)
        assert (x, y) == pytest.approx((z.x, z.y), abs=1e-12)
        assert wrap_angle(r - z.rho) == pytest.approx(0.0, abs=1e-12)


def test_rollout_prefix_property():
    rng = np.random.default_rng(3)
    p = ModelParams()
    start = VehicleState(0.0, 0.0, 0.0)
    v, w = random_controls(rng, 6)
    short = rollout(start, v[:5], w[:5], 5, p, (0.01, 0.0, -0.02))
    full = rollout(start, v, w, 6, p, (0.01, 0.0, -0.02))
    assert np.array_equal(short[0], full[0][:, :5])
    assert np.array_equal(short[1], full[1][:6])


def test_held_controls_broadcast_bit_for_bit():
    # a held command passed as (C, 1) gives the bits of the same command
    # materialized as (C, T), and a batch row those of the row run alone:
    # a DWA plan equals the NMPC prediction of its command held
    rng = np.random.default_rng(9)
    p = ModelParams()
    for trial in range(20):
        start = VehicleState(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
        T = int(rng.integers(1, 31))
        residual = tuple(rng.uniform(-0.02, 0.02, size=3)) if trial % 2 else None
        v, w = random_controls(rng, (int(rng.integers(1, 240)), 1))
        held = rollout(start, v, w, T, p, residual)
        tiled = rollout(start, np.repeat(v, T, axis=1), np.repeat(w, T, axis=1), T, p, residual)
        for got, want in zip(held, tiled):
            assert np.array_equal(got, want)
        c = int(rng.integers(0, v.shape[0]))
        alone = rollout(start, np.full(T, v[c, 0]), np.full(T, w[c, 0]), T, p, residual)
        for got, want in zip(held, alone):
            assert np.array_equal(got[..., c, :], want)


def test_rollout_residual_length_mismatch():
    with pytest.raises(ValueError):
        rollout(VehicleState(0, 0, 0), np.zeros(3), np.zeros(3), 3, ModelParams(), [0.0, 0.0])


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
