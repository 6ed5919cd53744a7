import math

import numpy as np
import pytest

from visionmpc.baselines import (
    DirectPolicyConfig,
    DwaConfig,
    _constant_rollouts,
    _min_clearance,
    direct_policy_step,
    dwa_plan,
    obstacle_points_from_observation,
)
from visionmpc.memory import Observation
from visionmpc.nmpc import NmpcConfig
from visionmpc.vehicle import ControlInput, VehicleState

# the shared actuator and rate bounds (the old per-baseline defaults)
LIMITS = NmpcConfig()


def straight_ref(n=12, spacing=0.05, y=0.0):
    return [VehicleState((i + 1) * spacing, y, 0.0) for i in range(n)]


class TestDwaPlan:
    def test_free_space_picks_straight_and_fast(self):
        cfg = DwaConfig()
        lim = NmpcConfig(tau_o=10)
        vehicle = VehicleState(0, 0, 0)
        cruise = ControlInput(0.9, 0.0)
        # goal past the rollout reach, as the controller provides
        plan = dwa_plan(vehicle, np.zeros((0, 2)), straight_ref(n=60, spacing=0.05)[-1], cfg, lim, cruise)
        # fastest admissible speed within the window, essentially straight
        v_sel = math.hypot(plan.states[0].x, plan.states[0].y) / lim.dt
        assert v_sel == pytest.approx(min(lim.u_max.v_cmd, cruise.v_cmd + lim.du_max.v_cmd * lim.dt), abs=1e-9)
        assert abs(plan.states[-1].y) < 0.05

    def test_blocked_straight_path_swerves_clear(self):
        cfg = DwaConfig()
        vehicle = VehicleState(0, 0, 0)
        # dense wall of points dead ahead, free space to the left
        xs = np.full(9, 0.7)
        ys = np.linspace(-0.45, 0.25, 9)
        points = np.stack([xs, ys], axis=1)
        goal = straight_ref(n=60)[-1]
        lim = NmpcConfig(tau_o=20)
        plan = dwa_plan(vehicle, points, goal, cfg, lim, ControlInput(0.5, 0.0))
        clearance = min(
            math.hypot(z.x - p[0], z.y - p[1]) for z in plan.states for p in points
        )
        assert clearance > cfg.vehicle_radius
        # exhaustive rescoring confirms the selected rollout is admissible-optimal
        assert _independent_best_is_admissible(vehicle, points, goal, cfg, lim, ControlInput(0.5, 0.0), plan)

    def test_fully_blocked_returns_stop_trajectory(self):
        cfg = DwaConfig()
        vehicle = VehicleState(0, 0, 0)
        angles = np.linspace(-math.pi, math.pi, 120, endpoint=False)
        ring = np.stack([0.12 * np.cos(angles), 0.12 * np.sin(angles)], axis=1)
        plan = dwa_plan(vehicle, ring, straight_ref()[-1], cfg, NmpcConfig(tau_o=8), ControlInput(0.3, 0.0))
        assert all(z == vehicle for z in plan.states)

    def test_clearance_equals_the_three_temporary_expression(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            vehicle = VehicleState(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
            vs = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 60)))
            omegas = rng.uniform(-0.35, 0.35, size=vs.size)
            positions, _ = _constant_rollouts(vehicle, vs, omegas, LIMITS, int(rng.integers(1, 40)))
            pts = rng.uniform(-3, 3, size=(int(rng.integers(1, 160)), 2))
            flat = positions.reshape(-1, 2)
            d2 = (
                np.sum(flat ** 2, axis=1)[:, None]
                - 2.0 * (flat @ pts.T)
                + np.sum(pts ** 2, axis=1)[None, :]
            )
            want = np.sqrt(np.maximum(d2.reshape(len(vs), -1).min(axis=1), 0.0))
            assert np.array_equal(_min_clearance(positions, pts), want)

    def test_observation_endpoints_drop_max_range_rays(self):
        rays = np.full(180, 3.0)
        rays[0] = 1.0
        obs = Observation(rays=rays, timestamp=0.0)
        pts = obstacle_points_from_observation(obs, VehicleState(0, 0, 0), max_range=3.0)
        assert pts.shape == (1, 2)
        assert pts[0] == pytest.approx([1.0, 0.0])


def _independent_best_is_admissible(vehicle, points, goal, cfg, lim, current_u, plan):
    """Re-derive the admissible set by brute scoring; the plan must be in it."""
    dt = lim.dt
    v_lo = max(lim.u_min.v_cmd, current_u.v_cmd + lim.du_min.v_cmd * dt)
    v_hi = min(lim.u_max.v_cmd, current_u.v_cmd + lim.du_max.v_cmd * dt)
    o_lo = max(lim.u_min.omega_cmd, current_u.omega_cmd + lim.du_min.omega_cmd * dt)
    o_hi = min(lim.u_max.omega_cmd, current_u.omega_cmd + lim.du_max.omega_cmd * dt)
    n_steps = int(round(cfg.sim_horizon_s / dt))
    best = None
    for v in np.linspace(v_lo, v_hi, cfg.v_samples):
        for om in np.linspace(o_lo, o_hi, cfg.omega_samples):
            x, y, rho = vehicle.x, vehicle.y, vehicle.rho
            ok = True
            min_clear = math.inf
            for _ in range(n_steps):
                x += math.cos(rho + om) * v * dt
                y += math.sin(rho + om) * v * dt
                rho += math.sin(om) / lim.wheelbase_L * v * dt
                for p in points:
                    d = math.hypot(x - p[0], y - p[1])
                    min_clear = min(min_clear, d)
                if min_clear <= cfg.vehicle_radius:
                    ok = False
                    break
            if not ok:
                continue
            to_goal = math.atan2(goal.y - y, goal.x - x)
            mis = abs(math.atan2(math.sin(to_goal - rho), math.cos(to_goal - rho)))
            score = (
                cfg.weight_heading * (1 - mis / math.pi)
                + cfg.weight_clearance * min(min_clear - cfg.vehicle_radius, cfg.clearance_cap) / cfg.clearance_cap
                + cfg.weight_velocity * v / lim.u_max.v_cmd
            )
            if best is None or score > best[0]:
                best = (score, v, om)
    assert best is not None
    v_plan = math.hypot(plan.states[0].x - vehicle.x, plan.states[0].y - vehicle.y) / dt
    return abs(v_plan - best[1]) < 0.15 * lim.u_max.v_cmd + 1e-9


class TestDirectPolicy:
    def _obs(self, rays):
        return Observation(rays=np.asarray(rays, dtype=float), timestamp=0.0)

    def test_symmetric_free_space_keeps_steering(self):
        cfg = DirectPolicyConfig()
        obs = self._obs(np.full(180, 3.0))
        u = direct_policy_step(obs, cfg, LIMITS, ControlInput(0.2, 0.05))
        assert u.omega_cmd == pytest.approx(0.05, abs=1e-12)

    def test_proportional_velocity_law(self):
        cfg = DirectPolicyConfig(k_v=1.6)
        lim = NmpcConfig(dt=0.05)  # its speed bound, 1.0, is the velocity target
        obs = self._obs(np.full(180, 3.0))
        u = direct_policy_step(obs, cfg, lim, ControlInput(0.0, 0.0))
        assert u.v_cmd == pytest.approx(0.08, abs=1e-12)

    def test_blocked_front_brakes(self):
        cfg = DirectPolicyConfig()
        rays = np.full(180, 3.0)
        rays[0:6] = 0.2   # forward cone blocked
        rays[-5:] = 0.2
        u = direct_policy_step(self._obs(rays), cfg, LIMITS, ControlInput(0.5, 0.0))
        assert u.v_cmd < 0.5

    def test_steering_change_is_exact_multiple_of_increment(self):
        cfg = DirectPolicyConfig()
        rng = np.random.default_rng(0)
        incr = math.radians(cfg.steer_increment_deg)
        prev = ControlInput(0.4, 0.01)
        for _ in range(25):
            rays = rng.uniform(0.5, 3.0, size=180)
            u = direct_policy_step(self._obs(rays), cfg, LIMITS, prev)
            delta = u.omega_cmd - prev.omega_cmd
            steps = delta / incr
            assert abs(steps - round(steps)) < 1e-6
            assert LIMITS.u_min.omega_cmd <= u.omega_cmd <= LIMITS.u_max.omega_cmd
            prev = u

    def test_turns_toward_open_side(self):
        cfg = DirectPolicyConfig()
        rays = np.full(180, 0.8)
        # open wedge to the left (bearings around +45 degrees)
        rays[18:28] = 3.0
        u = direct_policy_step(self._obs(rays), cfg, LIMITS, ControlInput(0.3, 0.0))
        assert u.omega_cmd > 0.0
