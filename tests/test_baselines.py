import math

import numpy as np
import pytest

from visionmpc import baselines
from visionmpc.baselines import (
    DIRECT_STEER_INCREMENT_DEG,
    DWA_CLEARANCE_CAP,
    DWA_HORIZON_S,
    DWA_OMEGA_SAMPLES,
    DWA_V_SAMPLES,
    DWA_VEHICLE_RADIUS,
    DWA_WEIGHT_CLEARANCE,
    DWA_WEIGHT_HEADING,
    DWA_WEIGHT_VELOCITY,
    _SEGMENT_STEPS,
    _min_clearance,
    direct_policy_step,
    dwa_plan,
    obstacle_points_from_observation,
)
from visionmpc.memory import Observation
from visionmpc.nmpc import NmpcConfig
from visionmpc.geometry import wrap_angle
from visionmpc.vehicle import ControlInput, VehicleState, rollout

# the shared actuator and rate bounds (the old per-baseline defaults)
LIMITS = NmpcConfig()


def goal_ahead(n=12, spacing=0.05):
    """The point n steps of `spacing` along the x axis: a local goal dead ahead."""
    return (n * spacing, 0.0)


class TestDwaPlan:
    def test_free_space_picks_straight_and_fast(self):
        lim = NmpcConfig(tau_o=10)
        vehicle = VehicleState(0, 0, 0)
        cruise = ControlInput(0.9, 0.0)
        # goal past the rollout reach, as the controller provides
        _, plan = dwa_plan(vehicle, np.zeros((0, 2)), goal_ahead(n=60, spacing=0.05), lim, cruise)
        assert plan.shape == (3, 10)
        # fastest admissible speed within the window, essentially straight
        v_sel = math.hypot(plan[0, 0], plan[1, 0]) / lim.dt
        assert v_sel == pytest.approx(min(lim.u_max.v_cmd, cruise.v_cmd + lim.du_max.v_cmd * lim.dt), abs=1e-9)
        assert abs(plan[1, -1]) < 0.05

    def test_blocked_straight_path_swerves_clear(self):
        vehicle = VehicleState(0, 0, 0)
        # dense wall of points dead ahead, free space to the left
        xs = np.full(9, 0.7)
        ys = np.linspace(-0.45, 0.25, 9)
        points = np.stack([xs, ys], axis=1)
        goal = goal_ahead(n=60)
        lim = NmpcConfig(tau_o=20)
        _, plan = dwa_plan(vehicle, points, goal, lim, ControlInput(0.5, 0.0))
        clearance = min(
            math.hypot(x - p[0], y - p[1]) for x, y in plan[:2].T.tolist() for p in points
        )
        assert clearance > DWA_VEHICLE_RADIUS
        # exhaustive rescoring confirms the selected rollout is admissible-optimal
        assert _independent_best_is_admissible(vehicle, points, goal, lim, ControlInput(0.5, 0.0), plan)

    def test_fully_blocked_returns_stop_trajectory(self):
        vehicle = VehicleState(0, 0, 0)
        angles = np.linspace(-math.pi, math.pi, 120, endpoint=False)
        ring = np.stack([0.12 * np.cos(angles), 0.12 * np.sin(angles)], axis=1)
        u, plan = dwa_plan(vehicle, ring, goal_ahead(), NmpcConfig(tau_o=8), ControlInput(0.3, 0.0))
        assert plan.shape == (3, 8)
        assert all(pose == [vehicle.x, vehicle.y, vehicle.rho] for pose in plan.T.tolist())
        assert u == ControlInput(0.0, 0.0)

    def test_command_is_a_sampled_pair_whose_rollout_is_the_plan(self):
        rng = np.random.default_rng(8)
        turned = stops = 0
        for _ in range(40):
            lim = NmpcConfig(tau_o=int(rng.choice((10, 20))))
            vehicle = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
            points = vehicle_frame_points(vehicle, rng.uniform(-1.0, 2.5, size=(int(rng.integers(0, 30)), 2)))
            goal = (vehicle.x + 3.0, vehicle.y + rng.uniform(-2, 2))
            current = ControlInput(rng.uniform(0.0, 1.0), rng.uniform(-0.35, 0.35))
            u, plan = dwa_plan(vehicle, points, goal, lim, current)
            (v_lo, v_hi), (om_lo, om_hi) = lim.reachable(current)
            sampled = (
                u.v_cmd in np.linspace(v_lo, v_hi, DWA_V_SAMPLES).tolist()
                and u.omega_cmd in np.linspace(om_lo, om_hi, DWA_OMEGA_SAMPLES).tolist()
            )
            # a command outside the grid is the stop fallback's (0, 0)
            assert sampled or u == ControlInput(0.0, 0.0)
            stops += not sampled
            # the NMPC prediction of u held is the plan, bit for bit, the
            # stop's hold-pose included
            T = lim.tau_o
            xy, rho, _ = rollout(vehicle, np.full(T, u.v_cmd), np.full(T, u.omega_cmd), T, lim)
            assert plan.shape == (3, T)
            assert plan[0].tolist() == xy[0].tolist()
            assert plan[1].tolist() == xy[1].tolist()
            assert plan[2].tolist() == [wrap_angle(r) for r in rho[1:].tolist()]
            turned += u.v_cmd > 0.0 and u.omega_cmd != 0.0
        assert turned > 10 and stops < 20

    def test_plan_headings_across_the_seam_equal_the_wrapped_prediction(self):
        # from a heading just short of +-pi, turning plans cross the seam;
        # each planned heading is the held command's predicted one, wrapped
        # one value at a time
        rng = np.random.default_rng(12)
        lim = NmpcConfig(tau_o=20)
        crossed = 0
        for _ in range(40):
            side = rng.choice((-1.0, 1.0))
            vehicle = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), side * (math.pi - rng.uniform(0.0, 0.05)))
            c, s = math.cos(vehicle.rho + 0.6 * side), math.sin(vehicle.rho + 0.6 * side)
            goal = (vehicle.x + 3.0 * c, vehicle.y + 3.0 * s)
            current = ControlInput(rng.uniform(0.3, 1.0), side * rng.uniform(0.2, 0.35))
            u, plan = dwa_plan(vehicle, np.zeros((0, 2)), goal, lim, current)
            xy, rho, _ = rollout(vehicle, np.full(20, u.v_cmd), np.full(20, u.omega_cmd), 20, lim)
            assert plan[0].tolist() == xy[0].tolist() and plan[1].tolist() == xy[1].tolist()
            assert plan[2].tolist() == [wrap_angle(r) for r in rho[1:].tolist()]
            crossed += np.any(np.abs(rho[1:]) > math.pi)
        assert crossed > 10

    def test_observation_endpoints_drop_max_range_rays(self):
        rays = np.full(180, 3.0)
        rays[0] = 1.0
        obs = Observation(rays=rays, timestamp=0.0)
        pts = obstacle_points_from_observation(obs, VehicleState(0, 0, 0), max_range=3.0)
        assert pts.shape == (1, 2)
        assert pts[0] == pytest.approx([1.0, 0.0])


def vehicle_frame_points(vehicle, local):
    """Points given in the vehicle frame, in world coordinates."""
    c, s = math.cos(vehicle.rho), math.sin(vehicle.rho)
    return np.stack(
        [vehicle.x + c * local[:, 0] - s * local[:, 1], vehicle.y + s * local[:, 0] + c * local[:, 1]], axis=1
    ).reshape(-1, 2)


def scalar_clearance(positions, pts):
    """Per-pair loop of (x - px)^2 + (y - py)^2, square-rooted after the minimum."""
    out = []
    for rollout in positions.tolist():
        best = math.inf
        for x, y in rollout:
            for px, py in pts.tolist():
                dx = x - px
                dy = y - py
                best = min(best, dx * dx + dy * dy)
        out.append(math.sqrt(best))
    return np.array(out)


def monolithic_min_clearance(positions, pts, work=None):
    """The clearance kernel before tiling: one (C*H) x P matrix, then row
    minima; it takes the tiled kernel's buffer dict and leaves it unused."""
    flat = positions.reshape(-1, 2)
    d2 = (-2.0 * flat) @ pts.T
    d2 += np.sum(flat ** 2, axis=1)[:, None]
    d2 += np.sum(pts ** 2, axis=1)[None, :]
    return np.sqrt(np.maximum(d2.reshape(positions.shape[0], -1).min(axis=1), 0.0))


def held_positions(vehicle, vs, omegas, n_steps):
    """Positions (C, H, 2) of the commands vs, omegas held for n_steps, as dwa_plan rolls them out."""
    return np.moveaxis(rollout(vehicle, vs[:, None], omegas[:, None], n_steps, LIMITS)[0], 0, -1)


def random_rollouts(rng, n_rollouts, n_steps):
    vehicle = VehicleState(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
    vs = rng.uniform(0.0, 1.0, size=n_rollouts)
    omegas = rng.uniform(-0.35, 0.35, size=n_rollouts)
    return vehicle, held_positions(vehicle, vs, omegas, n_steps)


class TestMinClearance:
    def assert_exact(self, positions, pts):
        got = _min_clearance(positions, pts)
        assert got.shape == (positions.shape[0],)
        assert np.array_equal(got, scalar_clearance(positions, pts))

    def test_equals_the_scalar_loop_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            _, positions = random_rollouts(rng, int(rng.integers(1, 40)), int(rng.integers(1, 32)))
            pts = rng.uniform(-3, 3, size=(int(rng.integers(1, 40)), 2))
            self.assert_exact(positions, pts)

    def test_equals_the_scalar_loop_on_the_planner_grid(self):
        # dwa_plan's own shapes: 11 speeds x 21 steering angles, speed fastest
        rng = np.random.default_rng(12)
        vs, omegas = np.meshgrid(np.linspace(0.3, 0.5, DWA_V_SAMPLES), np.linspace(-0.35, 0.35, DWA_OMEGA_SAMPLES))
        for _ in range(3):
            vehicle = VehicleState(0.0, 0.0, rng.uniform(-3, 3))
            positions = held_positions(vehicle, vs.ravel(), omegas.ravel(), 30)
            pts = rng.uniform(-1.5, 1.5, size=(60, 2))
            self.assert_exact(positions, pts)

    def test_single_rollout_single_step_single_point(self):
        rng = np.random.default_rng(13)
        for n_rollouts, n_steps in ((1, 1), (1, 30), (231, 1)):
            _, positions = random_rollouts(rng, n_rollouts, n_steps)
            self.assert_exact(positions, rng.uniform(-3, 3, size=(1, 2)))
            self.assert_exact(positions, rng.uniform(-3, 3, size=(25, 2)))

    def test_tiles_far_from_every_point_keep_none(self):
        # straight, fast rollouts with the only points beside their start:
        # the tiles at the far end are pruned against every point
        vs = np.linspace(0.9, 1.0, DWA_V_SAMPLES)
        positions = held_positions(VehicleState(0, 0, 0), vs, np.zeros_like(vs), 30)
        pts = np.array([[0.0, 0.3], [0.05, -0.4], [-0.2, 0.0]])
        self.assert_exact(positions, pts)
        assert np.all(_min_clearance(positions, pts) < 0.3)

    def test_points_on_a_pruning_boundary(self):
        # one rollout through x = 0, 1, 2: one three-pose segment centred on
        # x = 1 with radius 1. (1, 3) is nearest the centre and bounds the
        # minimum by 3; pass 1 keeps points within 3 + 1 + 1 of the centre,
        # pass 2 within 3 + 1. (6, 0) lies on the first boundary, (1, 4) on
        # the second, and (-3, 0) on the second while tying the minimum.
        assert _SEGMENT_STEPS == 3
        positions = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        pts = np.array([[1.0, 3.0], [6.0, 0.0], [1.0, 4.0], [-3.0, 0.0]])
        self.assert_exact(positions, pts)
        assert _min_clearance(positions, pts)[0] == 3.0
        assert _min_clearance(positions, pts[3:])[0] == 3.0

    def test_minimum_just_inside_a_pruning_boundary(self):
        # as above, but (-2.95, 0) lies 3.95 from the centre, 0.05 inside the
        # pass 2 boundary, and 2.95 from the first pose: the minimum is its
        # alone, not that of (1, 3), the point nearest the centre
        positions = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        pts = np.array([[1.0, 3.0], [-2.95, 0.0]])
        self.assert_exact(positions, pts)
        assert _min_clearance(positions, pts)[0] == pytest.approx(2.95, abs=1e-15)

    def test_stationary_rollouts_and_tied_points(self):
        # zero speed: every pose coincides, every radius is 0, and a ring of
        # points is equidistant from the pose
        positions = held_positions(VehicleState(0.5, -0.5, 1.0), np.zeros(3), np.zeros(3), 12)
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        ring = np.stack([0.5 + np.cos(angles), -0.5 + np.sin(angles)], axis=1)
        self.assert_exact(positions, ring)
        self.assert_exact(positions, np.array([[0.5, -0.5]]))

    def test_buffers_kept_across_calls_change_no_result(self):
        # one buffer dict through calls whose passes need more, then less,
        # room than the last: each result equals that of fresh buffers
        rng = np.random.default_rng(16)
        work = {}
        for _ in range(20):
            _, positions = random_rollouts(rng, int(rng.integers(1, 240)), int(rng.integers(1, 32)))
            pts = rng.uniform(-3, 3, size=(int(rng.integers(1, 150)), 2))
            assert np.array_equal(_min_clearance(positions, pts, work), _min_clearance(positions, pts))
        assert {"x", "y", "bound", "kept"} <= work.keys()

    def test_points_behind_the_vehicle(self):
        rng = np.random.default_rng(14)
        vs, omegas = np.meshgrid(np.linspace(0.0, 0.2, DWA_V_SAMPLES), np.linspace(-0.35, 0.35, DWA_OMEGA_SAMPLES))
        positions = held_positions(VehicleState(0, 0, 0), vs.ravel(), omegas.ravel(), 30)
        pts = np.stack([rng.uniform(-2.0, -0.05, size=30), rng.uniform(-1.0, 1.0, size=30)], axis=1)
        self.assert_exact(positions, pts)
        # the nearest pose to a point straight behind is the start
        got = _min_clearance(positions, np.array([[-0.5, 0.0]]))
        assert np.all(got >= 0.5) and np.all(got < 0.5 + 1e-12 + 0.2 * LIMITS.dt)


def test_plans_equal_those_of_the_monolithic_kernel(monkeypatch):
    """On seeded random scenes the tiled kernel picks the same rollout as
    the single-matrix kernel it replaced, which differs from it by at most
    rounding (about 1e-11 m)."""
    rng = np.random.default_rng(15)
    scenes = []
    for _ in range(200):
        vehicle = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
        n_wall = int(rng.integers(1, 120))
        side = rng.uniform(0.2, 1.2) * rng.choice((-1.0, 1.0))
        along = rng.uniform(-0.5, 2.5, size=n_wall)
        wall = np.stack([along, np.full(n_wall, side) + rng.normal(0.0, 0.03, n_wall)], axis=1)
        clutter = rng.uniform(-2.0, 2.5, size=(int(rng.integers(0, 40)), 2))
        local = np.concatenate([wall, clutter])
        c, s = math.cos(vehicle.rho), math.sin(vehicle.rho)
        points = np.stack(
            [vehicle.x + c * local[:, 0] - s * local[:, 1], vehicle.y + s * local[:, 0] + c * local[:, 1]], axis=1
        )
        goal = (vehicle.x + 3.0 * c, vehicle.y + 3.0 * s)
        lim = NmpcConfig(tau_o=int(rng.choice((10, 20))))
        u = ControlInput(rng.uniform(0.0, 1.0), rng.uniform(-0.35, 0.35))
        scenes.append((vehicle, points, goal, lim, u))
    tiled = [dwa_plan(*scene) for scene in scenes]
    monkeypatch.setattr(baselines, "_min_clearance", monolithic_min_clearance)
    reference = [dwa_plan(*scene) for scene in scenes]
    assert len(tiled) == len(reference)
    assert all(u == u_ref and np.array_equal(plan, ref) for (u, plan), (u_ref, ref) in zip(tiled, reference))
    # the scenes exercise swerves, not only straight free runs and stops
    assert len({round(plan[2, -1] - scene[0].rho, 6) for (_, plan), scene in zip(tiled, scenes)}) > 50


def _independent_best_is_admissible(vehicle, points, goal, lim, current_u, plan):
    """Re-derive the admissible set by brute scoring; the plan must be in it."""
    dt = lim.dt
    v_lo = max(lim.u_min.v_cmd, current_u.v_cmd + lim.du_min.v_cmd * dt)
    v_hi = min(lim.u_max.v_cmd, current_u.v_cmd + lim.du_max.v_cmd * dt)
    o_lo = max(lim.u_min.omega_cmd, current_u.omega_cmd + lim.du_min.omega_cmd * dt)
    o_hi = min(lim.u_max.omega_cmd, current_u.omega_cmd + lim.du_max.omega_cmd * dt)
    n_steps = int(round(DWA_HORIZON_S / dt))
    best = None
    for v in np.linspace(v_lo, v_hi, DWA_V_SAMPLES):
        for om in np.linspace(o_lo, o_hi, DWA_OMEGA_SAMPLES):
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
                if min_clear <= DWA_VEHICLE_RADIUS:
                    ok = False
                    break
            if not ok:
                continue
            to_goal = math.atan2(goal[1] - y, goal[0] - x)
            mis = abs(math.atan2(math.sin(to_goal - rho), math.cos(to_goal - rho)))
            score = (
                DWA_WEIGHT_HEADING * (1 - mis / math.pi)
                + DWA_WEIGHT_CLEARANCE * min(min_clear - DWA_VEHICLE_RADIUS, DWA_CLEARANCE_CAP) / DWA_CLEARANCE_CAP
                + DWA_WEIGHT_VELOCITY * v / lim.u_max.v_cmd
            )
            if best is None or score > best[0]:
                best = (score, v, om)
    assert best is not None
    v_plan = math.hypot(plan[0, 0] - vehicle.x, plan[1, 0] - vehicle.y) / dt
    return abs(v_plan - best[1]) < 0.15 * lim.u_max.v_cmd + 1e-9


class TestDirectPolicy:
    def _obs(self, rays):
        return Observation(rays=np.asarray(rays, dtype=float), timestamp=0.0)

    def test_symmetric_free_space_keeps_steering(self):
        obs = self._obs(np.full(180, 3.0))
        u = direct_policy_step(obs, LIMITS, ControlInput(0.2, 0.05))
        assert u.omega_cmd == pytest.approx(0.05, abs=1e-12)

    def test_proportional_velocity_law(self):
        lim = NmpcConfig(dt=0.05)  # its speed bound, 1.0, is the velocity target
        obs = self._obs(np.full(180, 3.0))
        u = direct_policy_step(obs, lim, ControlInput(0.0, 0.0))
        assert u.v_cmd == pytest.approx(0.08, abs=1e-12)

    def test_blocked_front_brakes(self):
        rays = np.full(180, 3.0)
        rays[0:6] = 0.2   # forward cone blocked
        rays[-5:] = 0.2
        u = direct_policy_step(self._obs(rays), LIMITS, ControlInput(0.5, 0.0))
        assert u.v_cmd < 0.5

    def test_steering_change_is_exact_multiple_of_increment(self):
        rng = np.random.default_rng(0)
        incr = math.radians(DIRECT_STEER_INCREMENT_DEG)
        prev = ControlInput(0.4, 0.01)
        for _ in range(25):
            rays = rng.uniform(0.5, 3.0, size=180)
            u = direct_policy_step(self._obs(rays), LIMITS, prev)
            delta = u.omega_cmd - prev.omega_cmd
            steps = delta / incr
            assert abs(steps - round(steps)) < 1e-6
            assert LIMITS.u_min.omega_cmd <= u.omega_cmd <= LIMITS.u_max.omega_cmd
            prev = u

    def test_turns_toward_open_side(self):
        rays = np.full(180, 0.8)
        # open wedge to the left (bearings around +45 degrees)
        rays[18:28] = 3.0
        u = direct_policy_step(self._obs(rays), LIMITS, ControlInput(0.3, 0.0))
        assert u.omega_cmd > 0.0
