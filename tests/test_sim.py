import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from visionmpc import baselines, training
from visionmpc.controllers import DirectController, PipelineConfig
from visionmpc.geometry import Polyline
from visionmpc.nmpc import NmpcError
from visionmpc.sim import (
    LOG_COLUMNS,
    Obstacle,
    RaySensorConfig,
    Scenario,
    ScenarioFormatError,
    StepCommand,
    StepRecord,
    TrialOutcome,
    World,
    closed_loop,
    csv_cell,
    in_goal,
    load_scenario,
    ray_bearings,
    read_csv,
    read_trial_log,
    reference_slice,
    run_trial,
    sense,
    signed_ray_bearings,
    sim_step,
    with_seed,
    write_csv,
)
from visionmpc.vehicle import ControlInput, ModelParams, VehicleState

from test_geometry import circle_hits_oracle, fan, ray_segment_hits
from test_vehicle import path_of


def corridor(obstacles=(), half_width=1.0, time_limit=30.0, start=VehicleState(0, 0, 0), goal_radius=0.3):
    return Scenario(
        route=((0.0, 0.0), (10.0, 0.0)),
        half_width=half_width,
        start=start,
        goal_radius=goal_radius,
        v_max=1.0,
        sensor=RaySensorConfig(resolution_deg=2, max_range_m=3.0),
        obstacles=tuple(obstacles),
        time_limit_s=time_limit,
        seed=5,
    )


def world_for(scenario, sigma=0.0, seed=0):
    return World(scenario, ModelParams(sigma_f=sigma), np.random.default_rng(seed))


class TestSense:
    def test_open_world_rays_at_max_range(self):
        # corridor walls far away relative to max range
        scenario = corridor(half_width=50.0)
        obs = sense(world_for(scenario))
        assert obs.rays.shape == (180,)
        assert np.all(obs.rays == 3.0)

    def test_circle_dead_ahead_analytic_distance(self):
        scenario = corridor(obstacles=[Obstacle(center=(2.0, 0.0), radius=0.5)], half_width=50.0)
        obs = sense(world_for(scenario))
        assert obs.rays[0] == pytest.approx(1.5, abs=1e-12)  # d - r
        # the ray pointing away sees nothing
        assert obs.rays[90] == 3.0

    def test_wall_distance(self):
        scenario = corridor(half_width=0.8)
        obs = sense(world_for(scenario))
        # bearings sweep CCW: index 45 is +90 degrees (left wall)
        assert obs.rays[45] == pytest.approx(0.8, abs=1e-9)
        assert obs.rays[135] == pytest.approx(0.8, abs=1e-9)

    def test_rotating_world_and_vehicle_together_preserves_rays(self):
        theta = 0.7
        obstacle = Obstacle(center=(2.0, 0.5), radius=0.3)
        base = corridor(obstacles=[obstacle], half_width=0.9)
        obs_a = sense(world_for(base))

        def rot(p):
            return (
                math.cos(theta) * p[0] - math.sin(theta) * p[1],
                math.sin(theta) * p[0] + math.cos(theta) * p[1],
            )

        rotated = Scenario(
            route=tuple(rot(p) for p in base.route),
            half_width=base.half_width,
            start=VehicleState(0.0, 0.0, theta),
            goal_radius=base.goal_radius,
            v_max=base.v_max,
            sensor=base.sensor,
            obstacles=(Obstacle(center=rot(obstacle.center), radius=obstacle.radius),),
            time_limit_s=base.time_limit_s,
            seed=base.seed,
        )
        obs_b = sense(world_for(rotated))
        assert np.allclose(obs_a.rays, obs_b.rays, atol=1e-9)


class TestReferenceSlice:
    def test_straight_route_uniform_spacing(self):
        scenario = corridor()
        out = reference_slice(scenario.route_polyline, 0.0, tau_o=5, dt=0.1, v_ref=1.0)
        assert out.shape == (3, 5)
        for i, (x, y, rho) in enumerate(out.T):
            assert x == pytest.approx(0.1 * (i + 1), abs=1e-12)
            assert y == 0.0
            assert rho == 0.0

    def test_beyond_route_end_repeats_final_waypoint(self):
        scenario = corridor()
        out = reference_slice(scenario.route_polyline, 9.95, tau_o=4, dt=0.1, v_ref=1.0)
        assert out[0, -1] == 10.0
        assert out[0, -2] == 10.0

    def test_corner_vertex_ties_to_later_segment(self):
        scenario = Scenario(
            route=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
            half_width=0.5,
            start=VehicleState(0, 0, 0),
            goal_radius=0.2,
            v_max=1.0,
            sensor=RaySensorConfig(max_range_m=2.0),
        )
        s0, _ = scenario.route_polyline.project((1.0, 0.0))
        out = reference_slice(scenario.route_polyline, s0, tau_o=3, dt=0.1, v_ref=1.0)
        # projection lands exactly on the corner; slice continues up the second leg
        assert out[0, 0] == pytest.approx(1.0)
        assert out[1, 0] == pytest.approx(0.1)
        assert out[2, 0] == pytest.approx(math.pi / 2)

    def test_circular_route_headings_match_tangents(self):
        pts = []
        radius = 2.0
        for k in range(73):
            th = math.radians(5.0 * k)
            pts.append((radius * math.sin(th), radius * (1 - math.cos(th))))
        scenario = Scenario(
            route=tuple(pts),
            half_width=0.5,
            start=VehicleState(0, 0, 0),
            goal_radius=0.2,
            v_max=1.0,
            sensor=RaySensorConfig(max_range_m=2.0),
        )
        out = reference_slice(scenario.route_polyline, 0.0, tau_o=10, dt=0.2, v_ref=1.0)
        for i in range(1, 10):
            s = 0.2 * (i + 1)
            expected = s / radius  # analytic tangent angle after arc length s
            assert out[2, i] == pytest.approx(expected, abs=0.05)

    def test_equals_per_pose_sampling(self):
        # one array call gives exactly the poses of a per-pose loop that
        # wraps each heading as a VehicleState does
        route = Scenario(
            route=((0.0, 0.0), (1.0, 0.3), (1.7, 1.1), (1.2, 2.0)),
            half_width=0.5,
            start=VehicleState(0, 0, 0),
            goal_radius=0.2,
            v_max=1.0,
            sensor=RaySensorConfig(max_range_m=2.0),
        ).route_polyline
        s0, _ = route.project((0.9, 0.45))
        out = reference_slice(route, s0, tau_o=100, dt=0.05, v_ref=0.7)
        want = []
        for i in range(1, 101):
            s = min(s0 + 0.7 * 0.05 * i, route.length)
            x, y = route.sample(s)[0][0].tolist()
            want.append(VehicleState(x, y, float(route.sample(s)[1][0])))
        assert np.array_equal(out, path_of(want))
        end = VehicleState(1.2, 2.0, float(route.sample(route.length)[1][0]))
        assert np.array_equal(out[:, -1], (end.x, end.y, end.rho))  # past the end

    def test_headings_at_the_seam_wrap_as_a_vehicle_state_wraps_them(self):
        # a route heading in -x: its tangents lie near +-pi, one of them at
        # atan2(-0.0, -1) = -pi, which wraps to pi
        rng = np.random.default_rng(8)
        xs = -np.cumsum(rng.uniform(0.2, 0.5, 12))
        ys = rng.uniform(-0.02, 0.02, 12)
        ys[3], ys[4] = 0.0, -0.0
        route = Polyline(np.column_stack((np.concatenate(([0.0], xs)), np.concatenate(([0.0], ys)))))
        at_seam = 0
        for s0 in rng.uniform(0.0, route.length, 50):
            out = reference_slice(route, s0, tau_o=20, dt=0.05, v_ref=1.0)
            points, headings = route.sample(s0 + 1.0 * 0.05 * np.arange(1, 21))
            want = [VehicleState(x, y, rho) for (x, y), rho in zip(points.tolist(), headings.tolist())]
            assert np.array_equal(out, path_of(want))
            assert np.all(np.abs(out[2]) > 3.0) and np.all(out[2] > -math.pi)
            at_seam += -math.pi in headings
        assert at_seam > 0

    def test_v_ref_must_be_positive(self):
        with pytest.raises(ValueError):
            reference_slice(corridor().route_polyline, 0.0, 3, 0.1, 0.0)


class TestNonFiniteValues:
    """NaN passes every `<= 0` test, so each float field is checked for finiteness first."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RaySensorConfig(resolution_deg=math.inf),
            lambda: RaySensorConfig(max_range_m=math.nan),
            lambda: Obstacle(center=(1.0, 0.0), radius=math.nan),
            lambda: Obstacle(center=(1.0, 0.0), radius=math.inf),
            lambda: Obstacle(center=(1.0, 0.0), radius=0.1, loop=((1.0, 0.0), (2.0, 0.0)), speed=math.nan),
            lambda: corridor(half_width=math.nan),
            lambda: corridor(time_limit=math.inf),
            lambda: corridor(goal_radius=math.nan),
            lambda: replace(corridor(), v_max=math.inf),
        ],
    )
    def test_non_finite_fields_are_refused(self, build):
        with pytest.raises(ValueError, match="must be finite"):
            build()


class TestCachedPolylines:
    def test_degenerate_loop_is_refused_on_construction(self):
        with pytest.raises(ValueError, match="zero-length segment"):
            Obstacle(center=(3.2, 0.45), radius=0.1, loop=((3.2, 0.45), (3.2, 0.45)), speed=0.3)

    def test_dynamic_obstacle_position_unchanged(self):
        obstacle = Obstacle(center=(0.0, 0.0), radius=0.1, loop=((0.0, 0.0), (4.0, 0.0)), speed=1.0)
        assert obstacle.position_at(1.0) == (1.0, 0.0)
        assert obstacle.position_at(5.0) == (3.0, 0.0)  # on the way back
        assert obstacle.position_at(5.0) == tuple(Polyline([(0.0, 0.0), (4.0, 0.0), (0.0, 0.0)]).sample(5.0)[0][0])
        assert "loop_polyline" in vars(obstacle)  # built on construction, once
        assert obstacle.loop_polyline is obstacle.loop_polyline
        assert obstacle == Obstacle(center=(0.0, 0.0), radius=0.1, loop=((0.0, 0.0), (4.0, 0.0)), speed=1.0)

    def test_dynamic_obstacle_position_is_the_sampled_point_across_the_wrap(self):
        obstacle = Obstacle(center=(3.0, 0.5), radius=0.2, loop=((3.0, 0.5), (4.1, 0.5), (3.7, -0.3)), speed=0.3)
        loop = obstacle.loop_polyline
        times = []
        # the times at which the obstacle passes each waypoint, in the first
        # lap and the next, and their float neighbours
        for lap in (0.0, loop.length):
            for s in loop._cum.tolist():
                t = (lap + s) / obstacle.speed
                times += [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
        for t in times + [0.05 * k for k in range(400)]:
            expected = tuple(loop.sample((obstacle.speed * t) % loop.length)[0][0].tolist())
            assert obstacle.position_at(t) == expected

    def test_scenario_equality_ignores_cached_polyline(self):
        a, b = corridor(), corridor()
        assert a.route_polyline is a.route_polyline  # built once
        assert "route_polyline" in vars(a) and "route_polyline" not in vars(b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert replace(a, seed=9).route_polyline is not a.route_polyline


BUNDLED = {p.name[:-4]: p for p in resources.files("visionmpc").joinpath("scenarios").iterdir() if p.name.endswith(".scn")}


def with_mover(scenario):
    """scenario plus an obstacle shuttling across the corridor 1.5 m ahead of the start."""
    mover = Obstacle(center=(1.5, 0.4), radius=0.1, loop=((1.5, 0.4), (1.5, -0.4)), speed=0.3)
    return replace(scenario, obstacles=scenario.obstacles + (mover,))


def log_cells(outcome):
    """A trial's status and every logged field as the CSV writes it, so equality is bit equality."""
    return outcome.status, [[csv_cell(getattr(rec, name)) for name in LOG_COLUMNS] for rec in outcome.log]


class TestCachedScenarioValues:
    """Walls, obstacle radii and fan constants are built once; reusing them changes nothing."""

    @pytest.mark.parametrize("name", [*sorted(BUNDLED), "moving_obstacle"])
    def test_warm_caches_change_no_trial(self, name):
        if name == "moving_obstacle":
            scenario, params = load_scenario(BUNDLED["straight_corridor"])
            scenario = with_mover(scenario)
        else:
            scenario, params = load_scenario(BUNDLED[name])
        cold = run_trial(scenario, DirectController(PipelineConfig()), params, trial_index=1)
        assert "walls" in vars(scenario) and "obstacle_radii" in vars(scenario)
        warm = run_trial(scenario, DirectController(PipelineConfig()), params, trial_index=1)
        copy = with_seed(scenario, scenario.seed)
        assert copy == scenario and "walls" not in vars(copy) and "obstacle_radii" not in vars(copy)
        fresh = run_trial(copy, DirectController(PipelineConfig()), params, trial_index=1)
        assert cold.steps > 0
        assert log_cells(cold) == log_cells(warm) == log_cells(fresh)

    def test_sim_step_moves_the_obstacles_that_sense_sees(self):
        scenario = with_mover(corridor(obstacles=[Obstacle(center=(2.5, -0.3), radius=0.1)], half_width=0.6))
        world = world_for(scenario, sigma=0.002)
        scans = []
        for _ in range(30):
            sim_step(world, ControlInput(0.4, 0.05))
            assert not world.crashed
            scans.append(sense(world).rays)
            # the same scan from a static copy with every obstacle where it is now
            at_t = tuple(Obstacle(center=o.position_at(world.t), radius=o.radius) for o in scenario.obstacles)
            assert world.obstacle_centers.tolist() == [list(o.center) for o in at_t]
            frozen = replace(scenario, start=world.vehicle, obstacles=at_t)
            assert np.array_equal(scans[-1], sense(world_for(frozen)).rays)
        assert not np.array_equal(scans[0], scans[10]) and not np.array_equal(scans[10], scans[20])

    def test_static_obstacles_are_placed_only_with_the_world(self, monkeypatch):
        scenario, params = load_scenario(BUNDLED["corridor_two_obstacles"])
        calls = []
        position_at = Obstacle.position_at
        monkeypatch.setattr(Obstacle, "position_at", lambda self, t: calls.append(t) or position_at(self, t))
        world = world_for(scenario)
        centers = world.obstacle_centers
        for _ in range(10):
            sim_step(world, ControlInput(0.5, 0.0))
        assert world.obstacle_centers is centers
        assert calls == [0.0] * len(scenario.obstacles)
        with pytest.raises(ValueError):
            centers[0, 0] = 1.0

    def test_each_obstacle_is_placed_once_per_step(self, monkeypatch):
        scenario, params = load_scenario(BUNDLED["corridor_two_obstacles"])
        scenario = with_mover(scenario)
        calls = []
        position_at = Obstacle.position_at
        monkeypatch.setattr(Obstacle, "position_at", lambda self, t: calls.append(t) or position_at(self, t))
        outcome = run_trial(scenario, DirectController(PipelineConfig()), params)
        n = len(scenario.obstacles)
        # once each at world creation, then once each per sim_step; sense places none
        assert n == 3 and outcome.steps > 10
        assert len(calls) == n * (outcome.steps + 1)
        assert calls[:n] == [0.0] * n and calls[-n:] == [outcome.log[-1].time_s] * n

    def test_obstacle_radii_are_cached_once(self):
        scenario, params = load_scenario(BUNDLED["corridor_two_obstacles"])
        world = World(scenario, params, np.random.default_rng(0))
        radii = scenario.obstacle_radii
        assert scenario.obstacle_radii is radii
        assert radii.tolist() == [o.radius for o in scenario.obstacles]
        assert world.obstacle_centers.tolist() == [list(o.center) for o in scenario.obstacles]
        sim_step(world, ControlInput(0.5, 0.0))
        assert world.obstacle_centers.tolist() == [list(o.center) for o in scenario.obstacles]
        assert corridor().obstacle_radii.shape == (0,)
        assert world_for(corridor()).obstacle_centers.shape == (0, 2)

    def test_cached_constants_are_read_only(self):
        scenario, _ = load_scenario(BUNDLED["corridor_two_obstacles"])
        n = scenario.sensor.n_rays
        walls = scenario.walls
        cached = {
            "ray_bearings": ray_bearings(n),
            "signed_ray_bearings": signed_ray_bearings(n),
            **{f"direct fan {k}": a for k, a in enumerate(baselines._direct_fan(n))},
            **{f"demonstration fan {k}": a for k, a in enumerate(training._demonstration_fan(n))},
            "walls.a": walls.a,
            "walls.b": walls.b,
            "walls.d": walls.d,
            "walls.tol": walls.tol,
            "obstacle radii": scenario.obstacle_radii,
        }
        for name, array in cached.items():
            assert array.size > 0, name
            with pytest.raises(ValueError):
                array[0] = 1
            with pytest.raises(ValueError):
                array += 1
        # one array per ray count and per scenario, handed to every caller
        assert ray_bearings(n) is cached["ray_bearings"] and scenario.walls is walls
        assert baselines._direct_fan(n)[0] is cached["direct fan 0"]
        assert ray_bearings(n).tolist() == (np.arange(n) * (2.0 * math.pi / n)).tolist()
        signed = signed_ray_bearings(n)
        assert np.all((signed > -math.pi) & (signed <= math.pi))
        assert np.array_equal(np.mod(signed, 2.0 * math.pi), ray_bearings(n))


def sense_oracle(world):
    """The scan from the all-pairs wall oracle, the circle oracle and the two clamps of `sense`."""
    z, scenario = world.vehicle, world.scenario
    dirs = fan(z.rho, scenario.sensor.n_rays)
    dist = ray_segment_hits((z.x, z.y), dirs, scenario.walls.a, scenario.walls.b)
    if scenario.obstacles:
        circles = circle_hits_oracle((z.x, z.y), dirs, world.obstacle_centers, scenario.obstacle_radii)
        dist = np.minimum(circles, dist)
    return np.maximum(np.minimum(dist, scenario.sensor.max_range_m), 1e-9)


class TestSenseOracle:
    """`sense` equals the all-pairs oracles bit for bit at every pose of a Direct trial."""

    @pytest.mark.parametrize("name", [*sorted(BUNDLED), "moving_obstacle"])
    def test_scans_along_a_trial_equal_the_oracle(self, name):
        if name == "moving_obstacle":
            scenario, params = load_scenario(BUNDLED["straight_corridor"])
            scenario = with_mover(scenario)
        else:
            scenario, params = load_scenario(BUNDLED[name])
        world = World(scenario, params, np.random.default_rng([scenario.seed, 0]))
        assert np.array_equal(sense(world).rays, sense_oracle(world))
        steps = 0
        for _ in closed_loop(world, DirectController(PipelineConfig())):
            assert np.array_equal(sense(world).rays, sense_oracle(world))
            steps += 1
        assert steps > 50


class TestSimStep:
    def test_zero_control_static_world_only_time_advances(self):
        world = world_for(corridor())
        before = world.vehicle
        sim_step(world, ControlInput(0.0, 0.0))
        assert world.vehicle == before
        assert world.t == pytest.approx(0.05)
        assert not world.crashed and not world.reached

    def test_overlap_sets_collision_flag(self):
        # vehicle ends at distance 0.45 from a radius 0.5 obstacle: overlap
        scenario = corridor(obstacles=[Obstacle(center=(0.4, 0.0), radius=0.5)], start=VehicleState(-0.15, 0, 0))
        world = world_for(scenario)
        sim_step(world, ControlInput(2.0, 0.0))
        assert world.crashed

    def test_leaving_corridor_is_a_crash(self):
        scenario = corridor(half_width=0.1, start=VehicleState(0, 0.09, 0))
        world = world_for(scenario)
        sim_step(world, ControlInput(1.0, 0.6))
        assert world.crashed

    def test_dynamic_obstacle_loops_back_to_start(self):
        loop = ((3.0, 0.5), (4.0, 0.5), (4.0, -0.5), (3.0, -0.5))
        obstacle = Obstacle(center=loop[0], radius=0.2, loop=loop, speed=0.5)
        perimeter = 1.0 + 1.0 + 1.0 + 1.0
        period = perimeter / 0.5
        start = obstacle.position_at(0.0)
        again = obstacle.position_at(period)
        assert math.hypot(start[0] - again[0], start[1] - again[1]) < 1e-9
        mid = obstacle.position_at(period / 2)
        assert math.hypot(start[0] - mid[0], start[1] - mid[1]) > 0.5


class _ConstantController:
    def __init__(self, u, c=0.0, w=1.0, fail_at=None, error=NmpcError):
        self.u = u
        self.fail_at = fail_at
        self.error = error
        self.c = c
        self.w = w
        self.calls = 0

    def reset(self, scenario, params):
        self.calls = 0
        self.u_prev = ControlInput(0.0, 0.0)

    def step(self, obs, state, s):
        self.calls += 1
        if self.fail_at is not None and self.calls >= self.fail_at:
            raise self.error("synthetic controller failure")
        self.u_prev = self.u
        return StepCommand(u=self.u, c=self.c, w=self.w)

    def safe_stop(self):
        self.u_prev = ControlInput(max(0.0, self.u_prev.v_cmd - 0.1), self.u_prev.omega_cmd)
        return self.u_prev


class TestClosedLoop:
    def test_world_starting_in_goal_runs_no_step(self):
        world = world_for(corridor(start=VehicleState(9.9, 0, 0)))
        assert world.reached and world.status == "goal"
        assert list(closed_loop(world, _ConstantController(ControlInput(1.0, 0.0)))) == []

    def test_yields_each_applied_command_and_event(self):
        world = world_for(corridor(time_limit=0.5))
        controller = _ConstantController(ControlInput(1.0, 0.0), fail_at=3)
        steps = list(closed_loop(world, controller))
        assert len(steps) == 10 and world.status == "timeout"
        assert [event for _, event, _ in steps[:3]] == ["", "", "controller_error"]
        assert steps[2][0].u == ControlInput(0.9, 0.0)  # safe stop from the last applied control
        assert steps[3][0].u == ControlInput(0.8, 0.0)  # and the next one anchors on it
        assert all(seconds >= 0.0 for _, _, seconds in steps)


class TestRunTrial:
    def test_start_inside_goal_radius(self):
        scenario = corridor(start=VehicleState(9.9, 0, 0))
        outcome = run_trial(scenario, _ConstantController(ControlInput(0, 0)), ModelParams())
        assert outcome.status == "goal"
        assert outcome.steps == 0
        assert outcome.log == ()

    def test_zero_time_limit_times_out_immediately(self):
        scenario = corridor(time_limit=0.0)
        outcome = run_trial(scenario, _ConstantController(ControlInput(0, 0)), ModelParams())
        assert outcome.status == "timeout"
        assert outcome.steps == 0

    def test_straight_drive_reaches_goal(self):
        scenario = corridor()
        outcome = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.0)), ModelParams())
        assert outcome.status == "goal"
        assert outcome.log[-1].event == "goal"
        assert outcome.steps == pytest.approx((10.0 - 0.3) / (1.0 * 0.05), abs=2)

    def test_crash_event_on_final_row_with_prior_rows_clean(self):
        scenario = corridor(obstacles=[Obstacle(center=(1.0, 0.0), radius=0.2)])
        outcome = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.0)), ModelParams())
        assert outcome.status == "crash"
        assert outcome.log[-1].event == "crash"
        centers = (1.0, 0.0)
        for rec in outcome.log[:-1]:
            assert math.hypot(rec.x_m - centers[0], rec.y_m - centers[1]) >= 0.2
        last = outcome.log[-1]
        assert math.hypot(last.x_m - centers[0], last.y_m - centers[1]) < 0.2

    def test_controller_failure_records_event_and_safe_stops(self):
        scenario = corridor(time_limit=0.5)
        controller = _ConstantController(ControlInput(1.0, 0.0), fail_at=3)
        outcome = run_trial(scenario, controller, ModelParams())
        events = [rec.event for rec in outcome.log]
        assert "controller_error" in events
        k = events.index("controller_error")
        assert outcome.log[k].v_cmd < outcome.log[k - 1].v_cmd

    def test_controller_bug_propagates(self):
        # only an NmpcError is a solver failure to safe-stop on; anything else,
        # a ValueError from a numpy shape bug included, is a defect
        for error in (TypeError, IndexError, ValueError, ArithmeticError):
            controller = _ConstantController(ControlInput(1.0, 0.0), fail_at=3, error=error)
            with pytest.raises(error):
                run_trial(corridor(time_limit=0.5), controller, ModelParams())

    def test_bit_identical_logs_for_same_seed(self):
        scenario = corridor(obstacles=[Obstacle(center=(3.0, 0.4), radius=0.2)])
        params = ModelParams(sigma_f=0.01)
        a = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.02)), params, trial_index=4)
        b = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.02)), params, trial_index=4)
        assert a == b
        c = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.02)), params, trial_index=5)
        assert a != c


class TestLogRoundTrip:
    def test_csv_roundtrip_exact(self, tmp_path):
        # the second trial starts inside its goal radius and the third has no
        # time: each leaves a log with no row
        for scenario in (corridor(), corridor(start=VehicleState(9.9, 0, 0)), corridor(time_limit=0.0)):
            outcome = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.01)), ModelParams(sigma_f=0.003))
            path = tmp_path / "trial.csv"
            write_csv(path, StepRecord, outcome.log)
            back = read_trial_log(path, scenario)
            assert back.status == outcome.status
            assert back.log == outcome.log

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1: expected header time_s,x_m,"):
            read_trial_log(path, corridor())

    def test_trial_outcome_steps_is_the_log_length(self):
        outcome = run_trial(corridor(time_limit=0.5), _ConstantController(ControlInput(1.0, 0.0)), ModelParams())
        assert outcome.steps == len(outcome.log) == 10


class TestReadCsv:
    """read_csv is the inverse of write_csv for every record type."""

    def test_inverts_write_csv_for_each_record_type(self, tmp_path):
        scenario = corridor()
        outcome = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.01)), ModelParams(sigma_f=0.003))
        episodes = [
            training.EpisodeRecord(0, "a b", 3, -0.1 / 3, 1.0, "goal", float("nan")),
            training.EpisodeRecord(1, "", 0, 0.0, 0.05, "error", 2.5e-300),
        ]
        for record_type, records in ((StepRecord, list(outcome.log)), (training.EpisodeRecord, episodes)):
            path = tmp_path / f"{record_type.__name__}.csv"
            write_csv(path, record_type, records)
            back = read_csv(path, record_type)
            assert [type(v) for v in vars(back[0]).values()] == [type(v) for v in vars(records[0]).values()]
            # NaN != NaN, so compare the written text of each value
            assert [[csv_cell(v) for v in vars(r).values()] for r in back] == [
                [csv_cell(v) for v in vars(r).values()] for r in records
            ]

    def test_header_names_are_stripped(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("episode, scenario , steps, ret, epsilon, status, mean_loss\n2,s,5,1.5,0.5,goal,0.25\n")
        assert read_csv(path, training.EpisodeRecord) == [training.EpisodeRecord(2, "s", 5, 1.5, 0.5, "goal", 0.25)]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"log\.csv:1: expected header episode,scenario,"),
            ("episode,scenario,steps\n", r"log\.csv:1: expected header"),
            ("episode,scenario,steps,ret,epsilon,status,mean_loss\n0,s,1,0,0,goal,0\n1,s,1,0,0,goal\n",
             r"log\.csv:3: expected 7 cells, got 6"),
            ("episode,scenario,steps,ret,epsilon,status,mean_loss\n0,s,1.5,0,0,goal,0\n",
             r"log\.csv:2: invalid literal for int\(\) with base 10: '1\.5'"),
            ("episode,scenario,steps,ret,epsilon,status,mean_loss\n0,s,1,0,0,goal,0\n1,s,1,x,0,goal,0\n",
             r"log\.csv:3: could not convert string to float: 'x'"),
        ],
    )
    def test_errors_name_the_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "log.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(path, training.EpisodeRecord)


class TestScenarioFiles:
    def test_bundled_scenarios_load(self):
        for name in ("straight_corridor", "corridor_two_obstacles", "loop", "s_curve"):
            with resources.as_file(resources.files("visionmpc.scenarios") / f"{name}.scn") as p:
                scenario, params = load_scenario(p)
            assert scenario.name == name
            assert params.dt == 0.05

    def test_error_messages_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("format_version 1\ntrack_half_width_m oops\n")
        with pytest.raises(ScenarioFormatError, match=r"bad\.scn:2"):
            load_scenario(path)
        path.write_text("format_version 1\nbogus_key 3\n")
        with pytest.raises(ScenarioFormatError, match=r"bad\.scn:2: unknown key"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("start_pose 0.0 0.0 0.0", "start_pose nan 0.0 0.0"),
            ("waypoint_m 1.5 0.0", "waypoint_m inf 0.0"),
            ("time_limit_s 20.0", "time_limit_s inf"),
            ("seed 11", "seed -inf"),
        ],
    )
    def test_non_finite_numbers_are_refused_with_their_line(self, tmp_path, old, new):
        text = (resources.files("visionmpc.scenarios") / "straight_corridor.scn").read_text()
        path = tmp_path / "bad.scn"
        path.write_text(text.replace(old + "\n", new + "\n"))
        line = text[: text.index(old)].count("\n") + 1
        key = old.split()[0]
        with pytest.raises(ScenarioFormatError, match=rf"bad\.scn:{line}: {key} has a non-finite value"):
            load_scenario(path)

    @pytest.mark.parametrize("old, new", [("seed 11", "seed 3.7"), ("format_version 1", "format_version 1.9")])
    def test_non_integer_seed_and_version_are_refused_with_their_line(self, tmp_path, old, new):
        text = (resources.files("visionmpc.scenarios") / "straight_corridor.scn").read_text()
        path = tmp_path / "bad.scn"
        path.write_text(text.replace(old + "\n", new + "\n"))
        line = text[: text.index(old)].count("\n") + 1
        key = old.split()[0]
        with pytest.raises(ScenarioFormatError, match=rf"bad\.scn:{line}: {key} must be an integer, got {new.split()[1]}"):
            load_scenario(path)

    def test_integer_valued_seed_loads_as_an_int(self, tmp_path):
        text = (resources.files("visionmpc.scenarios") / "straight_corridor.scn").read_text()
        path = tmp_path / "ok.scn"
        path.write_text(text.replace("seed 11\n", "seed 12.0\n"))
        scenario, _ = load_scenario(path)
        assert type(scenario.seed) is int and scenario.seed == 12

    def test_missing_required_keys_reported(self, tmp_path):
        path = tmp_path / "partial.scn"
        path.write_text(
            "format_version 1\nstart_pose 0 0 0\nwaypoint_m 0 0\nwaypoint_m 1 0\n"
            "track_half_width_m 0.5\nv_max_mps 1.0\n"
        )
        with pytest.raises(ScenarioFormatError, match="missing required keys"):
            load_scenario(path)

    def test_omitted_optional_keys_keep_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.scn"
        required = (
            "format_version 1\nstart_pose 0 0 0\nwaypoint_m 0 0\nwaypoint_m 1 0\n"
            "track_half_width_m 0.5\nv_max_mps 1.0\ngoal_radius_m 0.3\nsensor_max_range_m 2.0\n"
        )
        path.write_text(required)
        scenario, params = load_scenario(path)
        assert params == ModelParams()
        assert scenario == Scenario(
            route=((0.0, 0.0), (1.0, 0.0)),
            half_width=0.5,
            start=VehicleState(0.0, 0.0, 0.0),
            goal_radius=0.3,
            v_max=1.0,
            sensor=RaySensorConfig(max_range_m=2.0),
            name="minimal",
        )
        path.write_text(required + "seed 4\ndt_s 0.04\nsensor_resolution_deg 3\n")
        scenario, params = load_scenario(path)
        assert type(scenario.seed) is int and scenario.seed == 4
        assert params == ModelParams(dt=0.04)
        assert scenario.sensor == RaySensorConfig(resolution_deg=3.0, max_range_m=2.0)

    def test_degenerate_obstacle_loop_is_refused_with_its_line(self, tmp_path):
        text = (resources.files("visionmpc.scenarios") / "straight_corridor.scn").read_text()
        path = tmp_path / "bad.scn"
        path.write_text(text + "obstacle_dynamic_m 0.1 0.3 3.2 0.45 3.2 0.45\n")
        line = text.count("\n") + 1
        with pytest.raises(ScenarioFormatError, match=rf"bad\.scn:{line}: polyline contains a zero-length segment"):
            load_scenario(path)

    def test_sensor_resolution_must_divide_fov(self):
        with pytest.raises(ValueError):
            RaySensorConfig(resolution_deg=7)

    def test_field_of_view_other_than_360_is_refused(self, tmp_path):
        # every scan reader spaces its bearings over a full fan
        text = (resources.files("visionmpc.scenarios") / "straight_corridor.scn").read_text()
        assert "sensor_fov_deg 360\n" in text
        path = tmp_path / "half_fan.scn"
        path.write_text(text.replace("sensor_fov_deg 360\n", "sensor_fov_deg 180\n"))
        line = text[: text.index("sensor_fov_deg")].count("\n") + 1
        with pytest.raises(ScenarioFormatError, match=rf"half_fan\.scn:{line}: sensor_fov_deg must be 360, got 180"):
            load_scenario(path)
