import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from visionmpc.geometry import Polyline
from visionmpc.nmpc import NmpcError
from visionmpc.sim import (
    LOG_COLUMNS,
    Obstacle,
    RaySensorConfig,
    Scenario,
    ScenarioFormatError,
    StepCommand,
    TrialOutcome,
    closed_loop,
    in_goal,
    load_scenario,
    make_world,
    read_trial_log,
    reference_slice,
    run_trial,
    sense,
    sim_step,
    write_trial_log,
)
from visionmpc.vehicle import ControlInput, ModelParams, VehicleState


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
    return make_world(scenario, ModelParams(sigma_f=sigma), np.random.default_rng(seed))


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
        for i, z in enumerate(out):
            assert z.x == pytest.approx(0.1 * (i + 1), abs=1e-12)
            assert z.y == 0.0
            assert z.rho == 0.0

    def test_beyond_route_end_repeats_final_waypoint(self):
        scenario = corridor()
        out = reference_slice(scenario.route_polyline, 9.95, tau_o=4, dt=0.1, v_ref=1.0)
        assert out[-1].x == 10.0
        assert out[-2].x == 10.0

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
        assert out[0].x == pytest.approx(1.0)
        assert out[0].y == pytest.approx(0.1)
        assert out[0].rho == pytest.approx(math.pi / 2)

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
            assert out[i].rho == pytest.approx(expected, abs=0.05)

    def test_equals_per_pose_sampling(self):
        # one array call gives exactly the poses of the per-pose loop it replaced
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
            x, y = route.point_at(s)
            want.append(VehicleState(x, y, route.heading_at(s)))
        assert out == want
        assert out[-1] == VehicleState(1.2, 2.0, route.heading_at(route.length))  # past the end

    def test_v_ref_must_be_positive(self):
        with pytest.raises(ValueError):
            reference_slice(corridor().route_polyline, 0.0, 3, 0.1, 0.0)


class TestCachedPolylines:
    def test_dynamic_obstacle_position_unchanged(self):
        obstacle = Obstacle(center=(0.0, 0.0), radius=0.1, loop=((0.0, 0.0), (4.0, 0.0)), speed=1.0)
        assert obstacle.position_at(1.0) == (1.0, 0.0)
        assert obstacle.position_at(5.0) == (3.0, 0.0)  # on the way back
        assert obstacle.position_at(5.0) == Polyline([(0.0, 0.0), (4.0, 0.0), (0.0, 0.0)]).point_at(5.0)
        assert obstacle.loop_polyline is obstacle.loop_polyline
        assert obstacle == Obstacle(center=(0.0, 0.0), radius=0.1, loop=((0.0, 0.0), (4.0, 0.0)), speed=1.0)

    def test_scenario_equality_ignores_cached_polyline(self):
        a, b = corridor(), corridor()
        assert a.route_polyline is a.route_polyline  # built once
        assert "route_polyline" in vars(a) and "route_polyline" not in vars(b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert replace(a, seed=9).route_polyline is not a.route_polyline


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

    def step(self, obs, state):
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
        # a TypeError or IndexError is a defect, not a solver failure to safe-stop on
        for error in (TypeError, IndexError):
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
        scenario = corridor()
        outcome = run_trial(scenario, _ConstantController(ControlInput(1.0, 0.01)), ModelParams(sigma_f=0.003))
        path = tmp_path / "trial.csv"
        write_trial_log(path, outcome)
        back = read_trial_log(path, scenario)
        assert back.status == outcome.status
        assert back.log == outcome.log

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValueError):
            read_trial_log(path, corridor())


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

    def test_missing_required_keys_reported(self, tmp_path):
        path = tmp_path / "partial.scn"
        path.write_text(
            "format_version 1\nstart_pose 0 0 0\nwaypoint_m 0 0\nwaypoint_m 1 0\n"
            "track_half_width_m 0.5\nv_max_mps 1.0\n"
        )
        with pytest.raises(ScenarioFormatError, match="missing required keys"):
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
