import json
import math
from dataclasses import asdict, replace
from importlib import resources

import numpy as np
import pytest

from visionmpc import controllers, nmpc
from visionmpc.controllers import DirectController, DwaNmpcController, LvdNmpcController, PipelineConfig
from visionmpc.nmpc import NmpcConfig, NmpcError
from visionmpc.policy import CandidateSet, QNetwork, config_from_dict, input_size
from visionmpc.scene import SceneDynamics
from visionmpc.sim import (
    Obstacle, RaySensorConfig, Scenario, StepRecord, load_scenario, run_trial, with_seed, write_csv,
)
from visionmpc.vehicle import ControlInput, ModelParams, VehicleState


def small_scenario(obstacles=()):
    return Scenario(
        route=((0.0, 0.0), (5.0, 0.0)),
        half_width=0.6,
        start=VehicleState(0, 0, 0),
        goal_radius=0.3,
        v_max=1.0,
        sensor=RaySensorConfig(resolution_deg=6, max_range_m=2.5),
        obstacles=tuple(obstacles),
        time_limit_s=12.0,
        seed=17,
    )


def small_pipeline():
    return PipelineConfig(nmpc=NmpcConfig(tau_o=6, max_iters=15, grad_tol=1e-3, f_tol=1e-7))


def fresh_net(pipeline, scenario, seed=0, candidates=None):
    cand = candidates if candidates is not None else CandidateSet((-0.5, 0.0, 0.5), (0.5, 1.0))
    n_inputs = input_size(pipeline.n_history, scenario.sensor.n_rays, pipeline.nmpc.tau_o)
    return QNetwork.initialize((n_inputs, 16, len(cand)), cand, np.random.default_rng(seed))


def assert_bounds_and_rates(outcome, cfg):
    prev = ControlInput(0.0, 0.0)
    for rec in outcome.log:
        assert cfg.u_min.v_cmd <= rec.v_cmd <= cfg.u_max.v_cmd
        assert cfg.u_min.omega_cmd <= rec.omega_cmd <= cfg.u_max.omega_cmd
        assert rec.v_cmd - prev.v_cmd <= cfg.du_max.v_cmd * cfg.dt + 1e-9
        assert rec.v_cmd - prev.v_cmd >= cfg.du_min.v_cmd * cfg.dt - 1e-9
        assert rec.omega_cmd - prev.omega_cmd <= cfg.du_max.omega_cmd * cfg.dt + 1e-9
        assert rec.omega_cmd - prev.omega_cmd >= cfg.du_min.omega_cmd * cfg.dt - 1e-9
        prev = ControlInput(rec.v_cmd, rec.omega_cmd)


MAKERS = {
    "lvd": lambda pipeline, scenario: LvdNmpcController(fresh_net(pipeline, scenario), pipeline),
    "dwa": lambda pipeline, scenario: DwaNmpcController(pipeline),
    "direct": lambda pipeline, scenario: DirectController(pipeline),
}


class TestControllersRespectSharedBounds:
    def test_lvd_controller(self):
        scenario = small_scenario()
        pipeline = small_pipeline()
        net = fresh_net(pipeline, scenario)
        outcome = run_trial(scenario, LvdNmpcController(net, pipeline), ModelParams(sigma_f=0.002))
        assert outcome.steps > 0
        assert_bounds_and_rates(outcome, pipeline.nmpc)

    def test_dwa_controller(self):
        scenario = small_scenario([Obstacle(center=(2.5, 0.1), radius=0.15)])
        pipeline = small_pipeline()
        outcome = run_trial(scenario, DwaNmpcController(pipeline), ModelParams(sigma_f=0.002))
        assert_bounds_and_rates(outcome, pipeline.nmpc)

    def test_direct_controller(self):
        scenario = small_scenario()
        pipeline = small_pipeline()
        outcome = run_trial(scenario, DirectController(pipeline), ModelParams(sigma_f=0.002))
        assert outcome.status == "goal"
        assert_bounds_and_rates(outcome, pipeline.nmpc)

    @pytest.mark.parametrize("method", list(MAKERS))
    def test_asymmetric_rate_bounds(self, method):
        # lower rate bounds tighter than the upper ones bind every controller
        scenario = small_scenario()
        pipeline = PipelineConfig(nmpc=replace(small_pipeline().nmpc, du_min=ControlInput(-1.0, -1.0)))
        outcome = run_trial(scenario, MAKERS[method](pipeline, scenario), ModelParams(sigma_f=0.002))
        assert outcome.steps > 0
        assert_bounds_and_rates(outcome, pipeline.nmpc)

    @pytest.mark.parametrize("method", list(MAKERS))
    def test_scenario_speed_cap(self, method):
        # a scenario v_max below u_max.v_cmd caps every controller's speed
        scenario = replace(small_scenario(), v_max=0.5)
        pipeline = small_pipeline()
        outcome = run_trial(scenario, MAKERS[method](pipeline, scenario), ModelParams(sigma_f=0.002))
        assert outcome.steps > 0
        capped = replace(pipeline.nmpc, u_max=ControlInput(0.5, pipeline.nmpc.u_max.omega_cmd))
        assert_bounds_and_rates(outcome, capped)


# the README's example pipeline: a speed bound below every bundled scenario's v_max
CAPPED_PIPELINE = PipelineConfig(nmpc=NmpcConfig(u_max=ControlInput(0.8, 0.35)))


def bundled(name):
    with resources.as_file(resources.files("visionmpc.scenarios") / f"{name}.scn") as path:
        return load_scenario(path)


def straight_corridor():
    return bundled("straight_corridor")


class TestFullSpeedIsTheCappedBound:
    """Full speed, the scale of w, is min(nmpc.u_max.v_cmd, v_max) for every method."""

    def test_lvd_path_at_full_width_is_spaced_by_the_capped_speed(self):
        scenario, _ = straight_corridor()
        cfg = controllers.speed_capped(CAPPED_PIPELINE.nmpc, scenario)
        z_d = controllers.lvd_desired_path(scenario.route_polyline, 0.0, SceneDynamics(0.0, 1.0), scenario.start, cfg)
        steps = [math.hypot(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(z_d[:2].T, z_d[:2, 1:].T)]
        assert len(steps) == cfg.tau_o - 1
        assert steps == pytest.approx([0.8 * cfg.dt] * len(steps), rel=1e-12)

    def test_dwa_logs_full_width_at_the_capped_speed(self):
        scenario, params = straight_corridor()
        outcome = run_trial(scenario, DwaNmpcController(CAPPED_PIPELINE), params)
        assert max(rec.v_cmd for rec in outcome.log) <= 0.8
        assert max(rec.w for rec in outcome.log) == pytest.approx(1.0, abs=1e-6)

    def test_direct_logs_its_speed_over_the_capped_bound(self):
        # the direct law's fastest command here is 2.1e-6 m/s short of the cap,
        # so its largest w is 1 - 2.7e-6
        scenario, params = straight_corridor()
        outcome = run_trial(scenario, DirectController(CAPPED_PIPELINE), params)
        assert all(rec.w == min(max(rec.v_cmd / 0.8, 0.0), 1.0) for rec in outcome.log)
        assert max(rec.w for rec in outcome.log) == pytest.approx(1.0, abs=1e-5)


class TestSceneSpeed:
    """The scene width w sets the speed: with the candidate fixed at c = 0,
    LVD-NMPC drives straight_corridor at a mean commanded speed within 10%
    of w times full speed, and at w = 0 it stays at rest. Under an input
    term that priced the control itself, every w < 1 stalled."""

    WIDTHS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_mean_speed_follows_the_width(self):
        pipeline = PipelineConfig()
        scenario, params = straight_corridor()
        # 10 s of driving: long enough that the start from rest moves no mean by 10%
        scenario = replace(scenario, time_limit_s=10.0)
        v_full = controllers.speed_capped(pipeline.nmpc, scenario).u_max.v_cmd
        net = fresh_net(pipeline, scenario, candidates=CandidateSet((0.0,), self.WIDTHS))
        for index, w in enumerate(self.WIDTHS):
            controller = LvdNmpcController(net, pipeline, action_source=lambda obs, features, index=index: index)
            outcome = run_trial(scenario, controller, params)
            assert {(rec.c, rec.w) for rec in outcome.log} == {(0.0, w)}
            speeds = [rec.v_cmd for rec in outcome.log]
            if w == 0.0:
                assert outcome.status == "timeout" and all(v == 0.0 for v in speeds)
            else:
                assert sum(speeds) / len(speeds) == pytest.approx(w * v_full, rel=0.1), w


class TestSafeStop:
    def test_next_step_is_rate_bounded_from_the_safe_stop(self, monkeypatch):
        # the safe stop replaces the failed step's control, so the step after
        # it must be rate-limited relative to the safe stop, not to the control
        # before the failure
        original = controllers.direct_policy_step
        calls = []

        def fails_on_tenth_call(*args):
            calls.append(None)
            if len(calls) == 10:
                raise NmpcError("synthetic failure")
            return original(*args)

        monkeypatch.setattr(controllers, "direct_policy_step", fails_on_tenth_call)
        scenario, params = straight_corridor()
        pipeline = PipelineConfig()
        outcome = run_trial(scenario, DirectController(pipeline), params)
        assert [rec.event for rec in outcome.log].index("controller_error") == 9
        assert outcome.steps > 11
        assert_bounds_and_rates(outcome, pipeline.nmpc)


class TestDwaSeed:
    """DWA-NMPC seeds each solve with its plan's command held over the
    horizon: the plan is the model's rollout of that command and the
    reference control is that command up to rounding, so the seed is the
    exact minimizer."""

    @pytest.mark.parametrize("name", ["corridor_two_obstacles", "loop", "s_curve", "straight_corridor"])
    def test_every_planned_solve_starts_at_its_minimizer(self, name, monkeypatch):
        plans, solutions = [], []
        original_plan, original_solve = controllers.dwa_plan, nmpc.solve

        def plan_spy(vehicle, *args):
            u_plan, plan = original_plan(vehicle, *args)
            # the stop fallback commands (0, 0) and holds the pose it was given
            held = all(pose == [vehicle.x, vehicle.y, vehicle.rho] for pose in plan.T.tolist())
            plans.append(held and u_plan == ControlInput(0.0, 0.0))
            return u_plan, plan

        def solve_spy(*args):
            sol = original_solve(*args)
            solutions.append(sol)
            return sol

        monkeypatch.setattr(controllers, "dwa_plan", plan_spy)
        monkeypatch.setattr(nmpc, "solve", solve_spy)
        scenario, params = bundled(name)
        outcome = run_trial(with_seed(scenario, 1), DwaNmpcController(PipelineConfig()), params)
        assert outcome.status == "goal"
        assert len(plans) == len(solutions) == outcome.steps
        planned = [sol for stop, sol in zip(plans, solutions) if not stop]
        assert planned
        for sol in planned:
            assert sol.iterations == 0
            assert sol.cost <= 1e-20

    @pytest.mark.parametrize("name", ["corridor_two_obstacles", "loop"])
    def test_trial_log_is_the_same_at_horizon_10_and_20(self, name, tmp_path):
        # the plan rolls out over the DWA horizon whatever tau_o is, and each
        # solve starts at its minimizer, so horizons 10 (the default) and 20
        # drive the baseline alike
        scenario, params = bundled(name)
        logs = []
        for tau_o in (10, 20):
            pipeline = PipelineConfig(nmpc=NmpcConfig(tau_o=tau_o))
            outcome = run_trial(with_seed(scenario, 1), DwaNmpcController(pipeline), params)
            path = tmp_path / f"tau_{tau_o}.csv"
            write_csv(path, StepRecord, outcome.log)
            logs.append(path.read_bytes())
        assert outcome.steps > 0
        assert logs[0] == logs[1]

    def test_solves_that_run_no_iteration_build_no_model_hessian(self, monkeypatch):
        # a solve that starts at its minimizer linearizes it for the stop
        # test and builds no Gauss-Newton or Newton model
        built, solutions = [], []
        original_solve, original_hessian = nmpc.solve, nmpc._Linearization.hessian

        def solve_spy(*args):
            built.append(0)
            sol = original_solve(*args)
            solutions.append(sol)
            return sol

        def hessian_spy(self, second_order):
            built[-1] += 1
            return original_hessian(self, second_order)

        monkeypatch.setattr(nmpc, "solve", solve_spy)
        monkeypatch.setattr(nmpc._Linearization, "hessian", hessian_spy)
        scenario, params = bundled("s_curve")
        outcome = run_trial(with_seed(scenario, 1), DwaNmpcController(PipelineConfig()), params)
        assert len(solutions) == outcome.steps > 0
        assert all(sol.iterations == 0 for sol in solutions)
        assert built == [0] * len(solutions)

    def test_stop_fallback_brakes_within_the_rate_bound(self, monkeypatch):
        # once the car runs at 0.8 m/s, a sensed point on the car itself
        # blocks every rollout; the fallback's (0, 0) seed is out of reach,
        # so the solve projects it and iterates, and the speed falls by at
        # most |du_min.v_cmd| * dt per step
        original_points = controllers.obstacle_points_from_observation
        cfg = CAPPED_PIPELINE.nmpc
        controller = DwaNmpcController(CAPPED_PIPELINE)
        blocked = []

        def blocking_points(obs, state, max_range):
            if blocked or controller._u_prev.v_cmd >= 0.8 - 1e-6:
                blocked.append(None)
                return np.array([[state.x, state.y]])
            return original_points(obs, state, max_range)

        monkeypatch.setattr(controllers, "obstacle_points_from_observation", blocking_points)
        scenario, params = straight_corridor()
        outcome = run_trial(replace(scenario, time_limit_s=4.0), controller, params)
        assert_bounds_and_rates(outcome, cfg)
        speeds = [rec.v_cmd for rec in outcome.log]
        first = len(speeds) - len(blocked)
        assert speeds[first - 1] == pytest.approx(0.8, abs=1e-6)
        drop = abs(cfg.du_min.v_cmd) * cfg.dt
        assert all(a - drop - 1e-12 <= b <= a for a, b in zip(speeds[first - 1:], speeds[first:]))
        assert speeds[-1] == 0.0


class TestOneSolvePerStep:
    """Each NMPC step solves once, and through the module attribute
    nmpc.solve, so a wrapper installed there sees every solve; a binding of
    solve made at import would bypass it."""

    @pytest.mark.parametrize("method", ["lvd", "dwa"])
    def test_each_step_calls_the_module_solve_once(self, method, monkeypatch):
        calls = []
        original_solve = nmpc.solve

        def solve_spy(*args):
            calls.append(None)
            return original_solve(*args)

        monkeypatch.setattr(nmpc, "solve", solve_spy)
        scenario = small_scenario([Obstacle(center=(2.5, 0.1), radius=0.15)])
        pipeline = small_pipeline()
        controller = MAKERS[method](pipeline, scenario)
        per_step = []
        step = controller.step

        def counted_step(*args):
            before = len(calls)
            command = step(*args)
            per_step.append(len(calls) - before)
            return command

        controller.step = counted_step
        outcome = run_trial(scenario, controller, ModelParams(sigma_f=0.002))
        assert outcome.steps > 0
        assert per_step == [1] * outcome.steps


class TestLvdController:
    def test_exposes_features_and_action_for_training(self):
        scenario = small_scenario()
        pipeline = small_pipeline()
        net = fresh_net(pipeline, scenario)
        ctrl = LvdNmpcController(net, pipeline, epsilon=1.0, rng=np.random.default_rng(0))
        outcome = run_trial(scenario, ctrl, ModelParams())
        assert ctrl.last_features is not None
        assert ctrl.last_features.shape == (net.layer_sizes[0],)
        assert 0 <= ctrl.last_action < len(net.candidates)

    def test_greedy_is_deterministic_across_trials(self):
        scenario = small_scenario()
        pipeline = small_pipeline()
        net = fresh_net(pipeline, scenario, seed=2)
        a = run_trial(scenario, LvdNmpcController(net, pipeline), ModelParams(sigma_f=0.002), trial_index=1)
        b = run_trial(scenario, LvdNmpcController(net, pipeline), ModelParams(sigma_f=0.002), trial_index=1)
        assert a == b

    def test_logged_scene_pair_comes_from_candidates(self):
        scenario = small_scenario()
        pipeline = small_pipeline()
        cand = CandidateSet(c_values=(-0.2, 0.0, 0.2), w_values=(0.75, 1.0))
        net = fresh_net(pipeline, scenario, candidates=cand)
        outcome = run_trial(scenario, LvdNmpcController(net, pipeline), ModelParams())
        pairs = {(rec.c, rec.w) for rec in outcome.log}
        allowed = {(cand[i].c, cand[i].w) for i in range(len(cand))}
        assert pairs <= allowed


@pytest.mark.parametrize("method", list(MAKERS))
class TestReset:
    def test_world_period_other_than_the_controllers_is_rejected(self, method):
        scenario = small_scenario()
        controller = MAKERS[method](small_pipeline(), scenario)
        with pytest.raises(ValueError, match=r"dt_s 0\.1 s differs from the controller period nmpc\.dt 0\.05 s"):
            controller.reset(scenario, ModelParams(dt=0.1))

    def test_wheelbase_mismatch_is_allowed(self, method):
        scenario = small_scenario()
        pipeline = small_pipeline()
        outcome = run_trial(scenario, MAKERS[method](pipeline, scenario), ModelParams(wheelbase_L=0.5))
        assert outcome.steps > 0
        assert_bounds_and_rates(outcome, pipeline.nmpc)

    def test_reused_controller_logs_like_a_fresh_one(self, method):
        # simulate and compare run every trial of a scenario on one instance
        scenario = small_scenario([Obstacle(center=(2.5, 0.1), radius=0.15)])
        pipeline = small_pipeline()
        params = ModelParams(sigma_f=0.002)
        reused = MAKERS[method](pipeline, scenario)
        run_trial(scenario, reused, params, trial_index=0)
        again = run_trial(scenario, reused, params, trial_index=1)
        fresh = run_trial(scenario, MAKERS[method](pipeline, scenario), params, trial_index=1)
        assert again.steps > 0
        assert again == fresh


class TestCheckpointPipelineRoundTrip:
    def test_meta_reconstructs_pipeline(self):
        pipeline = PipelineConfig(nmpc=NmpcConfig(tau_o=9, dt=0.04, e_min=-0.4, e_max=0.4))
        rebuilt = config_from_dict(PipelineConfig(), json.loads(json.dumps(asdict(pipeline))))
        assert rebuilt.nmpc.tau_o == 9
        assert rebuilt.nmpc.dt == 0.04
        assert rebuilt.nmpc.e_max == 0.4
        assert rebuilt == pipeline
