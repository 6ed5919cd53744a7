import json
import math
from dataclasses import asdict, replace
from importlib import resources

import numpy as np
import pytest

from visionmpc import controllers
from visionmpc.controllers import DirectController, DwaNmpcController, LvdNmpcController, PipelineConfig
from visionmpc.nmpc import NmpcConfig
from visionmpc.policy import CandidateSet, QNetwork, config_from_dict
from visionmpc.sim import Obstacle, RaySensorConfig, Scenario, load_scenario, run_trial
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
    cand = candidates if candidates is not None else CandidateSet.grid(k_c=3, k_w=2, w_range=(0.5, 1.0))
    fc = pipeline.feature_config(scenario.sensor.n_rays, scenario.sensor.max_range_m)
    return QNetwork.initialize((fc.dim, 16, len(cand)), cand, np.random.default_rng(seed))


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
                raise ValueError("synthetic failure")
            return original(*args)

        monkeypatch.setattr(controllers, "direct_policy_step", fails_on_tenth_call)
        with resources.as_file(resources.files("visionmpc.scenarios") / "straight_corridor.scn") as path:
            scenario, params = load_scenario(path)
        pipeline = PipelineConfig()
        outcome = run_trial(scenario, DirectController(pipeline), params)
        assert [rec.event for rec in outcome.log].index("controller_error") == 9
        assert outcome.steps > 11
        assert_bounds_and_rates(outcome, pipeline.nmpc)


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
        assert rebuilt.hidden_layers == pipeline.hidden_layers
        assert rebuilt == pipeline
