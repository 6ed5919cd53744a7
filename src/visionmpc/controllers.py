"""Trial controllers: the learned scene-adaptive pipeline and both baselines.

The actuator and rate bounds come only from `PipelineConfig.nmpc`: the
NMPC obeys them, and the baselines' planners read the same config with its
speed bound capped at the scenario's v_max, so benchmark comparisons stay
fair. Each controller projects the vehicle onto the route at most once per
step.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .baselines import DirectPolicyConfig, DwaConfig, direct_policy_step, dwa_plan, obstacle_points_from_observation
from .geometry import wrap_angle
from .memory import AugmentedMemory, MemoryEntry, Observation
from .nmpc import NmpcConfig, NmpcSolution, control_step
from .policy import FeatureConfig, QNetwork, featurize, select_dynamics
from .scene import (
    CorrectionConfig,
    ResidualWeights,
    SceneDynamics,
    desired_trajectory,
    dynamics_from_trajectory,
    gain_schedule,
    residual_h,
)
from .sim import Scenario, StepCommand, reference_slice
from .vehicle import ControlInput, ModelParams, VehicleState


@dataclass(frozen=True)
class PipelineConfig:
    """Scene-adaptive tracking pipeline settings.

    k_lat scales the width term of the path projection inside the
    controller; the closed-loop default is 0 so the width channel only
    drives speed and gain scheduling (its lateral shift is one-sided and
    destabilizes corridor tracking).
    """

    nmpc: NmpcConfig = NmpcConfig(max_iters=40, grad_tol=1e-4, f_tol=1e-8)
    residual_weights: ResidualWeights = ResidualWeights()
    k_lat: float = 0.0
    lookahead_time_s: float = 3.0
    min_lookahead_m: float = 0.5
    n_history: int = 4
    eps_r: float = 1e-3
    hidden_layers: tuple[int, ...] = (128, 64)

    def correction(self) -> CorrectionConfig:
        return CorrectionConfig(
            tau_o=self.nmpc.tau_o,
            horizon_dt=self.nmpc.dt,
            k_lat=self.k_lat,
            lookahead_time_s=self.lookahead_time_s,
            min_lookahead_m=self.min_lookahead_m,
        )

    def feature_config(self, sensor_rays: int, max_range: float) -> FeatureConfig:
        return FeatureConfig(
            n_history=self.n_history,
            ray_count=sensor_rays,
            max_range=max_range,
            tau_o=self.nmpc.tau_o,
        )


def _speed_capped(nmpc_cfg: NmpcConfig, v_max: float) -> NmpcConfig:
    """The shared bounds with the speed bound lowered to a scenario's v_max."""
    u_max = ControlInput(min(nmpc_cfg.u_max.v_cmd, v_max), nmpc_cfg.u_max.omega_cmd)
    return replace(nmpc_cfg, u_max=u_max)


class _BoundedController:
    """Shared safe-stop behavior under the common rate limits.

    _u_prev is the control last applied, which anchors the next step's
    rate bounds.
    """

    def __init__(self, nmpc_cfg: NmpcConfig):
        self._limits = nmpc_cfg
        self._u_prev: Optional[ControlInput] = None

    def safe_stop(self) -> ControlInput:
        """Decelerate from the last applied control; the result becomes the rate anchor."""
        cfg, u_prev = self._limits, self._u_prev
        v = max(cfg.u_min.v_cmd, 0.0, u_prev.v_cmd + cfg.du_min.v_cmd * cfg.dt)
        self._u_prev = ControlInput(min(v, u_prev.v_cmd), u_prev.omega_cmd)
        return self._u_prev


class LvdNmpcController(_BoundedController):
    """Scene-adaptive tracking controller driven by the learned estimator.

    epsilon > 0 (with an rng) enables exploration; evaluation runs greedy.
    The most recent feature vector and action index are exposed for the
    training loop.
    """

    def __init__(
        self,
        net: QNetwork,
        pipeline: PipelineConfig,
        epsilon: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        action_source=None,
    ):
        super().__init__(pipeline.nmpc)
        self.net = net
        self.pipeline = pipeline
        self.epsilon = epsilon
        self.rng = rng
        # optional override (observation, features) -> action index, used by
        # the demonstration phase of training
        self.action_source = action_source
        self.last_features: Optional[np.ndarray] = None
        self.last_action: Optional[int] = None
        self.last_solution: Optional[NmpcSolution] = None
        self._memory: Optional[AugmentedMemory] = None
        self._scenario: Optional[Scenario] = None
        self._fc: Optional[FeatureConfig] = None

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        self._memory = AugmentedMemory(self.pipeline.n_history)
        self._scenario = scenario
        self._fc = self.pipeline.feature_config(scenario.sensor.n_rays, scenario.sensor.max_range_m)
        self.last_solution = None
        self._u_prev = ControlInput(0.0, 0.0)
        self.last_features = None
        self.last_action = None

    def step(self, obs: Observation, state: VehicleState, t: float) -> StepCommand:
        cfg = self.pipeline.nmpc
        self._memory.push(MemoryEntry(observation=obs, state=state))
        window = self._memory.window()
        route = self._scenario.route_polyline
        s0, _ = route.project((state.x, state.y))
        ref_feat = reference_slice(route, s0, cfg.tau_o, cfg.dt, self._scenario.v_max)
        features = featurize(window, ref_feat, self._fc)
        if self.action_source is not None:
            action = int(self.action_source(obs, features))
            dyn = self.net.candidates[action]
        else:
            action, dyn = select_dynamics(self.net, features, self.epsilon, self.rng)
        self.last_features = features
        self.last_action = action
        return self._track(dyn, state, s0)

    def _track(self, dyn: SceneDynamics, state: VehicleState, s0: float) -> StepCommand:
        cfg = self.pipeline.nmpc
        v_ref = max(dyn.w * self._scenario.v_max, 1e-6)
        ref = reference_slice(self._scenario.route_polyline, s0, cfg.tau_o, cfg.dt, v_ref)
        z_d = desired_trajectory(ref, dyn, state, self.pipeline.correction())
        gains = gain_schedule(dyn, self.pipeline.eps_r)
        residual = residual_h(dyn, self.pipeline.residual_weights, state.rho)
        u, sol = control_step(
            state, z_d, residual, gains, cfg, warm_start=self.last_solution, u_prev=self._u_prev
        )
        self.last_solution = sol
        self._u_prev = u
        return StepCommand(u=u, c=dyn.c, w=dyn.w)


class DwaNmpcController(_BoundedController):
    """Dynamic-window planning executed by a fixed-gain tracking controller.

    Unlike the scene-adaptive pipeline, the baseline NMPC runs constant
    gains; scheduling them from the momentary plan speed deadlocks the
    startup (low speed -> heavy input penalty -> no acceleration).
    """

    def __init__(self, pipeline: PipelineConfig):
        super().__init__(pipeline.nmpc)
        self.pipeline = pipeline
        self._dwa = DwaConfig()
        self._scenario: Optional[Scenario] = None
        self.last_solution: Optional[NmpcSolution] = None
        self._u_plan: Optional[ControlInput] = None
        self._gains = gain_schedule(SceneDynamics(0.0, 0.9), pipeline.eps_r)

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        self._limits = _speed_capped(self.pipeline.nmpc, scenario.v_max)
        self._scenario = scenario
        self.last_solution = None
        self._u_prev = ControlInput(0.0, 0.0)
        self._u_plan = ControlInput(0.0, 0.0)

    def step(self, obs: Observation, state: VehicleState, t: float) -> StepCommand:
        cfg = self.pipeline.nmpc
        points = obstacle_points_from_observation(obs, state, self._scenario.sensor.max_range_m)
        # local goal well beyond the rollout reach, else end-heading scoring
        # punishes every fast rollout for overshooting it
        tau_goal = max(cfg.tau_o, int(round(2.0 * self._dwa.sim_horizon_s / cfg.dt)))
        route = self._scenario.route_polyline
        s0, _ = route.project((state.x, state.y))
        goal_xy, goal_rho = route.sample(s0 + self._scenario.v_max * cfg.dt * tau_goal)
        goal = VehicleState(*goal_xy[0].tolist(), float(goal_rho[0]))
        # the window anchors on the planner's own last command; anchoring on
        # the applied control couples plan and tracker into a slow fixed point
        plan = dwa_plan(state, points, goal, self._dwa, self._limits, self._u_plan)
        first = plan.states[0]
        v_plan = math.hypot(first.x - state.x, first.y - state.y) / cfg.dt
        if len(plan.states) > 1:
            psi_step = wrap_angle(plan.states[1].rho - plan.states[0].rho)
            omega_plan = math.asin(
                min(max(psi_step * cfg.wheelbase_L / (max(v_plan, 1e-9) * cfg.dt), -1.0), 1.0)
            )
        else:
            omega_plan = 0.0
        self._u_plan = ControlInput(min(v_plan, self._limits.u_max.v_cmd), omega_plan)
        w = min(max(v_plan / self._scenario.v_max, 0.0), 1.0)
        try:
            c = dynamics_from_trajectory(plan.states, min(v_plan, self._scenario.v_max), self._scenario.v_max).c
        except ValueError:
            c = 0.0
        u, sol = control_step(
            state, plan, None, self._gains, cfg, warm_start=self.last_solution, u_prev=self._u_prev
        )
        self.last_solution = sol
        self._u_prev = u
        return StepCommand(u=u, c=c, w=w)


class DirectController(_BoundedController):
    """Reactive execution-law baseline (no model, no optimization)."""

    def __init__(self, pipeline: PipelineConfig):
        super().__init__(pipeline.nmpc)
        self.pipeline = pipeline
        self._direct = DirectPolicyConfig()
        self._scenario: Optional[Scenario] = None

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        self._limits = _speed_capped(self.pipeline.nmpc, scenario.v_max)
        self._scenario = scenario
        self._u_prev = ControlInput(0.0, 0.0)

    def step(self, obs: Observation, state: VehicleState, t: float) -> StepCommand:
        u = direct_policy_step(obs, self._direct, self._limits, self._u_prev)
        self._u_prev = u
        c = math.sin(u.omega_cmd) / self._limits.wheelbase_L
        w = min(max(u.v_cmd / self._scenario.v_max, 0.0), 1.0)
        return StepCommand(u=u, c=c, w=w)
