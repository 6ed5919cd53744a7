"""Trial controllers: the learned scene-adaptive pipeline and both baselines.

Every controller reads its horizon, period and actuator and rate bounds
from one place: `PipelineConfig.nmpc` with the speed bound capped at the
scenario's v_max. Both NMPC trackers solve under it, and the DWA window and
the direct law plan within it, so benchmark comparisons stay fair. Each
controller projects the vehicle onto the route at most once per
step. The controllers share one skeleton, `_BoundedController`: its reset
starts a trial at rest with no warm start, and its `_track` runs one NMPC
step and keeps the control it applied.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .baselines import DWA_HORIZON_S, direct_policy_step, dwa_plan, obstacle_points_from_observation
from .geometry import wrap_angle
from .memory import AugmentedMemory, MemoryEntry, Observation
from .nmpc import NmpcConfig, control_step
from .policy import FeatureConfig, QNetwork, featurize, select_dynamics
from .scene import GainSchedule, SceneDynamics, desired_trajectory, dynamics_from_trajectory, gain_schedule, residual_h
from .sim import Scenario, StepCommand, reference_slice
from .vehicle import ControlInput, ModelParams, VehicleState


@dataclass(frozen=True)
class PipelineConfig:
    """Scene-adaptive tracking pipeline settings.

    nmpc holds the horizon, period, bounds and solver budget every
    controller runs under; n_history and hidden_layers fix the shape of the
    learned network. The mapping from a scene pair (c, w) to the desired
    trajectory, residual and gains is fixed in `scene`.
    """

    nmpc: NmpcConfig = NmpcConfig(max_iters=40, grad_tol=1e-4, f_tol=1e-8)
    n_history: int = 4
    hidden_layers: tuple[int, ...] = (128, 64)

    def feature_config(self, sensor_rays: int, max_range: float) -> FeatureConfig:
        return FeatureConfig(
            n_history=self.n_history,
            ray_count=sensor_rays,
            max_range=max_range,
            tau_o=self.nmpc.tau_o,
        )


def check_period(pipeline: PipelineConfig, params: ModelParams) -> None:
    """Reject a world whose sampling period differs from the controller's.

    The NMPC prediction, the DWA rollouts and the rate bounds all step
    pipeline.nmpc.dt, so a world stepping another period would silently
    run them at the wrong rate. A wheelbase mismatch is allowed: it is a
    model-mismatch experiment.
    """
    if params.dt != pipeline.nmpc.dt:
        raise ValueError(
            f"scenario period dt_s {params.dt!r} s differs from the controller period nmpc.dt {pipeline.nmpc.dt!r} s"
        )


def _speed_capped(nmpc_cfg: NmpcConfig, v_max: float) -> NmpcConfig:
    """The shared bounds with the speed bound lowered to a scenario's v_max."""
    u_max = ControlInput(min(nmpc_cfg.u_max.v_cmd, v_max), nmpc_cfg.u_max.omega_cmd)
    return replace(nmpc_cfg, u_max=u_max)


class _BoundedController:
    """Shared trial bookkeeping under the common rate limits.

    _limits is the pipeline's NMPC config with the speed bound capped at the
    scenario's v_max. _u_prev is the control last applied, which anchors
    the next step's rate bounds. _warm is the last NMPC solution's control
    array, which seeds the next solve.
    """

    def __init__(self, pipeline: PipelineConfig):
        self.pipeline = pipeline
        self._scenario: Optional[Scenario] = None
        self._limits = pipeline.nmpc
        self._u_prev: Optional[ControlInput] = None
        self._warm: Optional[np.ndarray] = None

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        """Start a trial at rest with no warm start; a world period other than the controller's is a ValueError."""
        check_period(self.pipeline, params)
        self._scenario = scenario
        self._limits = _speed_capped(self.pipeline.nmpc, scenario.v_max)
        self._u_prev = ControlInput(0.0, 0.0)
        self._warm = None

    def safe_stop(self) -> ControlInput:
        """Decelerate from the last applied control; the result becomes the rate anchor."""
        cfg, u_prev = self._limits, self._u_prev
        v = max(cfg.u_min.v_cmd, 0.0, u_prev.v_cmd + cfg.du_min.v_cmd * cfg.dt)
        self._u_prev = ControlInput(min(v, u_prev.v_cmd), u_prev.omega_cmd)
        return self._u_prev

    def _track(self, state: VehicleState, z_d, residual, gains: GainSchedule) -> ControlInput:
        """One NMPC step toward z_d from the last applied control; returns the control applied."""
        u, sol = control_step(state, z_d, residual, gains, self._limits, self._u_prev, warm_start=self._warm)
        self._warm = sol.u_opt
        self._u_prev = u
        return u


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
        super().__init__(pipeline)
        self.net = net
        self.epsilon = epsilon
        self.rng = rng
        # optional override (observation, features) -> action index, used by
        # the demonstration phase of training
        self.action_source = action_source
        self.last_features: Optional[np.ndarray] = None
        self.last_action: Optional[int] = None
        self._memory: Optional[AugmentedMemory] = None
        self._fc: Optional[FeatureConfig] = None

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        super().reset(scenario, params)
        self._memory = AugmentedMemory(self.pipeline.n_history)
        self._fc = self.pipeline.feature_config(scenario.sensor.n_rays, scenario.sensor.max_range_m)
        self.last_features = None
        self.last_action = None

    def step(self, obs: Observation, state: VehicleState) -> StepCommand:
        cfg = self._limits
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
        v_ref = max(dyn.w * self._scenario.v_max, 1e-6)
        ref = reference_slice(route, s0, cfg.tau_o, cfg.dt, v_ref)
        z_d = desired_trajectory(ref, dyn, state, cfg.dt)
        residual = residual_h(dyn, state.rho)
        return StepCommand(u=self._track(state, z_d, residual, gain_schedule(dyn)), c=dyn.c, w=dyn.w)


class DwaNmpcController(_BoundedController):
    """Dynamic-window planning executed by a fixed-gain tracking controller.

    Unlike the scene-adaptive pipeline, the baseline NMPC runs constant
    gains; scheduling them from the momentary plan speed deadlocks the
    startup (low speed -> heavy input penalty -> no acceleration).
    """

    def __init__(self, pipeline: PipelineConfig):
        super().__init__(pipeline)
        self._u_plan: Optional[ControlInput] = None
        self._gains = gain_schedule(SceneDynamics(0.0, 0.9))

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        super().reset(scenario, params)
        self._u_plan = ControlInput(0.0, 0.0)

    def step(self, obs: Observation, state: VehicleState) -> StepCommand:
        cfg = self._limits
        points = obstacle_points_from_observation(obs, state, self._scenario.sensor.max_range_m)
        # local goal well beyond the rollout reach, else end-heading scoring
        # punishes every fast rollout for overshooting it
        tau_goal = max(cfg.tau_o, int(round(2.0 * DWA_HORIZON_S / cfg.dt)))
        route = self._scenario.route_polyline
        s0, _ = route.project((state.x, state.y))
        goal_xy, goal_rho = route.sample(s0 + self._scenario.v_max * cfg.dt * tau_goal)
        goal = VehicleState(*goal_xy[0].tolist(), float(goal_rho[0]))
        # the window anchors on the planner's own last command; anchoring on
        # the applied control couples plan and tracker into a slow fixed point
        plan = dwa_plan(state, points, goal, cfg, self._u_plan)
        v_plan = math.hypot(plan[0].x - state.x, plan[0].y - state.y) / cfg.dt
        if len(plan) > 1:
            psi_step = wrap_angle(plan[1].rho - plan[0].rho)
            omega_plan = math.asin(
                min(max(psi_step * cfg.wheelbase_L / (max(v_plan, 1e-9) * cfg.dt), -1.0), 1.0)
            )
        else:
            omega_plan = 0.0
        self._u_plan = ControlInput(min(v_plan, cfg.u_max.v_cmd), omega_plan)
        w = min(max(v_plan / self._scenario.v_max, 0.0), 1.0)
        try:
            c = dynamics_from_trajectory(plan, min(v_plan, self._scenario.v_max), self._scenario.v_max).c
        except ValueError:
            c = 0.0
        return StepCommand(u=self._track(state, plan, None, self._gains), c=c, w=w)


class DirectController(_BoundedController):
    """Reactive execution-law baseline (no model, no optimization)."""

    def step(self, obs: Observation, state: VehicleState) -> StepCommand:
        u = direct_policy_step(obs, self._limits, self._u_prev)
        self._u_prev = u
        c = math.sin(u.omega_cmd) / self._limits.wheelbase_L
        w = min(max(u.v_cmd / self._scenario.v_max, 0.0), 1.0)
        return StepCommand(u=u, c=c, w=w)
