"""Trial controllers: the learned scene-adaptive pipeline and both baselines.

Every controller reads its horizon, period and actuator and rate bounds
from one place: `PipelineConfig.nmpc` with the speed bound capped at the
scenario's v_max (`speed_capped`). Both NMPC trackers solve under it, and
the DWA window and the direct law plan within it, so benchmark comparisons
stay fair. The capped speed bound is also full speed, the scale of every
logged width w and of the LVD scene speed. No controller projects the
vehicle onto the route: each step receives the state's route arc length s
from the closed loop, which the simulator computed when it reached that
state. The controllers share one skeleton,
`_BoundedController`: its reset starts a trial at rest, and its `_track`,
the one tracking path of both NMPC methods, runs one NMPC step from the
warm start its caller gives, under the gains and reference control of a
scene pair, and keeps the control it applied. LVD-NMPC seeds each solve with its
last solution shifted by one step; DWA-NMPC seeds it with its plan's
command held over the horizon, the exact minimizer of its problem.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .baselines import DWA_HORIZON_S, direct_policy_step, dwa_plan, obstacle_points_from_observation
from .geometry import Polyline
from .memory import AugmentedMemory, MemoryEntry, Observation
# nmpc.solve is looked up on the module at each call, where perfbench/tracer.py wraps it
from . import nmpc
from .nmpc import NmpcConfig
from .policy import N_HISTORY, QNetwork, featurize, select_dynamics
from .scene import SceneDynamics, desired_trajectory, gain_schedule, pair_of_control, reference_control
# dynamics_from_trajectory is unused here; perfbench/tracer.py wraps it by attribute name on this module
from .scene import dynamics_from_trajectory, residual_h  # noqa: F401
from .sim import Scenario, StepCommand, reference_slice
from .vehicle import ControlInput, ModelParams, VehicleState


@dataclass(frozen=True)
class PipelineConfig:
    """Scene-adaptive tracking pipeline settings.

    nmpc holds the horizon, period, bounds and solver budget every
    controller runs under. The memory window the learned network reads is
    `policy.N_HISTORY`, and the mapping from a scene pair (c, w) to the
    desired trajectory, residual and gains is fixed in `scene`.
    """

    nmpc: NmpcConfig = NmpcConfig()


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


def speed_capped(nmpc_cfg: NmpcConfig, scenario: Scenario) -> NmpcConfig:
    """The shared bounds with the speed bound lowered to the scenario's v_max;
    that bound is the full speed every controller scales w by."""
    u_max = ControlInput(min(nmpc_cfg.u_max.v_cmd, scenario.v_max), nmpc_cfg.u_max.omega_cmd)
    return replace(nmpc_cfg, u_max=u_max)


class _BoundedController:
    """Shared trial bookkeeping under the common rate limits.

    _limits is the pipeline's NMPC config with the speed bound capped at the
    scenario's v_max; its u_max.v_cmd is full speed. _u_prev is the control
    last applied, which anchors the next step's rate bounds.
    """

    def __init__(self, pipeline: PipelineConfig):
        self.pipeline = pipeline
        self._scenario: Optional[Scenario] = None
        self._limits = pipeline.nmpc
        self._u_prev: Optional[ControlInput] = None

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        """Start a trial at rest; a world period other than the controller's is a ValueError."""
        check_period(self.pipeline, params)
        self._scenario = scenario
        self._limits = speed_capped(self.pipeline.nmpc, scenario)
        self._u_prev = ControlInput(0.0, 0.0)

    def safe_stop(self) -> ControlInput:
        """Decelerate from the last applied control; the result becomes the rate anchor."""
        u_prev = self._u_prev
        (v_lo, _), _ = self._limits.reachable(u_prev)
        v = max(v_lo, 0.0)
        self._u_prev = ControlInput(min(v, u_prev.v_cmd), u_prev.omega_cmd)
        return self._u_prev

    def _track(
        self, state: VehicleState, z_d, residual, pair: SceneDynamics, warm_start: Optional[np.ndarray]
    ) -> tuple[StepCommand, np.ndarray]:
        """One NMPC step toward z_d from the last applied control under the
        gains and reference control of the scene pair, logged with the pair.

        warm_start seeds the solve as it is (None seeds it with zeros). The
        solution's first pair is the command. Returns the command and the
        solution's control array.
        """
        cfg = self._limits
        u_ref = reference_control(pair, cfg.u_max.v_cmd, cfg.wheelbase_L)
        sol = nmpc.solve(state, z_d, residual, gain_schedule(pair), cfg, self._u_prev, u_ref, warm_start)
        u = ControlInput(float(sol.u_opt[0]), float(sol.u_opt[1]))
        self._u_prev = u
        return StepCommand(u=u, c=pair.c, w=pair.w), sol.u_opt


def lvd_desired_path(
    route: Polyline, s0: float, dyn: SceneDynamics, state: VehicleState, cfg: NmpcConfig
) -> np.ndarray:
    """The desired trajectory of the scene pair dyn under the capped bounds
    cfg, a (3, tau_o) path: the route slice ahead of arc length s0 at the
    scene speed dyn.w * cfg.u_max.v_cmd, corrected by dyn."""
    ref = reference_slice(route, s0, cfg.tau_o, cfg.dt, max(dyn.w * cfg.u_max.v_cmd, 1e-6))
    return desired_trajectory(ref, dyn, state)


class LvdNmpcController(_BoundedController):
    """Scene-adaptive tracking controller driven by the learned estimator.

    epsilon > 0 (with an rng) enables exploration; evaluation runs greedy.
    The most recent feature vector and action index are exposed for the
    training loop. _warm is the last NMPC solution's control array, which
    seeds the next solve shifted by one step: the desired path is not a
    model rollout, so no exact minimizer is known to start from.
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
        self._warm: Optional[np.ndarray] = None

    def reset(self, scenario: Scenario, params: ModelParams) -> None:
        super().reset(scenario, params)
        self._memory = AugmentedMemory(N_HISTORY)
        self.last_features = None
        self.last_action = None
        self._warm = None

    def step(self, obs: Observation, state: VehicleState, s: float) -> StepCommand:
        cfg = self._limits
        self._memory.push(MemoryEntry(observation=obs, state=state))
        window = self._memory.window()
        route = self._scenario.route_polyline
        ref_feat = reference_slice(route, s, cfg.tau_o, cfg.dt, cfg.u_max.v_cmd)
        features = featurize(window, ref_feat, self._scenario.sensor.max_range_m)
        if self.action_source is not None:
            action = int(self.action_source(obs, features))
            dyn = self.net.candidates[action]
        else:
            action, dyn = select_dynamics(self.net, features, self.epsilon, self.rng)
        self.last_features = features
        self.last_action = action
        z_d = lvd_desired_path(route, s, dyn, state, cfg)
        # the last solution shifted by one step, its last pair repeated
        warm = None if self._warm is None else np.concatenate((self._warm[2:], self._warm[-2:]))
        command, self._warm = self._track(state, z_d, residual_h(dyn, state.rho), dyn, warm)
        return command


class DwaNmpcController(_BoundedController):
    """Dynamic-window planning executed by the scene-adaptive tracker.

    The window is reachable from the control last applied; the plan is the
    desired trajectory, and the pair its sampled command holds sets the
    gains and reference control, as the learned pair does for LVD-NMPC.
    The plan is the tracker's prediction of that command held, bit for
    bit: both come from vehicle.rollout. So the command held over the
    horizon predicts the plan's positions exactly, and as the reference
    control is that command up to rounding, it costs at most rounding. It
    is the tracker's exact minimizer and seeds every solve, which then
    takes no Gauss-Newton step. The stop fallback's (0, 0) may not be reachable
    from a moving car; the solve projects it onto the rate bounds and
    iterates from there.
    """

    def __init__(self, pipeline: PipelineConfig):
        super().__init__(pipeline)
        # the planner's clearance buffers, kept from one step to the next
        self._work: dict = {}

    def step(self, obs: Observation, state: VehicleState, s: float) -> StepCommand:
        cfg = self._limits
        v_full = cfg.u_max.v_cmd
        points = obstacle_points_from_observation(obs, state, self._scenario.sensor.max_range_m)
        # local goal well beyond the rollout reach, else end-heading scoring
        # punishes every fast rollout for overshooting it
        tau_goal = max(cfg.tau_o, int(round(2.0 * DWA_HORIZON_S / cfg.dt)))
        goal = self._scenario.route_polyline.point_at(s + v_full * cfg.dt * tau_goal)
        u_plan, plan = dwa_plan(state, points, goal, cfg, self._u_prev, self._work)
        held = np.tile((u_plan.v_cmd, u_plan.omega_cmd), cfg.tau_o)
        pair = SceneDynamics(*pair_of_control(u_plan, v_full, cfg.wheelbase_L))
        return self._track(state, plan, None, pair, held)[0]


class DirectController(_BoundedController):
    """Reactive execution-law baseline (no model, no optimization)."""

    def step(self, obs: Observation, state: VehicleState, s: float) -> StepCommand:
        u = direct_policy_step(obs, self._limits, self._u_prev)
        self._u_prev = u
        c, w = pair_of_control(u, self._limits.u_max.v_cmd, self._limits.wheelbase_L)
        return StepCommand(u=u, c=c, w=w)
