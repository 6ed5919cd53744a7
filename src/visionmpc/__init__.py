"""Desk-scale autonomous-vehicle control workbench.

A 2D goal-navigation simulator, a constrained receding-horizon tracking
controller with scene-adaptive gains, a Q-learning-trained scene-dynamics
estimator, two baseline policies, and a metrics harness with a CLI.
"""

from .baselines import direct_policy_step, dwa_plan
from .controllers import DirectController, DwaNmpcController, LvdNmpcController, PipelineConfig
from .memory import AugmentedMemory, MemoryEntry, Observation
from .metrics import MetricsReport, OfflineRecord, aggregate, e_xy
from .nmpc import NmpcConfig, NmpcError, NmpcSolution, solve
from .policy import (
    CandidateSet,
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    featurize,
    reward,
    select_dynamics,
    train_step,
)
from .scene import (
    GainSchedule,
    SceneDynamics,
    desired_trajectory,
    dynamics_from_trajectory,
    gain_schedule,
    project_path,
    residual_h,
)
from .sim import (
    Obstacle,
    RaySensorConfig,
    Scenario,
    TrialOutcome,
    closed_loop,
    load_scenario,
    reference_slice,
    run_trial,
    sense,
    sim_step,
)
from .training import load_checkpoint, save_checkpoint, train
from .vehicle import ControlInput, ModelParams, VehicleState, rollout, step_nominal, step_true

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
