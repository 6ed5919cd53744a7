"""Deep Q-learning over the simulator's closed loop.

Each episode consumes `sim.closed_loop`, the loop `run_trial` evaluates
with. Each step runs the full decision pipeline (featurize,
epsilon-greedy candidate selection, desired-trajectory construction,
receding-horizon control, simulator step), rewards progress along the
route, and performs one Bellman update against a periodically synced
target network. A controller_error step ends its episode as "error";
training continues. Given the same configuration the run is
bit-deterministic.

An optional demonstration phase (TrainConfig.demo_episodes) seeds the
replay buffer with episodes driven by a scripted scan-reactive chooser,
so the value function sees successful avoidance maneuvers before
epsilon-greedy exploration takes over.
"""

import csv
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .controllers import LvdNmpcController, PipelineConfig
from .memory import Observation
from .policy import (
    CandidateSet,
    QNetwork,
    ReplayBuffer,
    RewardConfig,
    TrainConfig,
    epsilon_at,
    reward,
    train_step,
)
# sense and sim_step are unused here; perfbench/tracer.py wraps them by attribute name on this module
from .sim import Scenario, closed_loop, csv_cell, make_world, ray_bearings, sense, sim_step  # noqa: F401
from .vehicle import ModelParams


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    scenario: str
    steps: int
    ret: float
    epsilon: float
    status: str  # goal | crash | timeout | error
    mean_loss: float


def initialize_network(
    suite: Sequence[tuple[Scenario, ModelParams]],
    pipeline: PipelineConfig,
    candidates: CandidateSet,
    rng: np.random.Generator,
) -> QNetwork:
    scenario = suite[0][0]
    fc = pipeline.feature_config(scenario.sensor.n_rays, scenario.sensor.max_range_m)
    sizes = (fc.dim, *pipeline.hidden_layers, len(candidates))
    return QNetwork.initialize(sizes, candidates, rng)


# the demonstration chooser's front cone (+-14 deg) counts as blocked
# nearer than 1.2 m; it then compares the mean range of the side sectors
# between 6 and 50 deg off the heading
DEMO_BLOCK_DIST_M = 1.2
DEMO_FRONT_HALF_DEG = 14.0
DEMO_SIDE_LO_DEG = 6.0
DEMO_SIDE_HI_DEG = 50.0


def demonstration_action(obs: Observation, candidates: CandidateSet) -> int:
    """Scripted scan-reactive candidate choice for demonstration episodes.

    Straight at full width while the front cone is clear; once something
    sits closer than DEMO_BLOCK_DIST_M, bend with the strongest curvature
    candidate toward the side whose rays average farther.
    """
    rays = np.asarray(obs.rays)
    bear = ray_bearings(rays.shape[0])
    bear = np.where(bear > math.pi, bear - 2.0 * math.pi, bear)
    front_min = float(rays[np.abs(bear) <= math.radians(DEMO_FRONT_HALF_DEG)].min())
    if front_min >= DEMO_BLOCK_DIST_M:
        c_target = 0.0
    else:
        lo, hi = math.radians(DEMO_SIDE_LO_DEG), math.radians(DEMO_SIDE_HI_DEG)
        left = (bear > lo) & (bear <= hi)
        right = (bear < -lo) & (bear >= -hi)
        c_strong = max(abs(c) for c in candidates.c_values)
        c_target = c_strong if float(rays[left].mean()) >= float(rays[right].mean()) else -c_strong
    ic = int(np.argmin([abs(c - c_target) for c in candidates.c_values]))
    iw = int(np.argmin([abs(w - 1.0) for w in candidates.w_values]))
    return ic * len(candidates.w_values) + iw


def check_sensor_layout(suite: Sequence[tuple[Scenario, ModelParams]]) -> None:
    """Reject an empty suite, or one whose sensors differ in ray count or
    range: one network reads every scenario, so the feature space is fixed."""
    if not suite:
        raise ValueError("scenario suite must be non-empty")
    layouts = {(s.sensor.n_rays, s.sensor.max_range_m): s.name for s, _ in suite}
    if len(layouts) > 1:
        found = ", ".join(f"{name} has {n} rays to {r:g} m" for (n, r), name in layouts.items())
        raise ValueError(f"all scenarios in a training suite must share a sensor layout: {found}")


def train(
    suite: Sequence[tuple[Scenario, ModelParams]],
    cfg: TrainConfig,
    pipeline: PipelineConfig = PipelineConfig(),
    candidates: Optional[CandidateSet] = None,
    reward_cfg: RewardConfig = RewardConfig(),
) -> tuple[QNetwork, list[EpisodeRecord]]:
    """Train the scene-dynamics estimator; returns (network, episode log).

    Scenarios are visited round-robin. The suite must pass
    check_sensor_layout.
    """
    check_sensor_layout(suite)
    if candidates is None:
        candidates = CandidateSet.grid()
    rng = np.random.default_rng(cfg.seed)
    net = initialize_network(suite, pipeline, candidates, rng)
    if cfg.episodes == 0:
        return net, []
    target = net.copy()
    buffer = ReplayBuffer(cfg.replay_capacity)
    log: list[EpisodeRecord] = []
    global_step = 0

    for ep in range(cfg.episodes):
        scenario, params = suite[ep % len(suite)]
        eps = epsilon_at(ep, cfg)
        world = make_world(scenario, params, np.random.default_rng([cfg.seed, 101, ep]))
        if ep < cfg.demo_episodes:
            source = lambda obs, feats: demonstration_action(obs, candidates)  # noqa: E731
            controller = LvdNmpcController(net, pipeline, action_source=source)
        else:
            controller = LvdNmpcController(net, pipeline, epsilon=eps, rng=rng)
        # (features, action, reward) awaiting the next step's features; a
        # transition still pending when the episode is truncated (time or
        # step cap) is dropped rather than biased into a fake terminal
        pending = None
        ep_return = 0.0
        losses: list[float] = []
        steps = 0
        failed = False
        s_prev = world.s
        for _, event, _ in closed_loop(world, controller):
            if event == "controller_error":
                failed = True
                break
            features = controller.last_features
            action = controller.last_action
            if pending is not None:
                buffer.push(*pending, features, False)
            r = reward(s_prev, world.s, world.lateral, world.crashed, world.reached, reward_cfg)
            s_prev = world.s
            ep_return += r
            steps += 1
            global_step += 1
            if world.crashed or world.reached:
                # true terminal: the Bellman target is the reward alone
                buffer.push(features, action, r, features, True)
                pending = None
            else:
                pending = (features, action, r)
            if len(buffer) >= cfg.batch_size:
                batch = buffer.sample(cfg.batch_size, rng)
                losses.append(train_step(net, target, batch, cfg))
            if global_step % cfg.target_sync_every == 0:
                target = net.copy()
            if steps == cfg.max_steps_per_episode:
                break
        mean_loss = float(np.mean(losses)) if losses else 0.0
        log.append(
            EpisodeRecord(
                episode=ep,
                scenario=scenario.name,
                steps=steps,
                ret=ep_return,
                epsilon=eps,
                status="error" if failed else world.status,
                mean_loss=mean_loss,
            )
        )
    return net, log


def write_training_log(path, log: Sequence[EpisodeRecord]) -> None:
    """CSV with one column per EpisodeRecord field, in field order."""
    columns = [f.name for f in fields(EpisodeRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in log:
            writer.writerow([csv_cell(getattr(rec, name)) for name in columns])
