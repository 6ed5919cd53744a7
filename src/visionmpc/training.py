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

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .controllers import LvdNmpcController, PipelineConfig
from .geometry import read_only
from .memory import Observation
from .policy import (
    HIDDEN_LAYERS,
    CandidateSet,
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    config_from_dict,
    epsilon_at,
    input_size,
    reward,
    train_step,
)
# sense and sim_step are unused here; perfbench/tracer.py wraps them by attribute name on this module
from .sim import RaySensorConfig, Scenario, World, closed_loop, sense, signed_ray_bearings, sim_step  # noqa: F401
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
    n_inputs = input_size(pipeline.n_history, check_sensor_layout(suite).n_rays, pipeline.nmpc.tau_o)
    return QNetwork.initialize((n_inputs, *HIDDEN_LAYERS, len(candidates)), candidates, rng)


CHECKPOINT_VERSION = 6


def _sensor_hash(sensor: RaySensorConfig) -> str:
    return hashlib.sha256(json.dumps(asdict(sensor), sort_keys=True).encode()).hexdigest()


def save_checkpoint(path, net: QNetwork, sensor: RaySensorConfig, pipeline: PipelineConfig) -> None:
    """Write the network (its layer_sizes are its shape), its candidate grid,
    and the sensor and pipeline (every field) it was trained with as JSON."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "candidates": asdict(net.candidates),
        "pipeline": asdict(pipeline),
        "sensor": asdict(sensor),
        "sensor_hash": _sensor_hash(sensor),
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path) -> tuple[QNetwork, RaySensorConfig, PipelineConfig]:
    """Load a checkpoint; returns (net, sensor, pipeline), the pipeline block
    decoded over PipelineConfig() as a --pipeline file is, so a missing key
    keeps its default. Raises ValueError for a file that is not a JSON object,
    another version, a missing key, a sensor that does not match its hash, or
    an input size other than the pipeline's and sensor's feature dimension."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}; this release reads {CHECKPOINT_VERSION}")
    if not payload.get("pipeline"):
        raise ValueError("checkpoint stores no pipeline, so the one the policy was trained under is unknown")
    for key in ("layer_sizes", "weights", "biases", "candidates", "sensor", "sensor_hash"):
        if key not in payload:
            raise ValueError(f"checkpoint has no {key!r} key")
    pipeline = config_from_dict(PipelineConfig(), payload["pipeline"])
    sensor = config_from_dict(RaySensorConfig(), payload["sensor"])
    if _sensor_hash(sensor) != payload["sensor_hash"]:
        raise ValueError("checkpoint sensor hash does not match its stored sensor")
    cand = config_from_dict(CandidateSet.grid(), payload["candidates"])
    net = QNetwork(payload["layer_sizes"], payload["weights"], payload["biases"], cand)
    expected = input_size(pipeline.n_history, sensor.n_rays, pipeline.nmpc.tau_o)
    if net.layer_sizes[0] != expected:
        raise ValueError(f"network input size {net.layer_sizes[0]} differs from the feature dimension {expected}")
    return net, sensor, pipeline


# the demonstration chooser's front cone (+-14 deg) counts as blocked
# nearer than 1.2 m; it then compares the mean range of the side sectors
# between 6 and 50 deg off the heading
DEMO_BLOCK_DIST_M = 1.2
DEMO_FRONT_HALF_DEG = 14.0
DEMO_SIDE_LO_DEG = 6.0
DEMO_SIDE_HI_DEG = 50.0


@cache
def _demonstration_fan(n_rays: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ray indices of the demonstration chooser's front cone and
    its left and right side sectors, for a fan of n_rays."""
    bear = signed_ray_bearings(n_rays)
    lo, hi = math.radians(DEMO_SIDE_LO_DEG), math.radians(DEMO_SIDE_HI_DEG)
    front = np.abs(bear) <= math.radians(DEMO_FRONT_HALF_DEG)
    left = (bear > lo) & (bear <= hi)
    right = (bear < -lo) & (bear >= -hi)
    return tuple(read_only(np.flatnonzero(mask)) for mask in (front, left, right))


def demonstration_action(obs: Observation, candidates: CandidateSet) -> int:
    """Scripted scan-reactive candidate choice for demonstration episodes.

    Straight at full width while the front cone is clear; once something
    sits closer than DEMO_BLOCK_DIST_M, bend with the strongest curvature
    candidate toward the side whose rays average farther.
    """
    rays = np.asarray(obs.rays)
    front, left, right = _demonstration_fan(rays.shape[0])
    front_min = float(rays.take(front).min())
    if front_min >= DEMO_BLOCK_DIST_M:
        c_target = 0.0
    else:
        c_strong = max(abs(c) for c in candidates.c_values)
        c_target = c_strong if float(rays.take(left).mean()) >= float(rays.take(right).mean()) else -c_strong
    ic = int(np.argmin([abs(c - c_target) for c in candidates.c_values]))
    iw = int(np.argmin([abs(w - 1.0) for w in candidates.w_values]))
    return ic * len(candidates.w_values) + iw


def check_sensor_layout(suite: Sequence[tuple[Scenario, ModelParams]]) -> RaySensorConfig:
    """The suite's one sensor. Rejects an empty suite, or one whose sensors
    differ: one network reads every scenario, so the feature space is fixed."""
    if not suite:
        raise ValueError("scenario suite must be non-empty")
    layouts = {s.sensor: s.name for s, _ in suite}
    if len(layouts) > 1:
        found = ", ".join(
            f"{name} has {sensor.n_rays} rays to {sensor.max_range_m:g} m" for sensor, name in layouts.items()
        )
        raise ValueError(f"all scenarios in a training suite must share a sensor layout: {found}")
    return suite[0][0].sensor


def train(
    suite: Sequence[tuple[Scenario, ModelParams]],
    cfg: TrainConfig,
    pipeline: PipelineConfig = PipelineConfig(),
) -> tuple[QNetwork, list[EpisodeRecord]]:
    """Train the scene-dynamics estimator over the default candidate grid;
    returns (network, episode log).

    Scenarios are visited round-robin. The suite must pass
    check_sensor_layout.
    """
    candidates = CandidateSet.grid()
    rng = np.random.default_rng(cfg.seed)
    net = initialize_network(suite, pipeline, candidates, rng)
    target = net.copy()
    buffer = ReplayBuffer(cfg.replay_capacity)
    log: list[EpisodeRecord] = []
    global_step = 0

    for ep in range(cfg.episodes):
        scenario, params = suite[ep % len(suite)]
        eps = epsilon_at(ep, cfg)
        world = World(scenario, params, np.random.default_rng([cfg.seed, 101, ep]))
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
            r = reward(s_prev, world.s, world.lateral, world.crashed, world.reached)
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
