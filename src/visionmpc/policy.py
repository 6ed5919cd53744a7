"""Learned scene-dynamics estimator.

A small fully-connected action-value network scores a fixed grid of
(curvature, width) candidates from stacked memory features. Training
machinery (replay buffer, one-step Bellman updates against a target
network) lives here as well; the episode loop is in training.py.

Everything is float64 so gradient checks against central finite
differences stay tight.
"""

import hashlib
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .memory import MemoryEntry
from .scene import SceneDynamics
from .vehicle import VehicleState

CHECKPOINT_VERSION = 3


def config_from_dict(default, data: dict):
    """Inverse of `dataclasses.asdict`, decoded against a default instance.

    A missing key keeps the default's value; a nested config decodes against
    the default's own nested value. An unknown key raises ValueError. A list
    becomes a tuple whose items decode against the default's first item, and
    a number is cast to the type of the default's value. Validation runs
    through the config's `__post_init__`.
    """
    name = type(default).__name__
    if not isinstance(data, dict):
        raise ValueError(f"{name} expects a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(default)})
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}")
    return replace(default, **{key: _decode(getattr(default, key), value) for key, value in data.items()})


def _decode(default, value):
    if is_dataclass(default):
        return config_from_dict(default, value)
    if isinstance(default, tuple):
        return tuple(_decode(default[0], v) for v in value) if default else tuple(value)
    if isinstance(default, (int, float)):
        return type(default)(value)
    return value


@dataclass(frozen=True)
class CandidateSet:
    """Fixed, ordered grid of scene-dynamics candidates (curvature-major)."""

    c_values: tuple[float, ...]
    w_values: tuple[float, ...]

    def __post_init__(self):
        if not self.c_values or not self.w_values:
            raise ValueError("candidate grid must be non-empty")
        for w in self.w_values:
            if not (0.0 <= w <= 1.0):
                raise ValueError("candidate widths must be in [0, 1]")

    @classmethod
    def grid(
        cls,
        k_c: int = 9,
        c_range: tuple[float, float] = (-0.5, 0.5),
        k_w: int = 5,
        w_range: tuple[float, float] = (0.0, 1.0),
    ) -> "CandidateSet":
        cs = tuple(np.linspace(c_range[0], c_range[1], k_c).tolist())
        ws = tuple(np.linspace(w_range[0], w_range[1], k_w).tolist())
        return cls(cs, ws)

    def __len__(self) -> int:
        return len(self.c_values) * len(self.w_values)

    def __getitem__(self, index: int) -> SceneDynamics:
        k_w = len(self.w_values)
        return SceneDynamics(self.c_values[index // k_w], self.w_values[index % k_w])


@dataclass(frozen=True)
class FeatureConfig:
    """Shape of the feature vector fed to the network."""

    n_history: int = 4
    ray_count: int = 180
    max_range: float = 3.0
    tau_o: int = 20

    def __post_init__(self):
        if self.n_history < 1 or self.ray_count < 1 or self.tau_o < 1:
            raise ValueError("feature dimensions must be positive")
        if self.max_range <= 0.0:
            raise ValueError("max_range must be positive")

    @property
    def dim(self) -> int:
        return self.n_history * self.ray_count + 2 * self.tau_o + self.n_history

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()


def featurize(window: Sequence[MemoryEntry], ref_slice: Sequence[VehicleState], fc: FeatureConfig) -> np.ndarray:
    """Stacked memory features in the frame of the newest entry.

    Layout: normalized ray distances per entry (oldest first), reference
    waypoints as (x, y) in the current vehicle frame, then a derived speed
    per entry (position difference over time difference, zero when padded).
    """
    if len(window) == 0:
        raise ValueError("featurize() needs a non-empty window")
    if len(window) != fc.n_history:
        raise ValueError(f"window length {len(window)} differs from configured history {fc.n_history}")
    if len(ref_slice) != fc.tau_o:
        raise ValueError(f"reference slice length {len(ref_slice)} differs from tau_o {fc.tau_o}")
    out = np.empty(fc.dim)
    pos = 0
    for entry in window:
        rays = entry.observation.rays
        if rays.shape[0] != fc.ray_count:
            raise ValueError(f"observation has {rays.shape[0]} rays, expected {fc.ray_count}")
        out[pos : pos + fc.ray_count] = rays / fc.max_range
        pos += fc.ray_count
    current = window[-1].state
    cos_r, sin_r = math.cos(-current.rho), math.sin(-current.rho)
    for z in ref_slice:
        dx, dy = z.x - current.x, z.y - current.y
        out[pos] = cos_r * dx - sin_r * dy
        out[pos + 1] = sin_r * dx + cos_r * dy
        pos += 2
    for i, entry in enumerate(window):
        if i == 0:
            out[pos] = 0.0
        else:
            dt = entry.timestamp - window[i - 1].timestamp
            if dt <= 0.0:
                out[pos] = 0.0
            else:
                prev = window[i - 1].state
                out[pos] = math.hypot(entry.state.x - prev.x, entry.state.y - prev.y) / dt
        pos += 1
    return out


class QNetwork:
    """Fully-connected action-value network: ReLU hidden layers, linear head."""

    def __init__(self, layer_sizes: Sequence[int], weights, biases, candidates: CandidateSet):
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if self.layer_sizes[-1] != len(candidates):
            raise ValueError(
                f"output dimension {self.layer_sizes[-1]} differs from candidate count {len(candidates)}"
            )
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect or b.shape != (self.layer_sizes[i + 1],):
                raise ValueError(f"layer {i} parameter shapes do not match layer_sizes")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("network parameters must be finite")
        self.candidates = candidates

    @classmethod
    def initialize(cls, layer_sizes: Sequence[int], candidates: CandidateSet, rng: np.random.Generator) -> "QNetwork":
        weights, biases = [], []
        sizes = tuple(layer_sizes)
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(sizes, weights, biases, candidates)

    def copy(self) -> "QNetwork":
        return QNetwork(
            self.layer_sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.candidates,
        )

    def forward(self, s: np.ndarray) -> np.ndarray:
        a = np.asarray(s, dtype=float)
        if a.shape != (self.layer_sizes[0],):
            raise ValueError(f"feature dimension {a.shape} differs from input size {self.layer_sizes[0]}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = w @ a + b
            if i != last:
                a = np.maximum(a, 0.0)
        return a

    def forward_batch(self, S: np.ndarray):
        """Batched forward pass; returns (outputs, pre-activation cache)."""
        a = np.asarray(S, dtype=float)
        cache = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            a = np.maximum(z, 0.0) if i != last else z
            cache.append(a)
        return a, cache


def select_dynamics(
    net: QNetwork,
    s: np.ndarray,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, SceneDynamics]:
    """Epsilon-greedy candidate selection; greedy ties break to the lowest index."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires a random generator")
        if rng.random() < epsilon:
            idx = int(rng.integers(len(net.candidates)))
            return idx, net.candidates[idx]
    q = net.forward(s)
    idx = int(np.argmax(q))
    return idx, net.candidates[idx]


@dataclass(frozen=True)
class RewardConfig:
    progress_gain: float = 1.0
    cross_track_gain: float = 0.5
    crash_penalty: float = 10.0
    goal_bonus: float = 10.0


def reward(
    s_prev: float,
    s_next: float,
    lateral: float,
    crashed: bool,
    reached: bool,
    cfg: RewardConfig = RewardConfig(),
) -> float:
    """Progress along the reference minus lateral deviation, with terminal terms.

    s_prev and s_next are the route arc lengths of the poses before and
    after the step, lateral the signed offset after it.
    """
    r = cfg.progress_gain * (s_next - s_prev) - cfg.cross_track_gain * abs(lateral)
    if crashed:
        r -= cfg.crash_penalty
    if reached:
        r += cfg.goal_bonus
    return r


class ReplayBuffer:
    """Bounded transition store with uniform no-replacement batch sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._data)

    def push(self, s, action: int, r: float, s_next, terminal: bool) -> None:
        self._data.append((np.asarray(s, dtype=float), int(action), float(r), np.asarray(s_next, dtype=float), bool(terminal)))

    def sample(self, batch_size: int, rng: np.random.Generator):
        if batch_size < 1 or batch_size > len(self._data):
            raise ValueError(f"cannot sample {batch_size} from {len(self._data)} transitions")
        idx = rng.choice(len(self._data), size=batch_size, replace=False)
        rows = [self._data[int(i)] for i in idx]
        S = np.stack([r[0] for r in rows])
        A = np.array([r[1] for r in rows], dtype=int)
        R = np.array([r[2] for r in rows])
        S2 = np.stack([r[3] for r in rows])
        term = np.array([r[4] for r in rows], dtype=float)
        return S, A, R, S2, term


@dataclass(frozen=True)
class TrainConfig:
    """Deep Q-learning hyperparameters."""

    episodes: int = 300
    gamma: float = 0.95
    learning_rate: float = 5e-4
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int = 180
    batch_size: int = 64
    target_sync_every: int = 250
    replay_capacity: int = 50_000
    max_steps_per_episode: int = 200
    demo_episodes: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        for eps in (self.epsilon_start, self.epsilon_end):
            if not (0.0 <= eps <= 1.0):
                raise ValueError("epsilon values must be in [0, 1]")
        if self.episodes < 0 or self.batch_size < 1 or self.target_sync_every < 1:
            raise ValueError("episodes, batch_size, target_sync_every must be positive")
        if self.epsilon_decay_episodes < 1 or self.max_steps_per_episode < 1:
            raise ValueError("epsilon_decay_episodes and max_steps_per_episode must be positive")
        if self.demo_episodes < 0:
            raise ValueError("demo_episodes must be non-negative")


def epsilon_at(episode: int, cfg: TrainConfig) -> float:
    frac = min(1.0, episode / cfg.epsilon_decay_episodes)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


def train_step(net: QNetwork, target_net: QNetwork, batch, cfg: TrainConfig) -> float:
    """One SGD step on the mean squared Bellman error; returns the pre-step loss."""
    S, A, R, S2, term = batch
    if S.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    n = S.shape[0]
    q_all, cache = net.forward_batch(S)
    q_next, _ = target_net.forward_batch(S2)
    targets = R + cfg.gamma * q_next.max(axis=1) * (1.0 - term)
    delta = q_all[np.arange(n), A] - targets
    loss = float(np.mean(delta ** 2))
    if not math.isfinite(loss):
        raise ValueError("non-finite training loss")

    d_out = np.zeros_like(q_all)
    d_out[np.arange(n), A] = 2.0 * delta / n
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    d = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        a_prev = cache[i]
        grads_w[i] = d.T @ a_prev
        grads_b[i] = d.sum(axis=0)
        if i > 0:
            d = (d @ net.weights[i]) * (cache[i] > 0.0)
    for i in range(len(net.weights)):
        net.weights[i] -= cfg.learning_rate * grads_w[i]
        net.biases[i] -= cfg.learning_rate * grads_b[i]
    return loss


def save_checkpoint(path, net: QNetwork, fc: FeatureConfig, pipeline_meta: Optional[dict] = None) -> None:
    """Write the network, candidate grid, and feature configuration as JSON."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "candidates": asdict(net.candidates),
        "feature": asdict(fc),
        "feature_hash": fc.hash(),
    }
    if pipeline_meta:
        payload["pipeline"] = pipeline_meta
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path, expect_feature: Optional[FeatureConfig] = None):
    """Load a checkpoint; returns (net, feature_config, pipeline_meta).

    pipeline_meta is the stored pipeline dict, or None. Rejects other
    versions, self-inconsistent feature hashes, a network input size other
    than the feature dimension, and (when expect_feature is given) a
    mismatch with the runtime feature layout.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    fc = config_from_dict(FeatureConfig(), payload["feature"])
    if fc.hash() != payload.get("feature_hash"):
        raise ValueError("checkpoint feature hash does not match its stored configuration")
    if expect_feature is not None and expect_feature.hash() != payload["feature_hash"]:
        raise ValueError("checkpoint feature hash does not match the runtime feature configuration")
    cand = config_from_dict(CandidateSet.grid(), payload["candidates"])
    net = QNetwork(payload["layer_sizes"], payload["weights"], payload["biases"], cand)
    if net.layer_sizes[0] != fc.dim:
        raise ValueError(f"network input size {net.layer_sizes[0]} differs from the feature dimension {fc.dim}")
    return net, fc, payload.get("pipeline")
