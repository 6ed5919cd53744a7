"""Learned scene-dynamics estimator.

A small fully-connected action-value network scores a fixed grid of
(curvature, width) candidates from stacked memory features. Training
machinery (replay buffer, one-step Bellman updates against a target
network) lives here as well; the episode loop and checkpoints are in
training.py.

Everything is float64 so gradient checks against central finite
differences stay tight.
"""

import math
from collections import deque
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .memory import MemoryEntry
from .scene import SceneDynamics

# hidden layer widths of every network `training.initialize_network` builds;
# a network's shape is read from its weight matrices, so a checkpoint stores it nowhere else
HIDDEN_LAYERS = (128, 64)
# memory entries (scans and poses) each feature vector stacks, the Augmented Memory window
N_HISTORY = 4

# Deep Q-learning settings, one value for every run as DQN had (Mnih et al. 2015)
GAMMA = 0.95  # Bellman discount
LEARNING_RATE = 5e-4  # SGD step size
EPSILON_START = 1.0  # exploration rate at episode 0, falling linearly ...
EPSILON_END = 0.05  # ... to this at TrainConfig.epsilon_decay_episodes
TARGET_SYNC_EVERY = 250  # training steps between target-network syncs
REPLAY_CAPACITY = 50_000  # transitions the replay buffer holds

# reward per step: progress along the route minus the absolute lateral
# offset, both in meters, and the terminal crash penalty and goal bonus
REWARD_PROGRESS_GAIN = 1.0
REWARD_CROSS_TRACK_GAIN = 0.5
REWARD_CRASH_PENALTY = 10.0
REWARD_GOAL_BONUS = 10.0


def config_from_dict(default, data: dict):
    """Inverse of `dataclasses.asdict`, decoded against a default instance.

    A missing key keeps the default's value; a nested config decodes against
    the default's own nested value. An unknown key raises ValueError. A list
    becomes a tuple whose items decode against the default's first item. A
    number field takes a number of its type, 3.0 as 3 for an int; a bool, a
    string or 2.5 for an int raises ValueError naming the key, so nothing is
    rounded. Validation runs through the config's `__post_init__`.
    """
    name = type(default).__name__
    if not isinstance(data, dict):
        raise ValueError(f"{name} expects a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(default)})
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}")
    return replace(default, **{k: _decode(getattr(default, k), v, f"{name}.{k}") for k, v in data.items()})


def _decode(default, value, key):
    if is_dataclass(default):
        return config_from_dict(default, value)
    if isinstance(default, tuple):
        return tuple(_decode(default[0], v, key) for v in value)
    if isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        if isinstance(default, int) and not (isinstance(value, int) or value.is_integer()):
            raise ValueError(f"{key} must be an integer, got {value!r}")
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
    def grid(cls) -> "CandidateSet":
        """The default grid: 9 curvatures evenly over [-0.5, 0.5], 5 widths over [0, 1]."""
        return cls(tuple(np.linspace(-0.5, 0.5, 9).tolist()), tuple(np.linspace(0.0, 1.0, 5).tolist()))

    def __len__(self) -> int:
        return len(self.c_values) * len(self.w_values)

    def __getitem__(self, index: int) -> SceneDynamics:
        k_w = len(self.w_values)
        return SceneDynamics(self.c_values[index // k_w], self.w_values[index % k_w])


def input_size(n_history: int, n_rays: int, tau_o: int) -> int:
    """Length of the feature vector `featurize` builds from n_history scans
    of n_rays rays and a reference slice of tau_o waypoints."""
    return n_history * n_rays + 2 * tau_o + n_history


def featurize(window: Sequence[MemoryEntry], ref_slice: np.ndarray, max_range: float) -> np.ndarray:
    """Stacked memory features in the frame of the newest entry.

    Layout: ray distances over max_range per entry (oldest first), the
    reference slice's waypoints, a (3, T) path as `sim.reference_slice`
    returns it, as (x, y) in the current vehicle frame, then a derived
    speed per entry (position difference over time difference, zero when
    padded). The layout follows the inputs: every scan must have the first
    one's ray count, and the length is `input_size(len(window), ray count,
    T)`.
    """
    if len(window) == 0:
        raise ValueError("featurize() needs a non-empty window")
    n_rays = window[0].observation.rays.shape[0]
    n_ref = ref_slice.shape[1]
    out = np.empty(input_size(len(window), n_rays, n_ref))
    pos = 0
    for entry in window:
        rays = entry.observation.rays
        if rays.shape[0] != n_rays:
            raise ValueError(f"observation has {rays.shape[0]} rays, expected {n_rays}")
        out[pos : pos + n_rays] = rays / max_range
        pos += n_rays
    current = window[-1].state
    cos_r, sin_r = math.cos(-current.rho), math.sin(-current.rho)
    dx, dy = ref_slice[0] - current.x, ref_slice[1] - current.y
    out[pos : pos + 2 * n_ref : 2] = cos_r * dx - sin_r * dy
    out[pos + 1 : pos + 2 * n_ref : 2] = sin_r * dx + cos_r * dy
    pos += 2 * n_ref
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
    """Fully-connected action-value network: ReLU hidden layers, linear head.
    Its shape is its weights: `layer_sizes` (inputs, then each layer's outputs) is read from them once."""

    def __init__(self, weights, biases, candidates: CandidateSet):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        if not self.weights or len(self.biases) != len(self.weights):
            raise ValueError(
                f"need at least one layer and one bias per weight matrix, got {len(self.weights)} and {len(self.biases)}"
            )
        if any(w.ndim != 2 for w in self.weights):
            raise ValueError(f"weights must be matrices, got shapes {[w.shape for w in self.weights]}")
        sizes = [self.weights[0].shape[1]]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != sizes[-1]:
                raise ValueError(f"layer {i} takes {w.shape[1]} inputs, but layer {i - 1} gives {sizes[-1]}")
            if b.shape != (w.shape[0],):
                raise ValueError(f"layer {i} bias has shape {b.shape}, expected ({w.shape[0]},)")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("network parameters must be finite")
            sizes.append(w.shape[0])
        if sizes[-1] != len(candidates):
            raise ValueError(f"output dimension {sizes[-1]} differs from candidate count {len(candidates)}")
        self.layer_sizes = tuple(sizes)
        self.candidates = candidates
        # weight gradients of train_step, kept between calls so an update
        # allocates (and faults in) no fresh memory; every network owns its own
        self._grad_w = [np.empty_like(w) for w in self.weights]

    @classmethod
    def initialize(cls, layer_sizes: Sequence[int], candidates: CandidateSet, rng: np.random.Generator) -> "QNetwork":
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, candidates)

    def copy(self) -> "QNetwork":
        return QNetwork([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.candidates)

    def forward(self, s: np.ndarray) -> np.ndarray:
        """Action values of one feature vector: forward_batch on one row."""
        a = np.asarray(s, dtype=float)
        if a.shape != (self.layer_sizes[0],):
            raise ValueError(f"feature dimension {a.shape} differs from input size {self.layer_sizes[0]}")
        return self.forward_batch(a[None])[0][0]

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


def reward(s_prev: float, s_next: float, lateral: float, crashed: bool, reached: bool) -> float:
    """Progress along the reference minus lateral deviation, with terminal terms.

    s_prev and s_next are the route arc lengths of the poses before and
    after the step, lateral the signed offset after it.
    """
    r = REWARD_PROGRESS_GAIN * (s_next - s_prev) - REWARD_CROSS_TRACK_GAIN * abs(lateral)
    if crashed:
        r -= REWARD_CRASH_PENALTY
    if reached:
        r += REWARD_GOAL_BONUS
    return r


class ReplayBuffer:
    """Transition store of the last REPLAY_CAPACITY transitions with uniform no-replacement batch sampling."""

    def __init__(self):
        self._data = deque(maxlen=REPLAY_CAPACITY)

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
    """The Deep Q-learning settings a run chooses; the fixed ones are the module constants above."""

    episodes: int = 300
    epsilon_decay_episodes: int = 180
    batch_size: int = 64
    max_steps_per_episode: int = 200
    demo_episodes: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 0:
            raise ValueError(f"episodes must be non-negative, got {self.episodes}")
        if self.epsilon_decay_episodes < 1:
            raise ValueError(f"epsilon_decay_episodes must be positive, got {self.epsilon_decay_episodes}")
        if not (1 <= self.batch_size <= REPLAY_CAPACITY):
            # a batch the buffer cannot hold would never be drawn, so no Bellman update would run
            raise ValueError(f"batch_size must be in [1, REPLAY_CAPACITY = {REPLAY_CAPACITY}], got {self.batch_size}")
        if self.max_steps_per_episode < 1:
            raise ValueError(f"max_steps_per_episode must be positive, got {self.max_steps_per_episode}")
        if self.demo_episodes < 0:
            raise ValueError(f"demo_episodes must be non-negative, got {self.demo_episodes}")


def epsilon_at(episode: int, decay_episodes: int) -> float:
    frac = min(1.0, episode / decay_episodes)
    return EPSILON_START + (EPSILON_END - EPSILON_START) * frac


def train_step(net: QNetwork, target_net: QNetwork, batch) -> float:
    """One SGD step on the mean squared Bellman error; returns the pre-step loss."""
    S, A, R, S2, term = batch
    if S.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    n = S.shape[0]
    q_all, cache = net.forward_batch(S)
    q_next, _ = target_net.forward_batch(S2)
    targets = R + GAMMA * q_next.max(axis=1) * (1.0 - term)
    delta = q_all[np.arange(n), A] - targets
    loss = float(np.mean(delta ** 2))
    if not math.isfinite(loss):
        raise ValueError("non-finite training loss")

    d_out = np.zeros_like(q_all)
    d_out[np.arange(n), A] = 2.0 * delta / n
    grads_b = [None] * len(net.weights)
    d = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(d.T, cache[i], out=net._grad_w[i])
        grads_b[i] = d.sum(axis=0)
        if i > 0:
            d = (d @ net.weights[i]) * (cache[i] > 0.0)
    # w -= lr * grad, in place in the gradient buffer and the weights
    for w, grad_w, b, grad_b in zip(net.weights, net._grad_w, net.biases, grads_b):
        np.multiply(LEARNING_RATE, grad_w, out=grad_w)
        np.subtract(w, grad_w, out=w)
        b -= LEARNING_RATE * grad_b
    return loss

