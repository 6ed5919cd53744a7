import json
import math
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest

from visionmpc import policy
from visionmpc.controllers import PipelineConfig
from visionmpc.geometry import Polyline
from visionmpc.memory import MemoryEntry, Observation
from visionmpc.nmpc import NmpcConfig
from visionmpc.policy import (
    CandidateSet,
    QNetwork,
    REPLAY_CAPACITY,
    REWARD_CROSS_TRACK_GAIN,
    REWARD_PROGRESS_GAIN,
    ReplayBuffer,
    TrainConfig,
    config_from_dict,
    epsilon_at,
    featurize,
    input_size,
    reward,
    select_dynamics,
    train_step,
)
from visionmpc.sim import RaySensorConfig
from visionmpc.vehicle import VehicleState

from test_vehicle import path_of

# window length, rays per scan, sensor range and reference slice length
N_HISTORY, N_RAYS, MAX_RANGE, TAU_O = 3, 8, 2.0, 4


def make_window(offset=(0.0, 0.0), n=3, rays_value=2.0):
    entries = []
    for i in range(n):
        t = 0.05 * i
        obs = Observation(rays=np.full(N_RAYS, rays_value), timestamp=t)
        state = VehicleState(0.1 * i + offset[0], offset[1], 0.0)
        entries.append(MemoryEntry(observation=obs, state=state))
    return entries


def make_ref(offset=(0.0, 0.0), n=4):
    x0 = 0.2 + offset[0]
    return path_of([VehicleState(x0 + 0.1 * i, offset[1], 0.0) for i in range(n)])


class TestFeaturize:
    def test_shape_and_saturated_rays(self):
        f = featurize(make_window(), make_ref(), MAX_RANGE)
        assert f.shape == (input_size(N_HISTORY, N_RAYS, TAU_O),)
        assert np.all(f[: N_HISTORY * N_RAYS] == 1.0)
        # reference dead ahead: lateral waypoint coordinates all zero
        wp = f[N_HISTORY * N_RAYS : N_HISTORY * N_RAYS + 2 * TAU_O]
        assert np.all(wp[1::2] == 0.0)

    def test_translation_invariance(self):
        base = featurize(make_window(), make_ref(), MAX_RANGE)
        moved = featurize(make_window(offset=(10.0, -5.0)), make_ref(offset=(10.0, -5.0)), MAX_RANGE)
        assert np.allclose(base, moved, atol=1e-9)

    def test_speed_block(self):
        f = featurize(make_window(), make_ref(), MAX_RANGE)
        speeds = f[-N_HISTORY:]
        assert speeds[0] == 0.0
        assert speeds[1] == pytest.approx(0.1 / 0.05)
        assert speeds[2] == pytest.approx(0.1 / 0.05)

    def test_waypoints_equal_the_per_pose_rotation(self):
        # each waypoint is rotated into the vehicle frame as a scalar loop does it
        rng = np.random.default_rng(3)
        for _ in range(50):
            current = VehicleState(*rng.uniform(-5, 5, 2).tolist(), rng.uniform(-math.pi, math.pi))
            window = make_window()[:-1] + [MemoryEntry(Observation(np.full(N_RAYS, 1.0), 0.1), current)]
            ref = rng.uniform(-5, 5, (3, TAU_O))
            f = featurize(window, ref, MAX_RANGE)
            cos_r, sin_r = math.cos(-current.rho), math.sin(-current.rho)
            want = []
            for x, y, _ in ref.T.tolist():
                dx, dy = x - current.x, y - current.y
                want += [cos_r * dx - sin_r * dy, sin_r * dx + cos_r * dy]
            assert f[N_HISTORY * N_RAYS : N_HISTORY * N_RAYS + 2 * TAU_O].tolist() == want

    def test_layout_follows_the_inputs(self):
        assert featurize(make_window(n=2), make_ref(n=3), MAX_RANGE).shape == (input_size(2, N_RAYS, 3),)
        with pytest.raises(ValueError):
            featurize([], make_ref(), MAX_RANGE)

    def test_scans_of_differing_ray_counts_rejected(self):
        window = make_window()
        short = Observation(rays=np.full(N_RAYS - 1, 2.0), timestamp=window[-1].timestamp)
        window[-1] = MemoryEntry(observation=short, state=window[-1].state)
        with pytest.raises(ValueError, match=f"observation has {N_RAYS - 1} rays, expected {N_RAYS}"):
            featurize(window, make_ref(), MAX_RANGE)


class TestQNetwork:
    def test_zero_parameters_give_zero_outputs(self):
        cand = CandidateSet((-0.5,), (0.0, 1.0))
        net = QNetwork([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)], cand)
        assert np.all(net.forward(np.ones(3)) == 0.0)

    def test_hand_computed_forward_pass(self):
        cand = CandidateSet((-0.5, 0.5), (0.0,))
        w1 = np.array([[1.0, -1.0], [0.5, 0.25]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, 0.0], [0.0, 3.0]])
        b2 = np.array([0.0, 1.0])
        net = QNetwork([w1, w2], [b1, b2], cand)
        s = np.array([1.0, 2.0])
        h = np.maximum(w1 @ s + b1, 0.0)  # [max(-0.9,0)=0, max(0.8,0)=0.8]
        want = w2 @ h + b2  # [0, 3.4]
        assert net.forward(s) == pytest.approx(want.tolist())
        assert net.forward(s)[1] == pytest.approx(3.4)

    def test_zeroed_first_layer_outputs_head_bias(self):
        cand = CandidateSet((-0.5, 0.0, 0.5), (0.0,))
        rng = np.random.default_rng(0)
        net = QNetwork.initialize((5, 4, 3), cand, rng)
        net.weights[0][:] = 0.0
        out = net.forward(rng.normal(size=5))
        assert out == pytest.approx((net.weights[1] @ net.biases[0] + net.biases[1]).tolist())

    def test_dimension_mismatch_rejected(self):
        cand = CandidateSet((-0.5,), (0.0, 1.0))
        net = QNetwork.initialize((3, 4, 2), cand, np.random.default_rng(1))
        with pytest.raises(ValueError):
            net.forward(np.ones(4))

    def test_layer_sizes_are_read_from_the_weights(self):
        cand = CandidateSet((-0.5, 0.5), (0.0, 1.0))
        weights = [np.zeros((5, 3)), np.zeros((6, 5)), np.zeros((4, 6))]
        net = QNetwork(weights, [np.zeros(5), np.zeros(6), np.zeros(4)], cand)
        assert net.layer_sizes == (3, 5, 6, 4)
        assert net.copy().layer_sizes == QNetwork.initialize((3, 5, 6, 4), cand, np.random.default_rng(0)).layer_sizes

    @pytest.mark.parametrize(
        "weights, biases, message",
        [
            ([], [], "at least one layer and one bias per weight matrix, got 0 and 0"),
            ([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4)], "one bias per weight matrix, got 2 and 1"),
            ([np.zeros((4, 3)), np.zeros(8)], [np.zeros(4), np.zeros(2)], r"matrices, got shapes \[\(4, 3\), \(8,\)\]"),
            ([np.zeros((4, 3)), np.zeros((2, 5))], [np.zeros(4), np.zeros(2)], "layer 1 takes 5 inputs, but layer 0 gives"),
            ([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(3), np.zeros(2)], r"layer 0 bias has shape \(3,\)"),
            # a network cut after its hidden layer: its argmax would run over hidden units
            ([np.zeros((4, 3))], [np.zeros(4)], "output dimension 4 differs from candidate count 2"),
            ([np.zeros((4, 3)), np.full((2, 4), np.nan)], [np.zeros(4), np.zeros(2)], "must be finite"),
        ],
    )
    def test_parameters_that_do_not_chain_are_refused(self, weights, biases, message):
        with pytest.raises(ValueError, match=message):
            QNetwork(weights, biases, CandidateSet((-0.5,), (0.0, 1.0)))


class TestSelectDynamics:
    def _net(self, q_values):
        cand = CandidateSet(tuple(0.1 * i for i in range(len(q_values))), (0.0,))
        net = QNetwork([np.zeros((len(q_values), 1))], [np.array(q_values, dtype=float)], cand)
        return net

    def test_greedy_argmax(self):
        idx, _ = select_dynamics(self._net([1.0, 3.0, 2.0]), np.zeros(1), epsilon=0.0)
        assert idx == 1

    def test_tie_breaks_to_lowest_index(self):
        idx, _ = select_dynamics(self._net([2.0, 2.0, 0.0]), np.zeros(1), epsilon=0.0)
        assert idx == 0

    def test_full_exploration_reproducible(self):
        net = self._net([0.0, 0.0, 0.0])
        a = select_dynamics(net, np.zeros(1), 1.0, np.random.default_rng(3))
        b = select_dynamics(net, np.zeros(1), 1.0, np.random.default_rng(3))
        assert a == b

    def test_argmax_invariant_under_shift_and_scale(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = rng.normal(size=6)
            base = int(np.argmax(q))
            assert int(np.argmax(q + 13.7)) == base
            assert int(np.argmax(q * 2.5)) == base

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            select_dynamics(self._net([0.0]), np.zeros(1), epsilon=1.5)
        with pytest.raises(ValueError):
            select_dynamics(self._net([0.0]), np.zeros(1), epsilon=0.5, rng=None)


class TestReward:
    ROUTE = Polyline([(0.0, 0.0), (10.0, 0.0)])

    def _reward(self, prev, nxt, *flags):
        s_prev, _ = self.ROUTE.project((prev.x, prev.y))
        s_next, lateral = self.ROUTE.project((nxt.x, nxt.y))
        return reward(s_prev, s_next, lateral, *flags)

    def test_no_motion_on_centerline(self):
        z = VehicleState(1.0, 0.0, 0.0)
        assert self._reward(z, z, False, False) == 0.0

    def test_progress_minus_cross_track(self):
        prev = VehicleState(1.0, 0.0, 0.0)
        nxt = VehicleState(1.2, 0.1, 0.0)
        got = self._reward(prev, nxt, False, False)
        assert (REWARD_PROGRESS_GAIN, REWARD_CROSS_TRACK_GAIN) == (1.0, 0.5)
        assert got == pytest.approx(1.0 * 0.2 - 0.5 * 0.1)

    def test_crash_and_goal_terms(self):
        z = VehicleState(1.0, 0.0, 0.0)
        assert self._reward(z, z, True, False) == pytest.approx(-10.0)
        assert self._reward(z, z, False, True) == pytest.approx(10.0)


class TestReplayBuffer:
    def test_holds_the_last_replay_capacity_transitions(self, monkeypatch):
        monkeypatch.setattr(policy, "REPLAY_CAPACITY", 5)
        buf = ReplayBuffer()
        for i in range(9):
            buf.push(np.array([float(i)]), i, 0.0, np.array([0.0]), False)
        assert len(buf) == 5
        assert sorted(buf.sample(5, np.random.default_rng(0))[1].tolist()) == [4, 5, 6, 7, 8]

    def test_sampling_reproducible_without_replacement(self):
        buf = ReplayBuffer()
        for i in range(10):
            buf.push(np.array([float(i)]), i, float(i), np.array([0.0]), False)
        a = buf.sample(4, np.random.default_rng(8))
        b = buf.sample(4, np.random.default_rng(8))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert len(set(a[1].tolist())) == 4  # distinct transitions

    def test_sample_size_validation(self):
        buf = ReplayBuffer()
        buf.push(np.zeros(1), 0, 0.0, np.zeros(1), False)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))


def test_epsilon_falls_linearly_to_its_end_over_the_decay_episodes():
    assert epsilon_at(0, 180) == policy.EPSILON_START
    assert epsilon_at(90, 180) == pytest.approx((policy.EPSILON_START + policy.EPSILON_END) / 2)
    assert epsilon_at(180, 180) == epsilon_at(500, 180) == pytest.approx(policy.EPSILON_END)


def make_batch(rng, net, n=8):
    dim = net.layer_sizes[0]
    k = net.layer_sizes[-1]
    S = rng.normal(size=(n, dim))
    A = rng.integers(0, k, size=n)
    R = rng.normal(size=n)
    S2 = rng.normal(size=(n, dim))
    term = (rng.random(n) < 0.3).astype(float)
    return S, A, R, S2, term


def reference_train_step(net, target_net, batch):
    """The Bellman update with fresh gradient arrays on every call, as the
    in-place update must reproduce bit for bit; reads the module's GAMMA and
    LEARNING_RATE at call time, so a monkeypatched value applies to both."""
    S, A, R, S2, term = batch
    n = S.shape[0]
    q_all, cache = net.forward_batch(S)
    q_next, _ = target_net.forward_batch(S2)
    targets = R + policy.GAMMA * q_next.max(axis=1) * (1.0 - term)
    delta = q_all[np.arange(n), A] - targets
    d = np.zeros_like(q_all)
    d[np.arange(n), A] = 2.0 * delta / n
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = d.T @ cache[i]
        grads_b[i] = d.sum(axis=0)
        if i > 0:
            d = (d @ net.weights[i]) * (cache[i] > 0.0)
    for i in range(len(net.weights)):
        net.weights[i] -= policy.LEARNING_RATE * grads_w[i]
        net.biases[i] -= policy.LEARNING_RATE * grads_b[i]


class TestTrainStep:
    def _net(self, rng):
        cand = CandidateSet((-0.5, 0.0, 0.5), (0.0,))
        return QNetwork.initialize((5, 6, 3), cand, rng)

    def test_gamma_zero_targets_equal_rewards(self, monkeypatch):
        monkeypatch.setattr(policy, "GAMMA", 0.0)
        rng = np.random.default_rng(0)
        net = self._net(rng)
        target = net.copy()
        S, A, R, S2, term = make_batch(rng, net)
        q, _ = net.forward_batch(S)
        expect = float(np.mean((q[np.arange(len(A)), A] - R) ** 2))
        loss = train_step(net, target, (S, A, R, S2, term))
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_all_terminal_batch_ignores_target_net(self):
        rng = np.random.default_rng(1)
        net = self._net(rng)
        t1 = net.copy()
        t2 = self._net(np.random.default_rng(99))
        S, A, R, S2, _ = make_batch(rng, net)
        term = np.ones(len(A))
        updated = [net.copy(), net.copy()]
        assert train_step(updated[0], t1, (S, A, R, S2, term)) == train_step(updated[1], t2, (S, A, R, S2, term))
        for a, b in zip(updated[0].weights + updated[0].biases, updated[1].weights + updated[1].biases):
            assert np.array_equal(a, b)

    def test_updates_are_bit_equal_to_the_allocating_expression(self, monkeypatch):
        monkeypatch.setattr(policy, "LEARNING_RATE", 1e-2)
        rng = np.random.default_rng(2)
        cand = CandidateSet.grid()
        net = QNetwork.initialize((40, 16, 12, len(cand)), cand, rng)
        ref = net.copy()
        target = net.copy()
        for _ in range(50):
            batch = make_batch(rng, net, n=16)
            train_step(net, target, batch)
            reference_train_step(ref, target, batch)
            for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
                assert np.array_equal(a, b)

    def test_target_copy_is_unchanged_by_later_steps(self, monkeypatch):
        monkeypatch.setattr(policy, "LEARNING_RATE", 0.1)
        rng = np.random.default_rng(6)
        net = self._net(rng)
        target = net.copy()
        frozen = [p.copy() for p in target.weights + target.biases]
        for _ in range(5):
            train_step(net, target, make_batch(rng, net))
        assert not np.array_equal(net.weights[0], frozen[0])
        for a, b in zip(target.weights + target.biases, frozen):
            assert np.array_equal(a, b)
        assert all(g is not h for g, h in zip(net._grad_w, target._grad_w))

    def test_bellman_update_faults_in_no_fresh_memory(self, monkeypatch):
        monkeypatch.setattr(policy, "LEARNING_RATE", 1e-6)
        resource = pytest.importorskip("resource")
        rng = np.random.default_rng(8)
        cand = CandidateSet.grid()
        net = QNetwork.initialize((744, 128, 64, len(cand)), cand, rng)
        target = net.copy()
        batch = make_batch(rng, net, n=32)
        for _ in range(5):
            train_step(net, target, batch)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            train_step(net, target, batch)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50
        assert faults < 20

    def test_backprop_matches_finite_differences(self, monkeypatch):
        rng = np.random.default_rng(3)
        net = self._net(rng)
        target = self._net(np.random.default_rng(7))
        batch = make_batch(rng, net)
        gamma = 0.95

        def loss_at():
            S, A, R, S2, term = batch
            q, _ = net.forward_batch(S)
            qn, _ = target.forward_batch(S2)
            y = R + gamma * qn.max(axis=1) * (1.0 - term)
            return float(np.mean((q[np.arange(len(A)), A] - y) ** 2))

        # with learning rate 1 the SGD update reveals the gradient exactly
        probe = net.copy()
        monkeypatch.setattr(policy, "LEARNING_RATE", 1.0)
        monkeypatch.setattr(policy, "GAMMA", gamma)
        train_step(probe, target, batch)
        analytic = [a - b for a, b in zip(net.weights + net.biases, probe.weights + probe.biases)]

        worst = 0.0
        checked = 0
        params = net.weights + net.biases
        for arr, grad in zip(params, analytic):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                h = 1e-6
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_at()
                flat[idx] = orig - h
                dn = loss_at()
                flat[idx] = orig
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(fd - gflat[idx]) / denom)
                checked += 1
        assert checked >= 20
        assert worst <= 1e-4

    def test_non_finite_loss_rejected(self):
        rng = np.random.default_rng(4)
        net = self._net(rng)
        S, A, R, S2, term = make_batch(rng, net)
        R = R * float("inf")
        with pytest.raises(ValueError):
            train_step(net, net.copy(), (S, A, R, S2, term))


def perturbed(value, rng):
    """A random valid variant of a config.

    Each float is scaled by a factor in [0.5, 1] (a zero becomes a small
    positive value), each int scaled likewise plus 0-2, and each tuple is
    refilled with 1-4 variants of its first element. Signs are kept, so the
    configs' ordering and range checks still hold. A sensor's ray spacing is
    drawn from the divisors 360 / n of the full turn.
    """
    if isinstance(value, RaySensorConfig):
        return RaySensorConfig(360.0 / int(rng.integers(1, 361)), perturbed(value.max_range_m, rng))
    if is_dataclass(value):
        return replace(value, **{f.name: perturbed(getattr(value, f.name), rng) for f in fields(value)})
    if isinstance(value, tuple):
        return tuple(perturbed(value[0], rng) for _ in range(int(rng.integers(1, 5))))
    if isinstance(value, int):
        return int(value * rng.uniform(0.5, 1.0)) + int(rng.integers(0, 3))
    if isinstance(value, float):
        return value * rng.uniform(0.5, 1.0) if value else rng.uniform(0.0, 0.1)
    return value


class TestTrainConfig:
    @pytest.mark.parametrize(
        "key", ["gamma", "learning_rate", "epsilon_start", "epsilon_end", "target_sync_every", "replay_capacity"]
    )
    def test_fixed_dqn_setting_is_an_unknown_key(self, key):
        # these are module constants (policy.GAMMA and so on), not run settings
        with pytest.raises(ValueError, match=rf"^unknown TrainConfig key\(s\): {key}$"):
            config_from_dict(TrainConfig(), {key: getattr(policy, key.upper())})

    def test_batch_larger_than_the_replay_buffer_is_refused(self):
        # the buffer would never hold a batch, so train would run no update
        assert TrainConfig(batch_size=REPLAY_CAPACITY).batch_size == REPLAY_CAPACITY
        with pytest.raises(ValueError, match=rf"batch_size must be in \[1, REPLAY_CAPACITY = {REPLAY_CAPACITY}\]"):
            TrainConfig(batch_size=REPLAY_CAPACITY + 1)
        with pytest.raises(ValueError, match="batch_size"):
            config_from_dict(TrainConfig(), {"batch_size": REPLAY_CAPACITY + 1})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("episodes", -1, "episodes must be non-negative, got -1"),
            ("epsilon_decay_episodes", 0, "epsilon_decay_episodes must be positive, got 0"),
            ("batch_size", 0, "batch_size must be in [1, "),
            ("max_steps_per_episode", 0, "max_steps_per_episode must be positive, got 0"),
            ("demo_episodes", -1, "demo_episodes must be non-negative, got -1"),
        ],
    )
    def test_each_rule_names_its_own_field(self, field, value, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value).startswith(message)

    def test_zero_episodes_is_accepted(self):
        assert TrainConfig(episodes=0).episodes == 0


class TestConfigFromDict:
    @pytest.mark.parametrize(
        "default",
        [PipelineConfig(), TrainConfig(), RaySensorConfig(), CandidateSet.grid()],
        ids=lambda d: type(d).__name__,
    )
    def test_json_round_trip_is_lossless(self, default):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            cfg = perturbed(default, rng)
            assert cfg != default
            assert config_from_dict(default, json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="max_iter"):
            config_from_dict(PipelineConfig(), {"max_iter": 5})
        with pytest.raises(ValueError, match="max_iter"):
            config_from_dict(PipelineConfig(), {"nmpc": {"max_iter": 5}})

    def test_missing_keys_keep_the_default_instance_values(self):
        cfg = config_from_dict(PipelineConfig(), {"nmpc": {"tau_o": 7}})
        assert cfg.nmpc.tau_o == 7
        assert cfg.nmpc.max_iters == PipelineConfig().nmpc.max_iters == NmpcConfig().max_iters == 4
        assert replace(cfg, nmpc=replace(cfg.nmpc, tau_o=10)) == PipelineConfig()

    def test_numbers_take_the_default_type_and_lists_become_tuples(self):
        cfg = config_from_dict(PipelineConfig(), {"nmpc": {"tau_o": 3.0, "grad_tol": 1}})
        assert type(cfg.nmpc.tau_o) is int and cfg.nmpc.tau_o == 3
        assert type(cfg.nmpc.grad_tol) is float and cfg.nmpc.grad_tol == 1.0
        grid = config_from_dict(CandidateSet.grid(), {"c_values": [-1, 0.5, 1]})
        assert grid.c_values == (-1.0, 0.5, 1.0) and all(type(c) is float for c in grid.c_values)

    @pytest.mark.parametrize(
        "default, data, message",
        [
            (PipelineConfig(), {"nmpc": {"tau_o": 10.9}}, r"NmpcConfig\.tau_o must be an integer, got 10\.9"),
            (PipelineConfig(), {"nmpc": {"tau_o": float("inf")}}, r"NmpcConfig\.tau_o must be an integer, got inf"),
            (PipelineConfig(), {"nmpc": {"max_iters": "6"}}, r"NmpcConfig\.max_iters must be a number, got '6'"),
            (PipelineConfig(), {"nmpc": {"tau_o": True}}, r"NmpcConfig\.tau_o must be a number, got True"),
            (TrainConfig(), {"episodes": True}, r"TrainConfig\.episodes must be a number, got True"),
            (TrainConfig(), {"seed": 2.5}, r"TrainConfig\.seed must be an integer, got 2\.5"),
            (TrainConfig(), {"batch_size": "64"}, r"TrainConfig\.batch_size must be a number, got '64'"),
            (TrainConfig(), {"demo_episodes": False}, r"TrainConfig\.demo_episodes must be a number, got False"),
            (TrainConfig(), {"max_steps_per_episode": None}, r"TrainConfig\.max_steps_per_episode must be a number, got None"),
            (PipelineConfig(), {"nmpc": {"u_max": {"v_cmd": True}}}, r"ControlInput\.v_cmd must be a number, got True"),
            (CandidateSet.grid(), {"c_values": [0.5, "1"]}, r"CandidateSet\.c_values must be a number, got '1'"),
        ],
    )
    def test_values_that_would_be_rounded_or_coerced_are_refused(self, default, data, message):
        # a bool, a string or a non-integral number for an int field, and a
        # bool or a string for a float field; nothing is rounded
        with pytest.raises(ValueError, match=message):
            config_from_dict(default, data)

    def test_validation_still_runs(self):
        with pytest.raises(ValueError):
            config_from_dict(TrainConfig(), {"batch_size": 0})
        with pytest.raises(ValueError):
            config_from_dict(PipelineConfig(), {"nmpc": {"tau_o": 0}})
        with pytest.raises(ValueError):
            config_from_dict(PipelineConfig(), {"nmpc": 3})


def test_candidate_set_ordering_is_curvature_major():
    cand = CandidateSet((-1.0, 0.0, 1.0), (0.0, 1.0))
    assert len(cand) == 6
    assert (cand[0].c, cand[0].w) == (-1.0, 0.0)
    assert (cand[1].c, cand[1].w) == (-1.0, 1.0)
    assert (cand[2].c, cand[2].w) == (0.0, 0.0)
    assert cand[5].c == 1.0
