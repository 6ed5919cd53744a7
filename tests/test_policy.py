import json
import math
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest

from visionmpc.controllers import PipelineConfig
from visionmpc.geometry import Polyline
from visionmpc.memory import MemoryEntry, Observation
from visionmpc.nmpc import NmpcConfig
from visionmpc.policy import (
    CandidateSet,
    QNetwork,
    REWARD_CROSS_TRACK_GAIN,
    REWARD_PROGRESS_GAIN,
    ReplayBuffer,
    TrainConfig,
    config_from_dict,
    featurize,
    input_size,
    reward,
    select_dynamics,
    train_step,
)
from visionmpc.sim import RaySensorConfig
from visionmpc.training import load_checkpoint, save_checkpoint
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
        net = QNetwork((3, 4, 2), [np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)], cand)
        assert np.all(net.forward(np.ones(3)) == 0.0)

    def test_hand_computed_forward_pass(self):
        cand = CandidateSet((-0.5, 0.5), (0.0,))
        w1 = np.array([[1.0, -1.0], [0.5, 0.25]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, 0.0], [0.0, 3.0]])
        b2 = np.array([0.0, 1.0])
        net = QNetwork((2, 2, 2), [w1, w2], [b1, b2], cand)
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


class TestSelectDynamics:
    def _net(self, q_values):
        cand = CandidateSet(tuple(0.1 * i for i in range(len(q_values))), (0.0,))
        net = QNetwork((1, len(q_values)), [np.zeros((len(q_values), 1))], [np.array(q_values, dtype=float)], cand)
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
    def test_capacity_respected(self):
        buf = ReplayBuffer(capacity=5)
        for i in range(9):
            buf.push(np.array([float(i)]), 0, 0.0, np.array([0.0]), False)
        assert len(buf) == 5

    def test_sampling_reproducible_without_replacement(self):
        buf = ReplayBuffer(capacity=16)
        for i in range(10):
            buf.push(np.array([float(i)]), i, float(i), np.array([0.0]), False)
        a = buf.sample(4, np.random.default_rng(8))
        b = buf.sample(4, np.random.default_rng(8))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert len(set(a[1].tolist())) == 4  # distinct transitions

    def test_sample_size_validation(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(np.zeros(1), 0, 0.0, np.zeros(1), False)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))


def make_batch(rng, net, n=8):
    dim = net.layer_sizes[0]
    k = net.layer_sizes[-1]
    S = rng.normal(size=(n, dim))
    A = rng.integers(0, k, size=n)
    R = rng.normal(size=n)
    S2 = rng.normal(size=(n, dim))
    term = (rng.random(n) < 0.3).astype(float)
    return S, A, R, S2, term


def reference_train_step(net, target_net, batch, cfg):
    """The Bellman update with fresh gradient arrays on every call, as the
    in-place update must reproduce bit for bit."""
    S, A, R, S2, term = batch
    n = S.shape[0]
    q_all, cache = net.forward_batch(S)
    q_next, _ = target_net.forward_batch(S2)
    targets = R + cfg.gamma * q_next.max(axis=1) * (1.0 - term)
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
        net.weights[i] -= cfg.learning_rate * grads_w[i]
        net.biases[i] -= cfg.learning_rate * grads_b[i]


class TestTrainStep:
    def _net(self, rng):
        cand = CandidateSet((-0.5, 0.0, 0.5), (0.0,))
        return QNetwork.initialize((5, 6, 3), cand, rng)

    def test_gamma_zero_targets_equal_rewards(self):
        rng = np.random.default_rng(0)
        net = self._net(rng)
        target = net.copy()
        S, A, R, S2, term = make_batch(rng, net)
        q, _ = net.forward_batch(S)
        expect = float(np.mean((q[np.arange(len(A)), A] - R) ** 2))
        loss = train_step(net, target, (S, A, R, S2, term), TrainConfig(gamma=0.0))
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_all_terminal_batch_ignores_target_net(self):
        rng = np.random.default_rng(1)
        net = self._net(rng)
        t1 = net.copy()
        t2 = self._net(np.random.default_rng(99))
        S, A, R, S2, _ = make_batch(rng, net)
        term = np.ones(len(A))
        cfg = TrainConfig()
        updated = [net.copy(), net.copy()]
        assert train_step(updated[0], t1, (S, A, R, S2, term), cfg) == train_step(
            updated[1], t2, (S, A, R, S2, term), cfg
        )
        for a, b in zip(updated[0].weights + updated[0].biases, updated[1].weights + updated[1].biases):
            assert np.array_equal(a, b)

    def test_updates_are_bit_equal_to_the_allocating_expression(self):
        rng = np.random.default_rng(2)
        cand = CandidateSet.grid()
        net = QNetwork.initialize((40, 16, 12, len(cand)), cand, rng)
        ref = net.copy()
        target = net.copy()
        cfg = TrainConfig(learning_rate=1e-2)
        for _ in range(50):
            batch = make_batch(rng, net, n=16)
            train_step(net, target, batch, cfg)
            reference_train_step(ref, target, batch, cfg)
            for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
                assert np.array_equal(a, b)

    def test_target_copy_is_unchanged_by_later_steps(self):
        rng = np.random.default_rng(6)
        net = self._net(rng)
        target = net.copy()
        frozen = [p.copy() for p in target.weights + target.biases]
        for _ in range(5):
            train_step(net, target, make_batch(rng, net), TrainConfig(learning_rate=0.1))
        assert not np.array_equal(net.weights[0], frozen[0])
        for a, b in zip(target.weights + target.biases, frozen):
            assert np.array_equal(a, b)
        assert all(g is not h for g, h in zip(net._grad_w, target._grad_w))

    def test_bellman_update_faults_in_no_fresh_memory(self):
        resource = pytest.importorskip("resource")
        rng = np.random.default_rng(8)
        cand = CandidateSet.grid()
        net = QNetwork.initialize((744, 128, 64, len(cand)), cand, rng)
        target = net.copy()
        batch = make_batch(rng, net, n=32)
        cfg = TrainConfig(learning_rate=1e-6)
        for _ in range(5):
            train_step(net, target, batch, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            train_step(net, target, batch, cfg)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50
        assert faults < 20

    def test_backprop_matches_finite_differences(self):
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
        train_step(probe, target, batch, TrainConfig(learning_rate=1.0, gamma=gamma))
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
            train_step(net, net.copy(), (S, A, R, S2, term), TrainConfig())


PIPELINE = PipelineConfig(n_history=2, nmpc=NmpcConfig(tau_o=3))
SENSOR = RaySensorConfig(resolution_deg=60.0, max_range_m=2.0)
SMALL_GRID = CandidateSet((-0.5, 0.5), (0.0, 1.0))


def small_net(rng, candidates=SMALL_GRID, extra_inputs=0):
    """A network for PIPELINE and SENSOR (6 rays), extra_inputs wider than they give."""
    n_inputs = input_size(PIPELINE.n_history, SENSOR.n_rays, PIPELINE.nmpc.tau_o) + extra_inputs
    return QNetwork.initialize((n_inputs, 4, len(candidates)), candidates, rng)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = small_net(np.random.default_rng(12), candidates=CandidateSet.grid())
        path = tmp_path / "net.json"
        save_checkpoint(path, net, SENSOR, PIPELINE)
        loaded, sensor, pipeline = load_checkpoint(path)
        assert sensor == SENSOR
        assert pipeline == PIPELINE
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, loaded.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net.biases, loaded.biases))
        assert loaded.candidates == CandidateSet.grid()

    def test_stores_each_layout_setting_once(self, tmp_path):
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(13)), SENSOR, PIPELINE)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 6
        assert set(payload) == {
            "format_version", "layer_sizes", "weights", "biases", "candidates", "pipeline", "sensor", "sensor_hash",
        }
        # the network's shape is stored once, as its layer sizes
        assert set(payload["pipeline"]) == {"nmpc", "n_history"}
        assert payload["sensor"] == asdict(SENSOR)
        assert payload["pipeline"]["n_history"] == 2 and payload["pipeline"]["nmpc"]["tau_o"] == 3

    def test_rejects_tampered_payload(self, tmp_path):
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(14)), SENSOR, PIPELINE)
        payload = json.loads(path.read_text())
        payload["sensor"]["max_range_m"] = 9.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="sensor hash"):
            load_checkpoint(path)
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_refuses_older_versions(self, tmp_path, version):
        # v1 stored part of the pipeline; a v2 pipeline block names scene
        # settings that are now constants; a v3 file may hold no pipeline;
        # a v4 file stores n_history and tau_o a second time, in its feature
        # block; a v5 pipeline block stores the hidden layers beside layer_sizes
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(15)), SENSOR, PIPELINE)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}; this release reads 6"):
            load_checkpoint(path)

    @pytest.mark.parametrize("stored", ["absent", None, {}])
    def test_refuses_a_file_without_its_pipeline(self, tmp_path, stored):
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(18)), SENSOR, PIPELINE)
        payload = json.loads(path.read_text())
        if stored == "absent":
            del payload["pipeline"]
        else:
            payload["pipeline"] = stored
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="stores no pipeline"):
            load_checkpoint(path)

    def test_rejects_input_size_other_than_feature_dim(self, tmp_path):
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(16), extra_inputs=1), SENSOR, PIPELINE)
        with pytest.raises(ValueError, match="feature dimension"):
            load_checkpoint(path)

    def test_full_pipeline_round_trips(self, tmp_path):
        rng = np.random.default_rng(17)
        pipeline = perturbed(PipelineConfig(), rng)
        net = QNetwork.initialize(
            (input_size(pipeline.n_history, SENSOR.n_rays, pipeline.nmpc.tau_o), 4, len(SMALL_GRID)), SMALL_GRID, rng
        )
        path = tmp_path / "net.json"
        save_checkpoint(path, net, SENSOR, pipeline)
        loaded, sensor, reloaded = load_checkpoint(path)
        assert sensor == SENSOR
        assert reloaded == pipeline
        assert all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases))
        assert loaded.candidates == SMALL_GRID


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
    @pytest.mark.parametrize("rate", [0.0, -1e-3])
    def test_non_positive_learning_rate_is_refused(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_is_refused(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_replay_capacity_below_batch_size_is_refused(self):
        # the buffer would never hold a batch, so train would run no update
        with pytest.raises(ValueError, match="replay_capacity"):
            TrainConfig(replay_capacity=31, batch_size=32)
        with pytest.raises(ValueError, match="replay_capacity"):
            config_from_dict(TrainConfig(), {"replay_capacity": 8, "batch_size": 16})
        assert TrainConfig(replay_capacity=32, batch_size=32).replay_capacity == 32


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
        cfg = config_from_dict(PipelineConfig(), {"n_history": 3.0, "nmpc": {"e_max": 1}})
        assert type(cfg.n_history) is int and cfg.n_history == 3
        assert type(cfg.nmpc.e_max) is float and cfg.nmpc.e_max == 1.0
        grid = config_from_dict(CandidateSet.grid(), {"c_values": [-1, 0.5, 1]})
        assert grid.c_values == (-1.0, 0.5, 1.0) and all(type(c) is float for c in grid.c_values)

    @pytest.mark.parametrize(
        "default, data, message",
        [
            (PipelineConfig(), {"nmpc": {"tau_o": 10.9}}, r"NmpcConfig\.tau_o must be an integer, got 10\.9"),
            (PipelineConfig(), {"nmpc": {"tau_o": float("inf")}}, r"NmpcConfig\.tau_o must be an integer, got inf"),
            (PipelineConfig(), {"nmpc": {"max_iters": "6"}}, r"NmpcConfig\.max_iters must be a number, got '6'"),
            (PipelineConfig(), {"n_history": True}, r"PipelineConfig\.n_history must be a number, got True"),
            (TrainConfig(), {"episodes": True}, r"TrainConfig\.episodes must be a number, got True"),
            (TrainConfig(), {"seed": 2.5}, r"TrainConfig\.seed must be an integer, got 2\.5"),
            (TrainConfig(), {"gamma": "0.9"}, r"TrainConfig\.gamma must be a number, got '0\.9'"),
            (TrainConfig(), {"gamma": False}, r"TrainConfig\.gamma must be a number, got False"),
            (TrainConfig(), {"learning_rate": None}, r"TrainConfig\.learning_rate must be a number, got None"),
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
            config_from_dict(TrainConfig(), {"gamma": 1.5})
        with pytest.raises(ValueError):
            config_from_dict(PipelineConfig(), {"nmpc": {"e_min": 1.0}})
        with pytest.raises(ValueError):
            config_from_dict(PipelineConfig(), {"nmpc": 3})


def test_candidate_set_ordering_is_curvature_major():
    cand = CandidateSet((-1.0, 0.0, 1.0), (0.0, 1.0))
    assert len(cand) == 6
    assert (cand[0].c, cand[0].w) == (-1.0, 0.0)
    assert (cand[1].c, cand[1].w) == (-1.0, 1.0)
    assert (cand[2].c, cand[2].w) == (0.0, 0.0)
    assert cand[5].c == 1.0
