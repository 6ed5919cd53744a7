import json
import math
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest

from visionmpc.controllers import PipelineConfig
from visionmpc.geometry import Polyline
from visionmpc.memory import MemoryEntry, Observation
from visionmpc.policy import (
    CandidateSet,
    FeatureConfig,
    QNetwork,
    ReplayBuffer,
    RewardConfig,
    TrainConfig,
    config_from_dict,
    featurize,
    load_checkpoint,
    reward,
    save_checkpoint,
    select_dynamics,
    train_step,
)
from visionmpc.vehicle import VehicleState

FC = FeatureConfig(n_history=3, ray_count=8, max_range=2.0, tau_o=4)


def make_window(offset=(0.0, 0.0), n=3, rays_value=2.0):
    entries = []
    for i in range(n):
        t = 0.05 * i
        obs = Observation(rays=np.full(FC.ray_count, rays_value), timestamp=t)
        state = VehicleState(0.1 * i + offset[0], offset[1], 0.0)
        entries.append(MemoryEntry(observation=obs, state=state))
    return entries


def make_ref(offset=(0.0, 0.0), n=4):
    x0 = 0.2 + offset[0]
    return [VehicleState(x0 + 0.1 * i, offset[1], 0.0) for i in range(n)]


class TestFeaturize:
    def test_shape_and_saturated_rays(self):
        f = featurize(make_window(), make_ref(), FC)
        assert f.shape == (FC.dim,)
        assert np.all(f[: FC.n_history * FC.ray_count] == 1.0)
        # reference dead ahead: lateral waypoint coordinates all zero
        wp = f[FC.n_history * FC.ray_count : FC.n_history * FC.ray_count + 2 * FC.tau_o]
        assert np.all(wp[1::2] == 0.0)

    def test_translation_invariance(self):
        base = featurize(make_window(), make_ref(), FC)
        moved = featurize(make_window(offset=(10.0, -5.0)), make_ref(offset=(10.0, -5.0)), FC)
        assert np.allclose(base, moved, atol=1e-9)

    def test_speed_block(self):
        f = featurize(make_window(), make_ref(), FC)
        speeds = f[-FC.n_history :]
        assert speeds[0] == 0.0
        assert speeds[1] == pytest.approx(0.1 / 0.05)
        assert speeds[2] == pytest.approx(0.1 / 0.05)

    def test_window_length_enforced(self):
        with pytest.raises(ValueError):
            featurize(make_window(n=2), make_ref(), FC)
        with pytest.raises(ValueError):
            featurize([], make_ref(), FC)
        with pytest.raises(ValueError):
            featurize(make_window(), make_ref(n=3), FC)


class TestQNetwork:
    def test_zero_parameters_give_zero_outputs(self):
        cand = CandidateSet.grid(k_c=1, k_w=2)
        net = QNetwork((3, 4, 2), [np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)], cand)
        assert np.all(net.forward(np.ones(3)) == 0.0)

    def test_hand_computed_forward_pass(self):
        cand = CandidateSet.grid(k_c=2, k_w=1)
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
        cand = CandidateSet.grid(k_c=3, k_w=1)
        rng = np.random.default_rng(0)
        net = QNetwork.initialize((5, 4, 3), cand, rng)
        net.weights[0][:] = 0.0
        out = net.forward(rng.normal(size=5))
        assert out == pytest.approx((net.weights[1] @ net.biases[0] + net.biases[1]).tolist())

    def test_dimension_mismatch_rejected(self):
        cand = CandidateSet.grid(k_c=1, k_w=2)
        net = QNetwork.initialize((3, 4, 2), cand, np.random.default_rng(1))
        with pytest.raises(ValueError):
            net.forward(np.ones(4))


class TestSelectDynamics:
    def _net(self, q_values):
        cand = CandidateSet.grid(k_c=len(q_values), k_w=1)
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

    def _reward(self, prev, nxt, *flags_and_cfg):
        s_prev, _ = self.ROUTE.project((prev.x, prev.y))
        s_next, lateral = self.ROUTE.project((nxt.x, nxt.y))
        return reward(s_prev, s_next, lateral, *flags_and_cfg)

    def test_no_motion_on_centerline(self):
        z = VehicleState(1.0, 0.0, 0.0)
        assert self._reward(z, z, False, False) == 0.0

    def test_progress_minus_cross_track(self):
        prev = VehicleState(1.0, 0.0, 0.0)
        nxt = VehicleState(1.2, 0.1, 0.0)
        got = self._reward(prev, nxt, False, False, RewardConfig())
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


class TestTrainStep:
    def _net(self, rng):
        cand = CandidateSet.grid(k_c=3, k_w=1)
        return QNetwork.initialize((5, 6, 3), cand, rng)

    def test_gamma_zero_targets_equal_rewards(self):
        rng = np.random.default_rng(0)
        net = self._net(rng)
        target = net.copy()
        S, A, R, S2, term = make_batch(rng, net)
        cfg = TrainConfig(gamma=0.0, learning_rate=0.0)
        loss = train_step(net, target, (S, A, R, S2, term), cfg)
        q, _ = net.forward_batch(S)
        expect = float(np.mean((q[np.arange(len(A)), A] - R) ** 2))
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_all_terminal_batch_ignores_target_net(self):
        rng = np.random.default_rng(1)
        net = self._net(rng)
        t1 = net.copy()
        t2 = self._net(np.random.default_rng(99))
        S, A, R, S2, _ = make_batch(rng, net)
        term = np.ones(len(A))
        cfg = TrainConfig(learning_rate=0.0)
        assert train_step(net, t1, (S, A, R, S2, term), cfg) == train_step(
            net, t2, (S, A, R, S2, term), cfg
        )

    def test_zero_learning_rate_keeps_parameters_bit_identical(self):
        rng = np.random.default_rng(2)
        net = self._net(rng)
        before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
        train_step(net, net.copy(), make_batch(rng, net), TrainConfig(learning_rate=0.0))
        after = net.weights + net.biases
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

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


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        cand = CandidateSet.grid()
        fc = FeatureConfig(n_history=2, ray_count=6, max_range=2.0, tau_o=3)
        net = QNetwork.initialize((fc.dim, 8, len(cand)), cand, rng)
        path = tmp_path / "net.json"
        save_checkpoint(path, net, fc, pipeline_meta={"tau_o": 3})
        loaded, fc2, meta = load_checkpoint(path, expect_feature=fc)
        assert fc2 == fc
        assert meta == {"tau_o": 3}
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, loaded.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net.biases, loaded.biases))
        assert loaded.candidates == cand

    def test_rejects_feature_mismatch(self, tmp_path):
        rng = np.random.default_rng(13)
        cand = CandidateSet.grid(k_c=2, k_w=2)
        fc = FeatureConfig(n_history=2, ray_count=6, max_range=2.0, tau_o=3)
        net = QNetwork.initialize((fc.dim, 4, len(cand)), cand, rng)
        path = tmp_path / "net.json"
        save_checkpoint(path, net, fc)
        other = FeatureConfig(n_history=2, ray_count=6, max_range=2.5, tau_o=3)
        with pytest.raises(ValueError):
            load_checkpoint(path, expect_feature=other)

    def test_rejects_tampered_payload(self, tmp_path):
        import json

        rng = np.random.default_rng(14)
        cand = CandidateSet.grid(k_c=2, k_w=2)
        fc = FeatureConfig(n_history=1, ray_count=4, max_range=1.0, tau_o=2)
        net = QNetwork.initialize((fc.dim, 4, len(cand)), cand, rng)
        path = tmp_path / "net.json"
        save_checkpoint(path, net, fc)
        payload = json.loads(path.read_text())
        payload["feature"]["max_range"] = 9.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(path)
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_refuses_older_versions(self, tmp_path, version):
        # v1 stored part of the pipeline; a v2 pipeline block names scene
        # settings that are now constants
        rng = np.random.default_rng(15)
        cand = CandidateSet.grid(k_c=2, k_w=2)
        fc = FeatureConfig(n_history=1, ray_count=4, max_range=1.0, tau_o=2)
        path = tmp_path / "net.json"
        save_checkpoint(path, QNetwork.initialize((fc.dim, 4, len(cand)), cand, rng), fc)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"version {version}"):
            load_checkpoint(path)

    def test_rejects_input_size_other_than_feature_dim(self, tmp_path):
        rng = np.random.default_rng(16)
        cand = CandidateSet.grid(k_c=2, k_w=2)
        fc = FeatureConfig(n_history=1, ray_count=4, max_range=1.0, tau_o=2)
        path = tmp_path / "net.json"
        save_checkpoint(path, QNetwork.initialize((fc.dim + 1, 4, len(cand)), cand, rng), fc)
        with pytest.raises(ValueError, match="feature dimension"):
            load_checkpoint(path)

    def test_full_pipeline_round_trips(self, tmp_path):
        rng = np.random.default_rng(17)
        cand = CandidateSet.grid(k_c=2, k_w=2)
        pipeline = perturbed(PipelineConfig(), rng)
        fc = pipeline.feature_config(6, 2.0)
        path = tmp_path / "net.json"
        save_checkpoint(path, QNetwork.initialize((fc.dim, 4, len(cand)), cand, rng), fc, pipeline_meta=asdict(pipeline))
        _, fc2, meta = load_checkpoint(path, expect_feature=fc)
        assert fc2 == fc
        assert config_from_dict(PipelineConfig(), meta) == pipeline


def test_feature_hash_is_stable():
    # the value written by every earlier release for this layout
    assert FeatureConfig(4, 180, 3.0, 20).hash() == "34922848a3d5c36d1df2043b2b1cc50a6e1a8a53af6f2e594634c00bb5b8c661"


def perturbed(value, rng):
    """A random valid variant of a config.

    Each float is scaled by a factor in [0.5, 1] (a zero becomes a small
    positive value), each int scaled likewise plus 0-2, and each tuple is
    refilled with 1-4 variants of its first element. Signs are kept, so the
    configs' ordering and range checks still hold.
    """
    if is_dataclass(value):
        return replace(value, **{f.name: perturbed(getattr(value, f.name), rng) for f in fields(value)})
    if isinstance(value, tuple):
        return tuple(perturbed(value[0], rng) for _ in range(int(rng.integers(1, 5))))
    if isinstance(value, int):
        return int(value * rng.uniform(0.5, 1.0)) + int(rng.integers(0, 3))
    if isinstance(value, float):
        return value * rng.uniform(0.5, 1.0) if value else rng.uniform(0.0, 0.1)
    return value


class TestConfigFromDict:
    @pytest.mark.parametrize(
        "default",
        [PipelineConfig(), TrainConfig(), FeatureConfig(), CandidateSet.grid()],
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
        cfg = config_from_dict(PipelineConfig(), {"nmpc": {"tau_o": 10}})
        assert cfg.nmpc.tau_o == 10
        assert cfg.nmpc.max_iters == PipelineConfig().nmpc.max_iters == 40
        assert replace(cfg, nmpc=replace(cfg.nmpc, tau_o=20)) == PipelineConfig()

    def test_numbers_take_the_default_type_and_lists_become_tuples(self):
        cfg = config_from_dict(PipelineConfig(), {"n_history": 3.0, "nmpc": {"e_max": 1}, "hidden_layers": [8, 4.0]})
        assert type(cfg.n_history) is int and cfg.n_history == 3
        assert type(cfg.nmpc.e_max) is float and cfg.nmpc.e_max == 1.0
        assert cfg.hidden_layers == (8, 4) and all(type(h) is int for h in cfg.hidden_layers)

    def test_validation_still_runs(self):
        with pytest.raises(ValueError):
            config_from_dict(TrainConfig(), {"gamma": 1.5})
        with pytest.raises(ValueError):
            config_from_dict(PipelineConfig(), {"nmpc": {"e_min": 1.0}})
        with pytest.raises(ValueError):
            config_from_dict(PipelineConfig(), {"nmpc": 3})


def test_candidate_set_ordering_is_curvature_major():
    cand = CandidateSet.grid(k_c=3, c_range=(-1.0, 1.0), k_w=2, w_range=(0.0, 1.0))
    assert len(cand) == 6
    assert (cand[0].c, cand[0].w) == (-1.0, 0.0)
    assert (cand[1].c, cand[1].w) == (-1.0, 1.0)
    assert (cand[2].c, cand[2].w) == (0.0, 0.0)
    assert cand[5].c == 1.0
