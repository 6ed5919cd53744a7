import csv
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from visionmpc import nmpc, training
from visionmpc.controllers import DirectController, PipelineConfig
from visionmpc.metrics import MetricsReport, aggregate
from visionmpc.nmpc import NmpcConfig, NmpcError
from visionmpc.policy import N_HISTORY, CandidateSet, QNetwork, TrainConfig, input_size
from visionmpc.sim import Obstacle, RaySensorConfig, Scenario, StepRecord, csv_cell, run_trial, write_csv
from visionmpc.training import EpisodeRecord, initialize_network, load_checkpoint, save_checkpoint, train
from visionmpc.vehicle import ModelParams, VehicleState

from test_policy import perturbed


def tiny_scenario(seed=3, n_rays_deg=30.0, start=VehicleState(0, 0, 0)):
    return Scenario(
        route=((0.0, 0.0), (4.0, 0.0)),
        half_width=0.6,
        start=start,
        goal_radius=0.3,
        v_max=1.0,
        sensor=RaySensorConfig(resolution_deg=n_rays_deg, max_range_m=2.0),
        time_limit_s=10.0,
        seed=seed,
    )


def tiny_pipeline():
    return PipelineConfig(nmpc=NmpcConfig(tau_o=5, max_iters=10, grad_tol=1e-3, f_tol=1e-6))


def tiny_config(episodes=2):
    return TrainConfig(
        episodes=episodes,
        epsilon_decay_episodes=max(1, episodes),
        batch_size=4,
        max_steps_per_episode=8,
        seed=11,
    )


@pytest.fixture(autouse=True)
def sync_inside_tiny_run(monkeypatch):
    # tiny_config's two episodes take at most 16 steps, so one target sync falls inside them
    monkeypatch.setattr(training, "TARGET_SYNC_EVERY", 10)


def test_zero_episodes_returns_initialized_network_unchanged():
    suite = [(tiny_scenario(), ModelParams())]
    pipeline = tiny_pipeline()
    net, log = train(suite, tiny_config(episodes=0), pipeline)
    assert log == []
    reference = initialize_network(suite, pipeline, CandidateSet.grid(), np.random.default_rng(11))
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, reference.weights))


def test_training_is_bit_deterministic():
    suite = [(tiny_scenario(), ModelParams(sigma_f=0.002))]
    pipeline = tiny_pipeline()
    net_a, log_a = train(suite, tiny_config(), pipeline)
    net_b, log_b = train(suite, tiny_config(), pipeline)
    assert log_a == log_b
    assert all(np.array_equal(a, b) for a, b in zip(net_a.weights, net_b.weights))
    assert all(np.array_equal(a, b) for a, b in zip(net_a.biases, net_b.biases))


def test_different_seed_changes_the_run():
    suite = [(tiny_scenario(), ModelParams(sigma_f=0.002))]
    pipeline = tiny_pipeline()
    cfg_a = tiny_config()
    cfg_b = TrainConfig(**{**cfg_a.__dict__, "seed": 12})
    _, log_a = train(suite, cfg_a, pipeline)
    _, log_b = train(suite, cfg_b, pipeline)
    assert log_a != log_b


def test_target_network_syncs_every_target_sync_every_steps(monkeypatch):
    monkeypatch.setattr(training, "TARGET_SYNC_EVERY", 5)
    copies = []
    original = QNetwork.copy

    def counted(net):
        copies.append(None)
        return original(net)

    monkeypatch.setattr(QNetwork, "copy", counted)
    _, log = train([(tiny_scenario(), ModelParams(sigma_f=0.002))], tiny_config(), tiny_pipeline())
    # an episode can end early, so the step count is read from the log
    steps = sum(rec.steps for rec in log)
    assert steps >= 5
    # the initial target copy, then one per 5 training steps
    assert len(copies) == 1 + steps // 5


def test_suite_with_mismatched_sensors_rejected():
    suite = [
        (tiny_scenario(), ModelParams()),
        (tiny_scenario(n_rays_deg=45.0), ModelParams()),
    ]
    with pytest.raises(ValueError, match="sensor layout"):
        train(suite, tiny_config(), tiny_pipeline())


def test_empty_suite_rejected():
    with pytest.raises(ValueError):
        train([], tiny_config(), tiny_pipeline())


def test_round_robin_visits_all_scenarios():
    a = tiny_scenario(seed=1)
    b = Scenario(
        route=((0.0, 0.0), (3.0, 0.5)),
        half_width=0.6,
        start=VehicleState(0, 0, 0),
        goal_radius=0.3,
        v_max=1.0,
        sensor=a.sensor,
        time_limit_s=10.0,
        seed=2,
        name="other",
    )
    suite = [(a, ModelParams()), (b, ModelParams())]
    _, log = train(suite, tiny_config(episodes=4), tiny_pipeline())
    assert [rec.scenario for rec in log] == [a.name, "other", a.name, "other"]


def test_numeric_controller_failure_ends_only_its_episode(monkeypatch):
    # the closed loop's failure rule: an NmpcError from the solver ends the
    # episode as "error", and training goes on with the next episode
    original = nmpc.solve
    calls = []

    def fails_on_third_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NmpcError("synthetic failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(nmpc, "solve", fails_on_third_call)
    _, log = train([(tiny_scenario(), ModelParams())], tiny_config(), tiny_pipeline())
    assert [(rec.status, rec.steps) for rec in log] == [("error", 2), ("timeout", 8)]


def test_episode_starting_in_goal_takes_no_step():
    suite = [(tiny_scenario(start=VehicleState(3.9, 0, 0)), ModelParams())]
    _, log = train(suite, tiny_config(episodes=1), tiny_pipeline())
    assert [(rec.status, rec.steps, rec.ret) for rec in log] == [("goal", 0, 0.0)]


def _training_log():
    return EpisodeRecord, train([(tiny_scenario(), ModelParams())], tiny_config(), tiny_pipeline())[1]


def _trial_log():
    return StepRecord, run_trial(tiny_scenario(), DirectController(tiny_pipeline()), ModelParams()).log


def _report():
    outcome = run_trial(tiny_scenario(), DirectController(tiny_pipeline()), ModelParams())
    return MetricsReport, aggregate({"direct": [outcome], "again": [outcome]})


@pytest.mark.parametrize("records", [_training_log, _trial_log, _report], ids=["training_log", "trial_log", "report"])
def test_csv_columns_are_the_record_fields(tmp_path, records):
    # training logs, trial logs and report tables share one writer
    record_type, rows_in = records()
    path = tmp_path / "out.csv"
    write_csv(path, record_type, rows_in)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = [f.name for f in fields(record_type)]
    assert rows[0] == names
    assert len(rows) > 2
    assert rows[1:] == [[csv_cell(getattr(rec, name)) for name in names] for rec in rows_in]


PIPELINE = PipelineConfig(nmpc=NmpcConfig(tau_o=3))
SENSOR = RaySensorConfig(resolution_deg=60.0, max_range_m=2.0)
SMALL_GRID = CandidateSet((-0.5, 0.5), (0.0, 1.0))


def small_net(rng, candidates=SMALL_GRID, extra_inputs=0):
    """A network for PIPELINE and SENSOR (6 rays), extra_inputs wider than they give."""
    n_inputs = input_size(N_HISTORY, SENSOR.n_rays, PIPELINE.nmpc.tau_o) + extra_inputs
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
        assert payload["format_version"] == 8
        assert set(payload) == {
            "format_version", "weights", "biases", "candidates", "pipeline", "sensor", "sensor_hash",
        }
        # the network's shape is stored once, as its weights' shapes
        assert [np.shape(w) for w in payload["weights"]] == [(4, 34), (4, 4)]
        assert set(payload["pipeline"]) == {"nmpc"}
        assert payload["sensor"] == asdict(SENSOR)
        assert payload["pipeline"]["nmpc"]["tau_o"] == 3

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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    def test_refuses_older_versions(self, tmp_path, version):
        # v1 stored part of the pipeline; a v2 pipeline block names scene
        # settings that are now constants; a v3 file may hold no pipeline;
        # a v4 file stores n_history and tau_o a second time, in its feature
        # block; a v5 pipeline block stores the hidden layers beside layer_sizes;
        # a v6 file stores layer_sizes beside the weights that hold the shape;
        # a v7 pipeline block names n_history, nmpc.e_min and nmpc.e_max, now constants
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(15)), SENSOR, PIPELINE)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}; this release reads 8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("config, key, value", [
        ("PipelineConfig", "n_history", 4), ("NmpcConfig", "e_min", -0.5), ("NmpcConfig", "e_max", 0.5),
    ])
    def test_refuses_a_pipeline_block_naming_a_constant(self, tmp_path, config, key, value):
        # a v7 block's n_history, nmpc.e_min and nmpc.e_max are now the constants
        # policy.N_HISTORY and nmpc.CORRIDOR_M, which no pipeline sets
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(20)), SENSOR, PIPELINE)
        payload = json.loads(path.read_text())
        block = payload["pipeline"] if config == "PipelineConfig" else payload["pipeline"]["nmpc"]
        block[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"^unknown {config} key\(s\): {key}$"):
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

    def test_refuses_a_network_cut_after_its_hidden_layer(self, tmp_path):
        path = tmp_path / "net.json"
        save_checkpoint(path, small_net(np.random.default_rng(19), candidates=CandidateSet.grid()), SENSOR, PIPELINE)
        payload = json.loads(path.read_text())
        del payload["weights"][-1], payload["biases"][-1]
        path.write_text(json.dumps(payload))
        # it would drive, its argmax running over the 4 hidden units
        with pytest.raises(ValueError, match="output dimension 4 differs from candidate count 45"):
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
            (input_size(N_HISTORY, SENSOR.n_rays, pipeline.nmpc.tau_o), 4, len(SMALL_GRID)), SMALL_GRID, rng
        )
        path = tmp_path / "net.json"
        save_checkpoint(path, net, SENSOR, pipeline)
        loaded, sensor, reloaded = load_checkpoint(path)
        assert sensor == SENSOR
        assert reloaded == pipeline
        assert all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases))
        assert loaded.candidates == SMALL_GRID
