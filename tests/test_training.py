import csv
from dataclasses import fields

import numpy as np
import pytest

from visionmpc import nmpc
from visionmpc.controllers import DirectController, PipelineConfig
from visionmpc.metrics import MetricsReport, aggregate
from visionmpc.nmpc import NmpcConfig, NmpcError
from visionmpc.policy import CandidateSet, TrainConfig
from visionmpc.sim import Obstacle, RaySensorConfig, Scenario, StepRecord, csv_cell, run_trial, write_csv
from visionmpc.training import EpisodeRecord, initialize_network, train
from visionmpc.vehicle import ModelParams, VehicleState


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
        target_sync_every=10,
        seed=11,
    )


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
