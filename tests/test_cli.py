import csv
import json
import shutil
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from visionmpc import cli
from visionmpc.cli import _build_controller, _default_training_pipeline, _run_pipeline, main
from visionmpc.controllers import DirectController, PipelineConfig
from visionmpc.policy import CandidateSet, QNetwork, save_checkpoint
from visionmpc.sim import load_scenario


def scenario_path(name):
    return str(resources.files("visionmpc.scenarios") / f"{name}.scn")


def run_cli(*args):
    return main(list(args))


class TestSimulate:
    def test_deterministic_byte_identical_outputs(self, tmp_path):
        for sub in ("a", "b"):
            rc = run_cli(
                "simulate",
                "--scenario", scenario_path("straight_corridor"),
                "--method", "direct",
                "--trials", "3",
                "--seed", "9",
                "--out", str(tmp_path / sub),
            )
            assert rc == 0
        for name in ("trial_000.csv", "trial_001.csv", "trial_002.csv", "report.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_writes_manifest_and_reports(self, tmp_path):
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "direct",
            "--trials", "2",
            "--out", str(tmp_path / "out"),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["method"] == "direct"
        assert len(manifest["trials"]) == 2
        assert (tmp_path / "out" / "report.json").exists()

    def test_unreadable_scenario_fails(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--scenario", str(tmp_path / "missing.scn"),
            "--method", "direct", "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_lvd_without_checkpoint_runs_with_seeded_policy(self, tmp_path):
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "lvd-nmpc",
            "--trials", "1",
            "--seed", "4",
            "--out", str(tmp_path / "lvd"),
        )
        assert rc == 0


class TestEvaluateRoundTrip:
    def test_report_matches_simulate_output_exactly(self, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "direct",
            "--trials", "3",
            "--out", str(out),
        )
        rc = run_cli("evaluate", "--logs", str(out), "--out", str(tmp_path / "again.csv"))
        assert rc == 0
        assert (tmp_path / "again.csv").read_bytes() == (out / "report.csv").read_bytes()

    def test_empty_dir_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        rc = run_cli("evaluate", "--logs", str(empty), "--out", str(tmp_path / "r.csv"))
        assert rc == 1
        assert "nothing to evaluate" in capsys.readouterr().err


class TestOfflineEval:
    def test_two_record_example(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x_est", "y_est", "x_gt", "y_gt", "v"])
            writer.writerow([0.0, 1.0, 0.0, 0.0, 0.0, 2.0])
            writer.writerow([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        rc = run_cli("offline-eval", "--dataset", str(data), "--out", str(tmp_path / "rep.json"))
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["e_xy_m"] == pytest.approx(1.5)

    def test_missing_dataset(self, tmp_path, capsys):
        rc = run_cli("offline-eval", "--dataset", str(tmp_path / "no.csv"), "--out", str(tmp_path / "r.json"))
        assert rc == 1


class TestPlot:
    def test_renders_svg(self, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate",
            "--scenario", scenario_path("corridor_two_obstacles"),
            "--method", "direct",
            "--trials", "1",
            "--out", str(out),
        )
        rc = run_cli(
            "plot",
            "--log", str(out / "trial_000.csv"),
            "--scenario", scenario_path("corridor_two_obstacles"),
            "--out", str(tmp_path / "trial.svg"),
        )
        assert rc == 0
        svg = (tmp_path / "trial.svg").read_text()
        assert svg.startswith("<svg")
        assert "circle" in svg  # obstacles and goal
        assert "polyline" in svg


class TestTrain:
    def test_tiny_training_run_deterministic(self, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "episodes": 2,
            "epsilon_decay_episodes": 2,
            "max_steps_per_episode": 12,
            "batch_size": 8,
            "seed": 5,
        }))
        outs = []
        for sub in ("a", "b"):
            ckpt = tmp_path / sub / "net.json"
            rc = run_cli(
                "train",
                "--scenario-set", str(Path(scenario_path("straight_corridor")).parent),
                "--config", str(config),
                "--out", str(ckpt),
            )
            assert rc == 0
            outs.append(ckpt)
        log_a = outs[0].with_suffix(".json.log.csv").read_bytes()
        log_b = outs[1].with_suffix(".json.log.csv").read_bytes()
        assert log_a == log_b
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_config_that_is_not_an_object_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text("[1, 2]")
        rc = run_cli(
            "train",
            "--scenario-set", str(Path(scenario_path("straight_corridor")).parent),
            "--config", str(config),
            "--seed", "1",
            "--out", str(tmp_path / "n.json"),
        )
        assert rc == 1
        assert "TrainConfig expects a JSON object" in capsys.readouterr().err

    def test_no_scenarios_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = run_cli("train", "--scenario-set", str(empty), "--out", str(tmp_path / "n.json"))
        assert rc == 1


    def test_set_with_differing_sensors_is_refused_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", None)
        good = Path(scenario_path("straight_corridor")).read_text()
        assert "sensor_resolution_deg 2\n" in good
        root = tmp_path / "set"
        root.mkdir()
        (root / "a.scn").write_text(good)
        coarse = good.replace("sensor_resolution_deg 2\n", "sensor_resolution_deg 4\n")
        (root / "b.scn").write_text(coarse.replace("name straight_corridor", "name coarse_scan"))
        rc = run_cli("train", "--scenario-set", str(root), "--out", str(tmp_path / "n.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: all scenarios in a training suite must share a sensor layout")
        assert "straight_corridor has 180 rays to 3 m, coarse_scan has 90 rays to 3 m" in err
        assert not (tmp_path / "n.json").exists()


class TestPeriodMismatch:
    """A scenario whose dt_s differs from the pipeline's nmpc.dt stops the run before any trial."""

    def _scenario_set(self, tmp_path):
        # a matching scenario sorts first, so a per-trial check would run it
        good = Path(scenario_path("straight_corridor")).read_text()
        assert "dt_s 0.05" in good
        root = tmp_path / "set"
        root.mkdir()
        (root / "a_good.scn").write_text(good)
        bad = good.replace("dt_s 0.05", "dt_s 0.1").replace("name straight_corridor", "name bad_period")
        (root / "b_bad.scn").write_text(bad)
        return root

    def _assert_refused(self, rc, capsys):
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad_period" in err
        assert "dt_s 0.1 s differs from the controller period nmpc.dt 0.05 s" in err

    def test_simulate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_trial", None)
        root = self._scenario_set(tmp_path)
        out = tmp_path / "out"
        rc = run_cli("simulate", "--scenario", str(root / "b_bad.scn"), "--method", "direct", "--out", str(out))
        self._assert_refused(rc, capsys)
        assert not out.exists()

    def test_compare(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_trial", None)
        root = self._scenario_set(tmp_path)
        rc = run_cli("compare", "--scenario-set", str(root), "--trials", "1", "--out", str(tmp_path / "t.csv"))
        self._assert_refused(rc, capsys)

    def test_train(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", None)
        root = self._scenario_set(tmp_path)
        rc = run_cli("train", "--scenario-set", str(root), "--out", str(tmp_path / "n.json"))
        self._assert_refused(rc, capsys)


class TestCheckpointReload:
    def test_trained_checkpoint_reloads_its_training_pipeline(self, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"episodes": 1, "max_steps_per_episode": 3, "batch_size": 8}))
        ckpt = tmp_path / "net.json"
        rc = run_cli(
            "train",
            "--scenario-set", str(Path(scenario_path("straight_corridor")).parent),
            "--config", str(config),
            "--out", str(ckpt),
        )
        assert rc == 0
        scenario, _ = load_scenario(scenario_path("straight_corridor"))
        pipeline, policy = _run_pipeline(None, str(ckpt))
        _build_controller("lvd-nmpc", scenario, pipeline, policy, 0)
        assert pipeline == _default_training_pipeline()
        assert pipeline.nmpc.max_iters == 25

    def test_checkpoint_for_another_sensor_range_is_rejected(self, tmp_path, capsys):
        # same ray count and hence the same input size, different max range
        fc = PipelineConfig().feature_config(sensor_rays=180, max_range=2.0)
        cand = CandidateSet.grid()
        net = QNetwork.initialize((fc.dim, 8, len(cand)), cand, np.random.default_rng(0))
        ckpt = tmp_path / "net.json"
        save_checkpoint(ckpt, net, fc)
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "lvd-nmpc",
            "--trials", "1",
            "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        assert "feature layout" in capsys.readouterr().err


def write_trained_checkpoint(path, pipeline):
    """A checkpoint for the bundled scenarios' sensor that stores `pipeline`."""
    fc = pipeline.feature_config(sensor_rays=180, max_range=3.0)
    cand = CandidateSet.grid()
    net = QNetwork.initialize((fc.dim, 8, len(cand)), cand, np.random.default_rng(0))
    save_checkpoint(path, net, fc, pipeline_meta=asdict(pipeline))


class TestOnePipelinePerRun:
    def test_pipeline_file_that_differs_from_the_checkpoint_is_an_error(self, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        write_trained_checkpoint(ckpt, _default_training_pipeline())
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps(asdict(PipelineConfig())))
        scenario_set = tmp_path / "set"
        scenario_set.mkdir()
        shutil.copy(scenario_path("straight_corridor"), scenario_set)
        for argv in (
            ("compare", "--scenario-set", str(scenario_set), "--trials", "1", "--out", str(tmp_path / "t.csv")),
            ("simulate", "--scenario", scenario_path("straight_corridor"), "--method", "direct",
             "--trials", "1", "--out", str(tmp_path / "out")),
        ):
            rc = run_cli(*argv, "--checkpoint", str(ckpt), "--pipeline", str(pipeline))
            assert rc == 1
            err = capsys.readouterr().err
            assert str(pipeline) in err and str(ckpt) in err

    def test_compare_runs_every_method_under_the_checkpoint_pipeline(self, tmp_path, monkeypatch):
        trained = _default_training_pipeline()
        ckpt = tmp_path / "net.json"
        write_trained_checkpoint(ckpt, trained)
        same = tmp_path / "pipeline.json"
        same.write_text(json.dumps(asdict(trained)))
        scenario_set = tmp_path / "set"
        scenario_set.mkdir()
        shutil.copy(scenario_path("straight_corridor"), scenario_set)
        seen = {}

        def record(method, scenario, pipeline, policy, seed):
            # a fast stand-in controller; the pipeline handed over is what counts
            seen[method] = (pipeline, policy is not None)
            return DirectController(pipeline)

        monkeypatch.setattr(cli, "_build_controller", record)
        for extra in ((), ("--pipeline", str(same))):
            seen.clear()
            rc = run_cli(
                "compare", "--scenario-set", str(scenario_set), "--trials", "1",
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "t.csv"), *extra,
            )
            assert rc == 0
            assert seen == {m: (trained, True) for m in ("lvd-nmpc", "dwa-nmpc", "direct")}


class TestPipelineFile:
    def test_unknown_nested_key_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps({"nmpc": {"max_iter": 5}}))
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "direct",
            "--trials", "1",
            "--pipeline", str(path),
            "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        assert "max_iter" in capsys.readouterr().err

    def test_removed_scene_setting_is_named(self, tmp_path, capsys):
        # the scene gains and look-ahead are constants, not pipeline keys
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps({"k_lat": 0.0}))
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "direct",
            "--trials", "1",
            "--pipeline", str(path),
            "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        assert "unknown PipelineConfig key(s): k_lat" in capsys.readouterr().err


class TestEnvOverride:
    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VISIONMPC_OUT_DIR", str(tmp_path))
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "direct",
            "--trials", "1",
            "--out", "rel_out",
        )
        assert rc == 0
        assert (tmp_path / "rel_out" / "trial_000.csv").exists()


def test_unknown_method_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", "x", "--method", "bogus", "--out", "y"])
