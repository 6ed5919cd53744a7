import csv
import json
import shutil
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from visionmpc import cli
from visionmpc.cli import _build_controller, _run_pipeline, main
from visionmpc.controllers import DirectController, LvdNmpcController, PipelineConfig
from visionmpc.nmpc import NmpcConfig
from visionmpc.policy import CandidateSet, QNetwork, input_size
from visionmpc.sim import RaySensorConfig, StepRecord, load_scenario, run_trial, write_csv
from visionmpc.training import save_checkpoint, train


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

    @pytest.mark.parametrize(
        "old, new",
        [
            ("start_pose 0.0 0.0 0.0", "start_pose nan 0.0 0.0"),
            ("waypoint_m 1.5 0.0", "waypoint_m inf 0.0"),
            ("time_limit_s 20.0", "time_limit_s inf"),
        ],
    )
    def test_non_finite_scenario_number_is_an_error(self, tmp_path, capsys, old, new):
        text = Path(scenario_path("straight_corridor")).read_text()
        path = tmp_path / "bad.scn"
        path.write_text(text.replace(old + "\n", new + "\n"))
        line = text[: text.index(old)].count("\n") + 1
        rc = run_cli("simulate", "--scenario", str(path), "--method", "direct", "--trials", "1",
                     "--out", str(tmp_path / "o"))
        assert rc == 1
        assert f"error: {path}:{line}: {old.split()[0]} has a non-finite value" in capsys.readouterr().err

    def test_degenerate_obstacle_loop_is_an_error(self, tmp_path, capsys):
        text = Path(scenario_path("straight_corridor")).read_text()
        path = tmp_path / "bad.scn"
        path.write_text(text + "obstacle_dynamic_m 0.1 0.3 3.2 0.45 3.2 0.45\n")
        line = text.count("\n") + 1
        rc = run_cli("simulate", "--scenario", str(path), "--method", "direct", "--trials", "1",
                     "--out", str(tmp_path / "o"))
        assert rc == 1
        assert f"error: {path}:{line}: polyline contains a zero-length segment" in capsys.readouterr().err

    def test_non_finite_pipeline_value_is_an_error(self, tmp_path, capsys):
        # json accepts NaN, and a NaN grad_tol would stop every solve before its first iteration
        pipeline = tmp_path / "p.json"
        pipeline.write_text('{"nmpc": {"grad_tol": NaN}}')
        rc = run_cli("simulate", "--scenario", scenario_path("straight_corridor"), "--method", "dwa-nmpc",
                     "--trials", "1", "--pipeline", str(pipeline), "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: invalid PipelineConfig file {pipeline}: NmpcConfig must be finite, got nan" in err
        assert not (tmp_path / "o").exists()

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
        # the second scenario starts inside its goal radius: every trial is a
        # goal with a log of no row
        in_goal = tmp_path / "in_goal.scn"
        in_goal.write_text(
            Path(scenario_path("straight_corridor")).read_text().replace("start_pose 0.0 0.0", "start_pose 5.9 0.0")
        )
        for name, scenario in (("corridor", scenario_path("straight_corridor")), ("in_goal", str(in_goal))):
            out = tmp_path / name
            run_cli(
                "simulate",
                "--scenario", scenario,
                "--method", "direct",
                "--trials", "3",
                "--out", str(out),
            )
            rc = run_cli("evaluate", "--logs", str(out), "--out", str(tmp_path / f"{name}_again"))
            assert rc == 0
            assert (tmp_path / f"{name}_again.csv").read_bytes() == (out / "report.csv").read_bytes()
            assert (tmp_path / f"{name}_again.json").read_bytes() == (out / "report.json").read_bytes()
        assert json.loads((tmp_path / "in_goal" / "manifest.json").read_text())["statuses"] == ["goal"] * 3

    def test_relative_scenario_path_evaluates_from_another_directory(self, tmp_path, monkeypatch):
        (tmp_path / "scenarios").mkdir()
        shutil.copy(scenario_path("straight_corridor"), tmp_path / "scenarios" / "corridor.scn")
        monkeypatch.chdir(tmp_path)
        rc = run_cli(
            "simulate",
            "--scenario", "scenarios/corridor.scn",
            "--method", "direct",
            "--trials", "1",
            "--out", str(tmp_path / "sim"),
        )
        assert rc == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        rc = run_cli("evaluate", "--logs", str(tmp_path / "sim"), "--out", str(tmp_path / "again.csv"))
        assert rc == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "sim" / "report.csv").read_bytes()

    def test_empty_dir_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        rc = run_cli("evaluate", "--logs", str(empty), "--out", str(tmp_path / "r.csv"))
        assert rc == 1
        assert "nothing to evaluate" in capsys.readouterr().err


class TestEvaluateManifest:
    """A manifest that lacks a key evaluate reads, holds one of the wrong
    type, or is not a JSON object, is a CLI error."""

    def _simulated(self, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli(
            "simulate", "--scenario", scenario_path("straight_corridor"), "--method", "direct",
            "--trials", "1", "--out", str(out),
        )
        assert rc == 0
        return out

    @pytest.mark.parametrize("key", ["method", "scenario", "trials"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        out = self._simulated(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        (out / "manifest.json").write_text(json.dumps(manifest))
        rc = run_cli("evaluate", "--logs", str(out), "--out", str(tmp_path / "r.csv"))
        assert rc == 1
        assert f"has no '{key}' key" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("value", [5, None, ["straight_corridor.scn"]])
    def test_scenario_that_is_not_a_string_is_named(self, tmp_path, capsys, value):
        self._assert_mistyped(tmp_path, capsys, "scenario", value, "'scenario' must be a string")

    @pytest.mark.parametrize("value", [["x"], 5, {"name": "direct"}])
    def test_method_that_is_not_a_string_is_named(self, tmp_path, capsys, value):
        self._assert_mistyped(tmp_path, capsys, "method", value, "'method' must be a string")

    @pytest.mark.parametrize("value", [3, "trial_000.csv", [1], ["trial_000.csv", None]])
    def test_trials_that_are_not_a_list_of_strings_are_named(self, tmp_path, capsys, value):
        self._assert_mistyped(tmp_path, capsys, "trials", value, "'trials' must be a list of strings")

    def _assert_mistyped(self, tmp_path, capsys, key, value, message):
        out = self._simulated(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[key] = value
        (out / "manifest.json").write_text(json.dumps(manifest))
        rc = run_cli("evaluate", "--logs", str(out), "--out", str(tmp_path / "r.csv"))
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_manifest_that_is_not_an_object_is_an_error(self, tmp_path, capsys):
        out = self._simulated(tmp_path)
        (out / "manifest.json").write_text("[1, 2]")
        rc = run_cli("evaluate", "--logs", str(out), "--out", str(tmp_path / "r.csv"))
        assert rc == 1
        assert "is not a JSON object" in capsys.readouterr().err


class TestTrialsArgument:
    """--trials below 1 is a usage error, raised before any output is made."""

    @pytest.mark.parametrize("trials", ["0", "-3", "two"])
    def test_simulate(self, tmp_path, capsys, trials):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--scenario", scenario_path("straight_corridor"), "--method", "direct",
                    "--trials", trials, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--trials" in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3", "two"])
    def test_compare(self, tmp_path, capsys, trials):
        root = tmp_path / "set"
        root.mkdir()
        shutil.copy(scenario_path("straight_corridor"), root / "a.scn")
        out = tmp_path / "t" / "t.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--scenario-set", str(root), "--trials", trials, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--trials" in err
        assert not out.parent.exists()


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

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_is_an_error(self, tmp_path, capsys, cell):
        data = tmp_path / "data.csv"
        data.write_text(f"t,x_est,y_est,x_gt,y_gt,v\n0,1,0,0,0,2\n1,0,1,0,0,{cell}\n")
        rc = run_cli("offline-eval", "--dataset", str(data), "--out", str(tmp_path / "rep.json"))
        assert rc == 1
        assert f"error: cannot read dataset: {data}:3: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

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

    def test_desired_paths_use_the_checkpoint_horizon(self, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"episodes": 1, "max_steps_per_episode": 3, "batch_size": 8}))
        tau_o = 7
        assert tau_o != PipelineConfig().nmpc.tau_o
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps({"nmpc": {"tau_o": tau_o}}))
        ckpt = tmp_path / "net.json"
        scenario = scenario_path("straight_corridor")
        assert run_cli(
            "train", "--scenario-set", str(Path(scenario).parent), "--config", str(config),
            "--pipeline", str(pipeline), "--out", str(ckpt),
        ) == 0
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--scenario", scenario, "--method", "lvd-nmpc", "--trials", "1",
            "--checkpoint", str(ckpt), "--out", str(out),
        ) == 0
        svg_path = tmp_path / "trial.svg"
        assert run_cli(
            "plot", "--log", str(out / "trial_000.csv"), "--scenario", scenario,
            "--checkpoint", str(ckpt), "--out", str(svg_path),
        ) == 0
        desired = [
            line.split('points="')[1].split('"')[0].split()
            for line in svg_path.read_text().splitlines()
            if 'stroke="#22aa55"' in line
        ]
        assert len(desired) == 3
        assert all(len(path) == tau_o for path in desired)


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
        # without --pipeline, train runs and stores the pipeline every command starts from
        assert json.loads(ckpt.read_text())["pipeline"] == asdict(PipelineConfig())
        pipeline, policy = _run_pipeline(None, str(ckpt))
        _build_controller("lvd-nmpc", scenario, pipeline, policy, 0)
        assert pipeline == PipelineConfig()
        assert pipeline.nmpc.max_iters == 4

    def test_reloaded_policy_drives_like_the_trained_one(self, tmp_path, monkeypatch):
        # the network train wrote, reloaded by simulate, logs the same bytes
        # as the in-memory network under the same pipeline
        trained = {}

        def keep_network(suite, cfg, pipeline):
            net, log = train(suite, cfg, pipeline)
            trained.update(net=net, pipeline=pipeline)
            return net, log

        monkeypatch.setattr(cli, "train", keep_network)
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"episodes": 1, "max_steps_per_episode": 5, "batch_size": 4}))
        ckpt = tmp_path / "net.json"
        scenario_file = scenario_path("straight_corridor")
        assert run_cli(
            "train", "--scenario-set", str(Path(scenario_file).parent), "--config", str(config),
            "--seed", "0", "--out", str(ckpt),
        ) == 0
        assert run_cli(
            "simulate", "--scenario", scenario_file, "--method", "lvd-nmpc", "--trials", "1",
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "sim"),
        ) == 0
        scenario, params = load_scenario(scenario_file)
        outcome = run_trial(scenario, LvdNmpcController(trained["net"], trained["pipeline"]), params)
        write_csv(tmp_path / "in_memory.csv", StepRecord, outcome.log)
        assert (tmp_path / "sim" / "trial_000.csv").read_bytes() == (tmp_path / "in_memory.csv").read_bytes()

    def test_checkpoint_for_another_sensor_range_is_rejected(self, tmp_path, capsys):
        # same ray count and hence the same input size, different max range
        ckpt = tmp_path / "net.json"
        write_trained_checkpoint(ckpt, PipelineConfig(), RaySensorConfig(max_range_m=2.0))
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "lvd-nmpc",
            "--trials", "1",
            "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        assert "checkpoint sensor RaySensorConfig(resolution_deg=2.0, max_range_m=2.0) does not match" in (
            capsys.readouterr().err
        )


    def test_checkpoint_without_its_pipeline_is_refused(self, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        write_trained_checkpoint(ckpt, PipelineConfig())
        payload = json.loads(ckpt.read_text())
        del payload["pipeline"]
        ckpt.write_text(json.dumps(payload))
        # at version 3 a pipeline file stood in for the missing block
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps(asdict(PipelineConfig())))
        rc = run_cli(
            "simulate",
            "--scenario", scenario_path("straight_corridor"),
            "--method", "lvd-nmpc",
            "--trials", "1",
            "--checkpoint", str(ckpt),
            "--pipeline", str(pipeline),
            "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        assert "stores no pipeline" in capsys.readouterr().err

    @staticmethod
    def _train(tmp_path, *pipeline_args):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"episodes": 1, "max_steps_per_episode": 3, "batch_size": 8}))
        ckpt = tmp_path / "net.json"
        assert run_cli(
            "train", "--scenario-set", str(Path(scenario_path("straight_corridor")).parent),
            "--config", str(config), "--out", str(ckpt), *pipeline_args,
        ) == 0
        return ckpt

    @staticmethod
    def _simulate(ckpt, out):
        return run_cli(
            "simulate", "--scenario", scenario_path("straight_corridor"), "--method", "lvd-nmpc",
            "--trials", "1", "--checkpoint", str(ckpt), "--out", str(out),
        )

    def test_pipeline_block_without_n_history_keeps_the_default(self, tmp_path):
        # the block decodes as a --pipeline file does: a missing key keeps its default
        ckpt = self._train(tmp_path)
        assert self._simulate(ckpt, tmp_path / "full") == 0
        payload = json.loads(ckpt.read_text())
        del payload["pipeline"]["n_history"]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(payload))
        pipeline, _ = _run_pipeline(None, str(partial))
        assert pipeline == PipelineConfig() and pipeline.n_history == 4
        assert self._simulate(partial, tmp_path / "partial") == 0
        assert (tmp_path / "partial" / "trial_000.csv").read_bytes() == (tmp_path / "full" / "trial_000.csv").read_bytes()

    def test_pipeline_block_without_its_horizon_fails_the_input_size_check(self, tmp_path, capsys):
        tau_o = 7
        assert tau_o != PipelineConfig().nmpc.tau_o
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps({"nmpc": {"tau_o": tau_o}}))
        ckpt = self._train(tmp_path, "--pipeline", str(pipeline))
        payload = json.loads(ckpt.read_text())
        del payload["pipeline"]["nmpc"]["tau_o"]
        ckpt.write_text(json.dumps(payload))
        assert self._simulate(ckpt, tmp_path / "out") == 1
        assert "differs from the feature dimension" in capsys.readouterr().err

    def test_checkpoint_that_is_not_a_json_object_is_refused(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.json"
        ckpt.write_text("[1, 2]")
        assert self._simulate(ckpt, tmp_path / "out") == 1
        assert f"error: cannot load checkpoint {ckpt}: checkpoint must be a JSON object, got list" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("key", ["sensor", "weights", "layer_sizes", "candidates"])
    def test_checkpoint_without_a_key_names_it(self, tmp_path, capsys, key):
        ckpt = tmp_path / "net.json"
        write_trained_checkpoint(ckpt, PipelineConfig())
        payload = json.loads(ckpt.read_text())
        del payload[key]
        ckpt.write_text(json.dumps(payload))
        assert self._simulate(ckpt, tmp_path / "out") == 1
        assert f"error: cannot load checkpoint {ckpt}: checkpoint has no {key!r} key" in capsys.readouterr().err


def write_trained_checkpoint(path, pipeline, sensor=RaySensorConfig()):
    """A checkpoint that stores `pipeline` and `sensor`, by default the bundled scenarios' sensor."""
    cand = CandidateSet.grid()
    n_inputs = input_size(pipeline.n_history, sensor.n_rays, pipeline.nmpc.tau_o)
    net = QNetwork.initialize((n_inputs, 8, len(cand)), cand, np.random.default_rng(0))
    save_checkpoint(path, net, sensor, pipeline)


class TestOnePipelinePerRun:
    def test_pipeline_file_that_differs_from_the_checkpoint_is_an_error(self, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        trained = PipelineConfig(nmpc=NmpcConfig(tau_o=20))
        assert trained != PipelineConfig()
        write_trained_checkpoint(ckpt, trained)
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
        trained = PipelineConfig(nmpc=NmpcConfig(tau_o=20))
        assert trained != PipelineConfig()
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

    @pytest.mark.parametrize(
        "flag, raw, message",
        [
            ("--pipeline", {"nmpc": {"tau_o": 10.9}}, "NmpcConfig.tau_o must be an integer, got 10.9"),
            ("--pipeline", {"nmpc": {"max_iters": "6"}}, "NmpcConfig.max_iters must be a number, got '6'"),
            ("--config", {"episodes": True}, "TrainConfig.episodes must be a number, got True"),
            ("--config", {"seed": 2.5}, "TrainConfig.seed must be an integer, got 2.5"),
        ],
    )
    def test_value_the_decoder_would_round_or_coerce_is_an_error(self, tmp_path, capsys, flag, raw, message):
        # a tiny run, so a decoder that let the value through fails fast
        files = {"--config": {"episodes": 1, "max_steps_per_episode": 3, "batch_size": 4}, "--pipeline": {}}
        files[flag] = {**files[flag], **raw}
        args = []
        for option, content in files.items():
            path = tmp_path / f"{option[2:]}.json"
            path.write_text(json.dumps(content))
            args += [option, str(path)]
        rc = run_cli(
            "train", "--scenario-set", str(Path(scenario_path("straight_corridor")).parent),
            *args, "--out", str(tmp_path / "n.json"),
        )
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "n.json").exists()


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
