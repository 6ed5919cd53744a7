"""Tests of the benchmark itself, on runs shrunk to a few steps.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = run.Sizes(
    trial_time_limit_s=0.5,
    direct_rounds=1,
    train_episodes=2,
    train_demo_episodes=1,
    train_max_steps=40,
    latency_trials=1,
    latency_time_limit_s=0.25,
)


def _last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace, capsys, tmp_path):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    if trace:
        argv += ["--spans", str(tmp_path / "spans.jsonl")]
    assert run.main(argv, sizes=TINY) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if trace:
        spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert [s["id"] for s in spans] == list(range(len(spans)))
        for s in spans:
            assert s["parent"] is None or s["parent"] > s["id"]  # a parent ends after its children
            assert s["end"] >= s["start"]
        assert {"controllers.step", "sim.sense", "sim.sim_step"} <= {s["name"] for s in spans}


def _direct_outcome():
    suite, pipeline, controllers = run.prepare("direct_suite", 5, TINY)
    (scenario, params), controller = suite[0], controllers[0]
    return run.sim.run_trial(scenario, controller, params, trial_index=0), pipeline.nmpc


def test_check_accepts_a_real_log():
    outcome, cfg = _direct_outcome()
    assert outcome.steps > 3
    assert run.check_trial(outcome, cfg) == []


def test_check_rejects_out_of_bounds_control():
    outcome, cfg = _direct_outcome()
    log = list(outcome.log)
    log[2] = dataclasses.replace(log[2], v_cmd=cfg.u_max.v_cmd + 0.01)
    bad = run.check_trial(dataclasses.replace(outcome, log=tuple(log)), cfg)
    assert any("step 2: v_cmd" in line and "actuator" in line for line in bad)


def test_check_rejects_rate_jump_and_bad_event():
    outcome, cfg = _direct_outcome()
    log = list(outcome.log)
    log[1] = dataclasses.replace(log[1], omega_cmd=cfg.u_max.omega_cmd, event="oops")
    bad = run.check_trial(dataclasses.replace(outcome, log=tuple(log)), cfg)
    assert any("step 1: omega_cmd change" in line for line in bad)
    assert any("invalid event 'oops'" in line for line in bad)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reproduces_untraced_hash(workload):
    plain = run.run(workload, 4, 0.0, trace=False, sizes=TINY)
    traced = run.run(workload, 4, 0.0, trace=True, sizes=TINY)
    assert plain["trajectory_sha256"] == traced["trajectory_sha256"]
    other_seed = run.run(workload, 5, 0.0, trace=True, sizes=TINY)
    assert other_seed["trajectory_sha256"] != plain["trajectory_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "direct_suite", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_summarize_quartiles_and_hash_guard():
    import summarize

    def report(seed, rate, sha="a", trace=0):
        name = "trace.steps_per_s" if trace else "steps_per_s"
        return {
            "workload": "w", "seed": seed, "seconds": 30, "trace": trace, "machine": {}, "violations": [],
            "failed": 0, "trajectory_sha256": sha, "metrics": {name: {"value": rate, "unit": "1/s"}},
        }

    reports = [report(s, r) for s, r in zip(range(1, 6), [10.0, 12.0, 11.0, 9.0, 13.0])] + [report(1, 10.0, trace=1)]
    entry = summarize.summarize(reports, "x")["workloads"]["w"]
    row = entry["metrics"]["steps_per_s"]
    assert row["median"] == 11.0 and row["runs"] == 5
    assert (row["q1"], row["q3"]) == (9.5, 12.5)
    assert row["spread"] == 3.0 / 11.0
    assert entry["trace_overhead_pct"] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        summarize.summarize(reports + [report(1, 10.0, sha="b", trace=1)], "x")
