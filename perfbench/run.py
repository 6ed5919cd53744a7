"""Closed-loop and training benchmark for visionmpc.

Run from the repository root:

    python3 perfbench/run.py --workload dwa_suite --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with no instrumentation.
`--trace 1` installs the span tracer from tracer.py and reports the
per-layer metrics instead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report with units, sample counts, the trajectory
hash and the machine facts. See README.md for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy is first imported. Threaded OpenBLAS
# made the Bellman updates of train_short both slower and less steady on a
# 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import visionmpc
from visionmpc import metrics, sim, training
from visionmpc.controllers import DirectController, DwaNmpcController, LvdNmpcController, PipelineConfig
from visionmpc.nmpc import NmpcConfig
from visionmpc.policy import CandidateSet, TrainConfig

WORKLOADS = ("dwa_suite", "direct_suite", "train_short")
BUNDLED = ("corridor_two_obstacles", "loop", "s_curve", "straight_corridor")
OWN_SCENARIOS = ("corridor_moving_obstacles",)

# the CLI's default training pipeline, written out so the workload stays
# fixed when that default changes
TRAIN_PIPELINE = PipelineConfig(nmpc=NmpcConfig(tau_o=10, max_iters=25, grad_tol=1e-4, f_tol=1e-8))
TRAIN_BATCH = 32
SETUP_REPEATS = 5
# controls may pass a bound by float rounding in the rate clipping
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Work in one run. The defaults define the benchmark; tests shrink them."""

    trial_time_limit_s: float = float("inf")  # cap on each suite trial's simulated time
    direct_rounds: int = 6  # direct_suite rounds in the behaviour set
    train_episodes: int = 5
    train_demo_episodes: int = 4
    train_max_steps: int = 150
    latency_trials: int = 2  # train_short latency trials per scenario
    latency_time_limit_s: float = 7.5  # simulated time of each latency trial


END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "goal_pct": "%",
    "no_crash_pct": "%",
    "ok_step_pct": "%",
}


@dataclass
class Tally:
    """Measurements and check results of one run."""

    steps: int = 0  # controller steps attempted
    rate_steps: int = 0  # steps in the timed work behind steps_per_s
    busy_s: float = 0.0  # wall time of the timed work
    latencies_ms: list = field(default_factory=list)
    failed_steps: int = 0  # steps logged as controller_error, or episodes aborted by NmpcError
    violations: list = field(default_factory=list)  # failed output checks, one line each
    trials: int = 0  # trials in the behaviour set
    goals: int = 0
    crashes: int = 0
    digest: object = field(default_factory=hashlib.sha256)


def _suite(names, directory, seed):
    out = []
    for name in names:
        scenario, params = sim.load_scenario(directory / f"{name}.scn")
        out.append((sim.with_seed(scenario, seed), params))
    return out


def prepare(workload: str, seed: int, sizes: Sizes = Sizes()):
    """Set-up before the first step: scenarios parsed, controllers or network built."""
    bundled_dir = Path(visionmpc.__file__).parent / "scenarios"
    suite = _suite(BUNDLED, bundled_dir, seed)
    if workload == "direct_suite":
        suite += _suite(OWN_SCENARIOS, BENCH_DIR / "scenarios", seed)
    if workload == "train_short":
        pipeline = TRAIN_PIPELINE
        training.initialize_network(suite, pipeline, CandidateSet.grid(), np.random.default_rng(seed))
        return suite, pipeline, None
    suite = [(replace(sc, time_limit_s=min(sc.time_limit_s, sizes.trial_time_limit_s)), p) for sc, p in suite]
    pipeline = PipelineConfig()
    make = DwaNmpcController if workload == "dwa_suite" else DirectController
    return suite, pipeline, [make(pipeline) for _ in suite]


def check_trial(outcome: sim.TrialOutcome, cfg: NmpcConfig) -> list[str]:
    """Output checks on one trial log; returns one line per violation.

    Every control lies within the actuator bounds, consecutive controls
    (starting from the zero control every trial starts from) respect the
    rate bounds, and the status and per-row events are valid and agree.
    """
    where = outcome.scenario.name
    bad = []
    if outcome.status not in ("crash", "goal", "timeout"):
        bad.append(f"{where}: invalid status {outcome.status!r}")
    v_lo, v_hi = cfg.u_min.v_cmd - BOUND_TOL, cfg.u_max.v_cmd + BOUND_TOL
    w_lo, w_hi = cfg.u_min.omega_cmd - BOUND_TOL, cfg.u_max.omega_cmd + BOUND_TOL
    dv_lo, dv_hi = cfg.du_min.v_cmd * cfg.dt - BOUND_TOL, cfg.du_max.v_cmd * cfg.dt + BOUND_TOL
    dw_lo, dw_hi = cfg.du_min.omega_cmd * cfg.dt - BOUND_TOL, cfg.du_max.omega_cmd * cfg.dt + BOUND_TOL
    v_prev = w_prev = 0.0
    last = len(outcome.log) - 1
    for i, rec in enumerate(outcome.log):
        if not v_lo <= rec.v_cmd <= v_hi:
            bad.append(f"{where} step {i}: v_cmd {rec.v_cmd!r} outside actuator bounds")
        if not w_lo <= rec.omega_cmd <= w_hi:
            bad.append(f"{where} step {i}: omega_cmd {rec.omega_cmd!r} outside actuator bounds")
        if not dv_lo <= rec.v_cmd - v_prev <= dv_hi:
            bad.append(f"{where} step {i}: v_cmd change {rec.v_cmd - v_prev!r} outside rate bounds")
        if not dw_lo <= rec.omega_cmd - w_prev <= dw_hi:
            bad.append(f"{where} step {i}: omega_cmd change {rec.omega_cmd - w_prev!r} outside rate bounds")
        if rec.event not in ("", "controller_error", "crash", "goal"):
            bad.append(f"{where} step {i}: invalid event {rec.event!r}")
        elif rec.event in ("crash", "goal") and i != last:
            bad.append(f"{where} step {i}: terminal event {rec.event!r} before the last row")
        v_prev, w_prev = rec.v_cmd, rec.omega_cmd
    final_event = outcome.log[-1].event if outcome.log else ""
    if outcome.status in ("crash", "goal") and outcome.log and final_event != outcome.status:
        bad.append(f"{where}: status {outcome.status!r} but last event {final_event!r}")
    if outcome.status == "timeout" and final_event in ("crash", "goal"):
        bad.append(f"{where}: status timeout but last event {final_event!r}")
    return bad


HASHED_COLUMNS = tuple(c for c in sim.LOG_COLUMNS if c != "solve_ms")


def hash_trial(digest, outcome: sim.TrialOutcome, trial_index: int) -> None:
    digest.update(f"trial|{outcome.scenario.name}|{trial_index}|{outcome.status}\n".encode())
    for rec in outcome.log:
        digest.update(("|".join(repr(getattr(rec, c)) for c in HASHED_COLUMNS) + "\n").encode())


def record_trial(tally: Tally, outcome: sim.TrialOutcome, trial_index: int, cfg: NmpcConfig, hashed: bool):
    tally.steps += outcome.steps
    tally.latencies_ms.extend(rec.solve_ms for rec in outcome.log)
    tally.failed_steps += sum(1 for rec in outcome.log if rec.event == "controller_error")
    tally.violations.extend(check_trial(outcome, cfg))
    if hashed:
        hash_trial(tally.digest, outcome, trial_index)


def _run_trial(tally: Tally, scenario, controller, params, trial_index):
    """run_trial with an escaping exception counted as one failed operation."""
    try:
        return sim.run_trial(scenario, controller, params, trial_index=trial_index, record_wall_clock=True)
    except Exception as exc:
        tally.steps += 1
        tally.violations.append(f"{scenario.name} trial {trial_index}: exception escaped: {exc!r}")
        return None


def _more(start: float, unit_s: list, seconds: float) -> bool:
    """True while another unit of typical length ends within the window."""
    return time.perf_counter() - start + statistics.median(unit_s) <= seconds


def run_closed_loop(prepared, seconds: float, rounds: int, tally: Tally) -> None:
    """Rounds of one trial per scenario; round k runs trial index k.

    The first `rounds` rounds always run and form the behaviour set that
    the hash and the goal and crash shares cover. Further rounds run while
    one more is expected to end within `seconds`, and add timing samples.
    """
    suite, pipeline, ctrls = prepared
    outcomes = []
    round_s: list[float] = []
    start = time.perf_counter()
    index = 0
    while index < rounds or _more(start, round_s, seconds):
        t0 = time.perf_counter()
        batch = [_run_trial(tally, sc, ctl, p, index) for (sc, p), ctl in zip(suite, ctrls)]
        round_s.append(time.perf_counter() - t0)
        for outcome in batch:
            if outcome is None:
                continue
            behaviour = index < rounds
            record_trial(tally, outcome, index, pipeline.nmpc, hashed=behaviour)
            tally.rate_steps += outcome.steps
            tally.trials += behaviour
            tally.goals += behaviour and outcome.status == "goal"
            tally.crashes += behaviour and outcome.status == "crash"
            outcomes.append(outcome)
        index += 1
    t0 = time.perf_counter()
    try:
        metrics.aggregate({"benchmark": outcomes})
    except Exception as exc:
        tally.violations.append(f"metrics.aggregate: exception escaped: {exc!r}")
    tally.busy_s += sum(round_s) + time.perf_counter() - t0


def train_config(seed: int, sizes: Sizes) -> TrainConfig:
    return TrainConfig(
        episodes=sizes.train_episodes,
        demo_episodes=sizes.train_demo_episodes,
        max_steps_per_episode=sizes.train_max_steps,
        epsilon_decay_episodes=sizes.train_episodes,
        batch_size=TRAIN_BATCH,
        seed=seed,
    )


def run_train_short(prepared, seed: int, seconds: float, sizes: Sizes, tally: Tally) -> None:
    """Short seeded DQN run, then latency trials of the LVD-NMPC controller.

    steps_per_s covers the training steps. The latency trials run the
    LVD-NMPC controller through run_trial with the scripted chooser of the
    demonstration phase: the trained policy's scene choices, and with them
    the solver's work, differ too much between seeds for a steady latency.
    The goal and crash shares are over the latency trials of the first
    unit; over the few training episodes, one exploring episode that
    crashes would move them by a fifth.
    Further units repeat the same computation while one more is expected
    to end within `seconds`.
    """
    suite, pipeline, _ = prepared
    cfg = train_config(seed, sizes)
    candidates = CandidateSet.grid()

    def demonstrate(obs, features):
        return training.demonstration_action(obs, candidates)

    unit_s: list[float] = []
    start = time.perf_counter()
    index = 0
    while index < 1 or _more(start, unit_s, seconds):
        first = index == 0
        t0 = time.perf_counter()
        try:
            net, log = training.train(suite, cfg, pipeline)
        except Exception as exc:
            tally.steps += 1
            tally.violations.append(f"training.train: exception escaped: {exc!r}")
            break
        train_s = time.perf_counter() - t0
        steps = sum(ep.steps for ep in log)
        aborted = sum(1 for ep in log if ep.status == "error")
        tally.steps += steps + aborted
        tally.rate_steps += steps
        tally.failed_steps += aborted
        tally.busy_s += train_s
        for ep in log:
            if ep.status not in ("goal", "crash", "timeout", "error"):
                tally.violations.append(f"episode {ep.episode}: invalid status {ep.status!r}")
            if first:
                fields = (ep.episode, ep.scenario, ep.steps, ep.ret, ep.epsilon, ep.status, ep.mean_loss)
                tally.digest.update(("episode|" + "|".join(repr(v) for v in fields) + "\n").encode())
        for scenario, params in suite:
            capped = replace(scenario, time_limit_s=min(scenario.time_limit_s, sizes.latency_time_limit_s))
            controller = LvdNmpcController(net, pipeline, action_source=demonstrate)
            for trial_index in range(sizes.latency_trials):
                outcome = _run_trial(tally, capped, controller, params, trial_index)
                if outcome is not None:
                    record_trial(tally, outcome, trial_index, pipeline.nmpc, hashed=first)
                    tally.trials += first
                    tally.goals += first and outcome.status == "goal"
                    tally.crashes += first and outcome.status == "crash"
        unit_s.append(time.perf_counter() - t0)
        index += 1


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Set-up seconds in fresh processes: import, scenario parsing, construction."""
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def steps_per_s(tally: Tally) -> float:
    return tally.rate_steps / tally.busy_s if tally.busy_s > 0 else 0.0


def end_to_end(tally: Tally, setup_times: list) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    lat = tally.latencies_ms
    attempted = max(tally.steps, 1)
    values = {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": steps_per_s(tally),
        "step_ms_p50": percentile(lat, 50),
        "step_ms_p95": percentile(lat, 95),
        "goal_pct": 100.0 * tally.goals / tally.trials if tally.trials else 0.0,
        "no_crash_pct": 100.0 * (tally.trials - tally.crashes) / tally.trials if tally.trials else 0.0,
        "ok_step_pct": 100.0 * (attempted - tally.failed_steps) / attempted,
    }
    counts = {
        "setup_s": len(setup_times),
        "steps_per_s": tally.rate_steps,
        "step_ms_p50": len(lat),
        "step_ms_p95": len(lat),
        "goal_pct": tally.trials,
        "no_crash_pct": tally.trials,
        "ok_step_pct": tally.steps,
    }
    return values, counts


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(), spans_path=None) -> dict:
    """Run one workload and return the full report (see main for the printed form)."""
    prepared = prepare(workload, seed, sizes)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    tally = Tally()
    started = time.perf_counter()
    try:
        if workload == "train_short":
            run_train_short(prepared, seed, seconds, sizes, tally)
        else:
            rounds = sizes.direct_rounds if workload == "direct_suite" else 1
            run_closed_loop(prepared, seconds, rounds, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = time.perf_counter() - started
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(),
        "trajectory_sha256": tally.digest.hexdigest(),
        "behaviour_set": tally.trials,
        "goals": tally.goals,
        "crashes": tally.crashes,
        "controller_errors": tally.failed_steps,
        "violations": tally.violations,
        "attempted": max(tally.steps, 1),
        "failed": tally.failed_steps + len(tally.violations),
    }
    if tracer is None:
        values, counts = end_to_end(tally, measure_setup(workload, seed))
        units = END_TO_END_UNITS
    else:
        values, counts = tracer.summary(tally.rate_steps, prepared[1].nmpc.dt)
        values["trace.steps_per_s"] = steps_per_s(tally)
        counts["trace.steps_per_s"] = tally.rate_steps
        # the spans' own cost as a share of the run without them
        added_s = len(tracer.spans) * tracing.span_cost_s()
        values["trace.overhead_pct"] = 100.0 * added_s / max(wall_s - added_s, 1e-9)
        counts["trace.overhead_pct"] = len(tracer.spans)
        units = {name: layer_unit(name) for name in values}
        if spans_path is not None:
            tracer.write_spans(spans_path)
    report["metrics"] = {name: {"value": values[name], "unit": units[name], "n": counts[name]} for name in values}
    return report


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_step"):
        return "calls/step"
    if name.endswith("_per_s"):
        return "1/s"
    return "iters"


def main(argv=None, sizes: Sizes = Sizes()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full report as JSON here")
    parser.add_argument("--spans", default=None, help="with --trace 1, write the spans here as JSON lines")
    args = parser.parse_args(argv)

    expected = ROOT / "src" / "visionmpc"
    if Path(visionmpc.__file__).resolve().parent != expected:
        print(f"error: visionmpc imported from {visionmpc.__file__}, not {expected}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes, args.spans)
    m = report["machine"]
    print(f"perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']:g} trace={report['trace']}")
    print(
        f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
        f"blas={m['blas']!r} blas_threads={m['blas_threads']}"
    )
    print(f"trajectory_sha256 {report['trajectory_sha256']} over {report['behaviour_set']} trials")
    n = max(report["behaviour_set"], 1)
    print(
        f"behaviour: {report['goals']}/{n} goal, {report['crashes']}/{n} crash "
        f"(crash_pct {100.0 * report['crashes'] / n:.4g}); "
        f"{report['controller_errors']} failed controller steps "
        f"(failed_step_pct {100.0 * report['controller_errors'] / report['attempted']:.4g})"
    )
    print(f"checks: {len(report['violations'])} violations in {report['attempted']} attempted steps")
    for line in report["violations"][:20]:
        print(f"  violation: {line}")
    for name, metric in report["metrics"].items():
        print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']:10s} n={metric['n']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    result = {
        "correct": not report["violations"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
