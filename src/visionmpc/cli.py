"""Command-line entry point.

Subcommands: simulate, train, evaluate, offline-eval, plot, compare.
All randomness flows from --seed. Relative output paths are resolved under
$VISIONMPC_OUT_DIR when it is set. Trial logs omit wall-clock timing by
default so repeated runs are byte-identical; pass --wall-clock to record
measured controller latency instead.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .controllers import DirectController, DwaNmpcController, LvdNmpcController, PipelineConfig, check_period
from .metrics import MetricsReport, aggregate, offline_report, read_offline_dataset, write_report_json
from .policy import CandidateSet, TrainConfig, config_from_dict
from .sim import ScenarioFormatError, StepRecord, load_scenario, read_trial_log, run_trial, with_seed, write_csv
from .training import EpisodeRecord, check_sensor_layout, initialize_network, load_checkpoint, save_checkpoint, train

METHODS = ("lvd-nmpc", "dwa-nmpc", "direct")


class CliError(Exception):
    """User-facing failure with a distinct message and non-zero exit."""


def _positive_int(raw: str) -> int:
    """argparse type of a count of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _out_path(raw: str) -> Path:
    import os

    path = Path(raw)
    root = os.environ.get("VISIONMPC_OUT_DIR")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _load_scenario(path):
    try:
        return load_scenario(path)
    except ScenarioFormatError as exc:
        raise CliError(str(exc)) from None


def _load_scenario_set(raw_dir):
    """Every .scn file of a directory, in name order; an empty set is an error."""
    set_dir = Path(raw_dir)
    paths = sorted(set_dir.glob("*.scn"))
    if not paths:
        raise CliError(f"no .scn scenarios found in {set_dir}")
    return [_load_scenario(p) for p in paths]


def _config_from_file(path, default):
    """`default` with the keys of a JSON file decoded over it (`policy.config_from_dict`); without one, `default`."""
    if path is None:
        return default
    name = type(default).__name__
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"unreadable {name} file {path}: {exc}") from None
    try:
        return config_from_dict(default, raw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid {name} file {path}: {exc}") from None


def _run_pipeline(pipeline_path, checkpoint_path):
    """The one pipeline a command runs, and the trained policy if given.

    Every command starts from PipelineConfig(), which a --pipeline file
    overrides. With a checkpoint, the pipeline it stores is the one; a
    --pipeline file that decodes to a different one is an error, so a learned
    policy never runs under other bounds, horizon or solver budget than the
    baselines beside it. Returns (pipeline, (net, sensor) or None).
    """
    pipeline = _config_from_file(pipeline_path, PipelineConfig())
    if checkpoint_path is None:
        return pipeline, None
    try:
        net, sensor, trained = load_checkpoint(checkpoint_path)
    except (OSError, TypeError, ValueError) as exc:
        raise CliError(f"cannot load checkpoint {checkpoint_path}: {exc}") from None
    if pipeline_path is not None and pipeline != trained:
        raise CliError(
            f"pipeline config {pipeline_path} differs from the pipeline checkpoint "
            f"{checkpoint_path} was trained with; omit --pipeline to run the checkpoint's"
        )
    return trained, (net, sensor)


def _check_periods(pipeline, suite) -> None:
    """Refuse, before any trial runs, a scenario whose dt_s is not the pipeline's period."""
    for scenario, params in suite:
        try:
            check_period(pipeline, params)
        except ValueError as exc:
            raise CliError(f"{scenario.name}: {exc}") from None


def _build_controller(method, scenario, pipeline, policy, seed):
    if method == "lvd-nmpc":
        if policy is None:
            # untrained, seed-initialized policy; useful for smoke runs only
            net = initialize_network([(scenario, None)], pipeline, CandidateSet.grid(), np.random.default_rng(seed))
        else:
            net, sensor = policy
            if sensor != scenario.sensor:
                raise CliError(f"checkpoint sensor {sensor} does not match scenario {scenario.name}: {scenario.sensor}")
        return LvdNmpcController(net, pipeline)
    if method == "dwa-nmpc":
        return DwaNmpcController(pipeline)
    if method == "direct":
        return DirectController(pipeline)
    raise CliError(f"unknown method {method!r}")


def _cmd_simulate(args) -> int:
    scenario, params = _load_scenario(args.scenario)
    if args.seed is not None:
        scenario = with_seed(scenario, args.seed)
    pipeline, policy = _run_pipeline(args.pipeline, args.checkpoint)
    _check_periods(pipeline, [(scenario, params)])
    controller = _build_controller(args.method, scenario, pipeline, policy, scenario.seed)
    out_dir = _out_path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    files = []
    for trial in range(args.trials):
        outcome = run_trial(scenario, controller, params, trial_index=trial, record_wall_clock=args.wall_clock)
        outcomes.append(outcome)
        name = f"trial_{trial:03d}.csv"
        write_csv(out_dir / name, StepRecord, outcome.log)
        files.append(name)
    manifest = {
        "method": args.method,
        # absolute, so evaluate finds the scenario from any working directory
        "scenario": str(Path(args.scenario).resolve()),
        "scenario_name": scenario.name,
        "seed": scenario.seed,
        "trials": files,
        "statuses": [o.status for o in outcomes],
        "wall_clock": bool(args.wall_clock),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    reports = aggregate({args.method: outcomes})
    write_csv(out_dir / "report.csv", MetricsReport, reports)
    write_report_json(out_dir / "report.json", reports)
    statuses = manifest["statuses"]
    print(
        f"{args.method} on {scenario.name}: "
        f"{statuses.count('goal')}/{args.trials} goal, {statuses.count('crash')} crash, "
        f"{statuses.count('timeout')} timeout -> {out_dir}"
    )
    return 0


def _cmd_train(args) -> int:
    suite = _load_scenario_set(args.scenario_set)
    cfg = _config_from_file(args.config, TrainConfig())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    pipeline, _ = _run_pipeline(args.pipeline, None)
    _check_periods(pipeline, suite)
    try:
        sensor = check_sensor_layout(suite)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    net, log = train(suite, cfg, pipeline)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, net, sensor, pipeline)
    log_path = out.with_suffix(out.suffix + ".log.csv")
    write_csv(log_path, EpisodeRecord, log)
    goals = sum(1 for rec in log if rec.status == "goal")
    print(f"trained {cfg.episodes} episodes ({goals} reached goal) -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    logs_dir = Path(args.logs)
    manifest_path = logs_dir / "manifest.json"
    if not manifest_path.exists():
        raise CliError(f"no manifest.json in {logs_dir}; nothing to evaluate")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"corrupt manifest in {logs_dir}: {exc}") from None
    if not isinstance(manifest, dict):
        raise CliError(f"manifest in {logs_dir} is not a JSON object")
    for key in ("method", "scenario", "trials"):
        if key not in manifest:
            raise CliError(f"manifest in {logs_dir} has no {key!r} key")
    for key in ("method", "scenario"):
        if not isinstance(manifest[key], str):
            raise CliError(f"manifest in {logs_dir}: {key!r} must be a string")
    if not (isinstance(manifest["trials"], list) and all(isinstance(name, str) for name in manifest["trials"])):
        raise CliError(f"manifest in {logs_dir}: 'trials' must be a list of strings")
    scenario, _ = _load_scenario(manifest["scenario"])
    outcomes = []
    for name in manifest["trials"]:
        try:
            outcomes.append(read_trial_log(logs_dir / name, scenario))
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read trial log {name}: {exc}") from None
    if not outcomes:
        raise CliError(f"manifest in {logs_dir} lists no trials")
    reports = aggregate({manifest["method"]: outcomes})
    _write_report(args.out, reports)
    return 0


def _write_report(raw_out, reports) -> None:
    out = _out_path(raw_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix == ".csv":
        write_csv(out, MetricsReport, reports)
        print(f"wrote {out}")
    elif out.suffix == ".json":
        write_report_json(out, reports)
        print(f"wrote {out}")
    else:
        write_csv(out.with_suffix(".csv"), MetricsReport, reports)
        write_report_json(out.with_suffix(".json"), reports)
        print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")


def _cmd_offline_eval(args) -> int:
    try:
        records = read_offline_dataset(args.dataset)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read dataset: {exc}") from None
    report = offline_report(records)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    print(f"e_xy = {report['e_xy_m']:.6g} m over {report['samples']} samples -> {out}")
    return 0


def _cmd_plot(args) -> int:
    scenario, params = _load_scenario(args.scenario)
    pipeline, _ = _run_pipeline(args.pipeline, args.checkpoint)
    try:
        outcome = read_trial_log(args.log, scenario)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read trial log: {exc}") from None
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    from .plot import render_trial_svg

    render_trial_svg(out, scenario, outcome, pipeline=pipeline)
    print(f"wrote {out}")
    return 0


def _cmd_compare(args) -> int:
    suite = _load_scenario_set(args.scenario_set)
    pipeline, policy = _run_pipeline(args.pipeline, args.checkpoint)
    _check_periods(pipeline, suite)
    outcomes_by_method: dict[str, list] = {}
    for method in METHODS:
        outcomes = []
        for scenario, params in suite:
            if args.seed is not None:
                scenario = with_seed(scenario, args.seed)
            controller = _build_controller(method, scenario, pipeline, policy, scenario.seed)
            for trial in range(args.trials):
                outcomes.append(
                    run_trial(scenario, controller, params, trial_index=trial, record_wall_clock=True)
                )
        outcomes_by_method[method] = outcomes
    reports = aggregate(outcomes_by_method)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, MetricsReport, reports)
    for rep in reports:
        print(
            f"{rep.method}: crash {rep.crash_pct:.0f}% goal {rep.goal_pct:.0f}% "
            f"avg speed {rep.avg_speed_mps:.2f} m/s processing {rep.processing_ms_mean:.1f} ms"
        )
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="visionmpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run goal-navigation trials for one method")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--checkpoint", default=None, help="trained policy for lvd-nmpc")
    p.add_argument("--pipeline", default=None, help="pipeline config JSON")
    p.add_argument("--wall-clock", action="store_true", help="record measured solve times in logs")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train the scene-dynamics policy")
    p.add_argument("--scenario-set", required=True, help="directory of .scn files")
    p.add_argument("--config", default=None, help="training config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--pipeline", default=None, help="pipeline config JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="aggregate metrics from simulate output logs")
    p.add_argument("--logs", required=True)
    p.add_argument("--out", required=True, help="report path (.csv, .json, or stem for both)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("offline-eval", help="evaluate an offline dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_offline_eval)

    p = sub.add_parser("plot", help="render a trial log as a static SVG")
    p.add_argument("--log", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None, help="trained policy the log ran with; its pipeline draws the paths")
    p.add_argument("--pipeline", default=None, help="pipeline config JSON the log ran with")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("compare", help="benchmark-table comparison across all methods")
    p.add_argument("--scenario-set", required=True)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--pipeline", default=None)
    p.add_argument("--out", required=True, help="table CSV path")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
