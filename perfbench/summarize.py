"""Fold the reports of several benchmark runs into one BENCH result file.

    python3 perfbench/run.py --workload dwa_suite --seed 1 --seconds 30 --out r/dwa_1.json
    ...
    python3 perfbench/summarize.py --label <commit> --out perfbench/results/BENCH_<commit>.json r/*.json

For each workload and each metric the result holds the median and the
quartiles over the runs, as statistics.quantiles(values, n=4) gives them,
and the spread (quartile distance over the median). It also keeps the
trajectory hash of each seed, so that a later change can show it left
behaviour byte-identical, and the tracing overhead: the untraced median
steps_per_s over the traced median trace.steps_per_s, minus one.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(reports: list, label: str) -> dict:
    out = {"label": label, "machine": reports[0]["machine"], "workloads": {}}
    for workload in sorted({r["workload"] for r in reports}):
        entry = {"seconds": None, "runs": {}, "trajectory_sha256": {}, "metrics": {}}
        for trace in (0, 1):
            runs = [r for r in reports if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            entry["seconds"] = runs[0]["seconds"]
            entry["runs"][f"trace{trace}"] = {
                "seeds": [r["seed"] for r in runs],
                "correct": all(not r["violations"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
            }
            for r in runs:
                known = entry["trajectory_sha256"].setdefault(str(r["seed"]), r["trajectory_sha256"])
                if known != r["trajectory_sha256"]:
                    raise ValueError(f"{workload} seed {r['seed']}: runs disagree on the trajectory hash")
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                median = statistics.median(values)
                row = {"unit": runs[0]["metrics"][name]["unit"], "runs": len(values), "median": median}
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
                entry["metrics"][name] = row
        plain = entry["metrics"].get("steps_per_s")
        traced = entry["metrics"].get("trace.steps_per_s")
        if plain and traced and traced["median"]:
            entry["trace_overhead_pct"] = 100.0 * (plain["median"] / traced["median"] - 1.0)
        out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. the commit")
    parser.add_argument("--out", required=True)
    parser.add_argument("reports", nargs="+", help="JSON reports written by run.py --out")
    args = parser.parse_args(argv)
    reports = [json.loads(Path(p).read_text()) for p in args.reports]
    Path(args.out).write_text(json.dumps(summarize(reports, args.label), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
