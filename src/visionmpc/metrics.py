"""Evaluation metrics and benchmark-table aggregation.

The headline offline metric is the speed-weighted cumulative position
error: deviations between the estimated and reference paths are scaled by
the momentary speed, summed as vectors, and reported as the L1 norm per
sample. Curvature error compares quadratic-fit curvatures of the two
paths. Closed-loop trials reuse both metrics against the route.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .scene import fit_curvature
from .sim import TrialOutcome
from .vehicle import VehicleState

REPORT_COLUMNS = (
    "method",
    "crash_pct",
    "goal_pct",
    "avg_speed_mps",
    "e_xy_mean",
    "e_xy_std",
    "e_c_mean",
    "e_c_std",
    "processing_ms_mean",
    "timeout_pct",
)

REPORT_NOTES = (
    "e_xy normalization m = number of summed samples; "
    "the lookahead distance of the source metric is not used and ignored here"
)


@dataclass(frozen=True)
class OfflineRecord:
    """One timestamped sample of estimated vs reference pose and speed."""

    t: float
    x_est: float
    y_est: float
    x_gt: float
    y_gt: float
    v: float


@dataclass(frozen=True)
class MetricsReport:
    """One benchmark-table row."""

    method: str
    crash_pct: float
    goal_pct: float
    timeout_pct: float
    avg_speed_mps: float
    e_xy_mean: float
    e_xy_std: float
    e_c_mean: float
    e_c_std: float
    processing_ms_mean: float


def e_xy(records: Sequence[OfflineRecord]) -> float:
    """Speed-weighted cumulative absolute position error.

    (1/m) * || sum_t (p_est - p_gt) * v_t ||_1 with m = len(records).
    """
    if len(records) == 0:
        raise ValueError("e_xy needs at least one record")
    sx = 0.0
    sy = 0.0
    for r in records:
        sx += (r.x_est - r.x_gt) * r.v
        sy += (r.y_est - r.y_gt) * r.v
    return (abs(sx) + abs(sy)) / len(records)


def e_curvature(est_traj: Sequence[VehicleState], gt_traj: Sequence[VehicleState]) -> float:
    """Absolute difference of quadratic-fit curvatures."""
    return abs(fit_curvature(est_traj) - fit_curvature(gt_traj))


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values, dtype=float), ddof=1))


def trial_records(outcome: TrialOutcome) -> list[OfflineRecord]:
    """Offline records of a trial: driven pose vs route projection, speed = v_cmd."""
    route = outcome.scenario.route_polyline
    out = []
    for rec in outcome.log:
        s, _ = route.project((rec.x_m, rec.y_m))
        gx, gy = route.point_at(s)
        out.append(OfflineRecord(t=rec.time_s, x_est=rec.x_m, y_est=rec.y_m, x_gt=gx, y_gt=gy, v=rec.v_cmd))
    return out


def trial_curvature_error(outcome: TrialOutcome) -> Optional[float]:
    """Curvature error of the driven path vs its route projection, None if degenerate."""
    if len(outcome.log) < 3:
        return None
    route = outcome.scenario.route_polyline
    est = []
    gt = []
    for rec in outcome.log:
        est.append(VehicleState(rec.x_m, rec.y_m, rec.rho_rad))
        s, _ = route.project((rec.x_m, rec.y_m))
        gx, gy = route.point_at(s)
        gt.append(VehicleState(gx, gy, route.heading_at(s)))
    try:
        return e_curvature(est, gt)
    except ValueError:
        return None


def aggregate(outcomes_by_method: Mapping[str, Sequence[TrialOutcome]]) -> list[MetricsReport]:
    """Benchmark-table rows per method.

    Percentages are over trials; average speed and processing time are over
    all logged steps; e_xy and e_c are per-trial values reduced with mean
    and sample standard deviation (trials with empty or degenerate logs are
    skipped for those two metrics).
    """
    if not outcomes_by_method:
        raise ValueError("no methods to aggregate")
    reports = []
    for method, outcomes in outcomes_by_method.items():
        if len(outcomes) == 0:
            raise ValueError(f"method {method!r} has no trial outcomes")
        n = len(outcomes)
        crash = sum(1 for o in outcomes if o.status == "crash")
        goal = sum(1 for o in outcomes if o.status == "goal")
        timeout = n - crash - goal
        speeds = [rec.v_cmd for o in outcomes for rec in o.log]
        solve_times = [rec.solve_ms for o in outcomes for rec in o.log]
        exy_values = []
        ec_values = []
        for o in outcomes:
            recs = trial_records(o)
            if recs:
                exy_values.append(e_xy(recs))
            ec = trial_curvature_error(o)
            if ec is not None:
                ec_values.append(ec)
        reports.append(
            MetricsReport(
                method=method,
                crash_pct=100.0 * crash / n,
                goal_pct=100.0 * goal / n,
                timeout_pct=100.0 * timeout / n,
                avg_speed_mps=float(np.mean(speeds)) if speeds else 0.0,
                e_xy_mean=float(np.mean(exy_values)) if exy_values else 0.0,
                e_xy_std=_sample_std(exy_values),
                e_c_mean=float(np.mean(ec_values)) if ec_values else 0.0,
                e_c_std=_sample_std(ec_values),
                processing_ms_mean=float(np.mean(solve_times)) if solve_times else 0.0,
            )
        )
    return reports


def write_report_csv(path, reports: Sequence[MetricsReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            writer.writerow(
                [
                    rep.method,
                    repr(rep.crash_pct),
                    repr(rep.goal_pct),
                    repr(rep.avg_speed_mps),
                    repr(rep.e_xy_mean),
                    repr(rep.e_xy_std),
                    repr(rep.e_c_mean),
                    repr(rep.e_c_std),
                    repr(rep.processing_ms_mean),
                    repr(rep.timeout_pct),
                ]
            )


def write_report_json(path, reports: Sequence[MetricsReport], extra: Optional[dict] = None) -> None:
    payload = {"notes": REPORT_NOTES, "reports": [asdict(rep) for rep in reports]}
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2))


def read_offline_dataset(path) -> list[OfflineRecord]:
    """Parse an offline dataset CSV with header (t, x_est, y_est, x_gt, y_gt, v)."""
    expected = ("t", "x_est", "y_est", "x_gt", "y_gt", "v")
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}, got {header!r}")
        last_t = None
        for i, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise ValueError(f"{path}:{i}: expected 6 columns, got {len(row)}")
            try:
                vals = [float(x) for x in row]
            except ValueError:
                raise ValueError(f"{path}:{i}: non-numeric value in {row!r}") from None
            if last_t is not None and vals[0] <= last_t:
                raise ValueError(f"{path}:{i}: timestamps must strictly increase")
            last_t = vals[0]
            records.append(OfflineRecord(*vals))
    if not records:
        raise ValueError(f"{path}: dataset has no records")
    return records


def offline_report(records: Sequence[OfflineRecord]) -> dict:
    """Offline evaluation summary: e_xy plus curvature error when defined."""
    report: dict = {"samples": len(records), "e_xy_m": e_xy(records), "notes": REPORT_NOTES}
    if len(records) >= 3:
        est = [VehicleState(r.x_est, r.y_est, 0.0) for r in records]
        gt = [VehicleState(r.x_gt, r.y_gt, 0.0) for r in records]
        # fit in the frame of the first ground-truth pose aligned with the path
        rho0 = math.atan2(gt[-1].y - gt[0].y, gt[-1].x - gt[0].x)
        est = [VehicleState(z.x, z.y, rho0) for z in est]
        gt = [VehicleState(z.x, z.y, rho0) for z in gt]
        try:
            report["e_c"] = e_curvature(est, gt)
        except ValueError:
            report["e_c"] = None
    return report
