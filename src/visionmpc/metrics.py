"""Evaluation metrics and benchmark-table aggregation.

The headline offline metric is the speed-weighted cumulative position
error: deviations between the estimated and reference paths are scaled by
the momentary speed, summed as vectors, and reported as the L1 norm per
sample. Curvature error compares quadratic-fit curvatures of the two
paths. `e_xy` and `geometry.fit_curvature` are the one implementation of
each metric, and both take columns: an offline dataset is read into
columns once, and a closed-loop trial is scored against its route on the
columns of its log.
"""

import json
import math
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .geometry import fit_curvature, wrap_angle
from .sim import TrialOutcome, read_csv

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
    """One benchmark-table row; its fields in order are the report columns."""

    method: str
    crash_pct: float
    goal_pct: float
    avg_speed_mps: float
    e_xy_mean: float
    e_xy_std: float
    e_c_mean: float
    e_c_std: float
    processing_ms_mean: float
    timeout_pct: float


def e_xy(dx: np.ndarray, dy: np.ndarray, v: np.ndarray) -> float:
    """Speed-weighted cumulative absolute position error of the deviations
    (dx, dy) = p_est - p_gt at speeds v, m samples each:
    (|sum_t dx_t v_t| + |sum_t dy_t v_t|) / m, the sums running in sample order.
    """
    if dx.shape[0] == 0:
        raise ValueError("e_xy needs at least one sample")
    sx = np.add.accumulate(dx * v)[-1]
    sy = np.add.accumulate(dy * v)[-1]
    return float((abs(sx) + abs(sy)) / dx.shape[0])


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values, dtype=float), ddof=1))


def trial_errors(outcome: TrialOutcome) -> tuple[Optional[float], Optional[float]]:
    """(e_xy, e_c) of the driven path against its route projection.

    Both are computed on columns of the log: the logged positions are
    projected in one batch, speed is v_cmd, and each path's curvature fit
    takes its first heading wrapped as a VehicleState wraps it. e_xy is
    None for an empty log, e_c for fewer than 3 poses or a degenerate fit.
    """
    log = outcome.log
    if not log:
        return None, None
    x, y, rho, v = np.array([(rec.x_m, rec.y_m, rec.rho_rad, rec.v_cmd) for rec in log]).T
    route = outcome.scenario.route_polyline
    points, headings = route.sample(route.project_batch(np.stack([x, y], axis=1))[0])
    gx, gy = points[:, 0], points[:, 1]
    exy = e_xy(x - gx, y - gy, v)
    if len(log) < 3:
        return exy, None
    try:
        est_c = fit_curvature(x, y, wrap_angle(float(rho[0])))
        gt_c = fit_curvature(gx, gy, wrap_angle(float(headings[0])))
    except ValueError:
        return exy, None
    return exy, abs(est_c - gt_c)


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
            exy, ec = trial_errors(o)
            if exy is not None:
                exy_values.append(exy)
            if ec is not None:
                ec_values.append(ec)
        reports.append(
            MetricsReport(
                method=method,
                crash_pct=100.0 * crash / n,
                goal_pct=100.0 * goal / n,
                avg_speed_mps=float(np.mean(speeds)) if speeds else 0.0,
                e_xy_mean=float(np.mean(exy_values)) if exy_values else 0.0,
                e_xy_std=_sample_std(exy_values),
                e_c_mean=float(np.mean(ec_values)) if ec_values else 0.0,
                e_c_std=_sample_std(ec_values),
                processing_ms_mean=float(np.mean(solve_times)) if solve_times else 0.0,
                timeout_pct=100.0 * timeout / n,
            )
        )
    return reports


def write_report_json(path, reports: Sequence[MetricsReport]) -> None:
    payload = {"notes": REPORT_NOTES, "reports": [asdict(rep) for rep in reports]}
    Path(path).write_text(json.dumps(payload, indent=2))


def read_offline_dataset(path) -> list[OfflineRecord]:
    """Parse an offline dataset CSV (`sim.read_csv` of OfflineRecord): at least
    one row, every value finite, t strictly increasing."""
    records = read_csv(path, OfflineRecord)
    last_t = -math.inf
    for line_no, rec in enumerate(records, start=2):
        if not all(map(math.isfinite, astuple(rec))):
            raise ValueError(f"{path}:{line_no}: non-finite value in {rec}")
        if rec.t <= last_t:
            raise ValueError(f"{path}:{line_no}: timestamps must strictly increase")
        last_t = rec.t
    if not records:
        raise ValueError(f"{path}: dataset has no records")
    return records


def offline_report(records: Sequence[OfflineRecord]) -> dict:
    """Offline evaluation summary: e_xy plus curvature error when defined.

    Both paths are fitted in the frame of their first point, headed along
    the ground-truth chord from first to last point (wrapped as a
    VehicleState wraps it).
    """
    columns = np.array([(r.x_est, r.y_est, r.x_gt, r.y_gt, r.v) for r in records], dtype=float)
    x_est, y_est, x_gt, y_gt, v = columns.reshape(-1, 5).T
    report: dict = {"samples": len(records), "e_xy_m": e_xy(x_est - x_gt, y_est - y_gt, v), "notes": REPORT_NOTES}
    if len(records) >= 3:
        rho0 = wrap_angle(math.atan2(y_gt[-1] - y_gt[0], x_gt[-1] - x_gt[0]))
        try:
            report["e_c"] = abs(fit_curvature(x_est, y_est, rho0) - fit_curvature(x_gt, y_gt, rho0))
        except ValueError:
            report["e_c"] = None
    return report
