import csv
import json
import math
import subprocess
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from visionmpc.controllers import DirectController, DwaNmpcController, PipelineConfig
from visionmpc.geometry import fit_curvature
from visionmpc.metrics import (
    REPORT_NOTES,
    MetricsReport,
    OfflineRecord,
    aggregate,
    e_xy,
    offline_report,
    read_offline_dataset,
    trial_errors,
)
from visionmpc.scene import SceneDynamics, project_path
from visionmpc.sim import RaySensorConfig, Scenario, StepRecord, TrialOutcome, load_scenario, run_trial, write_csv
from visionmpc.vehicle import VehicleState

BUNDLED = sorted(p for p in resources.files("visionmpc").joinpath("scenarios").iterdir() if p.name.endswith(".scn"))


def loop_e_xy(records):
    """The per-record running-sum loop e_xy replaced, kept as its oracle."""
    sx = 0.0
    sy = 0.0
    for r in records:
        sx += (r.x_est - r.x_gt) * r.v
        sy += (r.y_est - r.y_gt) * r.v
    return (abs(sx) + abs(sy)) / len(records)


def quadratic_fit(xs, ys):
    """The quadratic fit as it was before fit_curvature took its frame, with
    np.unique counting the distinct abscissae; kept as its oracle."""
    if np.unique(np.round(xs, 12)).size < 3:
        raise ValueError("degenerate quadratic fit: fewer than 3 distinct abscissae")
    vander = np.stack([np.ones_like(xs), xs, xs ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(vander, ys, rcond=None)
    return float(2.0 * coef[2])


def loop_fit_curvature(traj):
    """The per-pose loop fit_curvature replaced, kept as its oracle."""
    if len(traj) < 3:
        raise ValueError("need at least 3 trajectory points")
    origin = traj[0]
    cos_r, sin_r = math.cos(-origin.rho), math.sin(-origin.rho)
    xs = np.empty(len(traj))
    ys = np.empty(len(traj))
    for i, z in enumerate(traj):
        dx, dy = z.x - origin.x, z.y - origin.y
        xs[i] = cos_r * dx - sin_r * dy
        ys[i] = sin_r * dx + cos_r * dy
    return quadratic_fit(xs, ys)


def record_trial_errors(outcome):
    """The record-based trial_errors, kept as its oracle: one OfflineRecord and
    two VehicleStates per logged row, then the two loops above."""
    log = outcome.log
    if not log:
        return None, None
    route = outcome.scenario.route_polyline
    points, headings = route.sample(route.project_batch([(rec.x_m, rec.y_m) for rec in log])[0])
    gt = [VehicleState(x, y, rho) for (x, y), rho in zip(points.tolist(), headings.tolist())]
    exy = loop_e_xy([OfflineRecord(rec.time_s, rec.x_m, rec.y_m, g.x, g.y, rec.v_cmd) for rec, g in zip(log, gt)])
    if len(log) < 3:
        return exy, None
    try:
        est = [VehicleState(rec.x_m, rec.y_m, rec.rho_rad) for rec in log]
        return exy, abs(loop_fit_curvature(est) - loop_fit_curvature(gt))
    except ValueError:
        return exy, None


def record_offline_report(records):
    """The record-based offline_report, kept as its oracle: two VehicleStates
    per sample, heading along the ground-truth chord, then the loops above."""
    report = {"samples": len(records), "e_xy_m": loop_e_xy(records), "notes": REPORT_NOTES, "e_c": None}
    if len(records) >= 3:
        rho0 = math.atan2(records[-1].y_gt - records[0].y_gt, records[-1].x_gt - records[0].x_gt)
        est = [VehicleState(r.x_est, r.y_est, rho0) for r in records]
        gt = [VehicleState(r.x_gt, r.y_gt, rho0) for r in records]
        try:
            report["e_c"] = abs(loop_fit_curvature(est) - loop_fit_curvature(gt))
        except ValueError:
            pass
    return report


def make_scenario():
    return Scenario(
        route=((0.0, 0.0), (10.0, 0.0)),
        half_width=0.6,
        start=VehicleState(0, 0, 0),
        goal_radius=0.3,
        v_max=1.0,
        sensor=RaySensorConfig(max_range_m=3.0),
    )


def make_outcome(scenario, status, rows):
    """An outcome of the given rows whose last row carries status as its
    event (none for a timeout), so the outcome reads back that status."""
    log = tuple(
        StepRecord(
            time_s=0.05 * (i + 1),
            x_m=x,
            y_m=y,
            rho_rad=0.0,
            v_cmd=v,
            omega_cmd=0.0,
            c=0.0,
            w=1.0,
            cross_track_m=y,
            solve_ms=ms,
            event=status if i == len(rows) - 1 and status != "timeout" else "",
        )
        for i, (x, y, v, ms) in enumerate(rows)
    )
    return TrialOutcome(log, scenario)


class TestExy:
    def test_perfect_tracking_is_zero(self):
        assert e_xy(np.zeros(5), np.zeros(5), np.full(5, 2.0)) == 0.0

    def test_hand_computed_two_sample_example(self):
        assert e_xy(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 1.0])) == pytest.approx(1.5, abs=1e-15)

    def test_zero_speed_annihilates(self):
        assert e_xy(np.full(4, 5.0), np.full(4, -3.0), np.zeros(4)) == 0.0

    def test_scales_linearly_with_deviations(self):
        dx, dy, v = np.array([0.2, 0.4]), np.array([0.1, -0.3]), np.array([1.0, 2.0])
        assert e_xy(2 * dx, 2 * dy, v) == pytest.approx(2.0 * e_xy(dx, dy, v), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            e_xy(np.empty(0), np.empty(0), np.empty(0))


def offline_records(est, gt, v=1.0):
    return [OfflineRecord(float(i), xe, ye, xg, yg, v) for i, ((xe, ye), (xg, yg)) in enumerate(zip(est, gt))]


class TestCurvatureError:
    def _path(self, c, n=12):
        xs = np.linspace(0.0, 2.0, n)
        return xs, project_path(SceneDynamics(c, 0.0), rho=0.0, xs=xs)

    def test_identical_trajectories(self):
        xs, ys = self._path(0.25)
        points = list(zip(xs.tolist(), ys.tolist()))
        assert offline_report(offline_records(points, points))["e_c"] == 0.0

    def test_known_curvature_difference(self):
        assert fit_curvature(*self._path(0.3), 0.0) - fit_curvature(*self._path(0.1), 0.0) == pytest.approx(0.2, abs=1e-6)

    @pytest.mark.parametrize(
        "points", [[(0.0, 0.0), (1.0, 0.2)], [(1.0, 2.0)] * 3], ids=["two_rows", "three_rows_one_abscissa"]
    )
    def test_undefined_curvature_error_is_written_as_null(self, points):
        # too few rows and a degenerate fit read alike: the key is there, and null
        report = offline_report(offline_records(points, points))
        assert report["e_c"] is None
        assert '"e_c": null' in json.dumps(report)

    def test_lateral_offset_ignored(self):
        est = [(0.2 * i, 0.0) for i in range(8)]
        gt = [(0.2 * i, 0.5) for i in range(8)]
        assert offline_report(offline_records(est, gt))["e_c"] == pytest.approx(0.0, abs=1e-12)


class TestAggregate:
    def test_percentages(self):
        scenario = make_scenario()
        rows = [(0.1 * (i + 1), 0.0, 1.0, 2.0) for i in range(5)]
        outcomes = [make_outcome(scenario, "crash", rows)] * 2 + [make_outcome(scenario, "goal", rows)] * 8
        rep = aggregate({"m": outcomes})[0]
        assert rep.crash_pct == pytest.approx(20.0)
        assert rep.goal_pct == pytest.approx(80.0)
        assert rep.timeout_pct == pytest.approx(0.0)
        assert rep.crash_pct + rep.goal_pct + rep.timeout_pct == pytest.approx(100.0)

    def test_single_trial_std_zero(self):
        scenario = make_scenario()
        rows = [(0.1, 0.01, 0.5, 1.0), (0.2, 0.02, 0.6, 1.0), (0.3, 0.01, 0.7, 1.0)]
        rep = aggregate({"m": [make_outcome(scenario, "goal", rows)]})[0]
        assert rep.e_xy_std == 0.0
        assert rep.e_c_std == 0.0

    def test_matches_independent_recomputation(self):
        # ten synthetic trials; every aggregate field recomputed longhand
        scenario = make_scenario()
        rng = np.random.default_rng(42)
        outcomes = []
        statuses = ["goal"] * 7 + ["crash"] * 2 + ["timeout"]
        for t, status in enumerate(statuses):
            n = int(rng.integers(4, 9))
            rows = []
            for i in range(n):
                x = 0.5 * (i + 1) + rng.uniform(-0.05, 0.05)
                y = rng.uniform(-0.2, 0.2)
                v = rng.uniform(0.2, 1.0)
                ms = rng.uniform(1.0, 8.0)
                rows.append((x, y, v, ms))
            outcomes.append(make_outcome(scenario, status, rows))
        rep = aggregate({"m": outcomes})[0]

        # longhand: percentages
        assert rep.crash_pct == pytest.approx(100.0 * 2 / 10, abs=1e-9)
        assert rep.goal_pct == pytest.approx(100.0 * 7 / 10, abs=1e-9)
        # longhand: speed and processing over all steps
        all_v = [r.v_cmd for o in outcomes for r in o.log]
        all_ms = [r.solve_ms for o in outcomes for r in o.log]
        assert rep.avg_speed_mps == pytest.approx(sum(all_v) / len(all_v), abs=1e-9)
        assert rep.processing_ms_mean == pytest.approx(sum(all_ms) / len(all_ms), abs=1e-9)
        # longhand e_xy per trial: route is the x axis, so the projection of
        # (x, y) is (x, 0) and the deviation vector is (0, y)
        exy = []
        for o in outcomes:
            sx = sum(0.0 * r.v_cmd for r in o.log)
            sy = sum(r.y_m * r.v_cmd for r in o.log)
            exy.append((abs(sx) + abs(sy)) / len(o.log))
        mean = sum(exy) / len(exy)
        var = sum((v - mean) ** 2 for v in exy) / (len(exy) - 1)
        assert rep.e_xy_mean == pytest.approx(mean, abs=1e-9)
        assert rep.e_xy_std == pytest.approx(math.sqrt(var), abs=1e-9)

    def test_permutation_invariant(self):
        scenario = make_scenario()
        rng = np.random.default_rng(3)
        outcomes = []
        for t in range(6):
            rows = [(0.3 * (i + 1), float(rng.uniform(-0.1, 0.1)), 0.5, 1.0) for i in range(5)]
            outcomes.append(make_outcome(scenario, "goal" if t % 2 else "crash", rows))
        a = aggregate({"m": outcomes})[0]
        b = aggregate({"m": outcomes[::-1]})[0]
        for field_name in ("crash_pct", "goal_pct", "timeout_pct", "avg_speed_mps",
                           "e_xy_mean", "e_xy_std", "e_c_mean", "e_c_std", "processing_ms_mean"):
            assert getattr(a, field_name) == pytest.approx(getattr(b, field_name), rel=1e-12, abs=1e-15)

    def test_empty_method_rejected(self):
        with pytest.raises(ValueError):
            aggregate({"m": []})
        with pytest.raises(ValueError):
            aggregate({})


class TestAgainstRecordOracle:
    """The array computations equal the record-based ones bit for bit."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        # a Direct trial on every bundled scenario, a short DWA-NMPC trial, synthetic
        # logs of 1, 2, 3 and 9 rows, and one whose curvature fit degenerates
        out = []
        for path in BUNDLED:
            scenario, params = load_scenario(path)
            out.append(run_trial(scenario, DirectController(PipelineConfig()), params, trial_index=2))
        scenario, params = load_scenario(BUNDLED[0])
        out.append(run_trial(replace(scenario, time_limit_s=2.0), DwaNmpcController(PipelineConfig()), params))
        rng = np.random.default_rng(8)
        base = make_scenario()
        for n in (1, 2, 3, 9):
            xs = 0.4 * np.arange(1, n + 1) + rng.uniform(-0.1, 0.1, n)
            rows = [(x, rng.uniform(-0.3, 0.3), rng.uniform(0.0, 1.0), 1.0) for x in xs.tolist()]
            out.append(make_outcome(base, "timeout", rows))
        out.append(make_outcome(base, "crash", [(1.0, 0.1, 0.5, 1.0)] * 4))  # one distinct x: no fit
        return out

    def test_trial_errors_equal_the_record_computation(self, outcomes):
        for outcome in outcomes:
            expect = tuple(None if e is None else float(e) for e in record_trial_errors(outcome))
            assert repr(trial_errors(outcome)) == repr(expect)
        assert any(trial_errors(o)[1] is None for o in outcomes if o.steps >= 3)

    def test_aggregate_equals_the_record_computation(self, outcomes):
        rep = aggregate({"m": outcomes})[0]
        pairs = [record_trial_errors(o) for o in outcomes]
        exy = np.array([e for e, _ in pairs if e is not None])
        ec = np.array([c for _, c in pairs if c is not None])
        assert rep.e_xy_mean == float(np.mean(exy)) and rep.e_xy_std == float(np.std(exy, ddof=1))
        assert rep.e_c_mean == float(np.mean(ec)) and rep.e_c_std == float(np.std(ec, ddof=1))
        assert rep.avg_speed_mps == float(np.mean([r.v_cmd for o in outcomes for r in o.log]))

    def test_array_forms_equal_their_loops(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 40):
            records = [OfflineRecord(float(i), *rng.normal(0.0, 2.0, 4), rng.uniform(0.0, 1.5)) for i in range(n)]
            x_est, y_est, x_gt, y_gt, v = np.array([(r.x_est, r.y_est, r.x_gt, r.y_gt, r.v) for r in records]).T
            assert repr(e_xy(x_est - x_gt, y_est - y_gt, v)) == repr(float(loop_e_xy(records)))
        for n in (3, 4, 25):
            traj = [VehicleState(*rng.normal(0.0, 3.0, 2), rng.uniform(-4.0, 4.0)) for _ in range(n)]
            xs, ys = np.array([(z.x, z.y) for z in traj]).T
            assert repr(fit_curvature(xs, ys, traj[0].rho)) == repr(float(loop_fit_curvature(traj)))

    def test_offline_report_equals_the_record_computation(self):
        # random datasets, and degenerate ones: one sample repeated (no distinct
        # abscissa), two alternating abscissae, and a chord turned past pi
        rng = np.random.default_rng(22)
        datasets = [rng.normal(0.0, 2.0, (n, 5)) for n in (1, 2, 3, 4, 11)]
        datasets.append(np.tile(rng.normal(0.0, 1.0, (1, 5)), (6, 1)))
        x = np.array([0.0, 1.0] * 3)
        datasets.append(np.stack([x, x ** 2, x, rng.normal(0.0, 1.0, 6), np.ones(6)], axis=1))
        t = np.linspace(0.0, 3.0, 9)
        datasets.append(np.stack([-np.cos(t), np.sin(t), -np.cos(t) + 1e-3, np.sin(t) - 1e-9 * t, np.ones(9)], axis=1))
        fits = []
        for cols in datasets:
            records = [OfflineRecord(float(i), *map(float, row)) for i, row in enumerate(cols)]
            report = offline_report(records)
            fits.append(report["e_c"])
            assert repr(report) == repr(record_offline_report(records))
        assert None in fits and any(f is not None for f in fits)


def test_aggregate_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use (about 15 ms); the curvature fit
    # must not pull it into a process that scores a trial
    code = """
import sys
from dataclasses import replace
from importlib import resources
from visionmpc import metrics, sim
from visionmpc.controllers import DwaNmpcController, PipelineConfig
path = resources.files("visionmpc").joinpath("scenarios", "straight_corridor.scn")
scenario, params = sim.load_scenario(path)
outcome = sim.run_trial(replace(scenario, time_limit_s=0.5), DwaNmpcController(PipelineConfig()), params)
assert "numpy.ma" not in sys.modules, "imported before aggregate"
report = metrics.aggregate({"dwa-nmpc": [outcome]})[0]
assert outcome.steps >= 3 and report.e_c_mean > 0.0, report
print("numpy.ma" in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestOfflineDataset:
    def test_roundtrip_and_report(self, tmp_path):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x_est", "y_est", "x_gt", "y_gt", "v"])
            writer.writerow([0.0, 1.0, 0.0, 0.0, 0.0, 2.0])
            writer.writerow([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        records = read_offline_dataset(path)
        assert len(records) == 2
        report = offline_report(records)
        assert report["e_xy_m"] == pytest.approx(1.5)
        assert report["samples"] == 2

    def test_rejects_bad_header_and_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_offline_dataset(path)
        path.write_text("t,x_est,y_est,x_gt,y_gt,v\n1,0,0,0,0,1\n1,0,0,0,0,1\n")
        with pytest.raises(ValueError, match="strictly increase"):
            read_offline_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_values_with_their_line(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"t,x_est,y_est,x_gt,y_gt,v\n0,0,0,0,0,1\n1,0,0,0,0,{cell}\n")
        with pytest.raises(ValueError, match=r"data\.csv:3: non-finite value"):
            read_offline_dataset(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,x_est,y_est,x_gt,y_gt,v\n")
        with pytest.raises(ValueError):
            read_offline_dataset(path)


def test_report_csv_column_order(tmp_path):
    rep = MetricsReport(
        method="m",
        crash_pct=10.0,
        goal_pct=90.0,
        timeout_pct=0.0,
        avg_speed_mps=0.8,
        e_xy_mean=0.1,
        e_xy_std=0.01,
        e_c_mean=0.05,
        e_c_std=0.002,
        processing_ms_mean=12.0,
    )
    path = tmp_path / "report.csv"
    write_csv(path, MetricsReport, [rep])
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == [
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
    ]
