import csv
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from visionmpc.controllers import DirectController, DwaNmpcController, PipelineConfig
from visionmpc.geometry import fit_quadratic_curvature
from visionmpc.metrics import (
    MetricsReport,
    OfflineRecord,
    aggregate,
    e_curvature,
    e_xy,
    offline_report,
    read_offline_dataset,
    trial_errors,
)
from visionmpc.scene import SceneDynamics, fit_curvature, project_path
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


def loop_fit_curvature(traj):
    """The per-pose loop fit_curvature replaced, kept as its oracle."""
    origin = traj[0]
    cos_r, sin_r = math.cos(-origin.rho), math.sin(-origin.rho)
    xs = np.empty(len(traj))
    ys = np.empty(len(traj))
    for i, z in enumerate(traj):
        dx, dy = z.x - origin.x, z.y - origin.y
        xs[i] = cos_r * dx - sin_r * dy
        ys[i] = sin_r * dx + cos_r * dy
    return fit_quadratic_curvature(xs, ys)


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
            event="",
        )
        for i, (x, y, v, ms) in enumerate(rows)
    )
    return TrialOutcome(status=status, steps=len(log), log=log, scenario=scenario)


class TestExy:
    def test_perfect_tracking_is_zero(self):
        records = [OfflineRecord(t=float(i), x_est=1.0 * i, y_est=0.0, x_gt=1.0 * i, y_gt=0.0, v=2.0) for i in range(5)]
        assert e_xy(records) == 0.0

    def test_hand_computed_two_record_example(self):
        records = [
            OfflineRecord(t=0.0, x_est=1.0, y_est=0.0, x_gt=0.0, y_gt=0.0, v=2.0),
            OfflineRecord(t=1.0, x_est=0.0, y_est=1.0, x_gt=0.0, y_gt=0.0, v=1.0),
        ]
        assert e_xy(records) == pytest.approx(1.5, abs=1e-15)

    def test_zero_speed_annihilates(self):
        records = [OfflineRecord(t=float(i), x_est=5.0, y_est=-3.0, x_gt=0.0, y_gt=0.0, v=0.0) for i in range(4)]
        assert e_xy(records) == 0.0

    def test_scales_linearly_with_deviations(self):
        base = [
            OfflineRecord(t=0.0, x_est=0.2, y_est=0.1, x_gt=0.0, y_gt=0.0, v=1.0),
            OfflineRecord(t=1.0, x_est=0.4, y_est=-0.3, x_gt=0.0, y_gt=0.0, v=2.0),
        ]
        doubled = [
            OfflineRecord(t=r.t, x_est=2 * r.x_est, y_est=2 * r.y_est, x_gt=0.0, y_gt=0.0, v=r.v) for r in base
        ]
        assert e_xy(doubled) == pytest.approx(2.0 * e_xy(base), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            e_xy([])


class TestECurvature:
    def _traj(self, c, n=12):
        xs = np.linspace(0.0, 2.0, n)
        ys = project_path(SceneDynamics(c, 0.0), rho=0.0, xs=xs)
        return [VehicleState(float(x), float(y), 0.0) for x, y in zip(xs, ys)]

    def test_identical_trajectories(self):
        traj = self._traj(0.25)
        assert e_curvature(traj, traj) == 0.0

    def test_known_curvature_difference(self):
        assert e_curvature(self._traj(0.3), self._traj(0.1)) == pytest.approx(0.2, abs=1e-6)

    def test_lateral_offset_ignored(self):
        a = [VehicleState(0.2 * i, 0.0, 0.0) for i in range(8)]
        b = [VehicleState(0.2 * i, 0.5, 0.0) for i in range(8)]
        assert e_curvature(a, b) == pytest.approx(0.0, abs=1e-12)


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

    def test_record_forms_equal_their_loops(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 40):
            records = [OfflineRecord(float(i), *rng.normal(0.0, 2.0, 4), rng.uniform(0.0, 1.5)) for i in range(n)]
            assert repr(e_xy(records)) == repr(float(loop_e_xy(records)))
        for n in (3, 4, 25):
            traj = [VehicleState(*rng.normal(0.0, 3.0, 2), rng.uniform(-4.0, 4.0)) for _ in range(n)]
            assert repr(fit_curvature(traj)) == repr(float(loop_fit_curvature(traj)))


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
