import math

import numpy as np
import pytest

from visionmpc.scene import (
    LOOKAHEAD_TIME_S,
    MIN_LOOKAHEAD_M,
    RESIDUAL_K_C,
    RESIDUAL_K_W,
    GainSchedule,
    SceneDynamics,
    desired_trajectory,
    dynamics_from_trajectory,
    gain_schedule,
    project_path,
    residual_h,
)
from visionmpc.vehicle import VehicleState


class TestProjectPath:
    def test_all_zero_inputs_give_zero(self):
        ys = project_path(SceneDynamics(0.0, 0.0), rho=0.0, lookahead=1.0, xs=[0.0, 0.5, 2.0])
        assert np.all(ys == 0.0)

    def test_heading_term_vanishes_at_lookahead(self):
        ys = project_path(SceneDynamics(0.0, 0.0), rho=0.1, lookahead=1.0, xs=[1.0])
        assert ys[0] == pytest.approx(0.0, abs=1e-15)

    def test_direct_substitution(self):
        ys = project_path(SceneDynamics(0.2, 0.5), rho=0.0, lookahead=0.0, xs=[2.0])
        assert ys[0] == pytest.approx(0.4, abs=1e-12)

    def test_joint_linearity(self):
        xs = np.linspace(0.0, 3.0, 7)
        lookahead = 0.8
        rng = np.random.default_rng(2)
        for _ in range(20):
            c1, c2 = rng.uniform(-1, 1, 2)
            w1, w2 = rng.uniform(0, 0.5, 2)
            r1, r2 = rng.uniform(-1, 1, 2)
            a = project_path(SceneDynamics(c1, w1), r1, lookahead, xs)
            b = project_path(SceneDynamics(c2, w2), r2, lookahead, xs)
            both = project_path(SceneDynamics(c1 + c2, w1 + w2), r1 + r2, lookahead, xs)
            assert np.allclose(a + b, both, atol=1e-12)


class TestDesiredTrajectory:
    def _straight_ref(self, n, spacing=0.05):
        return [VehicleState((i + 1) * spacing, 0.0, 0.0) for i in range(n)]

    def test_zero_dynamics_zero_relative_heading_is_identity(self):
        ref = self._straight_ref(6)
        out = desired_trajectory(ref, SceneDynamics(0.0, 0.0), VehicleState(0, 0, 0), 0.05)
        assert len(out) == 6
        for got, want in zip(out, ref):
            assert got == want

    def test_curvature_correction_matches_hand_evaluation(self):
        horizon_dt = 0.1
        spacing = 0.1
        ref = self._straight_ref(4, spacing)
        d = SceneDynamics(0.1, 0.0)
        out = desired_trajectory(ref, d, VehicleState(0, 0, 0), horizon_dt)
        v_ref = spacing / horizon_dt
        lookahead = max(v_ref * LOOKAHEAD_TIME_S, MIN_LOOKAHEAD_M)
        for i, z in enumerate(out):
            x_i = spacing * (i + 1)
            y_expected = 0.5 * d.c * x_i ** 2  # w = 0, rho_rel = 0
            assert z.x == pytest.approx(ref[i].x, abs=1e-12)
            assert z.y == pytest.approx(y_expected, abs=1e-12)
            assert z.rho == pytest.approx(math.atan(d.c * x_i), abs=1e-12)
        # lateral deviation grows quadratically with longitudinal distance
        ys = [z.y for z in out]
        ratios = [ys[i] / (spacing * (i + 1)) ** 2 for i in range(4)]
        assert np.allclose(ratios, 0.5 * d.c, atol=1e-12)
        assert lookahead == 3.0  # v_ref = 1 m/s at this spacing, so no floor

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_one_pose_per_slice_pose(self, n):
        out = desired_trajectory(self._straight_ref(n), SceneDynamics(0.2, 0.5), VehicleState(0, 0, 0), 0.05)
        assert len(out) == n


class TestResidual:
    def test_zero_dynamics_zero_increment(self):
        res = residual_h(SceneDynamics(0.0, 0.0), rho=0.0)
        assert np.all(res == 0.0)

    def test_heading_component_direct_product(self):
        res = residual_h(SceneDynamics(0.5, 0.0), rho=0.0)
        assert res == pytest.approx([0.0, 0.0, 0.5 * RESIDUAL_K_C])

    def test_rotated_into_world_frame(self):
        res = residual_h(SceneDynamics(0.0, 1.0), rho=math.pi / 2)
        assert res[0] == pytest.approx(-RESIDUAL_K_W, abs=1e-12)
        assert res[1] == pytest.approx(0.0, abs=1e-12)
        assert res[2] == 0.0


class TestDynamicsFromTrajectory:
    def test_collinear_full_speed(self):
        traj = [VehicleState(0.1 * i, 0.0, 0.0) for i in range(5)]
        d = dynamics_from_trajectory(traj, v=1.0, v_max=1.0)
        assert d.c == pytest.approx(0.0, abs=1e-12)
        assert d.w == 1.0

    def test_zero_speed_means_zero_width(self):
        traj = [VehicleState(0.1 * i, 0.02 * i * i, 0.0) for i in range(5)]
        d = dynamics_from_trajectory(traj, v=0.0, v_max=1.0)
        assert d.w == 0.0

    def test_roundtrip_with_project_path(self):
        c_true = 0.3
        xs = np.linspace(0.0, 2.0, 15)
        ys = project_path(SceneDynamics(c_true, 0.0), rho=0.0, lookahead=0.7, xs=xs)
        traj = [VehicleState(float(x), float(y), 0.0) for x, y in zip(xs, ys)]
        d = dynamics_from_trajectory(traj, v=0.5, v_max=1.0)
        assert d.c == pytest.approx(c_true, abs=1e-6)
        assert d.w == pytest.approx(0.5)

    def test_rejects_too_few_or_degenerate(self):
        with pytest.raises(ValueError):
            dynamics_from_trajectory([VehicleState(0, 0, 0)] * 2, 0.5, 1.0)
        with pytest.raises(ValueError):
            dynamics_from_trajectory([VehicleState(1.0, 2.0, 0.0)] * 5, 0.5, 1.0)
        with pytest.raises(ValueError):
            dynamics_from_trajectory([VehicleState(0.1 * i, 0, 0) for i in range(5)], 2.0, 1.0)


class TestGainSchedule:
    def test_direct_substitution(self):
        g = gain_schedule(SceneDynamics(0.0, 0.5))
        assert (g.q_diag, g.r_diag) == (0.5, 0.5)

    def test_clamp_keeps_r_positive_definite(self):
        g = gain_schedule(SceneDynamics(0.0, 1.0))
        assert (g.q_diag, g.r_diag) == (1.0, 1e-3)

    def test_zero_width_pure_input_penalty(self):
        g = gain_schedule(SceneDynamics(0.0, 0.0))
        assert (g.q_diag, g.r_diag) == (0.0, 1.0)

    def test_monotone_in_width(self):
        widths = np.linspace(0.0, 1.0, 21)
        gains = [gain_schedule(SceneDynamics(0.0, float(w))) for w in widths]
        for a, b in zip(gains, gains[1:]):
            assert b.q_diag >= a.q_diag
            assert b.r_diag <= a.r_diag
        assert all(g.r_diag >= 1e-3 for g in gains)

    def test_gain_schedule_validation(self):
        with pytest.raises(ValueError):
            GainSchedule(q_diag=1.5, r_diag=0.5)
        with pytest.raises(ValueError):
            GainSchedule(q_diag=0.5, r_diag=0.0)


def test_roundtrip_curvature_property():
    rng = np.random.default_rng(17)
    for _ in range(50):
        c_true = float(rng.uniform(-1.0, 1.0))
        x_hi = float(rng.uniform(0.5, 3.0))
        xs = np.linspace(0.0, x_hi, 12)
        ys = project_path(SceneDynamics(c_true, 0.0), rho=0.0, lookahead=0.0, xs=xs)
        traj = [VehicleState(float(x), float(y), 0.0) for x, y in zip(xs, ys)]
        got = dynamics_from_trajectory(traj, 0.5, 1.0).c
        assert got == pytest.approx(c_true, abs=1e-6)
