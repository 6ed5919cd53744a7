import math

import numpy as np
import pytest

from visionmpc.geometry import rotate, wrap_angle
from visionmpc.scene import (
    RESIDUAL_K_C,
    RESIDUAL_K_W,
    GainSchedule,
    SceneDynamics,
    desired_trajectory,
    dynamics_from_trajectory,
    gain_schedule,
    pair_of_control,
    project_path,
    reference_control,
    residual_h,
)
from visionmpc.vehicle import ControlInput, ModelParams, VehicleState, step_nominal

from test_vehicle import path_of


class TestProjectPath:
    def test_all_zero_inputs_give_zero(self):
        ys = project_path(SceneDynamics(0.0, 0.0), rho=0.0, xs=[0.0, 0.5, 2.0])
        assert np.all(ys == 0.0)

    def test_heading_term_vanishes_at_the_last_sample(self):
        ys = project_path(SceneDynamics(0.0, 0.0), rho=0.1, xs=[0.5, 1.0])
        assert ys[0] == pytest.approx(0.05, abs=1e-15)
        assert ys[1] == 0.0

    def test_direct_substitution(self):
        ys = project_path(SceneDynamics(0.2, 0.5), rho=0.0, xs=[2.0])
        assert ys[0] == pytest.approx(0.4, abs=1e-12)

    def test_empty_samples_give_no_offsets(self):
        assert project_path(SceneDynamics(0.2, 0.5), rho=0.1, xs=[]).shape == (0,)

    def test_joint_linearity(self):
        xs = np.linspace(0.0, 3.0, 7)
        rng = np.random.default_rng(2)
        for _ in range(20):
            c1, c2 = rng.uniform(-1, 1, 2)
            w1, w2 = rng.uniform(0, 0.5, 2)
            r1, r2 = rng.uniform(-1, 1, 2)
            a = project_path(SceneDynamics(c1, w1), r1, xs)
            b = project_path(SceneDynamics(c2, w2), r2, xs)
            both = project_path(SceneDynamics(c1 + c2, w1 + w2), r1 + r2, xs)
            assert np.allclose(a + b, both, atol=1e-12)


def scalar_desired_trajectory(ref_slice, d, current):
    """desired_trajectory as a per-pose loop over the slice's columns: the
    oracle that the array form must equal bit for bit."""
    xs, prev_x, prev_y, acc = [], current.x, current.y, 0.0
    for x, y, _ in ref_slice.T.tolist():
        acc += math.hypot(x - prev_x, y - prev_y)
        xs.append(acc)
        prev_x, prev_y = x, y
    rho_rel = wrap_angle(current.rho - float(ref_slice[2, 0]))
    ys = project_path(d, rho_rel, xs)
    out = []
    for (x, y, rho), y_off, x_i in zip(ref_slice.T.tolist(), ys.tolist(), xs):
        ox, oy = rotate(0.0, y_off, current.rho)
        out.append((x + ox, y + oy, wrap_angle(rho + math.atan(d.c * x_i))))
    return np.array(out).T


class TestDesiredTrajectory:
    def _straight_ref(self, n, spacing=0.05):
        return path_of([VehicleState((i + 1) * spacing, 0.0, 0.0) for i in range(n)])

    def test_zero_dynamics_zero_relative_heading_is_identity(self):
        ref = self._straight_ref(6)
        out = desired_trajectory(ref, SceneDynamics(0.0, 0.0), VehicleState(0, 0, 0))
        assert out.shape == (3, 6)
        assert np.array_equal(out, ref)

    def test_curvature_correction_matches_hand_evaluation(self):
        spacing = 0.1
        ref = self._straight_ref(4, spacing)
        d = SceneDynamics(0.1, 0.0)
        out = desired_trajectory(ref, d, VehicleState(0, 0, 0))
        for i, (x, y, rho) in enumerate(out.T):
            x_i = spacing * (i + 1)
            y_expected = 0.5 * d.c * x_i ** 2  # w = 0, rho_rel = 0
            assert x == pytest.approx(ref[0, i], abs=1e-12)
            assert y == pytest.approx(y_expected, abs=1e-12)
            assert rho == pytest.approx(math.atan(d.c * x_i), abs=1e-12)
        # lateral deviation grows quadratically with longitudinal distance
        ys = out[1].tolist()
        ratios = [ys[i] / (spacing * (i + 1)) ** 2 for i in range(4)]
        assert np.allclose(ratios, 0.5 * d.c, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_one_pose_per_slice_pose(self, n):
        out = desired_trajectory(self._straight_ref(n), SceneDynamics(0.2, 0.5), VehicleState(0, 0, 0))
        assert out.shape == (3, n)

    @pytest.mark.parametrize("rho", [-0.3, 0.2])
    def test_long_horizon_anchors_the_heading_term_at_the_slice_end(self, rho):
        # 40 poses 0.1 m apart: a 4 s horizon at 0.1 s steps and 1 m/s; the
        # relative heading offsets every pose but the last
        ref = self._straight_ref(40, 0.1)
        out = desired_trajectory(ref, SceneDynamics(0.0, 1.0), VehicleState(0, 0, rho))
        assert np.array_equal(out[:, -1], ref[:, -1])
        assert not np.array_equal(out[:, 0], ref[:, 0])

    def test_poses_at_the_vehicle_get_no_heading_offset(self):
        at_rest = VehicleState(1.0, 2.0, 0.4)
        ref = path_of([VehicleState(1.0, 2.0, 0.0)] * 5)
        assert np.array_equal(desired_trajectory(ref, SceneDynamics(0.0, 0.5), at_rest), ref)

    def test_equals_the_per_pose_loop(self):
        # random slices, pairs and poses, with headings near +-pi and
        # curvature turns that carry them across the seam
        rng = np.random.default_rng(26)
        crossed = 0
        for trial in range(400):
            n = int(rng.integers(1, 25))
            current = VehicleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
            side = rng.choice((-1.0, 1.0))
            heads = side * (math.pi - rng.uniform(0.0, 0.1, n)) if trial % 2 else rng.uniform(-math.pi, math.pi, n)
            steps = rng.uniform(0.0, 0.12, (2, n)) * rng.choice((-1.0, 1.0), (2, 1))
            ref = np.vstack((current.x + np.cumsum(steps[0]), current.y + np.cumsum(steps[1]), wrap_angle(heads)))
            d = SceneDynamics(rng.uniform(-3.0, 3.0), rng.uniform(0.0, 1.0))
            got = desired_trajectory(ref, d, current)
            want = scalar_desired_trajectory(ref, d, current)
            assert got.shape == want.shape == (3, n)
            assert np.array_equal(got, want)
            crossed += np.any(np.abs(got[2] - ref[2]) > math.pi)
        assert crossed > 10


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
        traj = path_of([VehicleState(0.1 * i, 0.0, 0.0) for i in range(5)])
        d = dynamics_from_trajectory(traj, v=1.0, v_max=1.0)
        assert d.c == pytest.approx(0.0, abs=1e-12)
        assert d.w == 1.0

    def test_zero_speed_means_zero_width(self):
        traj = path_of([VehicleState(0.1 * i, 0.02 * i * i, 0.0) for i in range(5)])
        d = dynamics_from_trajectory(traj, v=0.0, v_max=1.0)
        assert d.w == 0.0

    def test_roundtrip_with_project_path(self):
        c_true = 0.3
        xs = np.linspace(0.0, 2.0, 15)
        ys = project_path(SceneDynamics(c_true, 0.0), rho=0.0, xs=xs)
        traj = path_of([VehicleState(float(x), float(y), 0.0) for x, y in zip(xs, ys)])
        d = dynamics_from_trajectory(traj, v=0.5, v_max=1.0)
        assert d.c == pytest.approx(c_true, abs=1e-6)
        assert d.w == pytest.approx(0.5)

    def test_rejects_too_few_or_degenerate(self):
        with pytest.raises(ValueError):
            dynamics_from_trajectory(path_of([VehicleState(0, 0, 0)] * 2), 0.5, 1.0)
        with pytest.raises(ValueError):
            dynamics_from_trajectory(path_of([VehicleState(1.0, 2.0, 0.0)] * 5), 0.5, 1.0)
        with pytest.raises(ValueError):
            dynamics_from_trajectory(path_of([VehicleState(0.1 * i, 0, 0) for i in range(5)]), 2.0, 1.0)


class TestControlPairMap:
    """reference_control maps a scene pair to the control that holds it,
    pair_of_control a control back to its pair."""

    L = 0.36

    @pytest.mark.parametrize("v_full", [1.0, 0.8])
    def test_control_to_pair_and_back_is_the_identity(self, v_full):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            u = ControlInput(rng.uniform(0.0, v_full), rng.uniform(-0.35, 0.35))
            back = reference_control(SceneDynamics(*pair_of_control(u, v_full, self.L)), v_full, self.L)
            assert abs(back.v_cmd - u.v_cmd) <= 1e-12
            assert abs(back.omega_cmd - u.omega_cmd) <= 1e-12
        for u in (ControlInput(0.0, 0.0), ControlInput(v_full, 0.35), ControlInput(v_full, -0.35)):
            back = reference_control(SceneDynamics(*pair_of_control(u, v_full, self.L)), v_full, self.L)
            assert abs(back.v_cmd - u.v_cmd) <= 1e-12 and abs(back.omega_cmd - u.omega_cmd) <= 1e-12

    def test_reference_speed_is_the_width_times_full_speed(self):
        assert reference_control(SceneDynamics(0.0, 0.25), 0.8, self.L) == ControlInput(0.2, 0.0)
        assert reference_control(SceneDynamics(0.0, 0.0), 0.8, self.L) == ControlInput(0.0, 0.0)

    def test_reference_steering_turns_the_model_at_the_pair_curvature(self):
        # one nominal step at speed v turns the heading by v dt sin(omega) / L = v dt c
        params = ModelParams(wheelbase_L=self.L, dt=0.05, sigma_f=0.0)
        for c in (-2.0, -0.5, 0.3, 1.5):
            u = reference_control(SceneDynamics(c, 0.5), 1.0, self.L)
            turned = step_nominal(VehicleState(0.0, 0.0, 0.0), u, params).rho
            assert turned == pytest.approx(u.v_cmd * 0.05 * c, rel=1e-12)

    @pytest.mark.parametrize("c", [3.0, -3.0, 1e6, -1e6])
    def test_curvature_beyond_the_steering_range_clips_without_raising(self, c):
        u = reference_control(SceneDynamics(c, 1.0), 1.0, self.L)
        assert u.omega_cmd == math.copysign(math.pi / 2.0, c)

    def test_pair_of_a_control_clips_the_width(self):
        assert pair_of_control(ControlInput(1.2, 0.0), 1.0, self.L)[1] == 1.0
        assert pair_of_control(ControlInput(-0.1, 0.0), 1.0, self.L)[1] == 0.0
        assert pair_of_control(ControlInput(0.4, 0.2), 0.8, self.L) == (math.sin(0.2) / self.L, 0.4 / 0.8)


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
        ys = project_path(SceneDynamics(c_true, 0.0), rho=0.0, xs=xs)
        traj = path_of([VehicleState(float(x), float(y), 0.0) for x, y in zip(xs, ys)])
        got = dynamics_from_trajectory(traj, 0.5, 1.0).c
        assert got == pytest.approx(c_true, abs=1e-6)
