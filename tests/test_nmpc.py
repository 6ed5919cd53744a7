import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from visionmpc import nmpc
from visionmpc.nmpc import (
    PENALTY_WEIGHT,
    NmpcConfig,
    NmpcError,
    _Linearization,
    _Problem,
    solve,
)
from visionmpc.geometry import wrap_angle
from visionmpc.scene import EPS_R, GainSchedule, SceneDynamics, gain_schedule
from visionmpc.vehicle import ControlInput, ModelParams, VehicleState, rollout, step_nominal

from test_vehicle import path_of, scalar_rollout

AT_REST = ControlInput(0.0, 0.0)
# u_ref = 0: the input term prices the control itself, as before u_ref existed
NO_REF = ControlInput(0.0, 0.0)
# a reference control inside the bounds, away from zero in both channels
U_REF = ControlInput(0.6, -0.12)


def config(**kw):
    """NmpcConfig with the tight solver stop these tests were written for
    (the pipeline's defaults stop at 4 iterations, 1e-4 and 1e-8)."""
    return NmpcConfig(**{"max_iters": 80, "grad_tol": 1e-6, "f_tol": 1e-12, **kw})


LOOSE = config(
    tau_o=4,
    du_min=ControlInput(-100.0, -100.0),
    du_max=ControlInput(100.0, 100.0),
)


@pytest.fixture
def loose_corridor(monkeypatch):
    """A cross-track corridor of +-10 m, wider than any offset these tests' paths reach."""
    monkeypatch.setattr(nmpc, "CORRIDOR_M", 10.0)


def tracking_cost(z_seq, u_seq, z_d, g, u_ref):
    """Quadratic tracking cost with wrapped heading errors, the scalar
    reference for the tracking and input terms of _Problem.forward.

    J = sum_k q * ||z_d,k - z_k||^2 + r * ||u_k - u_ref||^2, all sequences
    of equal length. Heading differences are wrapped to (-pi, pi].
    """
    if not (len(z_seq) == len(u_seq) == len(z_d)):
        raise ValueError(
            f"sequence lengths differ: states {len(z_seq)}, controls {len(u_seq)}, desired {len(z_d)}"
        )
    total = 0.0
    for z, u, d in zip(z_seq, u_seq, z_d):
        ex = d.x - z.x
        ey = d.y - z.y
        er = wrap_angle(d.rho - z.rho)
        total += g.q_diag * (ex * ex + ey * ey + er * er)
        dv = u.v_cmd - u_ref.v_cmd
        dw = u.omega_cmd - u_ref.omega_cmd
        total += g.r_diag * (dv * dv + dw * dw)
    return total


def gradient_at(problem, u):
    """The cost gradient the solver reads at u: that of its linearization there."""
    return _Linearization(problem, problem.forward(u)[1]).gradient


def model(cfg):
    """The noise-free vehicle model the solver predicts with."""
    return ModelParams(wheelbase_L=cfg.wheelbase_L, dt=cfg.dt, sigma_f=0.0)


def random_problem(rng, cfg, q=0.8):
    current = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))
    u_seq = [
        ControlInput(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(cfg.tau_o)
    ]
    z_d = scalar_rollout(current, u_seq, model(cfg))
    g = gain_schedule(SceneDynamics(0.0, q))
    return current, z_d, g, u_seq


class TestTrackingCost:
    def test_perfect_tracking_zero_controls(self):
        z = [VehicleState(1.0, 2.0, 0.3)] * 3
        u = [ControlInput(0.0, 0.0)] * 3
        assert tracking_cost(z, u, z, GainSchedule(1.0, 0.5), NO_REF) == 0.0

    def test_input_term_prices_the_distance_from_the_reference_control(self):
        z = [VehicleState(1.0, 2.0, 0.3)] * 2
        u = [ControlInput(0.5, 0.1), ControlInput(0.2, -0.1)]
        # r * ((0.5 - 0.2)^2 + (0.1 - 0.1)^2 + (0.2 - 0.2)^2 + (-0.1 - 0.1)^2)
        cost = tracking_cost(z, u, z, GainSchedule(1.0, 0.5), ControlInput(0.2, 0.1))
        assert cost == pytest.approx(0.5 * (0.09 + 0.04), rel=1e-12)
        assert tracking_cost(z, [ControlInput(0.2, 0.1)] * 2, z, GainSchedule(1.0, 0.5), ControlInput(0.2, 0.1)) == 0.0

    def test_hand_evaluated_quadratic(self):
        z = [VehicleState(0.0, 0.0, 0.0)]
        z_d = [VehicleState(3.0, 4.0, 0.0)]
        u = [ControlInput(0.0, 0.0)]
        assert tracking_cost(z, u, z_d, GainSchedule(1.0, 1e-3), NO_REF) == pytest.approx(25.0)

    def test_quadratic_homogeneity(self):
        g = GainSchedule(1.0, 1e-3)
        u = [ControlInput(0.0, 0.0)] * 2
        z = [VehicleState(0, 0, 0)] * 2
        z_d1 = [VehicleState(0.1, -0.2, 0.05), VehicleState(0.3, 0.1, -0.02)]
        z_d2 = [VehicleState(0.2, -0.4, 0.1), VehicleState(0.6, 0.2, -0.04)]
        assert tracking_cost(z, u, z_d2, g, NO_REF) == pytest.approx(4.0 * tracking_cost(z, u, z_d1, g, NO_REF))

    def test_heading_error_wraps_across_seam(self):
        g = GainSchedule(1.0, 1e-3)
        z = [VehicleState(0.0, 0.0, math.pi - 0.01)]
        z_d = [VehicleState(0.0, 0.0, -math.pi + 0.01)]
        cost = tracking_cost(z, [ControlInput(0, 0)], z_d, g, NO_REF)
        assert cost == pytest.approx(0.02 ** 2, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tracking_cost([VehicleState(0, 0, 0)], [], [VehicleState(0, 0, 0)], GainSchedule(1, 1), NO_REF)


@pytest.mark.parametrize("u_ref", [NO_REF, U_REF], ids=["no_ref", "u_ref"])
class TestObjectiveInternals:
    @pytest.mark.usefixtures("loose_corridor")
    def test_value_matches_public_tracking_cost(self, u_ref):
        rng = np.random.default_rng(0)
        cfg = LOOSE
        current, z_d, g, _ = random_problem(rng, cfg)
        problem = _Problem(current, path_of(z_d), None, g, cfg, AT_REST, u_ref, penalty=0.0)
        for _ in range(10):
            u = rng.uniform(-0.5, 1.2, size=2 * cfg.tau_o)
            u_seq = [ControlInput(u[2 * k], u[2 * k + 1]) for k in range(cfg.tau_o)]
            z_seq = scalar_rollout(current, u_seq, model(cfg))
            assert problem.value(u) == pytest.approx(tracking_cost(z_seq, u_seq, z_d, g, u_ref), rel=1e-12)

    @pytest.mark.usefixtures("loose_corridor")
    def test_gradient_matches_central_differences(self, u_ref):
        rng = np.random.default_rng(1)
        cfg = config(tau_o=6, du_min=ControlInput(-100, -100), du_max=ControlInput(100, 100))
        current, z_d, g, _ = random_problem(rng, cfg)
        problem = _Problem(current, path_of(z_d), [0.001, -0.002, 0.0005], g, cfg, AT_REST, u_ref, penalty=0.0)
        worst = 0.0
        for _ in range(30):
            u = rng.uniform(-0.2, 1.0, size=2 * cfg.tau_o)
            grad = gradient_at(problem, u)
            for i in range(u.size):
                h = 1e-6 * max(1.0, abs(u[i]))
                up, dn = u.copy(), u.copy()
                up[i] += h
                dn[i] -= h
                fd = (problem.value(up) - problem.value(dn)) / (2 * h)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, abs(fd - grad[i]) / denom)
        assert worst <= 1e-5

    def test_penalized_gradient_matches_central_differences(self, u_ref):
        # hinge penalties are C1; random points almost surely avoid the kinks
        rng = np.random.default_rng(2)
        cfg = config(tau_o=4)
        current, z_d, g, _ = random_problem(rng, cfg)
        problem = _Problem(current, path_of(z_d), None, g, cfg, ControlInput(0.2, 0.0), u_ref, penalty=100.0)
        for _ in range(10):
            u = rng.uniform(-0.5, 1.5, size=2 * cfg.tau_o)
            grad = gradient_at(problem, u)
            for i in range(u.size):
                h = 1e-6 * max(1.0, abs(u[i]))
                up, dn = u.copy(), u.copy()
                up[i] += h
                dn[i] -= h
                fd = (problem.value(up) - problem.value(dn)) / (2 * h)
                assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6) <= 1e-4


def hinge_active_problem(rng, tau_o, with_residual, with_u_ref=False):
    """A problem whose random controls push every penalty hinge active.

    Desired poses are scattered off the rollout and across the heading
    seam so the corridor hinge and the wrap both engage. Without
    with_u_ref the reference control is zero and the draws are those made
    before the reference control existed.
    """
    cfg = config(tau_o=tau_o)
    current = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3.1, 3.1))
    z_d = [
        VehicleState(z.x + rng.uniform(-0.9, 0.9), z.y + rng.uniform(-0.9, 0.9), rng.uniform(-3.1, 3.1))
        for z in random_problem(rng, cfg)[1]
    ]
    residual = rng.uniform(-0.02, 0.02, size=3) if with_residual else None
    u_prev = ControlInput(rng.uniform(0.0, 1.0), rng.uniform(-0.35, 0.35))
    g = GainSchedule(rng.uniform(0.0, 1.0), rng.uniform(0.01, 1.0))
    u_ref = ControlInput(rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.5)) if with_u_ref else NO_REF
    args = (residual, g, cfg, u_prev, u_ref, 1e3 * rng.uniform(0.5, 4.0))
    return cfg, u_prev, _Problem(current, path_of(z_d), *args), ScalarProblem(current, z_d, *args)


def worst_excess(fwd):
    """Worst constraint excess of a forward() pass: its last array holds the
    signed excesses over the actuator, rate and corridor bounds."""
    return max(0.0, float(np.abs(fwd[-1]).max()))


def hinge_active_controls(rng, tau_o):
    u = np.empty(2 * tau_o)
    u[0::2] = rng.uniform(-0.3, 1.3, size=tau_o)
    u[1::2] = rng.uniform(-0.6, 0.6, size=tau_o)
    return u


def assert_gradient_matches_the_adjoint(fwd, problem, want_grad):
    """The Jacobian's gradient at a forward() pass against the scalar loop's
    adjoint: equal up to a relative 1e-12, the rounding of a different sum order."""
    got = _Linearization(problem, fwd).gradient
    assert np.abs(got - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


class TestBitEqualityOracle:
    @pytest.mark.parametrize("tau_o", [1, 2, 10, 20])
    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("with_u_ref", [False, True])
    def test_cost_and_violation_equal_the_scalar_loop(self, tau_o, with_residual, with_u_ref):
        rng = np.random.default_rng(1000 * tau_o + 100 * with_u_ref + 10 * with_residual + 1)
        active = np.zeros(3, dtype=int)
        for _ in range(25):
            cfg, u_prev, problem, reference = hinge_active_problem(rng, tau_o, with_residual, with_u_ref)
            for _ in range(4):
                u = hinge_active_controls(rng, tau_o)
                want_cost, want_grad = reference._eval(u, need_grad=True)
                cost, fwd = problem.forward(u)
                assert cost == want_cost
                assert problem.value(u) == want_cost
                assert_gradient_matches_the_adjoint(fwd, problem, want_grad)
                assert worst_excess(fwd) == scalar_violation(u, cfg, u_prev, reference)
                # signed excesses over the actuator, rate and corridor bounds
                h = fwd[-1]
                n = 2 * tau_o
                active += [np.any(h[:n] != 0.0), np.any(h[n:-tau_o] != 0.0), np.any(h[-tau_o:] != 0.0)]
        # actuator, rate, corridor
        assert active[0] > 0 and active[2] > 0
        assert active[1] > 0

    def test_the_corridor_is_corridor_m_either_side_of_the_desired_path(self, monkeypatch):
        monkeypatch.setattr(nmpc, "CORRIDOR_M", 0.25)
        rng = np.random.default_rng(5)
        _, _, problem, reference = hinge_active_problem(rng, 10, True, True)
        assert (problem.lo[-10:] == -0.25).all() and (problem.hi[-10:] == 0.25).all()
        u = hinge_active_controls(rng, 10)
        assert problem.value(u) == reference._eval(u, need_grad=False)[0]

    def test_zero_controls_and_exact_bounds(self):
        rng = np.random.default_rng(7)
        for with_u_ref in (False, True):
            for tau_o in (1, 2, 10, 20):
                cfg, u_prev, problem, reference = hinge_active_problem(rng, tau_o, True, with_u_ref)
                edges = np.tile((cfg.u_max.v_cmd, cfg.u_min.omega_cmd), tau_o)
                # u = u_ref zeroes the input term
                at_ref = np.tile((reference.u_ref.v_cmd, reference.u_ref.omega_cmd), tau_o)
                for u in (np.zeros(2 * tau_o), np.full(2 * tau_o, -0.0), edges, at_ref):
                    want_cost, want_grad = reference._eval(u, need_grad=True)
                    got_cost, fwd = problem.forward(u)
                    assert got_cost == want_cost
                    assert_gradient_matches_the_adjoint(fwd, problem, want_grad)
                    assert worst_excess(fwd) == scalar_violation(u, cfg, u_prev, reference)


class TestGaussNewton:
    @pytest.mark.parametrize("u_ref", [NO_REF, U_REF], ids=["no_ref", "u_ref"])
    def test_jacobian_matches_central_differences_across_the_heading_wrap(self, u_ref):
        rng = np.random.default_rng(31)
        cfg = config(tau_o=8)
        wrapped = 0
        for trial in range(20):
            # headings start near the seam and steer across it
            current = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), math.pi - rng.uniform(0.0, 0.05))
            z_d = [VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3.1, 3.1)) for _ in range(8)]
            problem = _Problem(current, path_of(z_d), rng.uniform(-0.02, 0.02, size=3), GainSchedule(1.0, 0.1),
                               cfg, AT_REST, u_ref, PENALTY_WEIGHT)
            u = np.empty(16)
            u[0::2] = rng.uniform(0.2, 1.0, size=8)
            u[1::2] = rng.uniform(0.0, 0.35, size=8) * (1 if trial % 2 else -1)
            fwd = problem.forward(u)[1]
            jac = problem.jacobian(fwd)
            # the predicted heading is the desired one plus its wrapped error
            rho = np.concatenate(([current.rho], _wrap_fast(fwd[3] + problem.rd)))
            wrapped += np.any(np.abs(np.diff(rho)) > math.pi)
            for j in range(u.size):
                h = 1e-6
                up, dn = u.copy(), u.copy()
                up[j] += h
                dn[j] -= h
                _, fu = problem.forward(up)
                eu_xy, eu_r = fu[2].copy(), fu[3].copy()
                _, fd = problem.forward(dn)
                fd_xy = (eu_xy - fd[2]) / (2 * h)
                # heading errors are wrapped; so is their difference
                fd_r = (math.pi - (math.pi - (eu_r - fd[3])) % (2 * math.pi)) / (2 * h)
                got = jac[:, :, j]
                assert np.abs(got[:2] - fd_xy).max() <= 1e-7
                assert np.abs(got[2] - fd_r).max() <= 1e-7
                # state k + 1 does not depend on later controls
                assert not got[:, : j // 2].any()
        assert wrapped > 0

    @pytest.mark.parametrize("u_ref", [NO_REF, U_REF], ids=["no_ref", "u_ref"])
    def test_second_order_term_completes_the_hessian_across_the_heading_wrap(self, u_ref):
        # without penalties, q (J'J + S) + r I is half the objective's Hessian
        rng = np.random.default_rng(37)
        cfg = config(tau_o=8)
        wrapped = 0
        for trial in range(20):
            current = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), math.pi - rng.uniform(0.0, 0.05))
            z_d = [VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3.1, 3.1)) for _ in range(8)]
            problem = _Problem(current, path_of(z_d), rng.uniform(-0.02, 0.02, size=3),
                               GainSchedule(rng.uniform(0.1, 1.0), rng.uniform(0.01, 1.0)),
                               cfg, AT_REST, u_ref, penalty=0.0)
            u = np.empty(16)
            u[0::2] = rng.uniform(0.2, 1.0, size=8)
            u[1::2] = rng.uniform(0.0, 0.35, size=8) * (1 if trial % 2 else -1)
            fwd = problem.forward(u)[1]
            rho = np.concatenate(([current.rho], _wrap_fast(fwd[3] + problem.rd)))
            wrapped += np.any(np.abs(np.diff(rho)) > math.pi)
            jac = problem.jacobian(fwd)
            flat = jac.reshape(24, 16)
            curvature = problem.curvature(fwd, jac)
            assert np.array_equal(curvature, curvature.T)
            half_hess = problem.q * (flat.T @ flat + curvature) + problem.r * np.eye(16)
            fd = np.empty((16, 16))
            for j in range(16):
                h = 1e-6
                up, dn = u.copy(), u.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (gradient_at(problem, up) - gradient_at(problem, dn)) / (4 * h)
            assert np.abs(half_hess - fd).max() <= 1e-7 * np.abs(fd).max()
        assert wrapped > 0

    def test_second_order_model_takes_the_absolute_eigenvalues(self):
        # V |Lambda| V' of q (J'J + S) + r I, plus the damping: symmetric and
        # positive definite; a matrix that is positive definite already is
        # kept as it is
        rng = np.random.default_rng(41)
        kinds = {"indefinite": 0, "definite": 0}
        for trial in range(40):
            if trial % 2:
                _, _, problem, _ = hinge_active_problem(rng, 10, True, True)
                u = hinge_active_controls(rng, 10)
            else:
                # near a control sequence that its desired poses are the rollout of
                cfg = config(tau_o=10)
                current, z_d, g, u_seq = random_problem(rng, cfg)
                problem = _Problem(current, path_of(z_d), None, g, cfg, AT_REST, U_REF, PENALTY_WEIGHT)
                u = np.array([c for ui in u_seq for c in (ui.v_cmd, ui.omega_cmd)]) + rng.normal(scale=1e-3, size=20)
            fwd = problem.forward(u)[1]
            jac = problem.jacobian(fwd)
            flat = jac.reshape(30, 20)
            raw = problem.q * (flat.T @ flat + problem.curvature(fwd, jac))
            raw.reshape(-1)[::21] += problem.r
            lam = np.linalg.eigvalsh(raw)
            hess = _Linearization(problem, fwd).hessian(second_order=True)
            assert np.array_equal(hess, hess.T)
            got = np.linalg.eigvalsh(hess)
            # each eigendecomposition rounds by a small multiple of eps times the matrix norm
            rounding = 1e-12 * np.abs(lam).max()
            assert got.min() >= nmpc._DAMPING - rounding
            assert np.abs(got - np.sort(np.abs(lam) + nmpc._DAMPING)).max() <= rounding
            if lam[0] > 0.0:
                kinds["definite"] += 1
                raw.reshape(-1)[::21] += nmpc._DAMPING
                assert np.array_equal(hess, raw)
            else:
                kinds["indefinite"] += 1
        assert kinds["definite"] > 0 and kinds["indefinite"] > 0

    @pytest.mark.parametrize("tau_o", [1, 2, 10, 20])
    @pytest.mark.parametrize("with_u_ref", [False, True])
    def test_twice_the_residual_jacobian_times_the_residual_is_the_gradient(self, tau_o, with_u_ref):
        rng = np.random.default_rng(4000 + 100 * with_u_ref + tau_o)
        active = np.zeros(3, dtype=int)
        for _ in range(25):
            _, _, problem, _ = hinge_active_problem(rng, tau_o, True, with_u_ref)
            u = hinge_active_controls(rng, tau_o)
            _, fwd = problem.forward(u)
            jac, (e, er, h) = problem.jacobian(fwd), fwd[2:]
            model = _Linearization(problem, fwd)
            A = np.stack([model.hinge_args(col) for col in np.eye(2 * tau_o)], axis=1)
            # residuals sqrt(q) (ex, ey, e_rho), sqrt(r) (u - u_ref) and sqrt(pw) hinges, and their Jacobian
            sq, sr, sp = math.sqrt(problem.q), math.sqrt(problem.r), math.sqrt(problem.pw)
            res = np.concatenate((sq * e[0], sq * e[1], sq * er, sr * (u - problem.u_ref), sp * h))
            J = np.vstack((sq * jac.reshape(3 * tau_o, -1), sr * np.eye(2 * tau_o), sp * A))
            want = model.gradient
            assert np.abs(2.0 * J.T @ res - want).max() <= 1e-12 * np.abs(want).max()
            n = 2 * tau_o
            active += [np.any(h[:n] != 0.0), np.any(h[n:-tau_o] != 0.0), np.any(h[-tau_o:] != 0.0)]
        assert (active > 0).all()

    @pytest.mark.parametrize("tau_o", [2, 10, 20])
    @pytest.mark.parametrize("with_u_ref", [False, True])
    def test_inner_loop_step_minimizes_the_model(self, tau_o, with_u_ref, monkeypatch):
        # uncapped, the semismooth Newton steps end at the model's minimizer
        monkeypatch.setattr(nmpc, "_INNER_ITERS", 200)
        rng = np.random.default_rng(5000 + 100 * with_u_ref + tau_o)
        for _ in range(10):
            _, _, problem, _ = hinge_active_problem(rng, tau_o, True, with_u_ref)
            _, fwd = problem.forward(hinge_active_controls(rng, tau_o))
            model = _Linearization(problem, fwd)
            hess = model.hessian(second_order=False)
            d = model.minimize(hess)

            def value(step):
                h = nmpc._hinges(model.z0 + model.hinge_args(step), problem.lo, problem.hi)
                return float(step @ (0.5 * (hess @ step) + model.grad)) + 0.5 * problem.pw * float(h @ h)

            def slope(step):
                h = nmpc._hinges(model.z0 + model.hinge_args(step), problem.lo, problem.hi)
                return hess @ step + model.grad + problem.pw * model.hinge_grad(h)

            # the model is C1, so its subgradient is its gradient
            assert np.abs(slope(d)).max() <= 1e-7 * max(1.0, np.abs(slope(np.zeros_like(d))).max())
            best = value(d)
            assert best < value(np.zeros_like(d))
            for _ in range(50):
                assert value(d + rng.normal(scale=1e-3, size=d.size)) >= best

    @pytest.mark.parametrize("with_u_ref", [False, True])
    def test_capped_inner_loop_still_lowers_the_model(self, with_u_ref):
        rng = np.random.default_rng(77 + 100 * with_u_ref)
        for _ in range(20):
            _, _, problem, _ = hinge_active_problem(rng, 20, True, with_u_ref)
            _, fwd = problem.forward(hinge_active_controls(rng, 20))
            model = _Linearization(problem, fwd)
            d = model.minimize(model.hessian(second_order=False))
            assert float(model.gradient @ d) < 0.0

    @pytest.mark.parametrize("r_diag", [EPS_R, 0.0])
    def test_solve_at_rest_with_full_tracking_weight(self, r_diag):
        # at w = 1 the schedule gives r = EPS_R; GainSchedule refuses r = 0,
        # so a stand-in carries it: at rest the steering columns of J are
        # zero and J'J alone is singular
        g = SimpleNamespace(q_diag=1.0, r_diag=r_diag)
        cfg = NmpcConfig(tau_o=10, max_iters=25)
        at_rest = [VehicleState(0.0, 0.0, 0.0)] * 10
        sol = solve(VehicleState(0.0, 0.0, 0.0), path_of(at_rest), None, g, cfg, AT_REST, NO_REF)
        assert np.isfinite(sol.u_opt).all() and math.isfinite(sol.cost)
        moving = [VehicleState(0.05 * (k + 1), 0.0, 0.0) for k in range(10)]
        sol = solve(VehicleState(0.0, 0.0, 0.0), path_of(moving), None, g, cfg, AT_REST, NO_REF)
        assert np.isfinite(sol.u_opt).all()
        assert 0.0 < sol.u_opt[0] <= cfg.du_max.v_cmd * cfg.dt


FIXTURE = Path(__file__).parent / "data" / "nmpc_fixture.npz"


def fixture_cases(data, tag):
    """The fixture's solve inputs for one workload, with the config they ran under."""
    c = data[f"{tag}_config"]
    # the recorded corridor bounds are the one corridor every solve runs under
    assert (c[11], c[12]) == (-nmpc.CORRIDOR_M, nmpc.CORRIDOR_M)
    cfg = NmpcConfig(
        tau_o=int(c[0]), dt=c[1], wheelbase_L=c[2],
        u_min=ControlInput(c[3], c[4]), u_max=ControlInput(c[5], c[6]),
        du_min=ControlInput(c[7], c[8]), du_max=ControlInput(c[9], c[10]),
        max_iters=int(c[13]), grad_tol=c[14], f_tol=c[15],
    )
    for i in range(data[f"{tag}_cost"].size):
        warm = data[f"{tag}_warm"][i]
        yield (
            VehicleState(*data[f"{tag}_state"][i]),
            data[f"{tag}_z_d"][i].T,
            data[f"{tag}_residual"][i],
            GainSchedule(*data[f"{tag}_gains"][i]),
            cfg,
            ControlInput(*data[f"{tag}_u_prev"][i]),
            None if np.isnan(warm).all() else warm,
        ), float(data[f"{tag}_cost"][i])


class TestCostGate:
    """Solve inputs recorded from the dwa_suite and train_short benchmark
    workloads, seeds 1-3, each with the cost at PENALTY_WEIGHT that the
    former penalty-BFGS solver reached (see CHANGES.md for how they were made).
    Those costs priced the controls themselves, so the gate replays every
    solve at u_ref = 0."""

    @pytest.mark.parametrize("tag", ["dwa", "train"])
    def test_no_solve_costs_more_than_the_recorded_one(self, tag):
        with np.load(FIXTURE, allow_pickle=False) as data:
            cases = list(fixture_cases(data, tag))
        assert len(cases) > 150
        ratios = []
        for args, recorded in cases:
            sol = solve(*args[:6], NO_REF, warm_start=args[6])
            assert sol.cost <= recorded * (1.0 + 1e-3) + 1e-9
            if recorded > 0.0:
                ratios.append(sol.cost / recorded)
        assert np.median(ratios) <= 1.0

    @pytest.mark.parametrize("tag", ["dwa", "train"])
    def test_the_shipped_budget_passes_the_same_gate(self, tag):
        # the recorded configs ran 40 and 25 iterations; NmpcConfig's
        # budget, which every pipeline runs, must meet the same bound
        budget = NmpcConfig().max_iters
        with np.load(FIXTURE, allow_pickle=False) as data:
            cases = list(fixture_cases(data, tag))
        ratios = []
        for args, recorded in cases:
            cfg = replace(args[4], max_iters=min(args[4].max_iters, budget))
            sol = solve(*args[:4], cfg, args[5], NO_REF, warm_start=args[6])
            assert sol.iterations <= budget
            assert sol.cost <= recorded * (1.0 + 1e-3) + 1e-9
            if recorded > 0.0:
                ratios.append(sol.cost / recorded)
        assert np.median(ratios) <= 1.0

    @pytest.mark.parametrize("tag", ["dwa", "train"])
    def test_every_recorded_solve_converges_within_eight_iterations(self, tag):
        # the Newton model of the later iterations ends the linear tail of
        # Gauss-Newton, which took up to 38 iterations and missed the
        # tolerance on 11 of these solves
        with np.load(FIXTURE, allow_pickle=False) as data:
            cases = list(fixture_cases(data, tag))
        for args, _ in cases:
            sol = solve(*args[:6], NO_REF, warm_start=args[6])
            assert type(sol.converged) is bool
            assert sol.converged and sol.iterations <= 8

    def test_large_residual_solves_take_the_newton_model_from_the_first_iteration(self, monkeypatch):
        # a solve whose initial cost is at least _LARGE_RESIDUAL_COST builds
        # every model with the second-order term; a smaller one from
        # iteration _EXACT_HESSIAN_FROM on, so a small-residual solve that
        # stops sooner does the work, and gives the result, of a solver
        # without that term
        built, starts = [], []
        gauss_newton = nmpc._gauss_newton
        hessian = _Linearization.hessian

        def spy_hessian(self, second_order):
            built[-1].append(second_order)
            return hessian(self, second_order)

        def spy_gauss_newton(*args):
            out = gauss_newton(*args)
            starts.append(out[0])
            return out

        with np.load(FIXTURE, allow_pickle=False) as data:
            cases = list(fixture_cases(data, "train"))
        runs = []
        for args, _ in cases:
            built.append([])
            monkeypatch.setattr(_Linearization, "hessian", spy_hessian)
            monkeypatch.setattr(nmpc, "_gauss_newton", spy_gauss_newton)
            sol = solve(*args[:6], NO_REF, warm_start=args[6])
            monkeypatch.undo()
            monkeypatch.setattr(nmpc, "_EXACT_HESSIAN_FROM", 10 ** 6)
            monkeypatch.setattr(nmpc, "_LARGE_RESIDUAL_COST", math.inf)
            plain = solve(*args[:6], NO_REF, warm_start=args[6])
            monkeypatch.undo()
            runs.append((sol, plain, starts[-1], built[-1]))
        assert len(starts) == len(cases)
        small_and_short = large = 0
        for sol, plain, f0, flags in runs:
            assert flags == [
                k >= nmpc._EXACT_HESSIAN_FROM or f0 >= nmpc._LARGE_RESIDUAL_COST for k in range(len(flags))
            ]
            assert all(type(flag) is bool for flag in flags)
            if f0 >= nmpc._LARGE_RESIDUAL_COST:
                large += 1
            elif sol.iterations <= nmpc._EXACT_HESSIAN_FROM:
                small_and_short += 1
                assert not any(flags)
                assert np.array_equal(sol.u_opt, plain.u_opt) and sol.cost == plain.cost
                assert sol.iterations == plain.iterations
        assert large > 50 and small_and_short > 50


class TestConfig:
    def test_zero_f_tol_is_accepted_and_negative_refused(self):
        assert NmpcConfig(f_tol=0.0).f_tol == 0.0
        with pytest.raises(ValueError, match="f_tol non-negative"):
            NmpcConfig(f_tol=-1.0)

    @pytest.mark.parametrize("field, value", [("max_iters", 0), ("grad_tol", 0.0)])
    def test_stop_fields_outside_their_range_are_refused(self, field, value):
        with pytest.raises(ValueError, match="max_iters must be at least 1, grad_tol positive"):
            NmpcConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["tau_o", "dt", "wheelbase_L", "max_iters", "grad_tol", "f_tol"])
    def test_non_finite_fields_are_refused(self, field, value):
        # NaN passes every `<= 0` test, so each field is checked for finiteness first
        with pytest.raises(ValueError, match="NmpcConfig must be finite"):
            NmpcConfig(**{field: value})


class TestReachable:
    def test_window_is_the_actuator_box_cut_by_one_period_of_rate(self):
        cfg = NmpcConfig()
        v_window, omega_window = cfg.reachable(ControlInput(0.95, 0.3))
        assert v_window == (0.95 + cfg.du_min.v_cmd * cfg.dt, cfg.u_max.v_cmd)
        assert omega_window == (0.3 + cfg.du_min.omega_cmd * cfg.dt, cfg.u_max.omega_cmd)

    def test_clipping_to_the_window_equals_rate_then_actuator_clipping(self):
        # the baselines' former two-stage clip, for any anchor inside the bounds
        cfg = NmpcConfig(u_max=ControlInput(0.5, 0.35))
        rng = np.random.default_rng(3)
        dt = cfg.dt
        for _ in range(2000):
            prev = ControlInput(rng.uniform(0.0, 0.5), rng.uniform(-0.35, 0.35))
            v = rng.uniform(-0.5, 1.5)
            (v_lo, v_hi), _ = cfg.reachable(prev)
            staged = min(max(v, prev.v_cmd + cfg.du_min.v_cmd * dt), prev.v_cmd + cfg.du_max.v_cmd * dt)
            staged = min(max(staged, cfg.u_min.v_cmd), cfg.u_max.v_cmd)
            assert min(max(v, v_lo), v_hi) == staged


def rotate_scene(theta, current, z_d, residual):
    """The scene (current, z_d, residual) turned by theta about the origin;
    the residual's heading part is left as it is."""
    c, s = math.cos(theta), math.sin(theta)

    def turn(z):
        return VehicleState(c * z.x - s * z.y, s * z.x + c * z.y, z.rho + theta)

    rx, ry, rr = residual
    return turn(current), [turn(z) for z in z_d], (c * rx - s * ry, s * rx + c * ry, rr)


class TestSolve:
    @pytest.mark.usefixtures("loose_corridor")
    def test_inverse_crime_recovery(self):
        # a near-zero input weight makes the generating sequence the optimum
        cfg = config(tau_o=6, max_iters=300, du_min=ControlInput(-100, -100), du_max=ControlInput(100, 100))
        g = GainSchedule(1.0, 1e-6)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            current, z_d, _, u_true = random_problem(rng, cfg)
            sol = solve(current, path_of(z_d), None, g, cfg, AT_REST, NO_REF)
            assert sol.cost <= 1e-4
            for (v, omega), want in zip(sol.u_opt.reshape(-1, 2), u_true):
                assert v == pytest.approx(want.v_cmd, abs=1e-2)
                assert omega == pytest.approx(want.omega_cmd, abs=1e-2)

    @pytest.mark.usefixtures("loose_corridor")
    def test_brute_force_oracle_on_tiny_instances(self):
        cfg = LOOSE
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            current, z_d, g, _ = random_problem(rng, cfg)
            sol = solve(current, path_of(z_d), None, g, cfg, AT_REST, NO_REF)
            oracle = brute_force_min(current, z_d, g, cfg)
            assert sol.cost <= 1.05 * oracle + 1e-12

    def test_heading_crossing_the_seam_solves_as_the_rotated_scene(self):
        # the predicted heading is wrapped only in the heading error, so a
        # solve whose prediction crosses +-pi returns the controls of the
        # same scene turned a quarter turn clockwise, where no heading crosses
        cfg = config(tau_o=10)
        g = GainSchedule(0.9, 0.05)
        for seed in range(6):
            rng = np.random.default_rng(300 + seed)
            current = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), math.pi - rng.uniform(0.01, 0.05))
            u_seq = [ControlInput(rng.uniform(0.5, 1.0), rng.uniform(0.2, 0.35)) for _ in range(cfg.tau_o)]
            z_d = [
                VehicleState(z.x + rng.uniform(-0.05, 0.05), z.y + rng.uniform(-0.05, 0.05), z.rho)
                for z in scalar_rollout(current, u_seq, model(cfg))
            ]
            residual = rng.uniform(-0.01, 0.01, size=3)
            u_prev = ControlInput(0.5, 0.2)
            sol = solve(current, path_of(z_d), residual, g, cfg, u_prev, U_REF)
            t_current, t_z_d, t_residual = rotate_scene(-math.pi / 2, current, z_d, residual)
            turned = solve(t_current, path_of(t_z_d), t_residual, g, cfg, u_prev, U_REF)
            assert sol.converged and turned.converged
            assert np.abs(sol.u_opt - turned.u_opt).max() <= 1e-9
            # the first prediction crosses the seam, the turned one does not
            rho = rollout(current, sol.u_opt[0::2], sol.u_opt[1::2], cfg.tau_o, cfg, residual)[1]
            t_rho = rollout(t_current, turned.u_opt[0::2], turned.u_opt[1::2], cfg.tau_o, cfg, t_residual)[1]
            assert rho.max() > math.pi and np.abs(t_rho).max() < math.pi


    def test_start_at_a_minimizer_is_returned_as_it_is(self, monkeypatch):
        # u_ref held over the horizon, tracking its own model rollout, is an
        # exact minimizer: no iteration runs, and the projected start comes
        # back bit for bit with its cost, projected and evaluated only once
        cfg = config(tau_o=8)
        current = VehicleState(0.3, -0.2, 0.4)
        z_d = scalar_rollout(current, [U_REF] * cfg.tau_o, model(cfg))
        g = gain_schedule(SceneDynamics(0.0, 0.6))
        start = np.tile((U_REF.v_cmd, U_REF.omega_cmd), cfg.tau_o)
        projected = nmpc._clip_chain(start, cfg, U_REF)
        cost = _Problem(current, path_of(z_d), None, g, cfg, U_REF, U_REF, PENALTY_WEIGHT).value(projected)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(nmpc, "_clip_chain", counted("project", nmpc._clip_chain))
        monkeypatch.setattr(_Problem, "forward", counted("evaluate", _Problem.forward))
        sol = solve(current, path_of(z_d), None, g, cfg, U_REF, U_REF, warm_start=start)
        assert sol.iterations == 0 and sol.converged
        assert np.array_equal(sol.u_opt, projected)
        assert sol.cost == cost
        assert calls == ["project", "evaluate"]

    def test_warm_start_fixed_point(self):
        rng = np.random.default_rng(5)
        cfg = config(tau_o=5, max_iters=300)
        current, z_d, g, _ = random_problem(rng, cfg)
        first = solve(current, path_of(z_d), None, g, cfg, AT_REST, NO_REF)
        again = solve(current, path_of(z_d), None, g, cfg, AT_REST, NO_REF, warm_start=first.u_opt)
        assert again.converged
        assert again.iterations <= 2
        for a, b in zip(first.u_opt, again.u_opt):
            assert a == pytest.approx(b, abs=1e-6)

    def test_solve_deterministic(self):
        rng = np.random.default_rng(9)
        cfg = config(tau_o=8)
        current, z_d, g, _ = random_problem(rng, cfg)
        a = solve(current, path_of(z_d), [0.0, 0.01, 0.0], g, cfg, ControlInput(0.1, 0.0), U_REF)
        b = solve(current, path_of(z_d), [0.0, 0.01, 0.0], g, cfg, ControlInput(0.1, 0.0), U_REF)
        assert np.array_equal(a.u_opt, b.u_opt)
        assert a.cost == b.cost
        assert a.iterations == b.iterations

    def test_solution_respects_bounds_and_rates_exactly(self):
        # desired trajectory demands more speed than the actuator allows
        cfg = config(tau_o=6)
        g = GainSchedule(1.0, 1e-3)
        current = VehicleState(0, 0, 0)
        z_d = [VehicleState(0.5 * (i + 1), 0.0, 0.0) for i in range(6)]  # 10 m/s
        u_prev = ControlInput(0.0, 0.0)
        sol = solve(current, path_of(z_d), None, g, cfg, u_prev, NO_REF)
        prev = u_prev
        for u in (ControlInput(v, omega) for v, omega in sol.u_opt.reshape(-1, 2)):
            assert cfg.u_min.v_cmd <= u.v_cmd <= cfg.u_max.v_cmd
            assert cfg.u_min.omega_cmd <= u.omega_cmd <= cfg.u_max.omega_cmd
            assert u.v_cmd - prev.v_cmd <= cfg.du_max.v_cmd * cfg.dt + 1e-12
            assert u.v_cmd - prev.v_cmd >= cfg.du_min.v_cmd * cfg.dt - 1e-12
            assert u.omega_cmd - prev.omega_cmd <= cfg.du_max.omega_cmd * cfg.dt + 1e-12
            assert u.omega_cmd - prev.omega_cmd >= cfg.du_min.omega_cmd * cfg.dt - 1e-12
            prev = u

    def test_desired_length_mismatch(self):
        cfg = config(tau_o=4)
        with pytest.raises(ValueError):
            solve(VehicleState(0, 0, 0), path_of([VehicleState(0, 0, 0)] * 3), None, GainSchedule(1, 0.5), cfg, AT_REST,
                  NO_REF)

    def test_desired_trajectory_of_another_shape_is_a_value_error(self):
        cfg = config(tau_o=4)
        z_d = path_of([VehicleState(0.1 * i, 0, 0) for i in range(1, 5)])
        for bad in (z_d.T, z_d[:2], z_d[:, :3], tuple(VehicleState(*pose) for pose in z_d.T.tolist())):
            with pytest.raises(ValueError, match="desired trajectory shape"):
                solve(VehicleState(0, 0, 0), bad, None, GainSchedule(1, 0.5), cfg, AT_REST, NO_REF)

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_desired_trajectory_raises_nmpc_error(self, row, value):
        cfg = config(tau_o=3)
        z_d = path_of([VehicleState(0.1 * i, 0, 0) for i in range(1, 4)])
        z_d[row, 1] = value
        with pytest.raises(NmpcError, match="non-finite desired trajectory"):
            solve(VehicleState(0, 0, 0), z_d, None, GainSchedule(1, 0.5), cfg, AT_REST, NO_REF)

    def test_non_finite_residual_raises_nmpc_error(self):
        cfg = config(tau_o=3)
        z_d = [VehicleState(0.1 * i, 0, 0) for i in range(1, 4)]
        with pytest.raises(NmpcError, match="non-finite residual"):
            solve(VehicleState(0, 0, 0), path_of(z_d), [float("inf"), 0, 0], GainSchedule(1, 0.5), cfg, AT_REST, NO_REF)
        # a wrongly shaped residual is a caller bug, not a numeric failure
        with pytest.raises(ValueError, match="3-vector"):
            solve(VehicleState(0, 0, 0), path_of(z_d), [0.0, 0.0], GainSchedule(1, 0.5), cfg, AT_REST, NO_REF)

    def test_overflowing_objective_raises_with_context(self):
        cfg = config(tau_o=3)
        z_d = [VehicleState(0.1 * i, 0, 0) for i in range(1, 4)]
        with np.errstate(over="ignore"), pytest.raises(NmpcError):
            solve(VehicleState(0, 0, 0), path_of(z_d), [1e308, 0, 0], GainSchedule(1, 0.5), cfg, AT_REST, NO_REF)


def receding_step(state, z_d, g, cfg, u_prev, u_ref, warm=None):
    """One receding-horizon step as LVD-NMPC takes it: solve from the last
    solution warm shifted by one step, and apply the first pair."""
    init = None if warm is None else np.concatenate((warm[2:], warm[-2:]))
    sol = solve(state, path_of(z_d), None, g, cfg, u_prev, u_ref, warm_start=init)
    return ControlInput(float(sol.u_opt[0]), float(sol.u_opt[1])), sol


class TestRecedingHorizon:
    def test_stationary_hold_emits_small_control(self):
        cfg = config(tau_o=8)
        g = GainSchedule(1.0, 1e-3)
        current = VehicleState(0.4, -0.2, 0.3)
        z_d = [current] * 8
        u, sol = receding_step(current, z_d, g, cfg, AT_REST, NO_REF)
        assert math.hypot(u.v_cmd, u.omega_cmd) <= 1e-2

    def test_speed_converges_on_straight_line(self):
        cfg = config(tau_o=8)
        g = GainSchedule(1.0, 1e-3)
        v_star = 0.25
        state = VehicleState(0.0, 0.0, 0.0)
        warm = None
        u_prev = ControlInput(0.0, 0.0)
        u = None
        for _ in range(3):
            z_d = [VehicleState(state.x + v_star * cfg.dt * (i + 1), 0.0, 0.0) for i in range(8)]
            u, sol = receding_step(state, z_d, g, cfg, u_prev, NO_REF, warm)
            warm = sol.u_opt
            state = step_nominal(state, u, model(cfg))
            u_prev = u
        assert u.v_cmd == pytest.approx(v_star, rel=0.05)

    @pytest.mark.parametrize("w", [0.25, 0.5, 0.75])
    def test_scheduled_gains_hold_the_reference_speed(self, w):
        # gains and reference control of the scene pair (0, w) on a straight
        # path spaced at w * v_full: the input term pulls the speed toward
        # u_ref, where pricing u itself pulled it toward rest
        cfg = config(tau_o=8)
        g = gain_schedule(SceneDynamics(0.0, w))
        v_star = w * cfg.u_max.v_cmd
        speeds = {}
        for label, u_ref in (("u_ref", ControlInput(v_star, 0.0)), ("no_ref", NO_REF)):
            state, warm, u_prev = VehicleState(0.0, 0.0, 0.0), None, AT_REST
            for _ in range(40):
                z_d = [VehicleState(state.x + v_star * cfg.dt * (i + 1), 0.0, 0.0) for i in range(8)]
                u_prev, sol = receding_step(state, z_d, g, cfg, u_prev, u_ref, warm)
                warm = sol.u_opt
                state = step_nominal(state, u_prev, model(cfg))
            speeds[label] = u_prev.v_cmd
        assert speeds["u_ref"] == pytest.approx(v_star, rel=1e-3)
        assert speeds["no_ref"] < 0.9 * v_star

    def test_solver_failure_surfaces_to_caller(self):
        cfg = config(tau_o=4)
        z_d = [VehicleState(0.05 * i, 0, 0) for i in range(1, 5)]
        with np.errstate(over="ignore"), pytest.raises(NmpcError):
            solve(VehicleState(0, 0, 0), path_of(z_d), [1e308, 0, 0], GainSchedule(1, 0.5), cfg, AT_REST, NO_REF)


def brute_force_min(current, z_d, g, cfg):
    """Exhaustive tracking-cost minimum over a 7-level control grid.

    Independent of the solver: enumerates all 7^(2*tau_o) sequences with a
    step-1 outer loop and a vectorized sweep over the remaining steps.
    """
    assert cfg.tau_o == 4
    v_levels = np.linspace(cfg.u_min.v_cmd, cfg.u_max.v_cmd, 7)
    w_levels = np.linspace(cfg.u_min.omega_cmd, cfg.u_max.omega_cmd, 7)
    vv, ww = np.meshgrid(v_levels, w_levels, indexing="ij")
    pair_v = vv.ravel()  # 49 combos per step
    pair_w = ww.ravel()
    n_pairs = pair_v.size
    idx = np.arange(n_pairs)
    i2, i3, i4 = np.meshgrid(idx, idx, idx, indexing="ij")
    v2, w2 = pair_v[i2.ravel()], pair_w[i2.ravel()]
    v3, w3 = pair_v[i3.ravel()], pair_w[i3.ravel()]
    v4, w4 = pair_v[i4.ravel()], pair_w[i4.ravel()]
    xd = np.array([z.x for z in z_d])
    yd = np.array([z.y for z in z_d])
    rd = np.array([z.rho for z in z_d])
    dt, L = cfg.dt, cfg.wheelbase_L
    q, r = g.q_diag, g.r_diag

    def err(x, y, rho, k):
        er = np.arctan2(np.sin(rho - rd[k]), np.cos(rho - rd[k]))
        return q * ((x - xd[k]) ** 2 + (y - yd[k]) ** 2 + er ** 2)

    best = np.inf
    for j in range(n_pairs):
        v1, w1 = pair_v[j], pair_w[j]
        x1 = current.x + np.cos(current.rho + w1) * v1 * dt
        y1 = current.y + np.sin(current.rho + w1) * v1 * dt
        r1 = current.rho + np.sin(w1) / L * v1 * dt
        cost = err(x1, y1, r1, 0) + r * (v1 ** 2 + w1 ** 2)
        x2 = x1 + np.cos(r1 + w2) * v2 * dt
        y2 = y1 + np.sin(r1 + w2) * v2 * dt
        r2 = r1 + np.sin(w2) / L * v2 * dt
        cost = cost + err(x2, y2, r2, 1) + r * (v2 ** 2 + w2 ** 2)
        x3 = x2 + np.cos(r2 + w3) * v3 * dt
        y3 = y2 + np.sin(r2 + w3) * v3 * dt
        r3 = r2 + np.sin(w3) / L * v3 * dt
        cost = cost + err(x3, y3, r3, 2) + r * (v3 ** 2 + w3 ** 2)
        x4 = x3 + np.cos(r3 + w4) * v4 * dt
        y4 = y3 + np.sin(r3 + w4) * v4 * dt
        r4 = r3 + np.sin(w4) / L * v4 * dt
        cost = cost + err(x4, y4, r4, 3) + r * (v4 ** 2 + w4 ** 2)
        m = float(cost.min())
        if m < best:
            best = m
    return best


# Reference implementation: the solver's objective as a per-step scalar loop,
# and its gradient by the adjoint recursion. The array code in
# visionmpc.nmpc performs the cost's IEEE operations in the same order, so
# its cost must agree exactly, not to a tolerance; its gradient comes from
# the Jacobian, so it agrees with the adjoint to rounding.

_WRAP_PI = math.pi
_TWO_PI = 2.0 * math.pi


def _wrap_fast(a: float) -> float:
    return _WRAP_PI - (_WRAP_PI - a) % _TWO_PI


class ScalarProblem:
    """The objective as a per-step loop over the horizon: the reference that
    `_Problem`'s cost must match bit for bit, with its adjoint gradient."""

    def __init__(self, current, zd_states, residual, g, cfg, u_prev, u_ref, penalty):
        self.T = cfg.tau_o
        self.dt = cfg.dt
        self.L = cfg.wheelbase_L
        self.q = g.q_diag
        self.r = g.r_diag
        self.pw = penalty
        self.cfg = cfg
        self.x0 = current.x
        self.y0 = current.y
        self.r0 = current.rho
        if residual is None:
            self.res = (0.0, 0.0, 0.0)
        else:
            arr = np.asarray(residual, dtype=float).reshape(-1)
            if arr.shape[0] != 3:
                raise ValueError("residual must be a 3-vector")
            if not np.all(np.isfinite(arr)):
                raise ValueError("residual must be finite")
            self.res = (float(arr[0]), float(arr[1]), float(arr[2]))
        self.xd = [z.x for z in zd_states]
        self.yd = [z.y for z in zd_states]
        self.rd = [z.rho for z in zd_states]
        self.sin_rd = [math.sin(v) for v in self.rd]
        self.cos_rd = [math.cos(v) for v in self.rd]
        self.u_prev = u_prev
        self.u_ref = u_ref

    def _eval(self, u: np.ndarray, need_grad: bool):
        T, dt, L = self.T, self.dt, self.L
        q, r, pw = self.q, self.r, self.pw
        rx, ry, rr = self.res
        v_ref, w_ref = self.u_ref.v_cmd, self.u_ref.omega_cmd
        cfg = self.cfg
        v_lo, v_hi = cfg.u_min.v_cmd, cfg.u_max.v_cmd
        w_lo, w_hi = cfg.u_min.omega_cmd, cfg.u_max.omega_cmd
        dv_lo, dv_hi = cfg.du_min.v_cmd, cfg.du_max.v_cmd
        dw_lo, dw_hi = cfg.du_min.omega_cmd, cfg.du_max.omega_cmd

        xs = [0.0] * (T + 1)
        ys = [0.0] * (T + 1)
        rs = [0.0] * (T + 1)
        heads = [0.0] * T
        xs[0], ys[0], rs[0] = self.x0, self.y0, self.r0

        cost = 0.0
        # forward rollout + stage costs
        for k in range(T):
            vk = u[2 * k]
            wk = u[2 * k + 1]
            head = rs[k] + wk
            heads[k] = head
            xs[k + 1] = xs[k] + math.cos(head) * vk * dt + rx
            ys[k + 1] = ys[k] + math.sin(head) * vk * dt + ry
            rs[k + 1] = rs[k] + math.sin(wk) / L * vk * dt + rr
            i = k + 1
            ex = xs[i] - self.xd[k]
            ey = ys[i] - self.yd[k]
            er = _wrap_fast(rs[i] - self.rd[k])
            dv, dw = vk - v_ref, wk - w_ref
            cost += q * (ex * ex + ey * ey + er * er) + r * (dv * dv + dw * dw)
            # actuator bound penalties
            hv = max(0.0, vk - v_hi) - max(0.0, v_lo - vk)
            hw = max(0.0, wk - w_hi) - max(0.0, w_lo - wk)
            cost += pw * (hv * hv + hw * hw)
            # soft cross-track corridor in the desired-pose frame
            e_lat = -self.sin_rd[k] * ex + self.cos_rd[k] * ey
            he = max(0.0, e_lat - nmpc.CORRIDOR_M) - max(0.0, -nmpc.CORRIDOR_M - e_lat)
            cost += pw * he * he
        # rate penalties
        prev = self.u_prev
        for k in range(T):
            if k == 0:
                pv, pw_ = prev.v_cmd, prev.omega_cmd
            else:
                pv, pw_ = u[2 * k - 2], u[2 * k - 1]
            rv = (u[2 * k] - pv) / dt
            rw = (u[2 * k + 1] - pw_) / dt
            hv = max(0.0, rv - dv_hi) - max(0.0, dv_lo - rv)
            hw = max(0.0, rw - dw_hi) - max(0.0, dw_lo - rw)
            cost += pw * (hv * hv + hw * hw)

        if not need_grad:
            return cost, None

        grad = np.zeros(2 * T)
        lam_x = lam_y = lam_r = 0.0
        for k in range(T - 1, -1, -1):
            vk = u[2 * k]
            wk = u[2 * k + 1]
            head = heads[k]
            ch, sh = math.cos(head), math.sin(head)
            i = k + 1
            ex = xs[i] - self.xd[k]
            ey = ys[i] - self.yd[k]
            er = _wrap_fast(rs[i] - self.rd[k])
            e_lat = -self.sin_rd[k] * ex + self.cos_rd[k] * ey
            dhinge = 2.0 * (max(0.0, e_lat - nmpc.CORRIDOR_M) - max(0.0, -nmpc.CORRIDOR_M - e_lat))
            gx = 2.0 * q * ex + pw * dhinge * (-self.sin_rd[k])
            gy = 2.0 * q * ey + pw * dhinge * self.cos_rd[k]
            gr = 2.0 * q * er
            lam_x += gx
            lam_y += gy
            lam_r += gr
            # control gradient through the dynamics
            gv = dt * (ch * lam_x + sh * lam_y) + dt * math.sin(wk) / L * lam_r
            gw = dt * vk * (-sh * lam_x + ch * lam_y) + dt * vk * math.cos(wk) / L * lam_r
            gv += 2.0 * r * (vk - v_ref)
            gw += 2.0 * r * (wk - w_ref)
            hv = max(0.0, vk - v_hi) - max(0.0, v_lo - vk)
            hw = max(0.0, wk - w_hi) - max(0.0, w_lo - wk)
            gv += pw * 2.0 * hv
            gw += pw * 2.0 * hw
            grad[2 * k] += gv
            grad[2 * k + 1] += gw
            # propagate the adjoint through z_k
            lam_r = lam_r + dt * vk * (-sh * lam_x + ch * lam_y)
            # lam_x, lam_y unchanged by A_k
        # rate penalty gradients
        prev = self.u_prev
        for k in range(T):
            if k == 0:
                pv, pw_ = prev.v_cmd, prev.omega_cmd
                prev_idx = None
            else:
                pv, pw_ = u[2 * k - 2], u[2 * k - 1]
                prev_idx = 2 * k - 2
            rv = (u[2 * k] - pv) / dt
            rw = (u[2 * k + 1] - pw_) / dt
            dv = 2.0 * (max(0.0, rv - dv_hi) - max(0.0, dv_lo - rv)) * pw / dt
            dw = 2.0 * (max(0.0, rw - dw_hi) - max(0.0, dw_lo - rw)) * pw / dt
            grad[2 * k] += dv
            grad[2 * k + 1] += dw
            if prev_idx is not None:
                grad[prev_idx] -= dv
                grad[prev_idx + 1] -= dw
        return cost, grad


def scalar_violation(u, cfg, u_prev, problem):
    """Worst constraint excess: actuator, rate, and cross-track corridor."""
    worst = 0.0
    dt = cfg.dt
    for k in range(cfg.tau_o):
        v, w = u[2 * k], u[2 * k + 1]
        worst = max(worst, v - cfg.u_max.v_cmd, cfg.u_min.v_cmd - v)
        worst = max(worst, w - cfg.u_max.omega_cmd, cfg.u_min.omega_cmd - w)
        if k == 0:
            pv, pw = u_prev.v_cmd, u_prev.omega_cmd
        else:
            pv, pw = u[2 * k - 2], u[2 * k - 1]
        rv = (v - pv) / dt
        rw = (w - pw) / dt
        worst = max(worst, rv - cfg.du_max.v_cmd, cfg.du_min.v_cmd - rv)
        worst = max(worst, rw - cfg.du_max.omega_cmd, cfg.du_min.omega_cmd - rw)
    # cross-track along the rollout
    x, y, r = problem.x0, problem.y0, problem.r0
    rx, ry, rr = problem.res
    for k in range(cfg.tau_o):
        v, w = u[2 * k], u[2 * k + 1]
        head = r + w
        x = x + math.cos(head) * v * dt + rx
        y = y + math.sin(head) * v * dt + ry
        r = r + math.sin(w) / problem.L * v * dt + rr
        e_lat = -problem.sin_rd[k] * (x - problem.xd[k]) + problem.cos_rd[k] * (y - problem.yd[k])
        worst = max(worst, e_lat - nmpc.CORRIDOR_M, -nmpc.CORRIDOR_M - e_lat)
    return worst
