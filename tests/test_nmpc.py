import math

import numpy as np
import pytest

from visionmpc.nmpc import NmpcConfig, NmpcError, _Problem, _violation, control_step, solve, tracking_cost
from visionmpc.scene import GainSchedule, SceneDynamics, gain_schedule
from visionmpc.vehicle import ControlInput, ModelParams, VehicleState, rollout

AT_REST = ControlInput(0.0, 0.0)

LOOSE = NmpcConfig(
    tau_o=4,
    du_min=ControlInput(-100.0, -100.0),
    du_max=ControlInput(100.0, 100.0),
    e_min=-10.0,
    e_max=10.0,
)


def model(cfg):
    """The noise-free vehicle model the solver predicts with."""
    return ModelParams(wheelbase_L=cfg.wheelbase_L, dt=cfg.dt, sigma_f=0.0)


def random_problem(rng, cfg, q=0.8):
    current = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))
    u_seq = [
        ControlInput(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(cfg.tau_o)
    ]
    z_d = rollout(current, u_seq, p=model(cfg))
    g = gain_schedule(SceneDynamics(0.0, q))
    return current, z_d, g, u_seq


class TestTrackingCost:
    def test_perfect_tracking_zero_controls(self):
        z = [VehicleState(1.0, 2.0, 0.3)] * 3
        u = [ControlInput(0.0, 0.0)] * 3
        assert tracking_cost(z, u, z, GainSchedule(1.0, 0.5)) == 0.0

    def test_hand_evaluated_quadratic(self):
        z = [VehicleState(0.0, 0.0, 0.0)]
        z_d = [VehicleState(3.0, 4.0, 0.0)]
        u = [ControlInput(0.0, 0.0)]
        assert tracking_cost(z, u, z_d, GainSchedule(1.0, 1e-3)) == pytest.approx(25.0)

    def test_quadratic_homogeneity(self):
        g = GainSchedule(1.0, 1e-3)
        u = [ControlInput(0.0, 0.0)] * 2
        z = [VehicleState(0, 0, 0)] * 2
        z_d1 = [VehicleState(0.1, -0.2, 0.05), VehicleState(0.3, 0.1, -0.02)]
        z_d2 = [VehicleState(0.2, -0.4, 0.1), VehicleState(0.6, 0.2, -0.04)]
        assert tracking_cost(z, u, z_d2, g) == pytest.approx(4.0 * tracking_cost(z, u, z_d1, g))

    def test_heading_error_wraps_across_seam(self):
        g = GainSchedule(1.0, 1e-3)
        z = [VehicleState(0.0, 0.0, math.pi - 0.01)]
        z_d = [VehicleState(0.0, 0.0, -math.pi + 0.01)]
        cost = tracking_cost(z, [ControlInput(0, 0)], z_d, g)
        assert cost == pytest.approx(0.02 ** 2, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tracking_cost([VehicleState(0, 0, 0)], [], [VehicleState(0, 0, 0)], GainSchedule(1, 1))


class TestObjectiveInternals:
    def test_value_matches_public_tracking_cost(self):
        rng = np.random.default_rng(0)
        cfg = LOOSE
        current, z_d, g, _ = random_problem(rng, cfg)
        problem = _Problem(current, tuple(z_d), None, g, cfg, AT_REST, penalty=0.0)
        for _ in range(10):
            u = rng.uniform(-0.5, 1.2, size=2 * cfg.tau_o)
            u_seq = [ControlInput(u[2 * k], u[2 * k + 1]) for k in range(cfg.tau_o)]
            z_seq = rollout(current, u_seq, p=model(cfg))
            assert problem.value(u) == pytest.approx(tracking_cost(z_seq, u_seq, z_d, g), rel=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        cfg = NmpcConfig(tau_o=6, du_min=ControlInput(-100, -100), du_max=ControlInput(100, 100),
                         e_min=-10, e_max=10)
        current, z_d, g, _ = random_problem(rng, cfg)
        problem = _Problem(current, tuple(z_d), [0.001, -0.002, 0.0005], g, cfg, AT_REST, penalty=0.0)
        worst = 0.0
        for _ in range(30):
            u = rng.uniform(-0.2, 1.0, size=2 * cfg.tau_o)
            _, grad = problem.value_and_grad(u)
            for i in range(u.size):
                h = 1e-6 * max(1.0, abs(u[i]))
                up, dn = u.copy(), u.copy()
                up[i] += h
                dn[i] -= h
                fd = (problem.value(up) - problem.value(dn)) / (2 * h)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, abs(fd - grad[i]) / denom)
        assert worst <= 1e-5

    def test_penalized_gradient_matches_central_differences(self):
        # hinge penalties are C1; random points almost surely avoid the kinks
        rng = np.random.default_rng(2)
        cfg = NmpcConfig(tau_o=4)
        current, z_d, g, _ = random_problem(rng, cfg)
        problem = _Problem(current, tuple(z_d), None, g, cfg, ControlInput(0.2, 0.0), penalty=100.0)
        for _ in range(10):
            u = rng.uniform(-0.5, 1.5, size=2 * cfg.tau_o)
            _, grad = problem.value_and_grad(u)
            for i in range(u.size):
                h = 1e-6 * max(1.0, abs(u[i]))
                up, dn = u.copy(), u.copy()
                up[i] += h
                dn[i] -= h
                fd = (problem.value(up) - problem.value(dn)) / (2 * h)
                assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6) <= 1e-4


def hinge_active_problem(rng, tau_o, with_residual):
    """A problem whose random controls push every penalty hinge active.

    Desired poses are scattered off the rollout and across the heading
    seam so the corridor hinge and the wrap both engage.
    """
    cfg = NmpcConfig(tau_o=tau_o)
    current = VehicleState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3.1, 3.1))
    z_d = [
        VehicleState(z.x + rng.uniform(-0.9, 0.9), z.y + rng.uniform(-0.9, 0.9), rng.uniform(-3.1, 3.1))
        for z in random_problem(rng, cfg)[1]
    ]
    residual = rng.uniform(-0.02, 0.02, size=3) if with_residual else None
    u_prev = ControlInput(rng.uniform(0.0, 1.0), rng.uniform(-0.35, 0.35))
    g = GainSchedule(rng.uniform(0.0, 1.0), rng.uniform(0.01, 1.0))
    args = (current, tuple(z_d), residual, g, cfg, u_prev, 1e3 * rng.uniform(0.5, 4.0))
    return cfg, u_prev, _Problem(*args), ScalarProblem(*args)


def hinge_active_controls(rng, tau_o):
    u = np.empty(2 * tau_o)
    u[0::2] = rng.uniform(-0.3, 1.3, size=tau_o)
    u[1::2] = rng.uniform(-0.6, 0.6, size=tau_o)
    return u


class TestBitEqualityOracle:
    @pytest.mark.parametrize("tau_o", [1, 2, 10, 20])
    @pytest.mark.parametrize("with_residual", [False, True])
    def test_cost_gradient_and_violation_equal_the_scalar_loop(self, tau_o, with_residual):
        rng = np.random.default_rng(1000 * tau_o + 10 * with_residual + 1)
        active = np.zeros(3, dtype=int)
        for _ in range(25):
            cfg, u_prev, problem, reference = hinge_active_problem(rng, tau_o, with_residual)
            for _ in range(4):
                u = hinge_active_controls(rng, tau_o)
                want_cost, want_grad = reference._eval(u, need_grad=True)
                cost, fwd = problem.forward(u)
                assert cost == want_cost
                assert problem.value(u) == want_cost
                assert np.array_equal(problem.gradient(fwd), want_grad)
                got_cost, got_grad = problem.value_and_grad(u)
                assert got_cost == want_cost and np.array_equal(got_grad, want_grad)
                assert _violation(fwd) == scalar_violation(u, cfg, u_prev, reference)
                # signed excesses over the actuator, rate and corridor bounds
                h = fwd[-1]
                n = 2 * tau_o
                active += [np.any(h[:n] != 0.0), np.any(h[n:-tau_o] != 0.0), np.any(h[-tau_o:] != 0.0)]
        # actuator, rate, corridor
        assert active[0] > 0 and active[2] > 0
        assert active[1] > 0

    def test_zero_controls_and_exact_bounds(self):
        rng = np.random.default_rng(7)
        for tau_o in (1, 2, 10, 20):
            cfg, u_prev, problem, reference = hinge_active_problem(rng, tau_o, True)
            edges = np.tile((cfg.u_max.v_cmd, cfg.u_min.omega_cmd), tau_o)
            for u in (np.zeros(2 * tau_o), np.full(2 * tau_o, -0.0), edges):
                want_cost, want_grad = reference._eval(u, need_grad=True)
                got_cost, got_grad = problem.value_and_grad(u)
                assert got_cost == want_cost
                assert np.array_equal(got_grad, want_grad)
                assert _violation(problem.forward(u)[1]) == scalar_violation(u, cfg, u_prev, reference)


class TestSolve:
    def test_inverse_crime_recovery(self):
        # a near-zero input weight makes the generating sequence the optimum
        cfg = NmpcConfig(tau_o=6, max_iters=300, du_min=ControlInput(-100, -100),
                         du_max=ControlInput(100, 100), e_min=-10, e_max=10)
        g = GainSchedule(1.0, 1e-6)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            current, z_d, _, u_true = random_problem(rng, cfg)
            sol = solve(current, z_d, None, g, cfg, AT_REST)
            assert sol.cost <= 1e-4
            for (v, omega), want in zip(sol.u_opt.reshape(-1, 2), u_true):
                assert v == pytest.approx(want.v_cmd, abs=1e-2)
                assert omega == pytest.approx(want.omega_cmd, abs=1e-2)

    def test_brute_force_oracle_on_tiny_instances(self):
        cfg = LOOSE
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            current, z_d, g, _ = random_problem(rng, cfg)
            sol = solve(current, z_d, None, g, cfg, AT_REST)
            oracle = brute_force_min(current, z_d, g, cfg)
            assert sol.cost <= 1.05 * oracle + 1e-12

    def test_warm_start_fixed_point(self):
        rng = np.random.default_rng(5)
        cfg = NmpcConfig(tau_o=5, max_iters=300)
        current, z_d, g, _ = random_problem(rng, cfg)
        first = solve(current, z_d, None, g, cfg, AT_REST)
        again = solve(current, z_d, None, g, cfg, AT_REST, warm_start=first.u_opt)
        assert again.converged
        assert again.iterations <= 2
        for a, b in zip(first.u_opt, again.u_opt):
            assert a == pytest.approx(b, abs=1e-6)

    def test_solve_deterministic(self):
        rng = np.random.default_rng(9)
        cfg = NmpcConfig(tau_o=8)
        current, z_d, g, _ = random_problem(rng, cfg)
        a = solve(current, z_d, [0.0, 0.01, 0.0], g, cfg, ControlInput(0.1, 0.0))
        b = solve(current, z_d, [0.0, 0.01, 0.0], g, cfg, ControlInput(0.1, 0.0))
        assert np.array_equal(a.u_opt, b.u_opt)
        assert a.cost == b.cost
        assert a.iterations == b.iterations

    def test_solution_respects_bounds_and_rates_exactly(self):
        # desired trajectory demands more speed than the actuator allows
        cfg = NmpcConfig(tau_o=6)
        g = GainSchedule(1.0, 1e-3)
        current = VehicleState(0, 0, 0)
        z_d = [VehicleState(0.5 * (i + 1), 0.0, 0.0) for i in range(6)]  # 10 m/s
        u_prev = ControlInput(0.0, 0.0)
        sol = solve(current, z_d, None, g, cfg, u_prev)
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
        cfg = NmpcConfig(tau_o=4)
        with pytest.raises(ValueError):
            solve(VehicleState(0, 0, 0), [VehicleState(0, 0, 0)] * 3, None, GainSchedule(1, 0.5), cfg, AT_REST)

    def test_non_finite_residual_raises_nmpc_error(self):
        cfg = NmpcConfig(tau_o=3)
        z_d = [VehicleState(0.1 * i, 0, 0) for i in range(1, 4)]
        with pytest.raises(ValueError):
            solve(VehicleState(0, 0, 0), z_d, [float("inf"), 0, 0], GainSchedule(1, 0.5), cfg, AT_REST)

    def test_overflowing_objective_raises_with_context(self):
        cfg = NmpcConfig(tau_o=3)
        z_d = [VehicleState(0.1 * i, 0, 0) for i in range(1, 4)]
        with np.errstate(over="ignore"), pytest.raises(NmpcError):
            solve(VehicleState(0, 0, 0), z_d, [1e308, 0, 0], GainSchedule(1, 0.5), cfg, AT_REST)


class TestControlStep:
    def test_stationary_hold_emits_small_control(self):
        cfg = NmpcConfig(tau_o=8)
        g = GainSchedule(1.0, 1e-3)
        current = VehicleState(0.4, -0.2, 0.3)
        z_d = [current] * 8
        u, sol = control_step(current, z_d, None, g, cfg, AT_REST)
        assert math.hypot(u.v_cmd, u.omega_cmd) <= 1e-2

    def test_speed_converges_on_straight_line(self):
        cfg = NmpcConfig(tau_o=8)
        g = GainSchedule(1.0, 1e-3)
        v_star = 0.25
        state = VehicleState(0.0, 0.0, 0.0)
        warm = None
        u_prev = ControlInput(0.0, 0.0)
        u = None
        for _ in range(3):
            z_d = [VehicleState(state.x + v_star * cfg.dt * (i + 1), 0.0, 0.0) for i in range(8)]
            u, sol = control_step(state, z_d, None, g, cfg, u_prev, warm_start=warm)
            warm = sol.u_opt
            state = rollout(state, [u], p=model(cfg))[0]
            u_prev = u
        assert u.v_cmd == pytest.approx(v_star, rel=0.05)

    def test_solver_failure_surfaces_to_caller(self):
        cfg = NmpcConfig(tau_o=4)
        z_d = [VehicleState(0.05 * i, 0, 0) for i in range(1, 5)]
        with np.errstate(over="ignore"), pytest.raises(NmpcError):
            control_step(VehicleState(0, 0, 0), z_d, [1e308, 0, 0], GainSchedule(1, 0.5), cfg, AT_REST)


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


# Reference implementation: the solver's objective as a per-step scalar loop.
# The array code in visionmpc.nmpc performs the same IEEE operations in the
# same order, so it must agree exactly, not to a tolerance.

_WRAP_PI = math.pi
_TWO_PI = 2.0 * math.pi


def _wrap_fast(a: float) -> float:
    return _WRAP_PI - (_WRAP_PI - a) % _TWO_PI


class ScalarProblem:
    """The objective as a per-step loop over the horizon: the reference that
    `_Problem`'s array code must match bit for bit."""

    def __init__(self, current, zd_states, residual, g, cfg, u_prev, penalty):
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

    def _eval(self, u: np.ndarray, need_grad: bool):
        T, dt, L = self.T, self.dt, self.L
        q, r, pw = self.q, self.r, self.pw
        rx, ry, rr = self.res
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
            rs[k + 1] = _wrap_fast(_wrap_fast(rs[k] + math.sin(wk) / L * vk * dt) + rr)
            i = k + 1
            ex = xs[i] - self.xd[k]
            ey = ys[i] - self.yd[k]
            er = _wrap_fast(rs[i] - self.rd[k])
            cost += q * (ex * ex + ey * ey + er * er) + r * (vk * vk + wk * wk)
            # actuator bound penalties
            hv = max(0.0, vk - v_hi) - max(0.0, v_lo - vk)
            hw = max(0.0, wk - w_hi) - max(0.0, w_lo - wk)
            cost += pw * (hv * hv + hw * hw)
            # soft cross-track corridor in the desired-pose frame
            e_lat = -self.sin_rd[k] * ex + self.cos_rd[k] * ey
            he = max(0.0, e_lat - cfg.e_max) - max(0.0, cfg.e_min - e_lat)
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
            dhinge = 2.0 * (max(0.0, e_lat - cfg.e_max) - max(0.0, cfg.e_min - e_lat))
            gx = 2.0 * q * ex + pw * dhinge * (-self.sin_rd[k])
            gy = 2.0 * q * ey + pw * dhinge * self.cos_rd[k]
            gr = 2.0 * q * er
            lam_x += gx
            lam_y += gy
            lam_r += gr
            # control gradient through the dynamics
            gv = dt * (ch * lam_x + sh * lam_y) + dt * math.sin(wk) / L * lam_r
            gw = dt * vk * (-sh * lam_x + ch * lam_y) + dt * vk * math.cos(wk) / L * lam_r
            gv += 2.0 * r * vk
            gw += 2.0 * r * wk
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
        r = _wrap_fast(_wrap_fast(r + math.sin(w) / problem.L * v * dt) + rr)
        e_lat = -problem.sin_rd[k] * (x - problem.xd[k]) + problem.cos_rd[k] * (y - problem.yd[k])
        worst = max(worst, e_lat - cfg.e_max, cfg.e_min - e_lat)
    return worst
