"""Constrained receding-horizon controller.

Each horizon step costs q |z - z_d|^2 + r |u - u_ref|^2, the gains and the
reference control u_ref (held over the horizon) set by one scene pair. The
input term prices u - u_ref, not u (Rawlings, Mayne and Diehl, Model
Predictive Control, 2017, ch. 1), so a low q does not pull the speed to zero.

Single-shooting transcription: the decision variables are the control
sequence, the predicted states come from rolling the nominal model plus a
constant residual increment forward. Actuator and rate bounds and a soft
cross-track corridor enter as squared-hinge penalties of one weight,
PENALTY_WEIGHT, and the final controls are projected exactly onto the
actuator and rate bounds.

The penalized objective is minimized by Gauss-Newton and Newton
iterations (the real-time iteration of Diehl, Bock and Schloeder, SIAM J.
Control Optim. 2005, here run to a stop rule within a budget of a few
iterations). Each iteration builds a convex model: the input term exact,
every hinge a squared hinge of its linearized argument, and the tracking
term quadratic. A Gauss-Newton model linearizes the tracking errors
through their exact Jacobian J. A Newton model adds the residual's
second-order term S, so its tracking curvature is the exact Hessian
q (J'J + S), with its eigenvalues replaced by their absolute values to
keep it convex (Gill, Murray and Wright, Practical Optimization, 1981,
4.4). Following Dennis, Gay and Welsch (ACM TOMS 1981), the residual's
size picks the model: a solve whose initial cost is large builds Newton
models from its first iteration, since Gauss-Newton steps make the
gradient grow on such a residual, and any other solve takes two
Gauss-Newton iterations and then Newton ones, which ends Gauss-Newton's
linear tail. A semismooth Newton loop minimizes the model, and an
Armijo backtracking step on the true cost accepts its minimizer. The
NmpcConfig stop fields keep their meaning: grad_tol bounds the largest
gradient component (meeting it sets NmpcSolution.converged), f_tol the
relative cost decrease of an iteration, and max_iters caps the iterations.

Each objective evaluation is one call of vehicle.rollout, the array
prediction that the DWA planner also makes, and a numpy pass over its
result. The one derivative the solver takes is the Jacobian J of the
tracking errors, from prefix sums over that pass, once per iterate: the
cost's gradient, for the stop test and the Armijo slope, is twice the
slope of the model that J builds, and the same J gives the Gauss-Newton
model and, with the second-order term from suffix sums, the Newton
curvature. No Python loop runs over the horizon. The array code repeats
the per-step recurrence's floating-point operations in their order, so
costs are bit-identical to a scalar loop (the reference kept in
tests/test_nmpc.py). Predicted headings are wrapped only in the heading
error.

A solution is the flat control array [v0, omega0, v1, omega1, ...] the
solver works in, with its cost and solver diagnostics. A caller applies
its first pair; LVD-NMPC seeds its next solve with the array shifted by
one step.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scene import GainSchedule
from .vehicle import ControlInput, VehicleState, require_finite, rollout

_WRAP_PI = math.pi
_TWO_PI = 2.0 * math.pi
# weight of the squared hinge penalties on the actuator, rate and corridor
# bounds; every solve uses it as it is, with no rounds that raise it
PENALTY_WEIGHT = 1e3
# half-width of the soft cross-track corridor [-CORRIDOR_M, CORRIDOR_M] around
# the desired path, in meters
CORRIDOR_M = 0.5
# Levenberg damping of the Gauss-Newton model: it keeps the model's curvature
# positive along controls that move nothing the cost sees, such as the
# steering of a car at rest under r = 0
_DAMPING = 1e-9
# cap on the semismooth Newton steps that minimize one model
_INNER_ITERS = 8
# index of the first Gauss-Newton iteration whose model adds the tracking
# residual's second-order term (Dennis, Gay and Welsch, ACM TOMS 1981): in a
# solve that starts below _LARGE_RESIDUAL_COST, the first two iterations keep
# the plain Gauss-Newton model, and a solve that stalls past them finishes
# with Newton steps
_EXACT_HESSIAN_FROM = 2
# initial cost from which every model of a solve adds that term: on a
# residual this large, Gauss-Newton steps make the gradient grow; 0.1 is an
# RMS tracking error of 0.1 m per predicted pose at q = 1 over a 10-step
# horizon
_LARGE_RESIDUAL_COST = 0.1


@dataclass(frozen=True)
class NmpcConfig:
    """Horizon, bounds, and solver settings.

    Rate bounds are per second; both rate intervals must contain zero so a
    held control is always feasible. The cross-track corridor (CORRIDOR_M)
    is soft (penalty only); actuator and rate bounds are hard. The solver
    stops when the largest gradient component is below grad_tol, when an
    iteration lowers the cost by no more than f_tol relative to it, or after
    max_iters iterations; its defaults are the ones every pipeline runs.

    tau_o is 10 steps, the horizon of every command unless a pipeline file
    sets another; a DWA-NMPC step with a plan commands the same at any tau_o
    up to its planning horizon. max_iters is the budget of one control
    period, 4 iterations: the smallest at which every recorded solve of the
    cost gate in tests/test_nmpc.py ends within 1e-3 of its recorded cost. A
    solution's `converged` means that the gradient tolerance was met within
    the budget.
    """

    tau_o: int = 10
    dt: float = 0.05
    wheelbase_L: float = 0.36
    u_min: ControlInput = ControlInput(0.0, -0.35)
    u_max: ControlInput = ControlInput(1.0, 0.35)
    du_min: ControlInput = ControlInput(-2.0, -4.0)
    du_max: ControlInput = ControlInput(2.0, 4.0)
    max_iters: int = 4
    grad_tol: float = 1e-4
    f_tol: float = 1e-8

    def __post_init__(self):
        require_finite(
            "NmpcConfig", self.tau_o, self.dt, self.wheelbase_L, self.max_iters, self.grad_tol, self.f_tol
        )
        if self.tau_o < 1:
            raise ValueError("tau_o must be at least 1")
        if self.dt <= 0.0 or self.wheelbase_L <= 0.0:
            raise ValueError("dt and wheelbase_L must be positive")
        if not (self.u_min.v_cmd < self.u_max.v_cmd and self.u_min.omega_cmd < self.u_max.omega_cmd):
            raise ValueError("u_min must be below u_max componentwise")
        if not (self.du_min.v_cmd < 0.0 < self.du_max.v_cmd):
            raise ValueError("velocity rate bounds must straddle zero")
        if not (self.du_min.omega_cmd < 0.0 < self.du_max.omega_cmd):
            raise ValueError("steering rate bounds must straddle zero")
        if self.max_iters < 1 or self.grad_tol <= 0.0 or self.f_tol < 0.0:
            raise ValueError("max_iters must be at least 1, grad_tol positive and f_tol non-negative")

    def reachable(self, u_prev: ControlInput) -> tuple[tuple[float, float], tuple[float, float]]:
        """((v_lo, v_hi), (omega_lo, omega_hi)): the controls inside the
        actuator bounds that the rate bounds let one period reach from u_prev."""
        dt = self.dt
        return (
            (
                max(self.u_min.v_cmd, u_prev.v_cmd + self.du_min.v_cmd * dt),
                min(self.u_max.v_cmd, u_prev.v_cmd + self.du_max.v_cmd * dt),
            ),
            (
                max(self.u_min.omega_cmd, u_prev.omega_cmd + self.du_min.omega_cmd * dt),
                min(self.u_max.omega_cmd, u_prev.omega_cmd + self.du_max.omega_cmd * dt),
            ),
        )


@dataclass(frozen=True)
class NmpcSolution:
    """Optimal controls as the flat array [v0, omega0, v1, omega1, ...], with solver diagnostics."""

    u_opt: np.ndarray
    cost: float
    iterations: int
    converged: bool


class NmpcError(RuntimeError):
    """Raised on a non-finite residual, cost or gradient."""


def _hinges(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Signed excesses max(0, z - hi) - max(0, lo - z), zero inside [lo, hi].

    np.maximum(a, 0.0) turns -0.0 into 0.0 as Python's max(0.0, a) does,
    while np.maximum(0.0, a) keeps -0.0.
    """
    return np.maximum(z - hi, 0.0) - np.maximum(lo - z, 0.0)


class _Problem:
    """Penalized single-shooting objective and the Jacobian of its tracking errors.

    The arrays repeat the per-step recurrence operation for operation.
    Every running total (positions, the cost) is an np.add.accumulate,
    which adds in sequence where np.sum adds pairwise, so the cost is
    bit-identical to a loop over the horizon.
    """

    def __init__(self, current, z_d, residual, g, cfg, u_prev, u_ref, penalty):
        T = cfg.tau_o
        self.T = T
        self.cfg = cfg
        self.dt = cfg.dt
        self.L = cfg.wheelbase_L
        self.q = g.q_diag
        self.r = g.r_diag
        self.u_ref = np.array((u_ref.v_cmd, u_ref.omega_cmd) * T)
        self.pw = penalty
        self.current = current
        self.residual = None
        if residual is not None:
            arr = np.asarray(residual, dtype=float).reshape(-1)
            if arr.shape[0] != 3:
                raise ValueError("residual must be a 3-vector")
            if not np.isfinite(arr).all():
                raise NmpcError("non-finite residual")
            self.residual = arr
        z_d = np.asarray(z_d, dtype=float)
        if not np.isfinite(z_d).all():
            raise NmpcError("non-finite desired trajectory")
        self.zd, self.rd = z_d[:2], z_d[2]
        # e_lat = -sin(rho_d) * ex + cos(rho_d) * ey in the desired-pose frame
        self.lat = np.array([-np.sin(self.rd), np.cos(self.rd)])
        # the penalized quantities share one buffer, [u_prev | u | rates | e_lat];
        # rate k is taken against control k-1, the first against u_prev
        self.box = np.empty(2 + 5 * T)
        self.box[:2] = u_prev.v_cmd, u_prev.omega_cmd
        self.lo = np.array(
            (cfg.u_min.v_cmd, cfg.u_min.omega_cmd) * T + (cfg.du_min.v_cmd, cfg.du_min.omega_cmd) * T + (-CORRIDOR_M,) * T
        )
        self.hi = np.array(
            (cfg.u_max.v_cmd, cfg.u_max.omega_cmd) * T + (cfg.du_max.v_cmd, cfg.du_max.omega_cmd) * T + (CORRIDOR_M,) * T
        )
        # step[j] is the horizon step of flat control j; predicted state
        # k + 1 depends on control j where causal[k, j] holds
        self.step = np.arange(2 * T) // 2
        self.causal = np.arange(T)[:, None] >= self.step

    def value(self, u: np.ndarray) -> float:
        return self.forward(u)[0]

    def forward(self, u: np.ndarray):
        """Cost at u, and the rollout arrays that its _Linearization reuses.

        The last array holds the signed excesses over the bounds of
        [u | control rates | lateral offsets], zero where a bound holds.
        """
        T, dt, pw = self.T, self.dt, self.pw
        n = 2 * T
        xy, rho, trig = rollout(self.current, u[0::2], u[1::2], T, self.cfg, self.residual)
        e = xy - self.zd
        er = _WRAP_PI - (_WRAP_PI - (rho[1:] - self.rd)) % _TWO_PI
        box = self.box
        box[2:n + 2] = u
        np.divide(box[2:n + 2] - box[:n], dt, out=box[n + 2:-T])
        np.add(self.lat[0] * e[0], self.lat[1] * e[1], out=box[-T:])
        h = _hinges(box[2:], self.lo, self.hi)
        # per-step terms in the order a loop adds them: tracking and input,
        # actuator, corridor for each step, then the rate terms
        sq = h[:-T] * h[:-T]
        pen = pw * (sq[0::2] + sq[1::2])
        he = h[-T:]
        du = u - self.u_ref
        e2, u2 = e * e, du * du
        terms = np.empty(3 * T + pen.size - T)
        stage = terms[: 3 * T].reshape(T, 3)
        np.add(self.q * (e2[0] + e2[1] + er * er), self.r * (u2[0::2] + u2[1::2]), out=stage[:, 0])
        stage[:, 1] = pen[:T]
        np.multiply(pw * he, he, out=stage[:, 2])
        terms[3 * T:] = pen[T:]
        return np.add.accumulate(terms)[-1], (u, trig, e, er, h)

    def jacobian(self, fwd) -> np.ndarray:
        """Jacobian of the tracking errors at the point of a forward() pass.

        Returns a (3, T, 2T) array whose [0, k], [1, k] and [2, k] rows are
        the derivatives of the x, y and heading errors of predicted state
        k + 1 in the flat controls. Control j moves its own step's
        displacement, and turns every later heading by a_j, the derivative
        of its heading increment; a heading change at step i turns that
        step's displacement by dt v_i (-sin, cos) of its heading, so the
        sum over the steps j < i <= k is a difference of prefix sums. The
        heading error's wrap has derivative one.
        """
        u, trig, _, _, _ = fwd
        T, dt, L = self.T, self.dt, self.L
        v, w = u[0::2], u[1::2]
        a = np.empty(2 * T)
        a[0::2] = dt * np.sin(w) / L
        a[1::2] = dt * v * np.cos(w) / L
        own = np.empty((2, 2 * T))
        np.multiply(dt, trig, out=own[:, 0::2])
        turn = own[:, 1::2]
        np.multiply(dt * v, trig[::-1], out=turn)
        turn[0] *= -1.0
        turned = np.cumsum(turn, axis=1)
        jac = np.empty((3, T, 2 * T))
        np.multiply(turned[:, :, None], a, out=jac[:2])
        jac[:2] += (own - a * turned[:, self.step])[:, None, :]
        jac[2] = a
        jac *= self.causal
        return jac

    def curvature(self, fwd, jac) -> np.ndarray:
        """Second-order term of the tracking residual at the point of a forward() pass.

        Returns S = sum_k (ex_k d2x_{k+1} + ey_k d2y_{k+1} + er_k d2rho_{k+1}),
        the (2T, 2T) matrix by which the exact half Hessian of the tracking
        term, q (J'J + S), exceeds its Gauss-Newton part; jac is the
        Jacobian of the same pass. With C the suffix sums of the errors and
        theta_i = rho_i + w_i the heading of step i's displacement, Theta_i
        is the gradient of theta_i: the unit vector of w_i plus the heading
        increments' gradients a_j of the steps j < i. Then S is
        Theta' diag(-v sigma) Theta + (M + M'), where row 2i of M is
        pi_i Theta_i, with sigma_i = dt (Cx_i cos + Cy_i sin)(theta_i) and
        pi_i = dt (Cy_i cos - Cx_i sin)(theta_i), plus the 2x2 Hessian of
        each heading increment alpha_j = dt/L v_j sin w_j, weighted by
        beta_j = sum_{i>j} v_i pi_i + Cr_j. The heading error's wrap has
        derivative one. It is assembled as P + P', so it is exactly symmetric.
        """
        u, (ch, sh), e, er, _ = fwd
        T, dt, L = self.T, self.dt, self.L
        n = 2 * T
        v, w = u[0::2], u[1::2]
        cx, cy = np.add.accumulate(e[:, ::-1], axis=1)[:, ::-1]
        sigma = dt * (cx * ch + cy * sh)
        pi = dt * (cy * ch - cx * sh)
        # row i of the heading Jacobian is that of predicted state i, 0 for the current one
        theta = np.zeros((T, n))
        theta[1:] = jac[2, :-1]
        theta.reshape(-1)[1::n + 2] += 1.0
        half = theta.T @ ((-0.5 * v * sigma)[:, None] * theta)
        half[0::2] += pi[:, None] * theta
        # beta_j = sum_{i>j} v_i pi_i + Cr_j = Cr_j + (the suffix sum of v pi) - v_j pi_j
        vp = v * pi
        beta = np.add.accumulate((er + vp)[::-1])[::-1] - vp
        flat = half.reshape(-1)
        # d2 alpha_j / dv_j dw_j = dt/L cos w_j and d2 alpha_j / dw_j^2 = -alpha_j
        flat[1::2 * n + 2] += beta * (dt / L) * np.cos(w)
        flat[n + 1::2 * n + 2] -= 0.5 * beta * v * jac[2, -1, 0::2]
        return half + half.T


def _clip_chain(u: np.ndarray, cfg: NmpcConfig, u_prev: ControlInput) -> np.ndarray:
    """Project a control sequence onto actuator bounds and the rate chain from u_prev.

    The rate bound clips the change v - pv rather than clipping v to the
    window of NmpcConfig.reachable: where no rate bound binds, pv + (v - pv)
    can differ from v in the last bit, and the solver's iterates follow
    that rounding.
    """
    dt = cfg.dt
    dv_lo, dv_hi = cfg.du_min.v_cmd * dt, cfg.du_max.v_cmd * dt
    dw_lo, dw_hi = cfg.du_min.omega_cmd * dt, cfg.du_max.omega_cmd * dt
    v_lo, v_hi = cfg.u_min.v_cmd, cfg.u_max.v_cmd
    w_lo, w_hi = cfg.u_min.omega_cmd, cfg.u_max.omega_cmd
    out = u.tolist()
    pv, pw = float(u_prev.v_cmd), float(u_prev.omega_cmd)
    for k in range(0, len(out), 2):
        v = pv + min(max(out[k] - pv, dv_lo), dv_hi)
        w = pw + min(max(out[k + 1] - pw, dw_lo), dw_hi)
        pv = out[k] = min(max(v, v_lo), v_hi)
        pw = out[k + 1] = min(max(w, w_lo), w_hi)
    return np.array(out)


def _line_minimum(slope: float, curv: float, z, c, lo, hi, pw: float) -> float:
    """Exact minimizer beta >= 0 of the model along a direction.

    Along the line, the model's derivative is slope + curv * beta from the
    quadratic part plus pw * sum c_i * hinge_i(z_i + beta * c_i): piecewise
    linear and nondecreasing, with a kink where a hinge argument meets a
    bound. Each kink adds or removes one hinge's share of intercept and
    slope, so running totals over the sorted kinks give the derivative on
    every segment, and the minimum is the zero of the segment where it
    turns nonnegative.
    """
    # hinges active just past beta = 0: outside a bound, or on it and leaving
    above = (z > hi) | ((z == hi) & (c > 0.0))
    below = (z < lo) | ((z == lo) & (c < 0.0))
    active = above | below
    cc = pw * c
    a = slope + float(cc[active] @ (z - np.where(above, hi, lo))[active])
    b = curv + float(cc[active] @ c[active])
    if a >= 0.0:
        return 0.0
    moving = np.flatnonzero(c)
    cm, zm, ccm = c[moving], z[moving], cc[moving]
    # each moving argument has a kink at hi, then one at lo; a rising
    # argument enters the upper hinge at hi and leaves the lower one at lo,
    # a falling one does the opposite
    rising = np.where(cm > 0.0, 1.0, -1.0)
    sign = np.concatenate((rising, -rising))
    edge = np.concatenate((hi[moving], lo[moving]))
    cm, zm, ccm = np.concatenate((cm, cm)), np.concatenate((zm, zm)), np.concatenate((ccm, ccm))
    kink = (edge - zm) / cm
    d_a = sign * ccm * (zm - edge)
    d_b = sign * (ccm * cm)
    ahead = np.flatnonzero(kink > 0.0)
    ahead = ahead[np.argsort(kink[ahead], kind="stable")]
    kink = kink[ahead]
    seg_a = np.concatenate(([a], a + np.cumsum(d_a[ahead])))
    seg_b = np.concatenate(([b], b + np.cumsum(d_b[ahead])))
    turned = np.flatnonzero(seg_a[:-1] + seg_b[:-1] * kink >= 0.0)
    seg = int(turned[0]) if turned.size else kink.size
    return -seg_a[seg] / seg_b[seg]


class _Linearization:
    """The penalized objective linearized at an iterate u: its gradient,
    and its convex model in the step d.

    J, the exact Jacobian of the tracking errors, is computed once. With
    it, the model's tracking term is the quadratic with slope q J'e at
    d = 0, and the input term is exact; each hinge keeps its squared-hinge
    form of a linearized argument z0 + A d: the actuator and rate
    arguments are linear in u already, and the cross-track offset uses its
    Jacobian. The model's slope at d = 0 is half the cost's gradient, so
    `gradient` is twice it. hessian() builds the model's half Hessian,
    only for an iteration that runs: q J'J + r I (Gauss-Newton: the errors
    linearized), or with second_order the exact one, q (J'J + S) + r I
    with S from _Problem.curvature; where that matrix is indefinite, its
    eigenvalues are replaced by their absolute values, and where it is
    positive definite, it is kept as it is. The model is piecewise
    quadratic; the damping term _DAMPING * |d|^2 keeps it strictly convex.
    """

    def __init__(self, problem: _Problem, fwd):
        T, n = problem.T, 2 * problem.T
        u, _, e, er, h = fwd
        self.problem = problem
        self.fwd = fwd
        self.jac = problem.jacobian(fwd)
        flat = self.jac.reshape(3 * T, n)
        # half the model's slope at d = 0, hinges aside
        self.grad = problem.q * (flat.T @ np.concatenate((e[0], e[1], er))) + problem.r * (u - problem.u_ref)
        self.lat_jac = problem.lat[0][:, None] * self.jac[0] + problem.lat[1][:, None] * self.jac[1]
        # hinge arguments [u | rates | e_lat] at d = 0; forward() reuses its buffer
        self.z0 = problem.box[2:].copy()
        self.gradient = 2.0 * (self.grad + problem.pw * self.hinge_grad(h))

    def hessian(self, second_order: bool) -> np.ndarray:
        """Half the model's Hessian, hinges aside, damping included."""
        problem = self.problem
        n = 2 * problem.T
        flat = self.jac.reshape(-1, n)
        if not second_order:
            hess = problem.q * (flat.T @ flat)
            hess.reshape(-1)[:: n + 1] += problem.r + _DAMPING
            return hess
        hess = problem.q * (flat.T @ flat + problem.curvature(self.fwd, self.jac))
        hess.reshape(-1)[:: n + 1] += problem.r
        lam, vec = np.linalg.eigh(hess)
        if lam[0] <= 0.0:
            # B B' with B = V |Lambda|^(1/2) is V |Lambda| V', and numpy
            # forms a product with its own transpose exactly symmetric
            root = vec * np.sqrt(np.abs(lam))
            hess = root @ root.T
        hess.reshape(-1)[:: n + 1] += _DAMPING
        return hess

    def hinge_args(self, d: np.ndarray) -> np.ndarray:
        """A d, the change of the hinge arguments under the step d."""
        n = d.size
        out = np.empty(self.z0.size)
        out[:n] = d
        np.divide(d, self.problem.dt, out=out[n:2 * n])
        out[n + 2:2 * n] -= out[n:2 * n - 2]
        np.matmul(self.lat_jac, d, out=out[2 * n:])
        return out

    def hinge_grad(self, y: np.ndarray) -> np.ndarray:
        """A' y, the adjoint of hinge_args."""
        n = self.grad.size
        rate = y[n:2 * n] / self.problem.dt
        out = y[:n] + rate
        out[:-2] -= rate[2:]
        out += y[2 * n:] @ self.lat_jac
        return out

    def minimize(self, hess: np.ndarray) -> np.ndarray:
        """Semismooth Newton from d = 0, monotone in the model of half Hessian hess.

        Each step minimizes the quadratic in which the hinges active at d
        (on or past a bound) are linear against the bound they meet. It
        moves to that minimizer when this lowers the model, and otherwise
        to the exact minimum along the way there. It stops when a full step
        keeps the active set it was solved with, which makes the step the
        model's minimizer, when no step lowers the model, or after
        _INNER_ITERS steps.
        """
        problem = self.problem
        pw = problem.pw
        lo, hi = problem.lo, problem.hi
        d = np.zeros(self.grad.size)
        hd = np.zeros(d.size)  # hess @ d
        z = self.z0
        h = _hinges(z, lo, hi)
        above = z >= hi
        active = above | (z <= lo)
        for _ in range(_INNER_ITERS):
            p = self._quadratic_minimizer(hess, above, active) - d
            hp = hess @ p
            c = self.hinge_args(p)
            slope = float((self.grad + hd) @ p)
            curv = float(hp @ p)
            z_full = z + c
            h_full = _hinges(z_full, lo, hi)
            if slope + 0.5 * curv + 0.5 * pw * (float(h_full @ h_full) - float(h @ h)) < 0.0:
                d += p
                hd += hp
                z, h = z_full, h_full
                was = active
                above = z >= hi
                active = above | (z <= lo)
                if np.array_equal(active, was):
                    break
            else:
                beta = _line_minimum(slope, curv, z, c, lo, hi, pw)
                if not (math.isfinite(beta) and beta > 0.0):
                    break
                d += beta * p
                hd += beta * hp
                z = z + beta * c
                h = _hinges(z, lo, hi)
                above = z >= hi
                active = above | (z <= lo)
        return d

    def _quadratic_minimizer(self, hess, above, active) -> np.ndarray:
        """Minimizer of the model with the active hinges linear against
        their bound (hi where above, lo elsewhere) and the others zero.

        Its matrix is assembled from the structure of A: an actuator hinge
        adds pw to the diagonal, a rate hinge a stride-2 band of
        pw / dt^2 (e_k - e_{k-1})(e_k - e_{k-1})', and a corridor hinge its
        Jacobian row's outer product.
        """
        problem = self.problem
        pw, dt = problem.pw, problem.dt
        n = self.grad.size
        weight = pw * active
        rate_w = weight[n:2 * n] / (dt * dt)
        H = hess.copy()
        flat = H.reshape(-1)
        diag = weight[:n] + rate_w
        diag[:-2] += rate_w[2:]
        flat[:: n + 1] += diag
        band = slice(2 * n, 2 * n + (n - 2) * (n + 1), n + 1)
        flat[band] -= rate_w[2:]
        band = slice(2, 2 + (n - 2) * (n + 1), n + 1)
        flat[band] -= rate_w[2:]
        lat_active = active[2 * n:]
        if lat_active.any():
            rows = self.lat_jac[lat_active]
            H += pw * (rows.T @ rows)
        excess = (self.z0 - np.where(above, problem.hi, problem.lo)) * active
        rhs = self.grad + pw * self.hinge_grad(excess)
        try:
            return np.linalg.solve(H, -rhs)
        except np.linalg.LinAlgError as exc:
            raise NmpcError(f"singular Gauss-Newton model: {exc}") from None


def _gauss_newton(problem: _Problem, x0: np.ndarray, max_iters: int, grad_tol: float, f_tol: float):
    """Minimize by model steps with Armijo backtracking on the true cost.

    The start and every accepted iterate are linearized once: the
    gradient there decides the stop test and the Armijo slope, and the
    same Jacobian builds the next model, whose Hessian is built only when
    an iteration runs. Every model of a solve whose initial cost is at least
    _LARGE_RESIDUAL_COST carries the tracking residual's second-order
    term; in any other solve, the models of iterations
    _EXACT_HESSIAN_FROM and later carry it and the earlier ones are
    Gauss-Newton models.

    Stops when the largest gradient component falls below grad_tol, after
    max_iters steps, when no step along the model's minimizer lowers the
    cost, or when a step lowers it by no more than f_tol relative to the
    cost. Returns the initial cost, the final iterate, the iteration count
    and whether the gradient tolerance was met.
    """
    x = x0
    f, fwd = problem.forward(x)
    f0 = f
    lin = _Linearization(problem, fwd)
    if not (math.isfinite(f) and np.isfinite(lin.gradient).all()):
        raise NmpcError("non-finite cost or gradient at the initial iterate")
    # forward() returns a numpy float, so the comparison gives a numpy bool
    large_residual = bool(f0 >= _LARGE_RESIDUAL_COST)
    iters = 0
    gnorm = float(np.abs(lin.gradient).max())
    while gnorm >= grad_tol and iters < max_iters:
        d = lin.minimize(lin.hessian(large_residual or iters >= _EXACT_HESSIAN_FROM))
        # the model is convex and its slope at d = 0 is half the gradient,
        # so a step that lowers it is a descent direction
        slope = float(lin.gradient @ d)
        if not slope < 0.0:
            break
        alpha = 1.0
        for _ in range(30):
            x_new = x + alpha * d
            f_new, fwd_new = problem.forward(x_new)
            if f_new <= f + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        lin = _Linearization(problem, fwd_new)
        if not np.isfinite(lin.gradient).all():
            raise NmpcError("non-finite cost or gradient during optimization")
        decrease = f - f_new
        x, f = x_new, f_new
        gnorm = float(np.abs(lin.gradient).max())
        iters += 1
        if decrease <= f_tol * max(1.0, abs(f)):
            break
    return f0, x, iters, bool(gnorm < grad_tol)


def solve(
    current: VehicleState,
    z_d: np.ndarray,
    residual,
    g: GainSchedule,
    cfg: NmpcConfig,
    u_prev: ControlInput,
    u_ref: ControlInput,
    warm_start: Optional[np.ndarray] = None,
) -> NmpcSolution:
    """Minimize the penalized tracking objective over the control sequence.

    z_d, the desired path, is a (3, tau_o) array whose rows are x, y and
    heading; a z_d of another shape is a ValueError and a non-finite one an
    NmpcError. u_prev, the control last applied, anchors the first rate
    constraint; the input term prices every control against u_ref.
    warm_start, a flat control array like NmpcSolution.u_opt, is projected
    onto the bounds and used as the initial iterate. The returned controls
    satisfy actuator and rate bounds exactly; the returned cost never
    exceeds the cost of the (projected) initial iterate. When no iteration
    runs, as when that iterate already meets the gradient tolerance, it is
    returned with its cost as it is, neither projected nor evaluated again.
    """
    if np.shape(z_d) != (3, cfg.tau_o):
        raise ValueError(f"desired trajectory shape {np.shape(z_d)} differs from (3, tau_o) = (3, {cfg.tau_o})")
    x0 = np.zeros(2 * cfg.tau_o) if warm_start is None else np.asarray(warm_start, dtype=float)
    if x0.shape != (2 * cfg.tau_o,):
        raise ValueError(f"warm start shape {x0.shape} differs from (2 * tau_o,)")
    x0 = _clip_chain(x0, cfg, u_prev)

    # an overflowing rollout is reported as NmpcError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        problem = _Problem(current, z_d, residual, g, cfg, u_prev, u_ref, PENALTY_WEIGHT)
        f_initial, x, iters, converged = _gauss_newton(problem, x0, cfg.max_iters, cfg.grad_tol, cfg.f_tol)
        if iters == 0:
            final, f_final = x0, f_initial
        else:
            final = _clip_chain(x, cfg, u_prev)
            f_final = problem.value(final)
            if f_initial < f_final:
                final, f_final = x0, f_initial
        if not math.isfinite(f_final):
            raise NmpcError("non-finite cost at the projected iterate")
        return NmpcSolution(u_opt=final, cost=float(f_final), iterations=iters, converged=converged)

