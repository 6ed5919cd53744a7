"""Constrained receding-horizon controller.

Single-shooting transcription: the decision variables are the control
sequence, the predicted states come from rolling the nominal model plus a
constant residual increment forward. Actuator and rate bounds and a soft
cross-track corridor enter as quadratic penalties; the penalized objective
is minimized with BFGS and a backtracking line search, and the final
controls are projected exactly onto the actuator and rate bounds.

Each objective evaluation is one numpy forward pass over the horizon; the
gradient comes from the adjoint of that same pass, so the line search's
accepted trial supplies the next gradient without a second rollout. Only
the wrapped heading recursion runs as a Python loop. The array code repeats
the per-step recurrence's floating-point operations in their order, so
costs, gradients and iterates are bit-identical to a scalar loop (the
reference kept in tests/test_nmpc.py).

A solution is the flat control array [v0, omega0, v1, omega1, ...] the
solver works in, with its cost and solver diagnostics; a receding-horizon
step applies its first pair and seeds the next solve with the array
shifted by one step.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import wrap_angle
from .scene import GainSchedule
# rollout is unused here; perfbench/tracer.py wraps it by attribute name on this module
from .vehicle import ControlInput, VehicleState, rollout  # noqa: F401

_WRAP_PI = math.pi
_TWO_PI = 2.0 * math.pi
# weight of the first penalty round; solve doubles it for each further round
PENALTY_WEIGHT = 1e3


@dataclass(frozen=True)
class NmpcConfig:
    """Horizon, bounds, and solver settings.

    Rate bounds are per second; both rate intervals must contain zero so a
    held control is always feasible. The cross-track corridor [e_min, e_max]
    is soft (penalty only); actuator and rate bounds are hard. The solver
    defaults are the ones every pipeline runs.
    """

    tau_o: int = 20
    dt: float = 0.05
    wheelbase_L: float = 0.36
    u_min: ControlInput = ControlInput(0.0, -0.35)
    u_max: ControlInput = ControlInput(1.0, 0.35)
    du_min: ControlInput = ControlInput(-2.0, -4.0)
    du_max: ControlInput = ControlInput(2.0, 4.0)
    e_min: float = -0.5
    e_max: float = 0.5
    max_iters: int = 40
    grad_tol: float = 1e-4
    f_tol: float = 1e-8

    def __post_init__(self):
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
        if self.e_min >= self.e_max:
            raise ValueError("e_min must be below e_max")
        if self.max_iters < 1 or self.grad_tol <= 0.0 or self.f_tol < 0.0:
            raise ValueError("max_iters, grad_tol, f_tol must be positive")

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


def tracking_cost(
    z_seq: Sequence[VehicleState],
    u_seq: Sequence[ControlInput],
    z_d: Sequence[VehicleState],
    g: GainSchedule,
) -> float:
    """Quadratic tracking cost with wrapped heading errors.

    J = sum_k q * ||z_d,k - z_k||^2 + r * ||u_k||^2, all sequences of equal
    length. Heading differences are wrapped to (-pi, pi].
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
        total += g.r_diag * (u.v_cmd * u.v_cmd + u.omega_cmd * u.omega_cmd)
    return total


class _Problem:
    """Penalized single-shooting objective with analytic gradient.

    The arrays repeat the per-step recurrence operation for operation.
    Every running total (positions, adjoints, the cost) is an
    np.add.accumulate, which adds in sequence where np.sum adds pairwise,
    so the cost and gradient are bit-identical to a loop over the horizon.
    """

    def __init__(self, current, zd_states, residual, g, cfg, u_prev, penalty):
        T = cfg.tau_o
        self.T = T
        self.dt = cfg.dt
        self.L = cfg.wheelbase_L
        self.q = g.q_diag
        self.r = g.r_diag
        self.pw = penalty
        self.r0 = current.rho
        if residual is None:
            res = (0.0, 0.0, 0.0)
        else:
            arr = np.asarray(residual, dtype=float).reshape(-1)
            if arr.shape[0] != 3:
                raise ValueError("residual must be a 3-vector")
            if not np.isfinite(arr).all():
                raise NmpcError("non-finite residual")
            res = (float(arr[0]), float(arr[1]), float(arr[2]))
        self.rr = res[2]
        # x[k+1] = (x[k] + a[k]) + rx is the running sum of [x0, a0, rx, a1, rx, ...]
        self.pos_steps = np.empty((2, 2 * T + 1))
        self.pos_steps[:, 0] = current.x, current.y
        self.pos_steps[0, 2::2] = res[0]
        self.pos_steps[1, 2::2] = res[1]
        self.zd = np.array([[z.x for z in zd_states], [z.y for z in zd_states]])
        self.rd = np.array([z.rho for z in zd_states])
        # e_lat = -sin(rho_d) * ex + cos(rho_d) * ey in the desired-pose frame
        self.lat = np.array([[-math.sin(z.rho) for z in zd_states], [math.cos(z.rho) for z in zd_states]])
        # the penalized quantities share one buffer, [u_prev | u | rates | e_lat];
        # rate k is taken against control k-1, the first against u_prev
        self.box = np.empty(2 + 5 * T)
        self.box[:2] = u_prev.v_cmd, u_prev.omega_cmd
        self.lo = np.concatenate((
            np.tile((cfg.u_min.v_cmd, cfg.u_min.omega_cmd), T),
            np.tile((cfg.du_min.v_cmd, cfg.du_min.omega_cmd), T),
            np.full(T, cfg.e_min),
        ))
        self.hi = np.concatenate((
            np.tile((cfg.u_max.v_cmd, cfg.u_max.omega_cmd), T),
            np.tile((cfg.du_max.v_cmd, cfg.du_max.omega_cmd), T),
            np.full(T, cfg.e_max),
        ))

    def value(self, u: np.ndarray) -> float:
        return self.forward(u)[0]

    def forward(self, u: np.ndarray):
        """Cost at u, and the rollout arrays that gradient() reuses.

        The last array holds the signed excesses over the bounds of
        [u | control rates | lateral offsets], zero where a bound holds.
        """
        T, dt, L, pw = self.T, self.dt, self.L, self.pw
        n = 2 * T
        v, w = u[0::2], u[1::2]
        sw = np.sin(w)
        # the doubly wrapped heading is the one sequential recurrence
        pi, two_pi = _WRAP_PI, _TWO_PI
        r, rr = self.r0, self.rr
        rho = [r]
        for inc in (sw / L * v * dt).tolist():
            r = pi - (pi - (r + inc)) % two_pi
            r = pi - (pi - (r + rr)) % two_pi
            rho.append(r)
        rho = np.array(rho)
        head = rho[:-1] + w
        trig = np.empty((2, T))
        np.cos(head, out=trig[0])
        np.sin(head, out=trig[1])
        steps = self.pos_steps
        np.multiply(trig * v, dt, out=steps[:, 1::2])
        e = np.add.accumulate(steps, axis=1)[:, 2::2] - self.zd
        er = pi - (pi - (rho[1:] - self.rd)) % two_pi
        box = self.box
        box[2:n + 2] = u
        np.divide(box[2:n + 2] - box[:n], dt, out=box[n + 2:-T])
        np.add(self.lat[0] * e[0], self.lat[1] * e[1], out=box[-T:])
        # signed excess max(0, x - hi) - max(0, lo - x); np.maximum(a, 0.0)
        # turns -0.0 into 0.0 as Python's max(0.0, a) does, while
        # np.maximum(0.0, a) keeps -0.0
        x = box[2:]
        h = np.maximum(x - self.hi, 0.0) - np.maximum(self.lo - x, 0.0)
        # per-step terms in the order a loop adds them: tracking and input,
        # actuator, corridor for each step, then the rate terms
        sq = h[:-T] * h[:-T]
        pen = pw * (sq[0::2] + sq[1::2])
        he = h[-T:]
        e2, u2 = e * e, u * u
        terms = np.empty(3 * T + pen.size - T)
        stage = terms[: 3 * T].reshape(T, 3)
        np.add(self.q * (e2[0] + e2[1] + er * er), self.r * (u2[0::2] + u2[1::2]), out=stage[:, 0])
        stage[:, 1] = pen[:T]
        np.multiply(pw * he, he, out=stage[:, 2])
        terms[3 * T:] = pen[T:]
        return np.add.accumulate(terms)[-1], (u, sw, trig, e, er, h)

    def gradient(self, fwd) -> np.ndarray:
        """Gradient at the point of a forward() pass, by the adjoint recursion."""
        u, sw, (ch, sh), e, er, h = fwd
        T, dt, L, pw = self.T, self.dt, self.L, self.pw
        n = 2 * T
        q2 = 2.0 * self.q
        v, w = u[0::2], u[1::2]
        # adjoints are suffix sums, accumulated backward from 0.0
        gxy = np.zeros((2, T + 1))
        np.add(q2 * e, pw * (2.0 * h[-T:]) * self.lat, out=gxy[:, :0:-1])
        lam_x, lam_y = np.add.accumulate(gxy, axis=1)[:, :0:-1]
        dtv = dt * v
        m = dtv * (-sh * lam_x + ch * lam_y)
        # going backward, lam_r gains q2 * er[k], is read at step k, then gains m[k]
        gr = np.empty(n)
        gr[0] = 0.0
        gr[1::2] = (q2 * er)[::-1]
        gr[2::2] = m[:0:-1]
        lam_r = np.add.accumulate(gr)[1::2][::-1]
        grad = np.empty(n)
        grad[0::2] = dt * (ch * lam_x + sh * lam_y) + dt * sw / L * lam_r
        grad[1::2] = m + dtv * np.cos(w) / L * lam_r
        grad += 2.0 * self.r * u
        grad += pw * 2.0 * h[:n]
        d_rate = 2.0 * h[n:-T] * pw / dt
        grad += d_rate
        grad[:-2] -= d_rate[2:]
        return grad


def _clip_chain(u: np.ndarray, cfg: NmpcConfig, u_prev: ControlInput) -> np.ndarray:
    """Project a control sequence onto actuator bounds and the rate chain from u_prev.

    The rate bound clips the change v - pv rather than clipping v to the
    window of NmpcConfig.reachable: where no rate bound binds, pv + (v - pv)
    can differ from v in the last bit, and the solver's iterates follow
    that rounding.
    """
    out = u.copy()
    dt = cfg.dt
    pv, pw = u_prev.v_cmd, u_prev.omega_cmd
    for k in range(cfg.tau_o):
        v = out[2 * k]
        w = out[2 * k + 1]
        v = pv + min(max(v - pv, cfg.du_min.v_cmd * dt), cfg.du_max.v_cmd * dt)
        w = pw + min(max(w - pw, cfg.du_min.omega_cmd * dt), cfg.du_max.omega_cmd * dt)
        v = min(max(v, cfg.u_min.v_cmd), cfg.u_max.v_cmd)
        w = min(max(w, cfg.u_min.omega_cmd), cfg.u_max.omega_cmd)
        out[2 * k] = v
        out[2 * k + 1] = w
        pv, pw = v, w
    return out


def _violation(fwd) -> float:
    """Worst constraint excess of a forward() pass: actuator, rate, and corridor.

    A hinge is the signed excess over its bound, so its magnitude is the
    violation.
    """
    return max(0.0, float(np.abs(fwd[-1]).max()))


def _update_inverse_hessian(H: np.ndarray, s: np.ndarray, y: np.ndarray, rho: float) -> None:
    """BFGS update of the inverse Hessian H, in place:
    H - rho (s Hy' + Hy s') + rho (rho y'Hy + 1) s s', rounded as that
    expression evaluates left to right."""
    Hy = H @ y
    sHy = s[:, None] * Hy
    sym = sHy + sHy.T
    sym *= rho
    H -= sym
    ss = s[:, None] * s
    ss *= rho * (rho * float(y @ Hy) + 1.0)
    H += ss


def _bfgs(problem: _Problem, x0: np.ndarray, max_iters: int, grad_tol: float, f_tol: float = 0.0):
    """Minimize with BFGS + Armijo backtracking; accepted costs never increase.

    Stops on gradient tolerance, iteration budget, a stalled line search, or
    a relative cost decrease below f_tol (penalty walls make the last digits
    of the optimum expensive and worthless for control). Returns the final
    iterate, its forward() pass, the iteration count and whether the
    gradient tolerance was met. The line search's accepted pass supplies the
    next gradient, so each iteration runs one rollout per trial step.
    """
    x = x0.copy()
    f, fwd = problem.forward(x)
    g = problem.gradient(fwd)
    if not (math.isfinite(f) and np.isfinite(g).all()):
        raise NmpcError("non-finite cost or gradient at the initial iterate")
    n = x.size
    H = np.eye(n)
    iters = 0
    scaled = False
    gnorm = float(np.abs(g).max())
    while gnorm >= grad_tol and iters < max_iters:
        p = -H @ g
        slope = float(g @ p)
        if slope >= 0.0:
            H = np.eye(n)
            scaled = False
            p = -g
            slope = float(g @ p)
        # before any curvature information a unit step along -g can be huge
        # against the penalty walls; damp the very first trial step
        alpha = 1.0 if scaled else min(1.0, 1.0 / max(1.0, math.sqrt(float(p @ p))))
        accepted = False
        for _ in range(40):
            x_new = x + alpha * p
            f_new, fwd_new = problem.forward(x_new)
            if math.isfinite(f_new) and f_new <= f + 1e-4 * alpha * slope:
                accepted = True
                break
            # quadratic interpolation on the failed trial, clamped so progress
            # stays geometric even when the model is degenerate
            denom = f_new - f - slope * alpha
            if math.isfinite(denom) and denom > 0.0:
                alpha_q = -slope * alpha * alpha / (2.0 * denom)
                alpha = min(max(alpha_q, 0.1 * alpha), 0.5 * alpha)
            else:
                alpha *= 0.5
        if not accepted:
            break
        g_new = problem.gradient(fwd_new)
        if not np.isfinite(g_new).all():
            raise NmpcError("non-finite cost or gradient during optimization")
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(yv @ yv)) and sy > 0.0:
            if not scaled:
                # Shanno-Phua: size the initial inverse Hessian from the first
                # curvature pair so unit steps become well-scaled
                H = (sy / float(yv @ yv)) * np.eye(n)
                scaled = True
            _update_inverse_hessian(H, s, yv, 1.0 / sy)
        decrease = f - f_new
        x, f, g, fwd = x_new, f_new, g_new, fwd_new
        gnorm = float(np.abs(g).max())
        iters += 1
        if decrease <= f_tol * max(1.0, abs(f)):
            break
    return x, fwd, iters, gnorm < grad_tol


def solve(
    current: VehicleState,
    z_d: Sequence[VehicleState],
    residual,
    g: GainSchedule,
    cfg: NmpcConfig,
    u_prev: ControlInput,
    warm_start: Optional[np.ndarray] = None,
) -> NmpcSolution:
    """Minimize the penalized tracking objective over the control sequence.

    u_prev, the control last applied, anchors the first rate constraint.
    warm_start, a flat control array like NmpcSolution.u_opt, is projected
    onto the bounds and used as the initial iterate. The returned controls
    satisfy actuator and rate bounds exactly; the returned cost never
    exceeds the cost of the (projected) initial iterate.
    """
    if len(z_d) != cfg.tau_o:
        raise ValueError(f"desired trajectory length {len(z_d)} differs from tau_o {cfg.tau_o}")
    x0 = np.zeros(2 * cfg.tau_o) if warm_start is None else np.asarray(warm_start, dtype=float)
    if x0.shape != (2 * cfg.tau_o,):
        raise ValueError(f"warm start shape {x0.shape} differs from (2 * tau_o,)")
    x0 = _clip_chain(x0, cfg, u_prev)

    # an overflowing rollout is reported as NmpcError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        penalty = PENALTY_WEIGHT
        x = x0
        total_iters = 0
        converged = False
        problem = _Problem(current, z_d, residual, g, cfg, u_prev, penalty)
        for round_idx in range(3):
            problem.pw = penalty
            x, fwd, iters, converged = _bfgs(problem, x, cfg.max_iters, cfg.grad_tol, cfg.f_tol)
            total_iters += iters
            # excesses below this are absorbed exactly by the final projection,
            # so escalating the penalty for them only burns iterations
            if _violation(fwd) <= 1e-3 or round_idx == 2:
                break
            penalty *= 2.0

        final = _clip_chain(x, cfg, u_prev)
        problem.pw = penalty
        f_final = problem.value(final)
        f_initial = problem.value(x0)
        if f_initial < f_final:
            final = x0
            f_final = f_initial
        if not math.isfinite(f_final):
            raise NmpcError("non-finite cost at the projected iterate")
        return NmpcSolution(u_opt=final, cost=float(f_final), iterations=total_iters, converged=converged)


def control_step(
    current: VehicleState,
    z_d: Sequence[VehicleState],
    residual,
    g: GainSchedule,
    cfg: NmpcConfig,
    u_prev: ControlInput,
    warm_start: Optional[np.ndarray] = None,
) -> tuple[ControlInput, NmpcSolution]:
    """One receding-horizon step: solve, apply the first optimal control.

    warm_start is the previous solution's u_opt; shifted by one step with
    its last pair repeated, it seeds the solver. The full unshifted
    solution is returned for the next call.
    """
    init = None if warm_start is None else np.concatenate((warm_start[2:], warm_start[-2:]))
    sol = solve(current, z_d, residual, g, cfg, u_prev, warm_start=init)
    return ControlInput(float(sol.u_opt[0]), float(sol.u_opt[1])), sol
