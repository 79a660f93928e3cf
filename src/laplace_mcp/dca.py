"""Outer inexact proximal difference-of-convex loop: ADMM warm start, certificate
gated subproblem steps, the sigma schedule, and termination."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .admm import AdmmParams, solve_l1
from .penalty import PenaltyParams, dc_smooth_grad_matrix, objective_value
from .report import SolveReport
from .ssn import (
    CertificateError,
    SsnParams,
    SubproblemContext,
    _error_terms,
    check_stop_condition,
    recover_primal,  # noqa: F401
    ssn_solve,
    subproblem_error_vector,
)

__all__ = [
    "DcaParams",
    "DescentError",
    "subproblem_cost_matrix",
    "descent_check",
    "solve_mcp",
]

_DESCENT_SLACK = 1e-9


class DescentError(RuntimeError):
    """The quantified descent property failed beyond numerical slack, which
    indicates an implementation bug rather than a data issue."""


@dataclass
class DcaParams:
    """Outer-loop parameters.

    ``lam``/``gamma`` override the problem's penalty parameters when set.
    sigma shrinks by ``rho`` each iteration until it reaches ``sigma_min``,
    then stays constant, keeping the certificate usable. The l1 warm start
    runs to tolerance max(eps, admm_eps_floor), by default max(eps, 1e-4): the
    d.c. loop only starts from its result, and its descent argument does not
    depend on how accurate that start is.
    """

    lam: float | None = None
    gamma: float | None = None
    sigma0: float = 1.0
    rho: float = 0.8
    sigma_min: float = 1e-4
    eps: float = 1e-6
    max_outer: int = 500
    max_cert_retries: int = 20
    admm_eps_floor: float = 1e-4
    admm_max_iter: int = 20000
    ssn: SsnParams = field(default_factory=SsnParams)

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_cert_retries < 0:
            raise ValueError("max_cert_retries must be non-negative")


def subproblem_cost_matrix(w_k, problem):
    """Linearized cost S + lam I - grad_h(A* w_k) of the convex subproblem."""
    w_k = np.asarray(w_k, dtype=float)
    if np.any(w_k < 0):
        raise ValueError("iterate must be non-negative")
    theta = problem.astar(w_k)
    return problem.shifted_S - dc_smooth_grad_matrix(theta, problem.params)


def descent_check(f_prev, f_next, sigma, dw_norm):
    """True iff f_next <= f_prev - (sigma/4)||dw||^2 up to relative slack."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    slack = _DESCENT_SLACK * max(1.0, abs(f_prev))
    return f_next <= f_prev - 0.25 * sigma * dw_norm * dw_norm + slack


class _StepTest:
    """Acceptance test of one outer step, run by :func:`ssn_solve` at each
    Newton point (E = -grad, candidate w_hat), cheapest part first: the error
    vector delta and the inexactness rule against the step from w_ref; then,
    for a point that passes, the certificate (r < 1 and the operator-norm
    bound); then a finite objective, kept as ``f``. X1^{-1} comes from the
    point's cached eigendecomposition. Returns the certificate or None;
    ``checks`` counts the rule evaluations. After :meth:`skip_next` the next
    call returns None without a check: a retried Newton run starts at the
    point where the failed run ended, which this test has already rejected."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.checks = 0
        self.f = None
        self._skip = False

    def skip_next(self):
        self._skip = True

    def __call__(self, point):
        if self._skip:
            self._skip = False
            return None
        ctx = self.ctx
        self.checks += 1
        E = -point.grad
        try:
            terms = _error_terms(point.w_hat, E, ctx, point.cache)
        except np.linalg.LinAlgError:
            # A* w_hat + J is singular when w_hat vanishes or its support is
            # disconnected, so the objective is infinite there too
            return None
        if not check_stop_condition(terms[0], point.w_hat, ctx.w_ref, ctx.sigma, ctx):
            return None
        try:
            cert = subproblem_error_vector(point.w_hat, E, ctx, terms)
        except CertificateError:
            return None
        self.f = objective_value(point.w_hat, ctx.problem)
        return cert if np.isfinite(self.f) else None


@dataclass
class _TraceStep:
    """Per-iteration arrays kept for certificate auditing (never serialized)."""

    w_prev: np.ndarray
    w_next: np.ndarray
    E: np.ndarray
    sigma: float


def solve_mcp(problem, params=None, keep_trace=False, start=None):
    """Solve the MCP-penalized Laplacian model by the inexact proximal d.c. loop.

    Step 0 warm-starts from the l1 model via ADMM, itself started from zero or
    from the :class:`AdmmState` ``start`` (see :func:`solve_l1`); the final
    ADMM iterate is kept as the report's ``admm_state``. Each outer step
    builds the subproblem at (sigma_k, A* w_k, w_k) and maximizes its dual by
    semismooth Newton, which stops at the first Newton point whose recovered
    weights pass the acceptance test: the inexactness rule
    ||delta|| <= (sigma/4)||dw|| + sigma ||A* dw||^2 / (2||dw||), then r < 1
    and the certificate bound, then a finite objective. That point is the
    step; no other way accepts one. A Newton run that ends without a
    certificate (at its gradient tolerance, iteration cap or a stalled line
    search) is retried from the same multiplier with the tolerance set to
    half the smaller of itself and the run's final gradient norm. Accepted
    steps must satisfy the quantified descent property (violations raise
    :class:`DescentError`). Terminates on the relative successive change of the
    weights or of the objective falling below eps. Each history entry records
    the Newton iterations and CG steps of that step, retries included
    (``ssn_iterations``, ``ssn_cg_steps``), the status of the accepted Newton
    run (``ssn_status``, always ``"certified"``), how many Newton runs of that step
    ended without converging (``ssn_unconverged``: iteration cap or stalled
    line search) and how many rule evaluations it took (``cert_checks``).
    ``warm_start`` summarizes the ADMM stage: its termination, iterations,
    final KKT residual, tolerance ``eps``, ``wall_time_s`` and final ``sigma``.
    """
    params = params or DcaParams()
    if params.lam is not None or params.gamma is not None:
        cur = problem.params
        problem = problem.with_params(
            PenaltyParams(
                cur.lam if params.lam is None else params.lam,
                cur.gamma if params.gamma is None else params.gamma,
            )
        )
    if not problem.prior_connected():
        raise ValueError(
            "connectivity prior is disconnected: the objective is +inf everywhere"
        )
    a_S = problem.a_of_S
    degenerate = np.flatnonzero(a_S <= 1e-12 * max(1.0, float(a_S.max())))
    if degenerate.size:
        edges = ", ".join(
            f"({i}, {j})" for i, j in problem.prior.edges[degenerate[:10]].tolist()
        )
        more = f" and {degenerate.size - 10} more" if degenerate.size > 10 else ""
        raise ValueError(
            f"degenerate covariance: S_ii + S_jj - 2 S_ij vanishes on candidate "
            f"edges {edges}{more} (duplicate data columns?), so the MCP "
            "objective is unbounded below"
        )
    t0 = time.perf_counter()
    admm_params = AdmmParams(
        eps=max(params.eps, params.admm_eps_floor), max_iter=params.admm_max_iter
    )
    warm = solve_l1(problem, admm_params, start=start)
    w = np.asarray(warm.w, dtype=float)
    f_prev = objective_value(w, problem)
    sigma = params.sigma0
    Y_ws = None
    history = []
    trace = [] if keep_trace else None
    termination = "max_outer"
    n = problem.n
    for k in range(params.max_outer):
        theta_k = problem.astar(w)
        cost = subproblem_cost_matrix(w, problem)
        ctx = SubproblemContext(problem, sigma, theta_k, w, cost)
        tol = 1e-4 * (1.0 + np.linalg.norm(cost))
        Y_attempt = np.zeros((n, n)) if Y_ws is None else Y_ws
        test = _StepTest(ctx)
        ssn_iters = 0
        ssn_cg_steps = 0
        ssn_unconverged = 0
        for retry in range(params.max_cert_retries + 1):
            res = ssn_solve(
                ctx, Y_attempt, dataclasses.replace(params.ssn, grad_tol=tol), accept=test
            )
            Y_attempt = res.Y
            ssn_iters += res.iterations
            ssn_cg_steps += res.cg_steps
            ssn_unconverged += not res.converged
            if res.certificate is not None:
                break
            # below its tolerance a retry would stop before its first step
            tol = 0.5 * min(tol, res.grad_norm)
            test.skip_next()
        if res.certificate is None:
            termination = "certificate_failed"
            break
        w_next, f_next, cert = res.w_hat, test.f, res.certificate
        dw_norm = float(np.linalg.norm(w_next - w))
        if not descent_check(f_prev, f_next, sigma, dw_norm):
            raise DescentError(
                f"descent violated at outer iteration {k}: "
                f"f {f_prev:.12e} -> {f_next:.12e}, sigma={sigma:.3e}, |dw|={dw_norm:.3e}"
            )
        rel_w = dw_norm / (1.0 + np.linalg.norm(w))
        rel_f = (
            abs(f_next - f_prev) / (1.0 + abs(f_prev)) if np.isfinite(f_prev) else float("inf")
        )
        history.append(
            {
                "k": k,
                "f": f_next,
                "f_prev": f_prev,
                "sigma": sigma,
                "dw_norm": dw_norm,
                "ssn_iterations": ssn_iters,
                "ssn_cg_steps": ssn_cg_steps,
                "ssn_status": res.status,
                "ssn_unconverged": ssn_unconverged,
                "cert_retries": retry,
                "cert_checks": test.checks,
                "delta_norm": cert.delta_norm,
                "r": cert.r,
                "bound": cert.bound,
                "rel_w": rel_w,
                "rel_f": rel_f,
            }
        )
        if keep_trace:
            trace.append(_TraceStep(w.copy(), w_next.copy(), res.E.copy(), sigma))
        w = w_next
        f_prev = f_next
        Y_ws = res.Y
        if rel_w < params.eps or rel_f < params.eps:
            termination = "converged"
            break
        sigma = max(sigma * params.rho, params.sigma_min)
    config = {
        "model": "cgl-mcp",
        "lam": problem.params.lam,
        "gamma": problem.params.gamma,
        "sigma0": params.sigma0,
        "rho": params.rho,
        "sigma_min": params.sigma_min,
        "eps": params.eps,
        "max_outer": params.max_outer,
        "max_cert_retries": params.max_cert_retries,
        "admm_eps": admm_params.eps,
        "admm_max_iter": admm_params.max_iter,
        "ssn": dataclasses.asdict(params.ssn),
        "prior_tag": problem.prior_tag,
        "warm_start_initial_point": warm.config["initial_point"],
    }
    return SolveReport(
        model="cgl-mcp",
        n=problem.n,
        edges=problem.prior.edges,
        w=w,
        objective=f_prev,
        termination=termination,
        wall_time_s=time.perf_counter() - t0,
        history=history,
        config=config,
        warm_start={
            "termination": warm.termination,
            "iterations": warm.history[-1]["iteration"] if warm.history else 0,
            "kkt_residual": max(
                warm.history[-1][key] for key in ("eta_p", "eta_d", "eta_g")
            )
            if warm.history
            else None,
            "eps": admm_params.eps,
            "wall_time_s": warm.wall_time_s,
            "sigma": warm.admm_state.sigma,
        },
        trace=trace,
        admm_state=warm.admm_state,
    )
