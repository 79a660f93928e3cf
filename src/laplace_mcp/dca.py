"""Outer inexact proximal difference-of-convex loop: ADMM warm start, certificate
gated subproblem steps, the sigma schedule, and termination."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import _ADMM_EPS_FLOOR, AdmmParams, solve_l1
from .penalty import dc_smooth_grad_matrix, objective_value, stationarity
from .report import SolveReport
from .ssn import (
    CertificateError,
    SubproblemContext,
    _error_terms,
    _rule_bound,
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


# sigma shrinks by this factor each outer step until it reaches _SIGMA_MIN,
# then stays constant, keeping the certificate usable
_RHO = 0.8
_SIGMA_MIN = 1e-4


@dataclass
class DcaParams:
    """Outer-loop parameters; the penalty comes from ``ProblemData.params``.

    sigma starts at ``sigma0`` and shrinks by ``_RHO`` (0.8) each iteration
    until it reaches ``_SIGMA_MIN`` (1e-4). The l1 warm start runs to
    tolerance max(eps, ``admm._ADMM_EPS_FLOOR``), that is max(eps, 1e-4),
    for at most ``admm_max_iter`` (at least 1) iterations; the d.c. loop
    only starts from it, and its descent argument does not depend on how
    accurate that start is. ``max_outer`` is non-negative. The Newton caps
    are the module constants ``ssn._MAX_NEWTON`` and ``ssn._MAX_CG``.
    """

    sigma0: float = 1.0
    eps: float = 1e-6
    max_outer: int = 500
    admm_max_iter: int = 20000

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be non-negative, got {self.max_outer}")
        if self.admm_max_iter < 1:
            raise ValueError(f"admm_max_iter must be at least 1, got {self.admm_max_iter}")


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
    point's cached eigendecomposition. Returns the certificate or None, with
    the excess ||delta|| / (rule bound) where the rule failed and +inf
    otherwise. A passing point's ``stationarity`` comes from the rule's
    X2^{-1}; ``checks`` counts the rule evaluations, one per Newton point."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.checks = 0
        self.f = None
        self.stationarity = None

    def __call__(self, point):
        ctx = self.ctx
        self.checks += 1
        E = -point.grad
        try:
            terms = _error_terms(point.w_hat, E, ctx, point.cache)
        except np.linalg.LinAlgError:
            # A* w_hat + J is singular when w_hat vanishes or its support is
            # disconnected, so the objective is infinite there too
            return None, np.inf
        delta_norm = float(np.linalg.norm(terms[0]))
        bound = _rule_bound(point.w_hat, ctx.w_ref, ctx.sigma, ctx)
        if not delta_norm <= bound:
            return None, delta_norm / bound
        try:
            cert = subproblem_error_vector(point.w_hat, E, ctx, terms)
        except CertificateError:
            return None, np.inf
        self.f = objective_value(point.w_hat, ctx.problem)
        if not np.isfinite(self.f):
            return None, np.inf
        self.stationarity = stationarity(point.w_hat, ctx.problem, "cgl-mcp", terms[3])
        return cert, np.inf


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
    step; no other way accepts one. Each outer step makes one Newton run.
    The first starts from Y = 0; each later one starts where the previous
    run left the prox argument Z = K + Y (K the cost matrix), at
    Y = Z - K_k. Near a critical point Z is about (A* w + J)^{-1} whatever
    sigma and K are, so this start survives sigma shrinking and K moving,
    where the previous multiplier itself would shift the prox base point by
    (K_k - K_{k-1})/sigma. A run that ends without a certificate (at the
    Newton iteration cap ``ssn._MAX_NEWTON`` or on a stalled line search)
    ends the solve as ``"certificate_failed"``. Accepted steps must satisfy
    the quantified descent property (violations raise
    :class:`DescentError`). Terminates on the relative successive change of the
    weights or of the objective falling below eps. Each history entry records
    the Newton iterations and CG steps of the step (``ssn_iterations``,
    ``ssn_cg_steps``), how many rule evaluations it took (``cert_checks``,
    one per Newton point), ``cert_retries`` (always 0), the certificate
    (``delta_norm``, ``r``, ``bound``), the relative changes ``rel_w`` and
    ``rel_f``, and the first-order ``stationarity`` residual of the accepted
    weights (see :func:`laplace_mcp.penalty.stationarity`; it costs one A(.)
    of the X2^{-1} the rule check already has). The report's
    ``stationarity`` is that of its final weights.
    ``warm_start`` summarizes the ADMM stage: its termination, iterations,
    final KKT residual, tolerance ``eps``, ``wall_time_s`` and final ``sigma``.
    A disconnected prior or a degenerate covariance raises ValueError before
    the warm start (see :meth:`ProblemData.check_solvable`).
    """
    params = params or DcaParams()
    problem.check_solvable("cgl-mcp")
    t0 = time.perf_counter()
    admm_params = AdmmParams(
        eps=max(params.eps, _ADMM_EPS_FLOOR), max_iter=params.admm_max_iter
    )
    warm = solve_l1(problem, admm_params, start=start)
    w = np.asarray(warm.w, dtype=float)
    f_prev = objective_value(w, problem)
    sigma = params.sigma0
    Z = None
    history = []
    trace = [] if keep_trace else None
    termination = "max_outer"
    for k in range(params.max_outer):
        theta_k = problem.astar(w)
        cost = subproblem_cost_matrix(w, problem)
        ctx = SubproblemContext(problem, sigma, theta_k, w, cost)
        test = _StepTest(ctx)
        res = ssn_solve(ctx, None if Z is None else Z - cost, test)
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
                "ssn_iterations": res.iterations,
                "ssn_cg_steps": res.cg_steps,
                # one Newton run per step leaves nothing to retry; the field
                # stays while the benchmark's span check still reads it
                "cert_retries": 0,
                "cert_checks": test.checks,
                "delta_norm": cert.delta_norm,
                "r": cert.r,
                "bound": cert.bound,
                "rel_w": rel_w,
                "rel_f": rel_f,
                "stationarity": test.stationarity,
            }
        )
        if keep_trace:
            trace.append(_TraceStep(w.copy(), w_next.copy(), res.E.copy(), sigma))
        w = w_next
        f_prev = f_next
        Z = cost + res.Y
        if rel_w < params.eps or rel_f < params.eps:
            termination = "converged"
            break
        sigma = max(sigma * _RHO, _SIGMA_MIN)
    config = {
        "model": "cgl-mcp",
        "lam": problem.params.lam,
        "gamma": problem.params.gamma,
        "sigma0": params.sigma0,
        "eps": params.eps,
        "max_outer": params.max_outer,
        "admm_max_iter": params.admm_max_iter,
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
        stationarity=(
            history[-1]["stationarity"] if history else stationarity(w, problem, "cgl-mcp")
        ),
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
