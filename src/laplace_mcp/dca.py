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
    check_stop_condition,
    recover_primal,
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
    then stays constant, keeping the certificate usable. The warm start runs
    to tolerance max(eps, admm_eps_floor).
    """

    lam: float | None = None
    gamma: float | None = None
    sigma0: float = 1.0
    rho: float = 0.8
    sigma_min: float = 1e-4
    eps: float = 1e-6
    max_outer: int = 500
    max_cert_retries: int = 20
    admm_eps_floor: float = 1e-5
    admm_max_iter: int = 20000
    ssn: SsnParams = field(default_factory=SsnParams)

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


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


@dataclass
class _TraceStep:
    """Per-iteration arrays kept for certificate auditing (never serialized)."""

    w_prev: np.ndarray
    w_next: np.ndarray
    E: np.ndarray
    sigma: float


def solve_mcp(problem, params=None, keep_trace=False):
    """Solve the MCP-penalized Laplacian model by the inexact proximal d.c. loop.

    Step 0 warm-starts from the l1 model via ADMM. Each outer step builds the
    subproblem at (sigma_k, A* w_k, w_k), maximizes its dual by semismooth
    Newton, recovers the primal pair, and accepts only when the recomputed
    error vector passes the inexactness rule; on failure the Newton tolerance
    halves and the subproblem resumes from the same multiplier. Accepted steps
    must satisfy the quantified descent property (violations raise
    :class:`DescentError`). Terminates on the relative successive change of the
    weights or of the objective falling below eps. Each history entry records
    the Newton iterations and CG steps of that step, retries included
    (``ssn_iterations``, ``ssn_cg_steps``), the status of the accepted Newton
    run (``ssn_status``) and how many Newton runs of that step ended without
    converging (``ssn_unconverged``: iteration cap or stalled line search).
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
    warm = solve_l1(problem, admm_params)
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
        accepted = None
        ssn_iters = 0
        ssn_cg_steps = 0
        ssn_unconverged = 0
        for retry in range(params.max_cert_retries + 1):
            res = ssn_solve(ctx, Y_attempt, dataclasses.replace(params.ssn, grad_tol=tol))
            Y_attempt = res.Y
            ssn_iters += res.iterations
            ssn_cg_steps += res.cg_steps
            ssn_unconverged += res.status != "converged"
            _, w_next = recover_primal(res.Y, ctx)
            f_next = objective_value(w_next, problem)
            if not np.isfinite(f_next):
                tol *= 0.5
                continue
            try:
                cert = subproblem_error_vector(w_next, res.E, ctx)
            except CertificateError:
                tol *= 0.5
                continue
            if check_stop_condition(cert.delta, w_next, w, sigma, ctx):
                accepted = (res, w_next, f_next, cert, retry)
                break
            tol *= 0.5
        if accepted is None:
            termination = "certificate_failed"
            break
        res, w_next, f_next, cert, retries = accepted
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
                "cert_retries": retries,
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
        "ssn": dataclasses.asdict(params.ssn),
        "prior_tag": problem.prior_tag,
        "warm_start_initial_point": "zeros",
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
        },
        trace=trace,
    )
