"""Outer inexact proximal difference-of-convex loop: ADMM warm start, certificate
gated subproblem steps, the sigma schedule, and termination."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import AdmmParams, solve_l1
from .graphs import laplacian_adjoint, weights_to_laplacian
from .penalty import _projected_residual, objective_gradient, objective_value, stationarity
from .report import SolveReport
from .ssn import (
    CertificateError,
    SubproblemContext,
    _error_terms,
    _pcg,
    _rule_bound,
    recover_primal,  # noqa: F401
    ssn_solve,
    subproblem_error_vector,
)

__all__ = [
    "DcaParams",
    "DescentError",
    "descent_check",
    "solve_mcp",
]

_DESCENT_SLACK = 1e-9


class DescentError(RuntimeError):
    """The quantified descent property failed beyond numerical slack, which
    indicates an implementation bug rather than a data issue."""


# sigma starts at _SIGMA0 and shrinks by _RHO each outer step until it
# reaches _SIGMA_MIN, then stays constant, keeping the certificate usable
_SIGMA0 = 1.0
_RHO = 0.8
_SIGMA_MIN = 1e-4
# the l1 warm start runs to max(eps, _ADMM_EPS_FLOOR): the loop only starts
# from it
_ADMM_EPS_FLOOR = 1e-4

# the projected-Newton polish of an accepted iterate: it runs on every step
# whose residual is below _POLISH_START and takes at most _POLISH_STEPS
# steps; CG gets at most _POLISH_CG steps per direction; _POLISH_ARMIJO is
# the Armijo constant, and t is halved at most _POLISH_BACKTRACKS times
_POLISH_START = 1e-2
_POLISH_STEPS = 6
_POLISH_CG = 100
_POLISH_ARMIJO = 1e-4
_POLISH_BACKTRACKS = 30


@dataclass
class DcaParams:
    """Outer-loop parameters; the penalty comes from ``ProblemData.params``.

    sigma starts at ``_SIGMA0`` (1.0) and shrinks by ``_RHO`` (0.8) each
    iteration until it reaches ``_SIGMA_MIN`` (1e-4). The l1 warm start, the
    Anderson-accelerated ADMM of :func:`solve_l1`, runs to tolerance
    max(eps, ``_ADMM_EPS_FLOOR``), that is max(eps, 1e-4), for at most
    ``admm_max_iter`` (at least 1) iterations; the d.c. loop only starts from
    it, and its descent argument does not depend on how accurate that start
    is. ``max_outer`` is non-negative. The Newton caps
    are the module constants ``ssn._MAX_NEWTON`` and ``ssn._MAX_CG``.
    """

    eps: float = 1e-6
    max_outer: int = 500
    admm_max_iter: int = 20000

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be non-negative, got {self.max_outer}")
        if self.admm_max_iter < 1:
            raise ValueError(f"admm_max_iter must be at least 1, got {self.admm_max_iter}")


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
    X2^{-1}."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.f = None
        self.stationarity = None

    def __call__(self, point):
        ctx = self.ctx
        E = -point.grad
        try:
            terms = _error_terms(point.w_hat, E, ctx, point.cache)
        except np.linalg.LinAlgError:
            # A* w_hat + J is singular when w_hat vanishes or its support is
            # disconnected, so the objective is infinite there too
            return None, np.inf
        delta_norm = float(np.linalg.norm(terms[0]))
        bound = _rule_bound(point.w_hat, ctx)
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


def _reduced_hessian(w, R, free, problem):
    """The edges of the mask ``free`` whose diagonal entry of the objective's
    Hessian in w is positive, as a mask, with that diagonal and a matrix-free
    apply of the Hessian on them, at w with R = (A* w + J)^{-1}.

    The log-det part is v -> a(R A*(v) R) restricted to the kept edges, whose
    diagonal is a(R)^2 = ((b_e^T R b_e)^2)_e; the MCP adds -2/gamma on the
    edges with w_e < gamma lam. The apply costs two n x n GEMMs and holds no
    matrix larger than n x n.
    """
    lam, gamma = problem.params.lam, problem.params.gamma
    concave = (2.0 / gamma) * (w < gamma * lam)
    diag = problem.a(R) ** 2 - concave
    free = free & (diag > 0)
    sub = problem.prior.support(free.astype(float))
    concave = concave[free]

    def apply(v):
        return laplacian_adjoint(R @ weights_to_laplacian(v, sub) @ R, sub) - concave * v

    return free, diag[free], apply


@dataclass
class _Polish:
    """Outcome of :func:`_polish`: the final weights, their objective and
    residual, the steps taken, and whether it ended on a refusal."""

    w: np.ndarray
    f: float
    stationarity: float
    steps: int
    refused: bool


def _polish(w, f, problem, eps):
    """Projected Newton on the objective [Bertsekas 1982] from the accepted
    iterate w of value f, for at most ``_POLISH_STEPS`` steps, stopping once
    the stationarity residual is below eps.

    At each step, with R = (A* w + J)^{-1} and g the objective's gradient,
    the free set is F = {w > 0} | {g < 0}. F splits into the kept edges,
    whose diagonal entry of the reduced Hessian of :func:`_reduced_hessian`
    is positive, and the held ones (an edge in the MCP's concave zone with
    small effective resistance). On the kept edges Jacobi-preconditioned CG
    solves H x = g to 1e-2 min(1, sqrt(||g||)) ||g||, within ``_POLISH_CG``
    steps, and d = -x. Where CG meets p^T H p <= 0 it stops, and d is minus
    its iterate so far, or -g/diag(H) if that was its first step. Along a
    held edge the objective is concave [More & Sorensen 1979], so a held
    edge with w_e > 0 and g_e > 0 is pushed toward 0 along d_e = -w_e; the
    other held edges keep their weight. A projected Armijo search then takes
    w+ = max(w + t d, 0) at the first t in 1, 1/2, ... with
    f(w+) <= f + 1e-4 min(g^T (w+ - w), 0), so no step raises f.

    The polish ends without a refusal once the gradient on the kept edges is
    below 1e-2 eps and no held edge is pushed: what is left of the residual
    sits on held edges that no step moves, and the d.c. loop takes over. It
    refuses, taking no further step, where no edge is kept or where the
    search fails ``_POLISH_BACKTRACKS`` times; the steps taken before stay.
    """
    steps = 0
    refused = False
    while True:
        R = np.linalg.inv(problem.astar(w) + problem.J)
        g = objective_gradient(w, problem, "cgl-mcp", R)
        residual = _projected_residual(g, w)
        if residual < eps or steps == _POLISH_STEPS:
            break
        kept, diag, hessian = _reduced_hessian(w, R, (w > 0) | (g < 0), problem)
        if not kept.any():
            refused = True
            break
        push = ~kept & (w > 0) & (g > 0)
        g_kept = g[kept]
        gnorm = float(np.linalg.norm(g_kept))
        solved = gnorm < 1e-2 * eps
        if solved and not push.any():
            break
        d = np.zeros_like(w)
        d[push] = -w[push]
        if not solved:
            target = 1e-2 * min(1.0, np.sqrt(gnorm)) * gnorm
            x, _ = _pcg(hessian, g_kept, diag, target, _POLISH_CG)
            if not x.any():
                # CG met p^T H p <= 0 on its first step
                x = g_kept / diag
            d[kept] = -x
        t = 1.0
        for _ in range(_POLISH_BACKTRACKS):
            w_new = np.maximum(w + t * d, 0.0)
            f_new = objective_value(w_new, problem)
            if f_new <= f + _POLISH_ARMIJO * min(float(g @ (w_new - w)), 0.0):
                break
            t *= 0.5
        else:
            refused = True
            break
        w, f = w_new, f_new
        steps += 1
    return _Polish(w, f, residual, steps, refused)


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
    builds the subproblem at (sigma_k, w_k) and maximizes its dual by
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
    :class:`DescentError`).

    An accepted step whose stationarity residual is below 1e-2
    (``_POLISH_START``) is polished by projected Newton on the objective
    (see :func:`_polish`), which only lowers f: Newton on the edges with
    positive curvature, concave-zone edges with nonpositive curvature and a
    positive gradient pushed toward 0, and a stop once the Newton edges are
    solved. The next subproblem is centred at the polished weights, and the
    prox argument Z carries over unchanged. A polish that ends, or refuses
    (no edge with positive curvature, or a failed line search), hands back
    to the d.c. loop. The solve ends ``"converged"`` once, and only once,
    the stationarity residual of the current weights, polished or not, is
    below eps; a solve whose residual never gets there ends ``"max_outer"``.

    Each history entry records the Newton iterations and CG steps of the
    step (``ssn_iterations``, ``ssn_cg_steps``), ``cert_retries`` (always
    0), the certificate (``delta_norm``, ``r``, ``bound``), and the
    first-order ``stationarity`` residual of the accepted weights (see
    :func:`laplace_mcp.penalty.stationarity`; it costs one A(.) of the
    X2^{-1} the rule check already has). Then the polish: ``polish_steps``,
    ``polish_refused``, and the objective ``polish_f``, distance
    ``polish_dw_norm`` from the step's start and residual
    ``polish_stationarity`` of the polished weights, equal to ``f``,
    ``dw_norm`` and ``stationarity`` where no polish step was taken. The
    report's ``objective`` and ``stationarity`` are those of its final
    weights.
    ``warm_start`` summarizes the ADMM stage: its termination, iterations,
    final KKT residual, tolerance ``eps``, ``wall_time_s``, final ``sigma``,
    and the cumulative ``aa_steps`` and ``aa_rejected`` of its Anderson
    acceleration.
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
    sigma = _SIGMA0
    Z = None
    history = []
    trace = [] if keep_trace else None
    termination = "max_outer"
    for k in range(params.max_outer):
        ctx = SubproblemContext(problem, sigma, w)
        test = _StepTest(ctx)
        res = ssn_solve(ctx, None if Z is None else Z - ctx.cost_matrix, test)
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
        if params.eps <= test.stationarity < _POLISH_START:
            polish = _polish(w_next, f_next, problem, params.eps)
        else:
            polish = _Polish(w_next, f_next, test.stationarity, 0, False)
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
                "delta_norm": cert.delta_norm,
                "r": cert.r,
                "bound": cert.bound,
                "stationarity": test.stationarity,
                "polish_steps": polish.steps,
                "polish_refused": polish.refused,
                "polish_f": polish.f,
                "polish_dw_norm": float(np.linalg.norm(polish.w - w)),
                "polish_stationarity": polish.stationarity,
            }
        )
        if keep_trace:
            trace.append(_TraceStep(w.copy(), w_next.copy(), res.E.copy(), sigma))
        w = polish.w
        f_prev = polish.f
        Z = ctx.cost_matrix + res.Y
        if polish.stationarity < params.eps:
            termination = "converged"
            break
        sigma = max(sigma * _RHO, _SIGMA_MIN)
    config = {
        "model": "cgl-mcp",
        "lam": problem.params.lam,
        "gamma": problem.params.gamma,
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
            history[-1]["polish_stationarity"]
            if history
            else stationarity(w, problem, "cgl-mcp")
        ),
        warm_start={
            "termination": warm.termination,
            "iterations": warm.history[-1]["iteration"],
            "kkt_residual": max(warm.history[-1][key] for key in ("eta_p", "eta_d", "eta_g")),
            "eps": admm_params.eps,
            "wall_time_s": warm.wall_time_s,
            "sigma": warm.admm_state.sigma,
            "aa_steps": warm.history[-1]["aa_steps"],
            "aa_rejected": warm.history[-1]["aa_rejected"],
        },
        trace=trace,
        admm_state=warm.admm_state,
    )
