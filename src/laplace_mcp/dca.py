"""Outer inexact proximal difference-of-convex loop: certificate gated
subproblem steps, the sigma schedule and termination, with the projected-Newton
loop of :mod:`laplace_mcp.newton` serving as the l1 warm start and as the polish
of accepted steps."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .admm import solve_l1  # noqa: F401
from .newton import _constant_start, _Newton, _projected_newton
from .penalty import objective_value, penalty_curvature, stationarity
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
# the l1 warm start takes at most _WARM_STEPS projected-Newton steps and stops
# once the Newton decrement is below _WARM_DECREMENT: the loop only starts
# from it
_WARM_STEPS = 50
_WARM_DECREMENT = 1e-4

# the projected-Newton polish of an accepted iterate: it runs on a step whose
# residual is below _POLISH_START, or, on any step after the first, below
# _POLISH_HANDOVER or with the d.c. split exact (see _split_exact), and takes
# at most _POLISH_STEPS steps
_POLISH_START = 1e-2
_POLISH_HANDOVER = 1e-1
_POLISH_STEPS = 6


@dataclass
class DcaParams:
    """Outer-loop parameters; the penalty comes from ``ProblemData.params``.

    sigma starts at ``_SIGMA0`` (1.0) and shrinks by ``_RHO`` (0.8) each
    iteration until it reaches ``_SIGMA_MIN`` (1e-4). The l1 warm start and
    the polish have no settings (see :func:`_warm_start` and
    :func:`_polish`): the polish runs on an accepted step whose residual is
    below ``_POLISH_START`` (1e-2), or, on any step after the first, below
    ``_POLISH_HANDOVER`` (1e-1) or with no positive weight in MCP's concave
    zone (:func:`_split_exact`). The d.c. loop's descent argument does not
    depend on how accurate the start is. ``max_outer`` is non-negative. The
    Newton caps are the module constants ``ssn._MAX_NEWTON`` and
    ``ssn._MAX_CG``.
    """

    eps: float = 1e-6
    max_outer: int = 500

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be non-negative, got {self.max_outer}")


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


def _warm_start(problem):
    """The l1 warm start of :func:`solve_mcp`: :func:`_projected_newton` on
    the l1 (trace) objective, which is smooth and convex on w >= 0, so every
    free edge is kept and none is pushed.

    It starts from the best constant weights (``newton._constant_start``),
    c 1 with c > 0 because :meth:`ProblemData.check_solvable` rejects MCP
    data with a(S) <= 0 on an edge. It stops ``"converged"`` once the Newton decrement is below
    ``_WARM_DECREMENT``, a value unchanged under (S, lam, w) ->
    (c S, c lam, w / c); otherwise it ends ``"max_iter"`` after
    ``_WARM_STEPS`` steps or ``"linesearch_failed"`` on a failed search,
    at the last iterate.

    Returns the weights and the report's ``warm_start``: ``termination``,
    ``steps``, ``cg_steps``, the last ``decrement`` (None if no direction was
    computed) and ``wall_time_s``.
    """
    t0 = time.perf_counter()
    w, f = _constant_start(problem)
    run = _projected_newton(w, f, problem, "cgl-l1", math.inf, _WARM_DECREMENT, _WARM_STEPS)
    return run.w, {
        "termination": run.termination,
        # no ADMM runs in the warm start; the field stays while the
        # benchmark's span check still reads it
        "iterations": 0,
        "steps": run.steps,
        "cg_steps": run.cg_steps,
        "decrement": run.decrement,
        "wall_time_s": time.perf_counter() - t0,
    }


def _split_exact(w, problem):
    """True iff no positive weight of w lies in MCP's concave zone
    (0, gamma lam), where ``penalty.penalty_curvature`` is nonzero.

    The smooth part h of the split lam|x| - h(x) is affine on the plateau
    w >= gamma lam, so there the linearization of h is exact on the support
    and a d.c. subproblem is a proximal-point step on the MCP objective
    itself. The test is unchanged under (w, lam, gamma) -> (w / c, c lam,
    gamma / c^2), and always true at lam = 0, where the model is convex."""
    return not penalty_curvature(w, problem, "cgl-mcp")[w > 0].any()


def _polish(w, f, problem, eps):
    """:func:`_projected_newton` on the objective from the accepted iterate w
    of value f, for at most ``_POLISH_STEPS`` steps, stopping once the
    stationarity residual is below eps; no decrement ends it. It refuses
    (``refused``) where no edge is kept or the search fails; otherwise the
    d.c. loop takes over where it stops.

    :func:`solve_mcp` calls it on the first accepted step only below
    residual ``_POLISH_START``, since that step still sits next to the l1
    warm start and Newton from there can settle on a worse critical point.
    On every later step it calls it below ``_POLISH_HANDOVER``, where the
    d.c. loop would otherwise crawl a few percent per step, and wherever the
    split is exact (:func:`_split_exact`): each d.c. step there is a
    proximal-point step on the objective, which gains a few percent per
    step where Newton converges quadratically."""
    return _projected_newton(w, f, problem, "cgl-mcp", eps, None, _POLISH_STEPS)


@dataclass
class _TraceStep:
    """Per-iteration arrays kept for certificate auditing (never serialized)."""

    w_prev: np.ndarray
    w_next: np.ndarray
    E: np.ndarray
    sigma: float


def solve_mcp(problem, params=None, keep_trace=False):
    """Solve the MCP-penalized Laplacian model by the inexact proximal d.c. loop.

    Step 0 warm-starts from the l1 model by projected Newton from the best
    constant weights (see :func:`_warm_start`); the loop only starts from
    it, and a warm start that ends at its step cap or on a failed search
    hands over its last iterate. Each outer step
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

    An accepted step is polished (see :func:`_polish`), which only lowers f,
    where its stationarity residual is at least eps and below 1e-2
    (``_POLISH_START``), or, on any step after the first (k >= 1), below
    1e-1 (``_POLISH_HANDOVER``) or at any residual where the d.c. split is
    exact: no accepted weight lies in MCP's concave zone (0, gamma lam)
    (see :func:`_split_exact`). The first step leaves the l1 warm start and
    is polished only close to a critical point; from the second on, the
    loop hands over to projected Newton once the residual is below 1e-1 or
    once the linearized part of the penalty is affine on the support, where
    a d.c. step is a proximal-point step on the objective itself; the d.c.
    steps remain the globalization. The next subproblem is
    centred at the polished weights, and the prox argument Z carries over
    unchanged. A polish that ends, or refuses, hands
    back to the d.c. loop. The solve ends ``"converged"`` once, and only
    once, the stationarity residual of the current weights, polished or not,
    is below eps; a solve whose residual never gets there ends
    ``"max_outer"``.

    Each history entry records the Newton iterations and CG steps of the
    step (``ssn_iterations``, ``ssn_cg_steps``), ``cert_retries`` (always
    0), the certificate (``delta_norm``, ``r``, ``bound``), and the
    first-order ``stationarity`` residual of the accepted weights (see
    :func:`laplace_mcp.penalty.stationarity`; it costs one A(.) of the
    X2^{-1} the rule check already has), and ``split_exact``, the split
    test of those weights. Then the polish: ``polish_steps``,
    ``polish_cg_steps``, ``polish_refused``, and the objective ``polish_f``,
    distance ``polish_dw_norm`` from the step's start and residual
    ``polish_stationarity`` of the polished weights, equal to ``f``,
    ``dw_norm`` and ``stationarity`` where no polish step was taken. The
    report's ``objective`` and ``stationarity`` are those of its final
    weights. ``warm_start`` is the dict of :func:`_warm_start`; its
    ``iterations``, the ADMM count, is always 0.
    A disconnected prior or a degenerate covariance raises ValueError before
    the warm start (see :meth:`ProblemData.check_solvable`), and so does a
    lam so large that the warm start's constant weights already have
    objective +inf (see ``newton._constant_start``).
    """
    params = params or DcaParams()
    problem.check_solvable("cgl-mcp")
    t0 = time.perf_counter()
    w, warm = _warm_start(problem)
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
        split_exact = _split_exact(w_next, problem)
        threshold = _POLISH_HANDOVER if k else _POLISH_START
        if params.eps <= test.stationarity and (
            test.stationarity < threshold or (k >= 1 and split_exact)
        ):
            polish = _polish(w_next, f_next, problem, params.eps)
        else:
            polish = _Newton(w_next, f_next, test.stationarity)
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
                "split_exact": split_exact,
                "polish_steps": polish.steps,
                "polish_cg_steps": polish.cg_steps,
                "polish_refused": polish.refused,
                "polish_f": polish.f,
                "polish_dw_norm": float(np.linalg.norm(polish.w - w)),
                "polish_stationarity": polish.residual,
            }
        )
        if keep_trace:
            trace.append(_TraceStep(w.copy(), w_next.copy(), res.E.copy(), sigma))
        w = polish.w
        f_prev = polish.f
        Z = ctx.cost_matrix + res.Y
        if polish.residual < params.eps:
            termination = "converged"
            break
        sigma = max(sigma * _RHO, _SIGMA_MIN)
    config = {
        "model": "cgl-mcp",
        "lam": problem.params.lam,
        "gamma": problem.params.gamma,
        "eps": params.eps,
        "max_outer": params.max_outer,
        "prior_tag": problem.prior_tag,
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
        warm_start=warm,
        trace=trace,
    )
