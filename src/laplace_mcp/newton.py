"""Projected Newton [Bertsekas 1982] on the l1 or the MCP objective over
w >= 0: the l1 solver, the l1 warm start of the d.c. loop, and the polish of
its accepted steps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import laplacian_adjoint, weights_to_laplacian
from .penalty import _projected_residual, objective_gradient, objective_value, penalty_curvature
from .ssn import _VALUE_RTOL, _pcg

# CG takes at most _CG_STEPS steps per direction; _ARMIJO is the Armijo
# constant, and t is halved at most _BACKTRACKS times
_CG_STEPS = 100
_ARMIJO = 1e-4
_BACKTRACKS = 30


def _reduced_hessian(w, R, free, problem, model="cgl-mcp"):
    """The edges of the mask ``free`` whose diagonal entry of the Hessian in w
    of the objective of ``model`` ("cgl-mcp" or "cgl-l1") is positive, as a
    mask, with that diagonal and a matrix-free apply of the Hessian on them,
    at w with R = (A* w + J)^{-1}.

    The log-det part is v -> a(R A*(v) R) restricted to the kept edges, whose
    diagonal is a(R)^2 = ((b_e^T R b_e)^2)_e > 0; the penalty adds its
    curvature (``penalty.penalty_curvature``), which is 0 for l1, so for l1
    every free edge is kept. The apply costs two n x n GEMMs and holds no
    matrix larger than n x n.
    """
    curvature = penalty_curvature(w, problem, model)
    diag = problem.a(R) ** 2 + curvature
    free = free & (diag > 0)
    sub = problem.prior.support(free.astype(float))
    curvature = curvature[free]

    def apply(v):
        return laplacian_adjoint(R @ weights_to_laplacian(v, sub) @ R, sub) + curvature * v

    return free, diag[free], apply


def _constant_start(problem):
    """The best constant weights w = c 1 for the l1 objective and their l1
    objective value: c = (n - 1) / (<A(S), 1> + 2 lam m) minimizes it over
    constant weights, since log det(c L + J) = (n - 1) log c + const.

    Raises ValueError where that value is +inf: a lam so large against S
    (lam = 1e12 on a unit-scale S) that c puts a Cholesky pivot of A* w + J
    below the 1e-12 floor of :func:`penalty.objective_value`, so no step
    from it could be compared."""
    lam = problem.params.lam
    c = (problem.n - 1) / (float(problem.a_of_S.sum()) + 2.0 * lam * problem.m)
    w = np.full(problem.m, c)
    f = objective_value(w, problem, "cgl-l1")
    if not np.isfinite(f):
        raise ValueError(
            f"lambda = {lam:g} is too large for this covariance: the best constant "
            f"weights {c:.3g} put a Cholesky pivot of A* w + J below the objective's "
            "1e-12 pivot floor, so the objective is +inf at the start"
        )
    return w, f


def _stationarity(w, f, g):
    """The stop residual of the warm start and the polish: the stationarity
    residual ||Pi(g)||/(1 + ||w||), recorded as itself."""
    residual = _projected_residual(g, w)
    return residual, residual


@dataclass
class _Newton:
    """Outcome of :func:`_projected_newton`: the final weights, their objective
    and stop residual, the steps and CG steps taken, the last Newton
    decrement (None before the first direction), how the loop ended (None
    where it did not run), and ``points``: for each iterate, the start
    first, the steps and CG steps taken to reach it and the record of its
    residual."""

    w: np.ndarray
    f: float
    residual: float
    steps: int = 0
    cg_steps: int = 0
    decrement: float | None = None
    termination: str | None = None
    points: list | None = None

    @property
    def refused(self):
        return self.termination in ("refused", "linesearch_failed")


def _projected_newton(
    w, f, problem, model, eps, decrement_tol, max_steps, residual=_stationarity
):
    """Projected Newton [Bertsekas 1982] on the objective of ``model`` from w
    of value f, shared by the l1 solver, the l1 warm start and the polish.

    At each iterate, with f the objective and g the gradient,
    ``residual(w, f, g)`` gives the stop residual and a record of it (by
    default :func:`_stationarity`). The loop stops ``"converged"``
    once the residual is below eps and the Newton decrement below
    ``decrement_tol`` (None: no decrement test), tested with the decrement
    of the step that reached the iterate and again with that of the new
    direction there; it stops ``"max_iter"`` after ``max_steps`` steps,
    before any direction. The free set F = {w > 0} | {g < 0} splits into the
    kept edges, whose diagonal entry of the reduced Hessian of
    :func:`_reduced_hessian` is positive, and the held ones (for the MCP, an
    edge in the concave zone with small effective resistance; for l1 every
    free edge is kept); with no kept edge it stops ``"refused"``. Along a
    held edge the objective is concave [More & Sorensen 1979], so a held
    edge with w_e > 0 and g_e > 0 is pushed toward 0 along d_e = -w_e; the
    other held edges keep their weight.

    Jacobi-preconditioned CG solves H x = g on the kept edges to
    1e-2 min(1, sqrt(||g||)) ||g|| within ``_CG_STEPS`` steps; where CG
    meets p^T H p <= 0 it stops at its iterate so far, or x = g/diag(H) if
    that was its first step. The Newton decrement is g^T x / 2, and d = -x
    on the kept edges. Where edges are held and the kept gradient is below
    1e-2 eps, no CG runs: with no held edge pushed the loop stops
    ``"solved"``, since the rest of the residual sits on edges no step
    moves. The projected Armijo search takes w+ = max(w + t d, 0) at the
    first t in 1, 1/2, ... with f(w+) <= f + ``_ARMIJO`` min(g^T (w+ - w),
    0), so no step raises f beyond rounding. Where the predicted change
    |g^T (w+ - w)| is below the rounding of f, ``ssn._VALUE_RTOL``
    max(1, |f|), that test is decided by rounding, so there w+ is taken
    instead if it has the lower stop residual. After ``_BACKTRACKS`` halvings
    it stops ``"linesearch_failed"``. The steps taken before any stop
    stay.
    """

    def evaluate(w, f):
        R = np.linalg.inv(problem.astar(w) + problem.J)
        g = objective_gradient(w, problem, model, R)
        return (R, g, *residual(w, f, g))

    def small(decrement):
        return decrement_tol is None or (decrement is not None and decrement < decrement_tol)

    steps = cg_steps = 0
    decrement = None
    points = []
    R, g, value, record = evaluate(w, f)
    while True:
        points.append((steps, cg_steps, record))
        if value < eps and small(decrement):
            termination = "converged"
            break
        if steps == max_steps:
            termination = "max_iter"
            break
        kept, diag, hessian = _reduced_hessian(w, R, (w > 0) | (g < 0), problem, model)
        if not kept.any():
            termination = "refused"
            break
        held = ~kept & ((w > 0) | (g < 0))
        push = held & (w > 0) & (g > 0)
        d = np.zeros_like(w)
        d[push] = -w[push]
        g_kept = g[kept]
        gnorm = float(np.linalg.norm(g_kept))
        if not held.any() or gnorm >= 1e-2 * eps:
            target = 1e-2 * min(1.0, np.sqrt(gnorm)) * gnorm
            x, k = _pcg(hessian, g_kept, diag, target, _CG_STEPS)
            cg_steps += k
            if not x.any():
                # CG met p^T H p <= 0 on its first step
                x = g_kept / diag
            decrement = 0.5 * float(g_kept @ x)
            if value < eps and small(decrement):
                termination = "converged"
                break
            d[kept] = -x
        elif not push.any():
            termination = "solved"
            break
        t = 1.0
        resolution = _VALUE_RTOL * max(1.0, abs(f))
        for _ in range(_BACKTRACKS):
            w_new = np.maximum(w + t * d, 0.0)
            f_new = objective_value(w_new, problem, model)
            change = float(g @ (w_new - w))
            nxt = None
            if abs(change) > resolution:
                if f_new <= f + _ARMIJO * min(change, 0.0):
                    break
            elif np.isfinite(f_new):
                # f cannot resolve the change: the residual decides
                nxt = evaluate(w_new, f_new)
                if nxt[2] < value:
                    break
            t *= 0.5
        else:
            termination = "linesearch_failed"
            break
        w, f = w_new, f_new
        R, g, value, record = evaluate(w, f) if nxt is None else nxt
        steps += 1
    return _Newton(w, f, value, steps, cg_steps, decrement, termination, points)
