"""Minimax concave penalty, its difference-of-convex split, and the penalized
negative log-likelihood objective.

A penalty enters the d.c. loop only through its value and the gradient of the
smooth convex part h of its split lam|x| - h(x), so other separable non-convex
penalties can slot in by providing the same two functions; the
projected-Newton polish, and the d.c. loop's test for when to hand over to
it, also read the penalty's curvature (:func:`penalty_curvature`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PenaltyParams",
    "mcp_value",
    "dc_smooth_grad",
    "dc_smooth_grad_matrix",
    "objective_value",
    "objective_gradient",
    "penalty_curvature",
    "stationarity",
]


# the objectives by name: the MCP model and its l1 (trace) relaxation
_MODELS = ("cgl-mcp", "cgl-l1")


def _check_model(model):
    """Raise ValueError unless ``model`` names one of ``_MODELS``."""
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {_MODELS}")


@dataclass(frozen=True)
class PenaltyParams:
    """MCP parameters: penalty level lam >= 0 and concavity gamma > 1.

    lam = 0 turns the penalty off entirely, which the solvers use for
    maximum-likelihood-only runs.
    """

    lam: float
    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lam must be finite and non-negative")
        if not np.isfinite(self.gamma) or self.gamma <= 1:
            raise ValueError("gamma must exceed 1")


def mcp_value(x, params):
    """MCP: lam|x| - x^2/(2 gamma) inside |x| <= gamma*lam, else the plateau
    gamma*lam^2/2. Even, non-decreasing on [0, inf), bounded by the plateau."""
    x = np.asarray(x, dtype=float)
    lam, gamma = params.lam, params.gamma
    ax = np.abs(x)
    inner = lam * ax - x * x / (2.0 * gamma)
    return np.where(ax <= gamma * lam, inner, 0.5 * gamma * lam * lam)


def dc_smooth_grad(x, params):
    """Gradient of the smooth part: min(|x|/gamma, lam) * sign(x).

    Continuous, bounded by lam in magnitude, and (1/gamma)-Lipschitz.
    """
    x = np.asarray(x, dtype=float)
    return np.minimum(np.abs(x) / params.gamma, params.lam) * np.sign(x)


def dc_smooth_grad_matrix(theta, params):
    """Entrywise smooth-part gradient on the off-diagonal, zero diagonal."""
    theta = np.asarray(theta, dtype=float)
    G = dc_smooth_grad(theta, params)
    np.fill_diagonal(G, 0.0)
    return G


def objective_value(w, problem, model="cgl-mcp"):
    """Objective of ``model`` ("cgl-mcp" or "cgl-l1"), -log det(Theta + J) +
    <S, Theta> + P(Theta) at Theta built from the edge weights w, with P the
    MCP or the l1 trace term lam sum_{i != j} |Theta_ij| = 2 lam sum(w).

    The log-determinant comes from a Cholesky factor L of Theta + J, as twice
    the summed log of its diagonal. Returns +inf instead of raising when w is
    infeasible, when the factorization fails, or when a pivot L_ii^2 is below
    1e-12. Every pivot squared is at least the smallest eigenvalue, so each
    matrix with a pivot below the floor has an eigenvalue below it too, and
    singular matrices, such as those of a disconnected support, meet it at
    their vanishing pivot. The verdict differs from an eigenvalue floor at
    1e-12 only on positive definite matrices whose smallest eigenvalue lies
    below 1e-12 while every pivot squared stays above it: one edge on two
    nodes with weight 3e-13 has eigenvalues 6e-13 and 1 and last pivot
    squared 1.2e-12, and gets its finite value here.
    """
    _check_model(model)
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != problem.m:
        raise ValueError(f"expected {problem.m} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        return float("inf")
    theta = problem.astar(w)
    try:
        pivots = np.linalg.cholesky(theta + problem.J).diagonal()
    except np.linalg.LinAlgError:
        return float("inf")
    if pivots.min() ** 2 < 1e-12:
        return float("inf")
    # <S, A*w> = <A(S), w>; P(Theta) counts each edge entry twice (ij and ji).
    if model == "cgl-mcp":
        penalty = 2.0 * float(np.sum(mcp_value(w, problem.params)))
    else:
        penalty = 2.0 * problem.params.lam * float(np.sum(w))
    return float(-2.0 * np.log(pivots).sum() + problem.a_of_S @ w + penalty)


def objective_gradient(w, problem, model, X_inv):
    """Gradient in w of the objective of ``model`` ("cgl-mcp" or "cgl-l1"):
    g = -A(X^{-1}) + A(S) + p'(w), X = A* w + J, with ``X_inv`` = X^{-1} and
    p'(w) = 2 (lam - h'(w)) = 2 max(lam - w/gamma, 0) for MCP and 2 lam for
    the l1 trace term."""
    _check_model(model)
    lam = problem.params.lam
    if model == "cgl-mcp":
        penalty_grad = 2.0 * (lam - dc_smooth_grad(w, problem.params))
    else:
        penalty_grad = 2.0 * lam
    return problem.a_of_S - problem.a(X_inv) + penalty_grad


def penalty_curvature(w, problem, model):
    """Second derivative in w of the penalty term of ``model`` ("cgl-mcp" or
    "cgl-l1"), entrywise: -2/gamma on the edges with w_e < gamma lam for MCP,
    whose value counts each edge twice, and 0 for the l1 trace term."""
    _check_model(model)
    if model == "cgl-mcp":
        gamma = problem.params.gamma
        return (-2.0 / gamma) * (w < gamma * problem.params.lam)
    return np.zeros_like(w)


def stationarity(w, problem, model, X_inv=None):
    """First-order stationarity residual ||Pi(g)||/(1 + ||w||) at w >= 0 of
    the objective of ``model`` ("cgl-mcp" or "cgl-l1").

    g is :func:`objective_gradient`. Pi keeps g_e where w_e > 0 and
    min(g_e, 0) elsewhere, so the residual vanishes exactly at a critical
    point. ``X_inv`` is (A* w + J)^{-1} when the caller has it; otherwise it
    is inverted here, and a singular matrix gives +inf.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if X_inv is None:
        try:
            X_inv = np.linalg.inv(problem.astar(w) + problem.J)
        except np.linalg.LinAlgError:
            return float("inf")
    g = objective_gradient(w, problem, model, X_inv)
    return _projected_residual(g, w)


def _projected_residual(g, w):
    """||Pi(g)||/(1 + ||w||), Pi keeping g_e where w_e > 0 and min(g_e, 0)
    elsewhere."""
    g = np.where(w > 0, g, np.minimum(g, 0.0))
    return float(np.linalg.norm(g) / (1.0 + np.linalg.norm(w)))
