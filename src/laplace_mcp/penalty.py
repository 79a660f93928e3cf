"""Minimax concave penalty, its difference-of-convex split, and the penalized
negative log-likelihood objective.

A penalty enters the solvers only through its value and the gradient of the
smooth convex part h of its split lam|x| - h(x), so other separable non-convex
penalties can slot in by providing the same two functions.
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
    "stationarity",
]


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


def objective_value(w, problem):
    """Penalized objective -log det(Theta + J) + <S, Theta> + P(Theta) at Theta
    built from the edge weights w.

    Returns +inf instead of raising when w is infeasible or Theta + J has an
    eigenvalue below 1e-12.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != problem.m:
        raise ValueError(f"expected {problem.m} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        return float("inf")
    theta = problem.astar(w)
    vals = np.linalg.eigvalsh(theta + problem.J)
    if vals[0] < 1e-12:
        return float("inf")
    # <S, A*w> = <A(S), w>; P(Theta) counts each edge entry twice (ij and ji).
    penalty = 2.0 * float(np.sum(mcp_value(w, problem.params)))
    return float(-np.log(vals).sum() + problem.a_of_S @ w + penalty)


def stationarity(w, problem, model, X_inv=None):
    """First-order stationarity residual ||Pi(g)||/(1 + ||w||) at w >= 0 of
    the objective of ``model`` ("cgl-mcp" or "cgl-l1").

    g = -A(X^{-1}) + A(S) + p'(w), X = A* w + J, is the gradient in w, with
    p'(w) = 2 (lam - h'(w)) = 2 max(lam - w/gamma, 0) for MCP and 2 lam for
    the l1 trace term. Pi keeps g_e where w_e > 0 and min(g_e, 0) elsewhere,
    so the residual vanishes exactly at a critical point. ``X_inv`` is
    X^{-1} when the caller has it; otherwise X is inverted here, and a
    singular X gives +inf.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if X_inv is None:
        try:
            X_inv = np.linalg.inv(problem.astar(w) + problem.J)
        except np.linalg.LinAlgError:
            return float("inf")
    lam = problem.params.lam
    if model == "cgl-mcp":
        penalty_grad = 2.0 * (lam - dc_smooth_grad(w, problem.params))
    else:
        penalty_grad = 2.0 * lam
    g = problem.a_of_S - problem.a(X_inv) + penalty_grad
    g = np.where(w > 0, g, np.minimum(g, 0.0))
    return float(np.linalg.norm(g) / (1.0 + np.linalg.norm(w)))
