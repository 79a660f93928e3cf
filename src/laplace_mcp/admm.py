"""The trace-penalized (l1) Laplacian likelihood model, the standalone l1
baseline: :func:`solve_l1` runs projected Newton on it (the loop of
:mod:`laplace_mcp.newton`, which also gives the non-convex solver its l1 warm
start) and certifies its weights by the relative KKT residuals of the
four-block splitting (x, theta, w; Y, zeta), in closed form for the pair
that the weights define.

The general residuals (:func:`kkt_residuals`) and one ADMM step on that
splitting (:func:`admm_step`, with the Gram solver of its x-update) are the
ADMM reference oracle, which the tests run against :func:`solve_l1`; no
solver runs them."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linalg import project_nonneg, prox_logdet
from .newton import _constant_start, _projected_newton
from .penalty import _projected_residual
from .report import SolveReport

__all__ = [
    "AdmmParams",
    "AdmmState",
    "KktResiduals",
    "initial_state",
    "admm_step",
    "kkt_residuals",
    "solve_l1",
]

# dual step length of an ADMM step, inside (0, (1 + sqrt(5))/2)
_TAU = 1.618


@dataclass
class AdmmParams:
    """Parameters of :func:`solve_l1`: the relative KKT tolerance ``eps``
    and the cap ``max_iter`` (at least 1) on its projected-Newton steps."""

    eps: float = 1e-5
    max_iter: int = 20000

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class AdmmState:
    """One four-block iterate: splitting variables (x, theta, w) and dual
    multipliers (Y, zeta), plus the penalty sigma of an ADMM step from it."""

    x: np.ndarray
    theta: np.ndarray
    w: np.ndarray
    Y: np.ndarray
    zeta: np.ndarray
    sigma: float = 1.0


def initial_state(problem):
    n, m = problem.n, problem.m
    return AdmmState(
        x=np.zeros(m),
        theta=np.zeros((n, n)),
        w=np.zeros(m),
        Y=np.zeros((n, n)),
        zeta=np.zeros(m),
    )


def admm_step(state, problem, gram):
    """One four-block update.

    x solves (I + A A*) x = rhs through the shifted Gram system, theta is a
    log-det prox, w is a non-negative projection, and both multipliers move
    with step _TAU * sigma.
    """
    sig = state.sigma
    inv = 1.0 / sig
    K = problem.shifted_S
    rhs = problem.a(state.theta + inv * state.Y) + state.w + inv * state.zeta
    x = gram.solve(rhs)
    Ax = problem.astar(x)
    P, _ = prox_logdet(problem.J + Ax - inv * state.Y - inv * K, sig)
    theta = P - problem.J
    w = project_nonneg(x - inv * state.zeta)
    Y = state.Y + _TAU * sig * (theta - Ax)
    zeta = state.zeta + _TAU * sig * (w - x)
    return AdmmState(x=x, theta=theta, w=w, Y=Y, zeta=zeta, sigma=sig)


def _neg_logdet_chol(M):
    """-log det(M) via Cholesky, +inf when M is not positive definite."""
    try:
        c = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return float("inf")
    return float(-2.0 * np.log(np.diag(c)).sum())


@dataclass(frozen=True)
class KktResiduals:
    """Relative KKT residuals (primal, dual, gap) with the two objectives."""

    eta_p: float
    eta_d: float
    eta_g: float
    pobj: float
    dobj: float

    @property
    def max(self):
        return max(self.eta_p, self.eta_d, self.eta_g)


def _feasibility(state, problem):
    """Relative primal and dual infeasibility (eta_p, eta_d) of the iterate."""
    Atx = problem.astar(state.x)
    eta_p = max(
        max(np.linalg.norm(state.theta - Atx), np.linalg.norm(state.w - state.x))
        / (1.0 + np.linalg.norm(state.x)),
        np.linalg.norm(project_nonneg(-state.w)) / (1.0 + np.linalg.norm(state.w)),
    )
    eta_d = max(
        np.linalg.norm(problem.a(state.Y) + state.zeta),
        np.linalg.norm(project_nonneg(-state.zeta)),
    ) / (1.0 + np.linalg.norm(state.zeta))
    return float(eta_p), float(eta_d)


def kkt_residuals(state, problem):
    """Relative KKT residuals of the current iterate.

    dobj falls back to -inf when Y + K is not positive definite, in which case
    the gap residual saturates at 1.
    """
    K = problem.shifted_S
    Atw = problem.astar(state.w)
    pobj = _neg_logdet_chol(Atw + problem.J) + float(np.vdot(K, Atw))
    YK = state.Y + K
    ld = _neg_logdet_chol(YK)
    if np.isinf(ld):
        dobj = float("-inf")
    else:
        dobj = -ld - float(np.vdot(problem.J, YK)) + problem.n
    eta_p, eta_d = _feasibility(state, problem)
    if np.isfinite(pobj) and np.isfinite(dobj):
        eta_g = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    else:
        eta_g = 1.0
    return KktResiduals(eta_p, eta_d, float(eta_g), pobj, dobj)


def _kkt_pair(w, f, g):
    """The stop residual of :func:`solve_l1` at weights w >= 0 of l1 objective
    f and l1 gradient g: the largest relative KKT residual (see
    :func:`kkt_residuals`) of the pair x = w, theta = A* w, Y = R - K, zeta =
    -a(Y), with R = (A* w + J)^{-1} and K = S + lam I, with its record: the
    :class:`KktResiduals` and the stationarity residual of w.

    For this pair the residuals have a closed form. It is primal feasible, so
    eta_p is 0, and zeta = g, so eta_d = ||min(g, 0)||/(1 + ||g||). R 1 = 1
    gives <J, R> = 1 and <R, A* w> = n - 1, hence pobj = f, dobj = f - g^T w
    and eta_g = |g^T w|/(1 + |f| + |f - g^T w|). f is finite at every
    iterate: the start is checked by ``newton._constant_start`` and the line
    search accepts no step to +inf.
    """
    gw = float(g @ w)
    dobj = f - gw
    eta_d = float(np.linalg.norm(np.minimum(g, 0.0)) / (1.0 + np.linalg.norm(g)))
    eta_g = abs(gw) / (1.0 + abs(f) + abs(dobj))
    res = KktResiduals(0.0, eta_d, eta_g, f, dobj)
    return res.max, (res, _projected_residual(g, w))


def solve_l1(problem, params=None):
    """Solve the l1 (trace) penalized model to the relative KKT tolerance.

    Runs projected Newton (``newton._projected_newton``) on the l1 objective,
    which is smooth and convex on w >= 0, so every free edge is kept and none
    is pushed. It starts from the best constant weights w = c 1, c = (n - 1)
    / (<A(S), 1> + 2 lam m), the minimizer over constant weights. At each
    iterate the stop residual is max(eta_p, eta_d, eta_g) of the primal-dual
    pair that w defines, in closed form from the objective and gradient the
    loop already has (see :func:`_kkt_pair`); the residuals are
    relative to 1 + ||zeta||, so they do not scale with the data, and the
    solve ends ``"converged"`` only once they are below eps **and** the
    Newton decrement, which does scale, is below eps too. Otherwise it ends
    ``"max_iter"`` after ``max_iter`` steps, or ``"linesearch_failed"`` where
    no step lowers the objective or, below its rounding, the residual (as
    at lam = 1e6, where A* w + J is too ill-conditioned for the residuals to
    reach eps); the last iterate is returned either way.

    The history holds one entry per iterate, the start (``iteration`` 0)
    and each step: ``pobj``, ``dobj``, ``eta_p``, ``eta_d`` and ``eta_g``
    of its pair, and the CG steps taken so far (``cg_steps``). The report's
    ``objective`` is the last entry's ``pobj``, and its ``stationarity`` the
    first-order residual of its weights.

    A disconnected prior, and at lam = 0 a degenerate covariance, raise
    ValueError before the first step (see
    :meth:`ProblemData.check_solvable`), as does a lam so large that the
    objective is +inf at the constant start (see
    ``newton._constant_start``).
    """
    params = params or AdmmParams()
    problem.check_solvable("cgl-l1")
    t0 = time.perf_counter()
    w, f = _constant_start(problem)
    run = _projected_newton(
        w, f, problem, "cgl-l1", params.eps, params.eps, params.max_iter, _kkt_pair
    )
    history = [
        {
            "iteration": steps,
            "pobj": res.pobj,
            "dobj": res.dobj,
            "eta_p": res.eta_p,
            "eta_d": res.eta_d,
            "eta_g": res.eta_g,
            "cg_steps": cg_steps,
        }
        for steps, cg_steps, (res, _) in run.points
    ]
    config = {
        "model": "cgl-l1",
        "lam": problem.params.lam,
        "eps": params.eps,
        "max_iter": params.max_iter,
        "prior_tag": problem.prior_tag,
    }
    return SolveReport(
        model="cgl-l1",
        n=problem.n,
        edges=problem.prior.edges,
        w=run.w,
        objective=history[-1]["pobj"],
        termination=run.termination,
        wall_time_s=time.perf_counter() - t0,
        history=history,
        config=config,
        stationarity=run.points[-1][2][1],
    )
