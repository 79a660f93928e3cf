"""ADMM for the trace-penalized (l1) Laplacian likelihood model. Serves as the
standalone l1 baseline and as the warm start for the non-convex solver."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .linalg import project_nonneg, prox_logdet
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

# dual step length, inside (0, (1 + sqrt(5))/2)
_TAU = 1.618
# penalty of a cold start
_SIGMA0 = 1.0
# every _ADAPT_EVERY iterations sigma is multiplied by sqrt(eta_p/eta_d)
# clipped to [_ADAPT_LO, _ADAPT_HI]
_ADAPT_EVERY = 10
_ADAPT_LO = 0.1
_ADAPT_HI = 10.0


@dataclass
class AdmmParams:
    """ADMM parameters: the relative KKT tolerance ``eps``, the iteration cap
    ``max_iter``, and ``history_every``, how often the KKT residuals are
    recorded. The dual step length is ``_TAU`` (1.618), a cold start's
    penalty ``_SIGMA0`` (1), and the penalty schedule ``_ADAPT_EVERY``,
    ``_ADAPT_LO`` and ``_ADAPT_HI`` (see :func:`solve_l1`).
    """

    eps: float = 1e-5
    max_iter: int = 20000
    history_every: int = 50

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass
class AdmmState:
    """One four-block iterate: splitting variables (x, theta, w) and dual
    multipliers (Y, zeta), plus the current penalty sigma."""

    x: np.ndarray
    theta: np.ndarray
    w: np.ndarray
    Y: np.ndarray
    zeta: np.ndarray
    sigma: float


def initial_state(problem):
    n, m = problem.n, problem.m
    return AdmmState(
        x=np.zeros(m),
        theta=np.zeros((n, n)),
        w=np.zeros(m),
        Y=np.zeros((n, n)),
        zeta=np.zeros(m),
        sigma=_SIGMA0,
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

    def __iter__(self):
        return iter((self.eta_p, self.eta_d, self.eta_g))


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


def _start_state(problem, start):
    """Zero iterate, or the iterate ``start`` (arrays shared, never written)."""
    if start is None:
        return initial_state(problem)
    n, m = problem.n, problem.m
    shapes = {"x": (m,), "theta": (n, n), "w": (m,), "Y": (n, n), "zeta": (m,)}
    for name, shape in shapes.items():
        got = np.shape(getattr(start, name))
        if got != shape:
            raise ValueError(
                f"start.{name} has shape {got}, expected {shape} for n={n}, m={m}"
            )
    if not start.sigma > 0:
        raise ValueError("start.sigma must be positive")
    return dataclasses.replace(start, sigma=float(start.sigma))


def solve_l1(problem, params=None, start=None):
    """Solve the l1 (trace) penalized model to the relative KKT tolerance.

    Starts from zero, or from ``start``, an :class:`AdmmState` such as the
    ``admm_state`` of an earlier report on the same candidate edges (its
    sigma is kept; it is not modified). A zero start with another penalty
    ``s`` is ``dataclasses.replace(initial_state(problem), sigma=s)``.
    The config echo ``initial_point`` says ``"zeros"`` or ``"given"``; the
    start state itself is not recorded. Terminates when
    max(eta_p, eta_d, eta_g) < eps, or with a cap-hit flag after ``max_iter``
    iterations; the last iterate is returned either way and kept as the
    report's ``admm_state``. The duality gap costs two Cholesky
    factorizations, so it is evaluated only when the feasibility residuals are
    already below eps and on recorded iterations. Every ``_ADAPT_EVERY`` (10)
    iterations sigma is multiplied by sqrt(eta_p/eta_d) clipped to
    ``[_ADAPT_LO, _ADAPT_HI]`` ([0.1, 10]). This is residual balancing: eta_p scales roughly
    as 1/sigma and eta_d as sigma, so the square root levels the two in one
    step. There is no dead band: with one, a ratio that stays inside it (3 to
    10, say) leaves sigma alone while eta_p lags, for about 160 iterations of
    the Table-2 instance.
    """
    params = params or AdmmParams()
    t0 = time.perf_counter()
    gram = problem.gram_solver
    state = _start_state(problem, start)
    history = []
    termination = "max_iter"
    iterations = params.max_iter
    res = None

    def entry(it):
        return {
            "iteration": it,
            "pobj": res.pobj,
            "dobj": res.dobj,
            "eta_p": res.eta_p,
            "eta_d": res.eta_d,
            "eta_g": res.eta_g,
            "sigma": state.sigma,
        }

    for it in range(1, params.max_iter + 1):
        state = admm_step(state, problem, gram)
        eta_p, eta_d = _feasibility(state, problem)
        recorded = it % params.history_every == 0 or it == 1
        if recorded or it == params.max_iter or max(eta_p, eta_d) < params.eps:
            res = kkt_residuals(state, problem)
            if recorded:
                history.append(entry(it))
            if res.max < params.eps:
                termination = "converged"
                iterations = it
                break
        if it % _ADAPT_EVERY == 0:
            ratio = eta_p / max(eta_d, 1e-30)
            state.sigma *= min(max(math.sqrt(ratio), _ADAPT_LO), _ADAPT_HI)
    config = {
        "model": "cgl-l1",
        "lam": problem.params.lam,
        "eps": params.eps,
        "max_iter": params.max_iter,
        "history_every": params.history_every,
        "initial_point": "zeros" if start is None else "given",
        "prior_tag": problem.prior_tag,
    }
    if not history or history[-1]["iteration"] != iterations:
        history.append(entry(iterations))
    return SolveReport(
        model="cgl-l1",
        n=problem.n,
        edges=problem.prior.edges,
        w=state.w,
        objective=res.pobj,
        termination=termination,
        wall_time_s=time.perf_counter() - t0,
        history=history,
        config=config,
        warm_start=None,
        admm_state=state,
    )
