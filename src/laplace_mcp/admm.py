"""ADMM for the trace-penalized (l1) Laplacian likelihood model. Serves as the
standalone l1 baseline and as the warm start for the non-convex solver."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .linalg import project_nonneg, prox_logdet
from .penalty import stationarity
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
# the KKT residuals are recorded in the history every _HISTORY_EVERY
# iterations, at the first and at the last
_HISTORY_EVERY = 50
# Anderson memory: the number of difference pairs kept
_AA_MEMORY = 3


@dataclass
class AdmmParams:
    """ADMM parameters: the relative KKT tolerance ``eps`` and the iteration
    cap ``max_iter`` (at least 1). The dual step length is ``_TAU`` (1.618),
    a cold start's penalty ``_SIGMA0`` (1), the penalty schedule
    ``_ADAPT_EVERY``, ``_ADAPT_LO`` and ``_ADAPT_HI`` (see :func:`solve_l1`),
    the history stride ``_HISTORY_EVERY`` (50), and the Anderson memory
    ``_AA_MEMORY`` (3).
    """

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


class _Anderson:
    """Safeguarded type-II Anderson acceleration of the ADMM map F.

    The step reads theta and w only through a(theta + Y/sigma) + w, so a
    point is z = (Y, a(theta), w, zeta), n^2 + 3m numbers, and the step
    input at z has theta = 0 and a(theta) + w in place of w. Keeping
    a(theta) and w apart in z, rather than their sum, weighs them apart in
    ||r||: on the ER n=250 benchmark instance the sum took 62 iterations
    against 50. With r = F(z) - z and the last ``_AA_MEMORY`` differences
    dF, dR of F(z) and r, the next point is F(z) - dF g, where
    g = argmin ||r - dR g|| is solved on the Gram matrix dR^T dR, which
    gains one row per step. The differences, the last residual and dF g are
    float32; points, residual norms and g are float64. The float32 products
    run with underflow ignored, even where it is set to raise: a product
    that underflows to 0 is harmless.

    :meth:`next_point` takes each step's output and returns the input of
    the next step: the output itself (the plain step) or an extrapolated
    point. It extrapolates only while sigma and the support of w > 0 stay
    as they were at the previous output; a change clears the differences.
    A candidate whose residual exceeds the residual of the point it was
    extrapolated from is rejected: the differences are cleared and the next
    step starts from the plain iterate that the candidate replaced.
    ``steps`` counts candidates and ``rejected`` the rejected ones.

    The last output is kept by reference, never copied, and every buffer
    is allocated once: allocating per step made glibc return the heap top
    and fault it back in, about 40k page faults per ER n=250 solve.
    """

    def __init__(self, problem):
        self.problem = problem
        n, m = problem.n, problem.m
        self.zero = np.broadcast_to(0.0, (n, n))
        size = n * n + 3 * m
        # the last extrapolated point, then its residual
        self.z = np.empty(size)
        self.r_prev = np.empty(size, dtype=np.float32)
        self.r_prev_norm = math.inf
        self.dF = np.empty((_AA_MEMORY, size), dtype=np.float32)
        self.dR = np.empty((_AA_MEMORY, size), dtype=np.float32)
        self.gram = np.empty((_AA_MEMORY, _AA_MEMORY))
        self.cols = self.slot = 0
        # the last output F(z), in parts
        self.last = None
        self.sigma = self.support = None
        self.has_prev = self.candidate = False
        self.steps = self.rejected = 0

    def _split(self, v):
        n2, m = self.problem.n ** 2, self.problem.m
        return v[:n2], v[n2 : n2 + m], v[n2 + m : n2 + 2 * m], v[n2 + 2 * m :]

    def _state(self, parts):
        """The step input at a point (its x, which the step does not read,
        is its w)."""
        n = self.problem.n
        Y, a_theta, w, zeta = parts
        u = a_theta + w
        return AdmmState(x=u, theta=self.zero, w=u, Y=Y.reshape(n, n), zeta=zeta, sigma=self.sigma)

    def _clear(self):
        self.cols = self.slot = 0
        self.candidate = False

    def next_point(self, out):
        """The input of the step after the one that returned ``out``."""
        f = (out.Y.reshape(-1), self.problem.a(out.theta), out.w, out.zeta)
        support = out.w > 0
        if out.sigma != self.sigma:
            # a new map: start over from this output
            self._clear()
            self.has_prev = False
            self.sigma, self.support, self.last = out.sigma, support, f
            return out
        # r = F(z) - z, where z is the last output unless it was extrapolated
        z = self.z
        base = self._split(z) if self.candidate else self.last
        for dst, src, at in zip(self._split(z), f, base):
            np.subtract(src, at, out=dst)
        r_norm = float(np.linalg.norm(z))
        if self.candidate and r_norm > self.r_prev_norm:
            self.rejected += 1
            self._clear()
            return self._state(self.last)
        if not np.array_equal(support, self.support):
            self._clear()
            self.support = support
        elif self.has_prev:
            s = self.slot
            for dst, src, prev in zip(self._split(self.dF[s]), f, self.last):
                np.subtract(src, prev, out=dst)
            np.subtract(z, self.r_prev, out=self.dR[s])
            self.cols = min(self.cols + 1, _AA_MEMORY)
            self.slot = (s + 1) % _AA_MEMORY
            k = self.cols
            with np.errstate(under="ignore"):
                g = self.dR[:k] @ self.dR[s]
            self.gram[s, :k] = g
            self.gram[:k, s] = g
        self.last = f
        self.has_prev = True
        self.r_prev[:] = z
        self.r_prev_norm = r_norm
        self.candidate = self.cols > 0
        if not self.candidate:
            return out
        k = self.cols
        step = self.dR[self.slot]
        with np.errstate(under="ignore"):
            rhs = self.dR[:k] @ self.r_prev
            gamma = np.linalg.lstsq(self.gram[:k, :k], rhs, rcond=None)[0]
            # dF g entry by entry: a BLAS product could round Y_ij and Y_ji
            # differently, and the prox needs Y symmetric. It goes to the dR
            # row that the next difference overwrites, which nothing reads
            # until then
            np.multiply(self.dF[0], float(gamma[0]), out=step)
            for j in range(1, k):
                step += self.dF[j] * float(gamma[j])
        for dst, src, st in zip(self._split(z), f, self._split(step)):
            np.subtract(src, st, out=dst)
        self.steps += 1
        return self._state(self._split(z))


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
    report's ``admm_state``, and the report's ``stationarity`` measures its
    weights. The duality gap costs two Cholesky factorizations, so it is
    evaluated only when the feasibility residuals are already below eps and on
    recorded iterations. Every ``_ADAPT_EVERY`` (10)
    iterations sigma is multiplied by sqrt(eta_p/eta_d) clipped to
    ``[_ADAPT_LO, _ADAPT_HI]`` ([0.1, 10]). This is residual balancing: eta_p scales roughly
    as 1/sigma and eta_d as sigma, so the square root levels the two in one
    step. There is no dead band: with one, a ratio that stays inside it (3 to
    10, say) leaves sigma alone while eta_p lags, for about 160 iterations of
    the Table-2 instance.

    The loop is Anderson-accelerated (type II, memory ``_AA_MEMORY``, see
    :class:`_Anderson`): while sigma and the support of w > 0 stay as they
    were at the previous iterate, the next step starts from the
    extrapolation F(z) - dF g of the last outputs instead of the last output
    itself; otherwise the step is the plain one. A sigma change or a new
    support clears the differences. A candidate whose fixed-point residual
    ||F(z) - z|| exceeds that of the point it was extrapolated from is
    rejected: the differences are cleared and the loop goes on from the
    plain iterate the candidate replaced, at the cost of one step. Every
    checked, recorded and returned iterate is still an :func:`admm_step`
    output, so the stop, the history and ``admm_state`` keep their meaning,
    and ``iteration`` counts steps, rejected candidates included. Each
    history entry carries the cumulative ``aa_steps`` (candidates) and
    ``aa_rejected``.

    A disconnected prior, and at lam = 0 a degenerate covariance, raise
    ValueError before the first iteration (see
    :meth:`ProblemData.check_solvable`).
    """
    params = params or AdmmParams()
    problem.check_solvable("cgl-l1")
    t0 = time.perf_counter()
    gram = problem.gram_solver
    state = _start_state(problem, start)
    aa = _Anderson(problem)
    point = state
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
            "aa_steps": aa.steps,
            "aa_rejected": aa.rejected,
        }

    for it in range(1, params.max_iter + 1):
        state = admm_step(point, problem, gram)
        eta_p, eta_d = _feasibility(state, problem)
        recorded = it % _HISTORY_EVERY == 0 or it == 1
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
        point = aa.next_point(state) if it < params.max_iter else state
    config = {
        "model": "cgl-l1",
        "lam": problem.params.lam,
        "eps": params.eps,
        "max_iter": params.max_iter,
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
        stationarity=stationarity(state.w, problem, "cgl-l1"),
        admm_state=state,
    )
