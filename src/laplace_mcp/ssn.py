"""Semismooth Newton method for the dual of one proximal-DCA subproblem, primal
recovery, and the checkable inexactness certificate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import laplacian_adjoint, weights_to_laplacian
from .linalg import clarke_diag, project_nonneg, prox_logdet, prox_logdet_dderiv
from .penalty import dc_smooth_grad_matrix

__all__ = [
    "SubproblemContext",
    "SsnResult",
    "Certificate",
    "CertificateError",
    "dual_jacobian_apply",
    "ssn_solve",
    "recover_primal",
    "subproblem_error_vector",
]


class CertificateError(RuntimeError):
    """The certificate precondition r = ||(A*w + J - E)^{-1} E||_2 < 1 failed;
    the point it was computed at cannot be accepted."""

    def __init__(self, r):
        super().__init__(f"error certificate unusable: r = {r:.3e} >= 1")
        self.r = float(r)


# forcing bounds of the inexact Newton direction: its residual target is
# min(_ETA_BAR, max(||g||^(1 + _FORCING_TAU), _RULE_MARGIN ||g|| / excess)),
# where excess is how far the caller's acceptance rule missed at the point
_ETA_BAR = 0.1
_FORCING_TAU = 1.0
_RULE_MARGIN = 0.3
# Armijo sufficient-increase constant and backtracking factor, and the cap on
# backtracks per Newton step
_ARMIJO_MU = 0.25
_ARMIJO_RHO = 0.5
_MAX_LINESEARCH = 50
# caps on Newton steps per run and on CG steps per Newton direction
_MAX_NEWTON = 100
_MAX_CG = 500
# ridge added to the negated Jacobian, which is only semidefinite
_CG_RIDGE = 1e-12


class SubproblemContext:
    """One proximal-DCA subproblem, fixed by the proximal weight sigma and the
    iterate w_ref: the reference Laplacian theta_ref = A* w_ref and the
    linearized cost matrix S + lam I - grad_h(theta_ref) follow from w_ref.

    Holds a reference to the immutable problem data for the linear maps and J.
    """

    def __init__(self, problem, sigma, w_ref):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        w_ref = np.asarray(w_ref, dtype=float).reshape(-1)
        if w_ref.shape[0] != problem.m:
            raise ValueError("w_ref must have one entry per candidate edge")
        if np.any(w_ref < 0):
            raise ValueError("w_ref must be non-negative")
        self.problem = problem
        self.sigma = float(sigma)
        self.w_ref = w_ref
        self.theta_ref = problem.astar(w_ref)
        self.cost_matrix = problem.shifted_S - dc_smooth_grad_matrix(
            self.theta_ref, problem.params
        )

    def base_point(self, Y):
        """Prox base point theta_ref + J - (K + Y)/sigma."""
        return self.theta_ref + self.problem.J - (self.cost_matrix + Y) / self.sigma

    def projection_point(self, Y):
        """Projection argument w_ref + A(Y)/sigma."""
        return self.w_ref + self.problem.a(Y) / self.sigma


@dataclass(frozen=True)
class _DualPoint:
    value: float
    grad: np.ndarray
    cache: object
    c: np.ndarray
    w_hat: np.ndarray


def _dual_eval(Y, ctx):
    """Evaluate the dual objective and gradient at Y with one eigendecomposition.

    The dual value is the Lagrangian at its inner minimizers: theta minimizes a
    log-det prox problem and w a non-negative projection.
    """
    sigma = ctx.sigma
    P, cache = prox_logdet(ctx.base_point(Y), sigma)
    theta_hat = P - ctx.problem.J
    c = ctx.projection_point(Y)
    w_hat = project_nonneg(c)
    grad = theta_hat - ctx.problem.astar(w_hat)
    value = (
        -float(np.log(cache.d).sum())
        + float(np.vdot(ctx.cost_matrix, theta_hat))
        + 0.5 * sigma * float(np.linalg.norm(theta_hat - ctx.theta_ref) ** 2)
        + 0.5 * sigma * float(np.linalg.norm(w_hat - ctx.w_ref) ** 2)
        + float(np.vdot(grad, Y))
    )
    return _DualPoint(value, grad, cache, c, w_hat)


def dual_jacobian_apply(Y, H, ctx, mask, cache=None):
    """Apply a generalized Jacobian element of the dual gradient to H.

    ``mask`` must be the Clarke mask at the projection point of Y and ``cache``
    the prox eigendecomposition at the base point of Y; a mismatched cache
    raises. The operator is linear, self-adjoint, and negative semidefinite.
    The projection part A*(mask o A(H)) is summed over the edges where the
    mask is nonzero only.
    """
    base = ctx.base_point(np.asarray(Y, dtype=float))
    if cache is None:
        _, cache = prox_logdet(base, ctx.sigma)
    elif not cache.matches(base):
        raise ValueError("stale eigendecomposition cache for this multiplier")
    return -_newton_operator(cache, ctx.problem.prior.support(mask), ctx.sigma, 0.0)(H)


def _newton_operator(cache, active, sigma, ridge):
    """The map H -> (prox'(H) + A*(mask o A(H)))/sigma + ridge H, the negated
    Jacobian plus a ridge; ``active`` is the support of the mask in the
    prior, weighted by the mask."""

    def apply(H):
        d = prox_logdet_dderiv(cache, H)
        p = weights_to_laplacian(active.weights * laplacian_adjoint(H, active), active)
        return (d + p) / sigma + ridge * H

    return apply


def _jacobi_diagonal(cache, active, sigma, ridge):
    """Positive, exactly symmetric diagonal of the Newton operator
    -Jacobian + ridge I.

    The log-det part ((U o U) Gamma (U o U)^T)/sigma is exact on the matrix
    diagonal and stands in for it off the diagonal; the projection part
    |A*(mask)|/sigma, the mask on edge positions and the weighted active
    degree on the diagonal, is the exact diagonal of A*(mask o A(.))/sigma.
    Symmetry matters: the direction inherits it from r / diag.
    """
    V = cache.U * cache.U
    G = V @ cache.gamma @ V.T
    G = 0.5 * (G + G.T)
    return (G + np.abs(active.laplacian())) / sigma + ridge


def _pcg(T, b, diag, target, max_steps):
    """Jacobi-preconditioned conjugate gradients for T x = b from x = 0.
    Stops once the recursive residual norm reaches ``target``, after
    ``max_steps`` steps, or on a non-positive curvature p^T T p <= 0, where x
    is the iterate built so far (0 if that was the first step). Returns x and
    the number of steps."""
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
    rz = float(np.vdot(r, z))
    p = z.copy()
    steps = 0
    while steps < max_steps:
        steps += 1
        Tp = T(p)
        pTp = float(np.vdot(p, Tp))
        if pTp <= 0:
            break
        alpha = rz / pTp
        x += alpha * p
        r -= alpha * Tp
        if np.linalg.norm(r) <= target:
            break
        z = r / diag
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, steps


def _newton_direction(point, ctx, mask, gnorm, excess):
    """Inexact Newton direction and the number of CG steps it took.

    Solves T D = g, T the negated Jacobian plus a tiny ridge with the
    projection part applied on the active edges only, by one
    Jacobi-preconditioned CG run (:func:`_pcg`) to the residual
    ||T D - g|| <= min(_ETA_BAR, max(gnorm^(1+_FORCING_TAU),
    _RULE_MARGIN gnorm/excess)), as CG's recursion tracks it, within
    ``_MAX_CG`` steps. ``excess`` is
    ||delta|| over the bound of the inexactness rule at the point (+inf when
    the rule was not what failed). delta is linear in E = -g to first order,
    so a residual below _RULE_MARGIN/excess of ||g|| moves delta by less than
    the rule can see. As excess is above 1 or +inf, the target lies below
    gnorm whenever gnorm > 0, so CG's zero start never already meets it.

    Whenever g is nonzero the direction ascends the dual, g^T D > 0, so the
    line search needs no fallback. T is positive definite: Gamma lies in (0, 1)
    entrywise, the projection part is positive semidefinite and the ridge is
    positive. So no CG step stops on non-positive curvature, and already the
    first iterate has g^T x = alpha r^T diag^-1 r > 0, which later steps only
    raise.
    """
    target = min(
        _ETA_BAR, max(gnorm ** (1.0 + _FORCING_TAU), _RULE_MARGIN * gnorm / excess)
    )
    active = ctx.problem.prior.support(mask)
    T = _newton_operator(point.cache, active, ctx.sigma, _CG_RIDGE)
    diag = _jacobi_diagonal(point.cache, active, ctx.sigma, _CG_RIDGE)
    return _pcg(T, point.grad, diag, target, _MAX_CG)


@dataclass
class SsnResult:
    """Final multiplier Y, residual matrix E = -grad, the recovered weights
    ``w_hat`` = project_nonneg(w_ref + A(Y)/sigma) (the ``w`` of
    :func:`recover_primal` at Y), the number of Newton steps taken, and
    ``cg_steps``, the CG steps of every Newton direction of the run, one
    Newton-operator apply each. The run keeps no per-step record: ``accept``
    sees every iterate, so a caller that wants one records it there.

    ``status`` says why the run stopped: ``"certified"`` (the ``accept``
    test passed at Y, and ``certificate`` is its result), ``"max_iter"`` or
    ``"linesearch_failed"``. ``converged`` is true for ``"certified"``
    alone; the benchmark's span notes read it."""

    Y: np.ndarray
    E: np.ndarray
    w_hat: np.ndarray
    iterations: int
    status: str
    cg_steps: int = 0
    certificate: Certificate | None = None

    @property
    def converged(self):
        return self.status == "certified"


# relative rounding level of the computed dual value: about 3e-15 was seen
# on values near 1, a few dozen ulps from summing its five terms
_VALUE_RTOL = 1e-13


def ssn_solve(ctx, Y0, accept):
    """Maximize the dual by a globalized semismooth Newton method, from Y0
    (zero when None), until the caller's test ``accept`` passes.

    Each step solves the Newton system inexactly and backtracks with an Armijo
    rule on the dual value; accepted steps never decrease the dual beyond
    rounding. Where the Armijo increase _ARMIJO_MU t <g, D> is too small for the
    dual value to resolve (below ``_VALUE_RTOL`` max(1, |value|)), a step is taken
    instead when it lowers the gradient norm.

    ``accept`` is the only stop short of the caps, and the only view of the
    run's iterates: the result keeps no per-step values or gradient norms.
    It is called once at every iterate, the start point and the point at
    the iteration cap included, with the dual point, whose ``w_hat`` holds
    the recovered weights and ``grad`` the dual gradient (E = -grad),
    ``value`` the dual value, and returns a pair: a
    certificate or None, and ``excess``, the factor by which the point
    missed the caller's rule on ||delta|| (+inf when something else failed).
    The first certificate ends the run as ``"certified"``. Otherwise
    ``excess`` sets how exactly the next Newton system is solved (see
    :func:`_newton_direction`), and the run ends as ``"max_iter"`` after
    ``_MAX_NEWTON`` Newton steps, or as ``"linesearch_failed"`` when the line
    search stalls.
    """
    n = ctx.problem.n
    Y = np.zeros((n, n)) if Y0 is None else np.array(Y0, dtype=float)
    cur = _dual_eval(Y, ctx)
    cg_steps = 0

    def result(iterations, status, certificate=None):
        return SsnResult(Y, -cur.grad, cur.w_hat, iterations, status, cg_steps, certificate)

    for j in range(_MAX_NEWTON + 1):
        cert, excess = accept(cur)
        if cert is not None:
            return result(j, "certified", cert)
        if j == _MAX_NEWTON:
            return result(j, "max_iter")
        gnorm = float(np.linalg.norm(cur.grad))
        mask = clarke_diag(cur.c)
        D, steps = _newton_direction(cur, ctx, mask, gnorm, excess)
        cg_steps += steps
        gD = float(np.vdot(cur.grad, D))
        step = 1.0
        nxt = None
        resolution = _VALUE_RTOL * max(1.0, abs(cur.value))
        for _ in range(_MAX_LINESEARCH + 1):
            cand = _dual_eval(Y + step * D, ctx)
            gain = _ARMIJO_MU * step * gD
            if cand.value >= cur.value + gain or (
                gain <= resolution and np.linalg.norm(cand.grad) < gnorm
            ):
                nxt = cand
                break
            step *= _ARMIJO_RHO
        if nxt is None:
            return result(j, "linesearch_failed")
        Y = Y + step * D
        cur = nxt


def recover_primal(Y, ctx):
    """Primal pair from a dual multiplier: theta via the log-det prox shifted by
    J, w via the non-negative projection. At the exact dual optimum the pair is
    feasible: theta equals A* w."""
    Y = np.asarray(Y, dtype=float)
    P, _ = prox_logdet(ctx.base_point(Y), ctx.sigma)
    w_bar = project_nonneg(ctx.projection_point(Y))
    return P - ctx.problem.J, w_bar


@dataclass(frozen=True)
class Certificate:
    """Error vector delta with its checkable pair: the contraction factor r and
    the operator-norm bound that dominates ||delta||."""

    delta: np.ndarray
    r: float
    bound: float

    @property
    def delta_norm(self):
        return float(np.linalg.norm(self.delta))


def _sym_norm2(X):
    """Spectral norm of a symmetric matrix: its largest eigenvalue modulus."""
    return float(np.abs(np.linalg.eigvalsh(X)).max())


def _error_terms(w_next, E, ctx, cache=None):
    """delta = -A[sigma E + X1^{-1} - X2^{-1}] with X2 = A* w_next + J and
    X1 = X2 - E, returned with X1^{-1}, ||X1^{-1}||_2 and X2^{-1}; see
    :func:`subproblem_error_vector`.

    ``cache`` is the prox eigendecomposition of the Newton point whose
    recovered weights are w_next and whose negated gradient is E. There X1
    equals the prox output theta_hat + J = U diag(d) U^T, so X1^{-1} is
    (U/d) U^T and ||X1^{-1}||_2 is 1/min d; without it X1 is inverted.
    """
    w_next = np.asarray(w_next, dtype=float).reshape(-1)
    E = np.asarray(E, dtype=float)
    X2 = ctx.problem.astar(w_next) + ctx.problem.J
    if cache is None:
        X1_inv = np.linalg.inv(X2 - E)
        X1_inv_norm = _sym_norm2(X1_inv)
    else:
        d_min = float(cache.d.min())
        if not d_min > 0:
            # prox eigenvalues are positive; one that cancels to zero leaves
            # X1 singular in floating point
            raise np.linalg.LinAlgError("X1 is singular")
        X1_inv = (cache.U / cache.d) @ cache.U.T
        X1_inv_norm = 1.0 / d_min
    X2_inv = np.linalg.inv(X2)
    delta = -ctx.problem.a(ctx.sigma * E + X1_inv - X2_inv)
    return delta, X1_inv, X1_inv_norm, X2_inv


def subproblem_error_vector(w_next, E, ctx, terms=None):
    """Error vector of the inexact subproblem solution and its certificate.

    With E the negated dual gradient at the returned multiplier, w_next solves
    the subproblem perturbed by delta = -A[sigma E + X1^{-1} - X2^{-1}] where
    X1 = A* w_next + J - E and X2 = A* w_next + J. Requires the contraction
    factor r = ||X1^{-1} E||_2 < 1, else raises :class:`CertificateError`.
    ||delta|| -> 0 as ||E|| -> 0. ``terms``, what :func:`_error_terms`
    gives for the same arguments, saves recomputing it; without it X1 and X2
    are inverted from (w_next, E) alone.
    """
    E = np.asarray(E, dtype=float)
    delta, X1_inv, X1_inv_norm, _ = _error_terms(w_next, E, ctx) if terms is None else terms
    M = X1_inv @ E
    # ||M||_2^2 is the top eigenvalue of the symmetric M^T M
    r = float(np.sqrt(max(np.linalg.eigvalsh(M.T @ M)[-1], 0.0)))
    if not np.isfinite(r) or r >= 1:
        raise CertificateError(r)
    # operator norm of the adjoint map over the spectral-norm unit ball:
    # each component is bounded by 2||M||_2 and the value 2 sqrt(m) is
    # attained at the identity, so the bound below dominates ||delta||
    opnorm_spectral = 2.0 * np.sqrt(ctx.problem.m)
    bound = opnorm_spectral * _sym_norm2(E) * (ctx.sigma + X1_inv_norm**2 / (1.0 - r))
    return Certificate(delta, r, float(bound))


def _rule_bound(w_next, ctx):
    """Right-hand side (sigma/4)||dw|| + sigma ||A* dw||^2 / (2||dw||) of the
    inexactness rule, dw = w_next - ctx.w_ref; 1e-12 for a zero step, since
    the rule divides by ||dw||."""
    dw = np.asarray(w_next, dtype=float) - ctx.w_ref
    dwn = float(np.linalg.norm(dw))
    if dwn == 0.0:
        return 1e-12
    datw = float(np.linalg.norm(ctx.problem.astar(dw)))
    return 0.25 * ctx.sigma * dwn + 0.5 * ctx.sigma * datw * datw / dwn
