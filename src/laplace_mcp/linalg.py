"""Symmetric eigen-calculus for the log-determinant proximal map, non-negative
cone projections, and the solver for the shifted edge Gram system, which only
the x-update of the ADMM reference oracle (``admm.admm_step``) uses.

Every dense kernel of the solver (eigh, Cholesky, inverse, GEMM/GEMV) goes
through numpy's LAPACK/BLAS. numpy and scipy each bundle their own OpenBLAS
with its own thread pool, whose workers busy-wait after each call, so
alternating between the two libraries makes each pool's threads compete with
the other's spinning ones. One library keeps one pool active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import weights_to_laplacian

__all__ = [
    "sym_eig",
    "EigCache",
    "prox_logdet",
    "prox_logdet_dderiv",
    "project_nonneg",
    "clarke_diag",
    "GramSolver",
]


def sym_eig(X):
    """Eigendecomposition X = U Diag(lam) U^T with ascending eigenvalues;
    raises if X is not symmetric to 1e-12 relative."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("a square matrix is required")
    scale = np.linalg.norm(X)
    if np.linalg.norm(X - X.T) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    lam, U = np.linalg.eigh(X)
    return U, lam


@dataclass(frozen=True)
class EigCache:
    """Eigenvectors ``U`` of a prox base point plus derived quantities.

    ``d`` holds the prox eigenvalues, the positive roots of sigma d (d - lam)
    = 1 for the base point's eigenvalues lam, and ``gamma`` the Hadamard
    weights of the prox directional derivative.
    Immutable; safe to share across threads.
    """

    U: np.ndarray
    d: np.ndarray
    gamma: np.ndarray
    base: np.ndarray

    def matches(self, X, rtol=1e-12):
        X = np.asarray(X, dtype=float)
        if X.shape != self.base.shape:
            return False
        scale = max(1.0, float(np.abs(self.base).max()))
        return bool(np.abs(X - self.base).max() <= rtol * scale)


def prox_logdet(X, sigma):
    """Proximal point of -log det at X with parameter sigma.

    Returns (P, cache) where P is positive definite and solves
    -P^{-1} + sigma (P - X) = 0.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    U, lam = sym_eig(X)
    s = np.sqrt(lam * lam + 4.0 / sigma)
    # (s + lam)/2 cancels for lam far below -2/sqrt(sigma); the equal form
    # (2/sigma)/(s - lam) does not. np.where evaluates both branches, and
    # s - lam rounds to zero for large positive lam, so the division takes
    # s + |lam|, which equals s - lam where it is used
    d = np.where(lam < 0, (2.0 / sigma) / (s + np.abs(lam)), 0.5 * (s + lam))
    gamma = 0.5 * (1.0 + np.add.outer(lam, lam) / np.add.outer(s, s))
    P = (U * d) @ U.T
    P = 0.5 * (P + P.T)
    cache = EigCache(U, d, gamma, np.asarray(X, dtype=float))
    return P, cache


def prox_logdet_dderiv(cache, H):
    """Directional derivative of the log-det prox at the cached base point:
    U [gamma o (U^T H U)] U^T. Linear and symmetric in H."""
    H = np.asarray(H, dtype=float)
    if H.shape != cache.base.shape:
        raise ValueError("dimension mismatch with the cached base point")
    M = cache.U.T @ H @ cache.U
    out = cache.U @ (cache.gamma * M) @ cache.U.T
    return 0.5 * (out + out.T)


def project_nonneg(c):
    """Componentwise projection onto the non-negative cone."""
    return np.maximum(np.asarray(c, dtype=float), 0.0)


def clarke_diag(c):
    """Diagonal of a Clarke Jacobian element of the non-negative projection.

    Returns the 0/1 mask with d_i = 1 iff c_i > 0; ties at c_i = 0 resolve to 0,
    which keeps the Newton operator maximally negative definite.
    """
    return (np.asarray(c) > 0).astype(float)


class GramSolver:
    """Solver for the SPD system (3I + |B|^T |B|) x = b of the edge pattern
    ``graph``, the x-update of ``admm.admm_step``.

    The Sherman-Morrison-Woodbury identity reduces the m x m system to the
    n x n system C = 3I + |B||B|^T. |B||B|^T is the signless Laplacian of the
    pattern, whose spectrum lies in [0, 2 d_max], so cond(C) <= (3 + 2 d_max)/3
    and the explicit inverse C^{-1} is as accurate as a factorization. It is
    computed once in the constructor. A solve works on the edge arrays: |B| b
    is a scatter-add of each edge's entry onto both endpoints, then one dense
    matrix-vector product with C^{-1}, then |B|^T y gathers y_i + y_j per edge.
    The instance is read-only afterwards.
    """

    def __init__(self, graph):
        self.n, self.m = graph.n, graph.m
        self._ei, self._ej = graph.edges[:, 0], graph.edges[:, 1]
        # each node's incident edges in edge order (edges (i, k) before (k, j)
        # for i < k < j), the summation order of a CSR product with |B|
        self._scatter = np.concatenate((self._ej, self._ei))
        C = 3.0 * np.eye(self.n) + np.abs(weights_to_laplacian(np.ones(self.m), graph))
        self._c_inv = np.linalg.inv(C)

    def solve(self, b):
        b = np.asarray(b, dtype=float).reshape(-1)
        if b.shape[0] != self.m:
            raise ValueError(f"right-hand side must have length {self.m}")
        y = self._c_inv @ np.bincount(self._scatter, np.concatenate((b, b)), self.n)
        return (b - (y[self._ei] + y[self._ej])) / 3.0
