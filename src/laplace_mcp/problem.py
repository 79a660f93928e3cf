"""Shared problem data: covariance, connectivity prior, penalty parameters, and
cached linear-operator state reused across solver components."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .graphs import (
    ConnectivityPrior,
    EdgeGraph,
    is_connected,
    laplacian_adjoint,
    weights_to_laplacian,
)
from .linalg import GramSolver
from .penalty import PenaltyParams, _check_model

__all__ = ["ProblemData"]


class ProblemData:
    """Covariance S, candidate edge pattern, penalty parameters, and J = (1/n)11^T.

    The Gram solver of the x-update of the ADMM reference oracle
    (``admm.admm_step``) is built on first use and cached; everything is
    read-only after construction, so one instance can back many concurrent
    solver runs.
    """

    def __init__(self, S, prior, params):
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.all(np.isfinite(S)):
            raise ValueError("covariance contains non-finite entries")
        if np.linalg.norm(S - S.T) > 1e-8 * max(1.0, np.linalg.norm(S)):
            raise ValueError("covariance is not symmetric")
        S = 0.5 * (S + S.T)
        if isinstance(prior, ConnectivityPrior):
            tag = prior.tag
            prior = prior.graph
        elif isinstance(prior, EdgeGraph):
            tag = "file"
        else:
            raise TypeError("prior must be an EdgeGraph or ConnectivityPrior")
        prior = prior.unweighted()
        if prior.m == 0:
            raise ValueError("connectivity prior has no candidate edges")
        if prior.n != S.shape[0]:
            raise ValueError("covariance and prior disagree on the node count")
        if not isinstance(params, PenaltyParams):
            params = PenaltyParams(*params)
        self.S = S
        self.S.setflags(write=False)
        self.prior = prior
        self.prior_tag = tag
        self.params = params
        self.n = prior.n
        self.m = prior.m
        self.J = np.full((self.n, self.n), 1.0 / self.n)
        self.J.setflags(write=False)
        self.a_of_S = laplacian_adjoint(S, prior)
        self.a_of_S.setflags(write=False)

    def astar(self, w):
        return weights_to_laplacian(w, self.prior)

    def a(self, X):
        return laplacian_adjoint(X, self.prior)

    @cached_property
    def gram_solver(self):
        return GramSolver(self.prior)

    @cached_property
    def shifted_S(self):
        """S + lam I, the effective data matrix of the trace-penalized model."""
        M = self.S + self.params.lam * np.eye(self.n)
        M.setflags(write=False)
        return M

    @cached_property
    def _connected(self):
        return is_connected(self.prior)

    def check_solvable(self, model):
        """Raise ValueError naming the cause when ``model`` ("cgl-mcp" or
        "cgl-l1") has no finite minimum on this data: a disconnected prior,
        or a(S) = S_ii + S_jj - 2 S_ij vanishing on a candidate edge. The
        second matters to MCP, whose penalty is bounded, and to l1 only at
        lam = 0; a positive trace term 2 lam sum(w) keeps l1 bounded below.
        The connectivity verdict is computed once per instance.
        """
        _check_model(model)
        if not self._connected:
            raise ValueError(
                "connectivity prior is disconnected: the objective is +inf everywhere"
            )
        if model == "cgl-l1" and self.params.lam > 0:
            return
        a_S = self.a_of_S
        degenerate = np.flatnonzero(a_S <= 1e-12 * max(1.0, float(a_S.max())))
        if degenerate.size:
            edges = ", ".join(
                f"({i}, {j})" for i, j in self.prior.edges[degenerate[:10]].tolist()
            )
            more = f" and {degenerate.size - 10} more" if degenerate.size > 10 else ""
            name = "MCP" if model == "cgl-mcp" else "l1"
            raise ValueError(
                f"degenerate covariance: S_ii + S_jj - 2 S_ij vanishes on candidate "
                f"edges {edges}{more} (duplicate data columns?), so the {name} "
                "objective is unbounded below"
            )
