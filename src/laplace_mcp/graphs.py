"""Graph structures, the edge-weight/Laplacian linear maps, random ensembles,
connectivity priors, and ground-truth covariance synthesis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphError",
    "EdgeGraph",
    "ConnectivityPrior",
    "weights_to_laplacian",
    "laplacian_adjoint",
    "gen_erdos_renyi",
    "gen_grid",
    "gen_modular",
    "sample_weights",
    "generate_connected",
    "true_prior",
    "perturb_connectivity",
    "is_connected",
    "population_covariance",
    "sample_covariance",
]


class GraphError(ValueError):
    """Invalid graph structure or generator parameters."""


class EdgeGraph:
    """Undirected graph on nodes 0..n-1 with lexicographically ordered edges.

    Edges are pairs (i, j) with i < j, stored sorted and duplicate-free.
    Weights, when present, are non-negative and aligned with ``edges``.
    Instances are immutable after construction (backing arrays are read-only),
    so they can be shared across concurrent solver runs.
    """

    def __init__(self, n, edges, weights=None):
        n = int(n)
        if n < 1:
            raise GraphError("node count must be at least 1")
        edges = np.ascontiguousarray(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise GraphError("edge endpoint out of range")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise GraphError("edges must satisfy i < j")
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        key = edges[:, 0] * n + edges[:, 1]
        if np.unique(key).size != key.size:
            raise GraphError("duplicate edges")
        if weights is not None:
            weights = _check_weights(weights, edges.shape[0])[order]
        self._set(n, edges, weights)

    def _set(self, n, edges, weights):
        """Store sorted, duplicate-free edges and aligned weights read-only."""
        edges.setflags(write=False)
        self.n = n
        self.edges = edges
        if weights is not None:
            weights = np.ascontiguousarray(weights)
            weights.setflags(write=False)
        self.weights = weights
        # row-major flat positions of (i, j) and (j, i) in an n x n matrix,
        # the index arithmetic shared by the edge-weight/Laplacian maps
        self._flat_ij = edges[:, 0] * n + edges[:, 1]
        self._flat_ji = edges[:, 1] * n + edges[:, 0]
        self._flat_ij.setflags(write=False)
        self._flat_ji.setflags(write=False)

    @property
    def m(self):
        """Number of edges."""
        return self.edges.shape[0]

    def degrees(self):
        ei, ej = self.edges[:, 0], self.edges[:, 1]
        ones = np.ones(self.m)
        return np.bincount(ei, ones, self.n) + np.bincount(ej, ones, self.n)

    def support(self, weights):
        """Subgraph of the edges with nonzero ``weights``, weighted by them.

        ``weights`` aligns with ``edges`` and must be finite and non-negative.
        The subgraph keeps the node set and the edge order. Evaluating the
        edge-weight/Laplacian maps on it costs time in its own edge count.
        """
        weights = _check_weights(weights, self.m)
        keep = weights != 0
        sub = EdgeGraph.__new__(EdgeGraph)
        sub._set(self.n, self.edges[keep], weights[keep])
        return sub

    def with_weights(self, weights):
        return EdgeGraph(self.n, self.edges, weights)

    def unweighted(self):
        return EdgeGraph(self.n, self.edges) if self.weights is not None else self

    def laplacian(self):
        """Combinatorial Laplacian D - W of the weighted graph."""
        if self.weights is None:
            raise GraphError("graph has no weights")
        return weights_to_laplacian(self.weights, self)

    def edge_set(self):
        return {(int(i), int(j)) for i, j in self.edges}

    def __repr__(self):
        w = "weighted" if self.weights is not None else "unweighted"
        return f"EdgeGraph(n={self.n}, m={self.m}, {w})"


def _check_weights(weights, m):
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape[0] != m:
        raise GraphError("weights must align with edges")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise GraphError("weights must be finite and non-negative")
    return weights


@dataclass(frozen=True)
class ConnectivityPrior:
    """Candidate edge pattern constraining which off-diagonals may be nonzero.

    ``tag`` records provenance: true | coarse | full | drop_<d>_percent.
    """

    graph: EdgeGraph
    tag: str


def weights_to_laplacian(w, graph):
    """Map an edge-weight vector to the symmetric matrix B Diag(w) B^T.

    Off-diagonal (i, j) is -w_(ij) on edges and 0 elsewhere; the diagonal
    holds weighted degrees, so every row sums to zero. For w >= 0 the result
    is a combinatorial graph Laplacian.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != graph.m:
        raise ValueError(f"expected {graph.m} weights, got {w.shape[0]}")
    n = graph.n
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    theta = np.zeros(n * n)
    theta[graph._flat_ij] = -w
    theta[graph._flat_ji] = -w
    theta[:: n + 1] = np.bincount(ei, w, n) + np.bincount(ej, w, n)
    return theta.reshape(n, n)


def laplacian_adjoint(X, graph):
    """Adjoint of ``weights_to_laplacian``: the vector diag(B^T X B).

    Component (i, j) equals X_ii + X_jj - 2 X_ij for symmetric X.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (graph.n, graph.n):
        raise ValueError(f"expected a {graph.n}x{graph.n} matrix, got {X.shape}")
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    d = X.diagonal()
    flat = X.reshape(-1)
    return d[ei] + d[ej] - flat[graph._flat_ij] - flat[graph._flat_ji]


def _pair_indices(n):
    iu = np.triu_indices(n, 1)
    return np.column_stack(iu)


def gen_erdos_renyi(n, p, seed):
    """Erdos-Renyi graph: each of the C(n,2) pairs kept independently with probability p."""
    if not 0 < p < 1:
        raise GraphError("edge probability must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    pairs = _pair_indices(n)
    mask = rng.random(pairs.shape[0]) < p
    return EdgeGraph(n, pairs[mask])


def gen_grid(n, seed=None):
    """Square lattice where nodes connect to their four nearest neighbours.

    ``n`` must be a perfect square; ``seed`` is accepted for interface
    uniformity with the random ensembles but the structure is deterministic.
    """
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise GraphError("grid graphs require a perfect-square node count")
    edges = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                edges.append((u, u + 1))
            if r + 1 < side:
                edges.append((u, u + side))
    return EdgeGraph(n, np.asarray(edges, dtype=np.int64))


def gen_modular(n, p1, p2, seed, modules=4):
    """Random modular graph: ``modules`` equal node blocks, cross-block edge
    probability p1 and within-block probability p2."""
    if not (0 < p1 < 1 and 0 < p2 < 1):
        raise GraphError("edge probabilities must lie in (0, 1)")
    if modules < 1 or modules > n:
        raise GraphError("module count out of range")
    rng = np.random.default_rng(seed)
    block = np.zeros(n, dtype=np.int64)
    for b, ids in enumerate(np.array_split(np.arange(n), modules)):
        block[ids] = b
    pairs = _pair_indices(n)
    same = block[pairs[:, 0]] == block[pairs[:, 1]]
    prob = np.where(same, p2, p1)
    mask = rng.random(pairs.shape[0]) < prob
    return EdgeGraph(n, pairs[mask])


def sample_weights(graph, lo, hi, seed):
    """Attach i.i.d. uniform [lo, hi] weights to every edge."""
    if not 0 < lo <= hi:
        raise GraphError("weight interval must satisfy 0 < lo <= hi")
    if graph.m == 0:
        raise GraphError("cannot weight a graph with no edges")
    rng = np.random.default_rng(seed)
    return graph.with_weights(rng.uniform(lo, hi, graph.m))


def generate_connected(factory, seed, max_tries=64):
    """Call ``factory(seed_t)`` over derived seeds until a connected graph appears."""
    for t in range(max_tries):
        g = factory(seed + t * 1_000_003)
        if is_connected(g):
            return g
    raise GraphError(f"no connected graph after {max_tries} attempts")


def is_connected(graph):
    """Whether the graph has a single connected component.

    Hook and jump over the edge arrays: every node carries the label of its
    tree root, starting from ``arange(n)``. Each round hooks the larger root
    of every edge whose ends carry different labels onto the smaller one,
    then jumps pointers (``labels = labels[labels]``) until each label is a
    root again. A round that finds no such edge leaves one label per
    component, so the graph is connected iff every label is 0.
    """
    n = graph.n
    if n == 1:
        return True
    if graph.m < n - 1:
        return False
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    labels = np.arange(n)
    while True:
        li, lj = labels[ei], labels[ej]
        split = li != lj
        if not split.any():
            return bool(np.all(labels == 0))
        np.minimum.at(labels, np.maximum(li, lj)[split], np.minimum(li, lj)[split])
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels = jumped
            jumped = labels[labels]


def true_prior(graph):
    """Connectivity prior equal to the true edge pattern."""
    return ConnectivityPrior(graph.unweighted(), "true")


def perturb_connectivity(truth, mode, seed=None, factor=1.5, percent=10.0):
    """Derive a perturbed connectivity prior from the true pattern.

    mode "coarse": superset with round(factor * m) edges obtained by adding
    random non-edges; "full": all n(n-1)/2 pairs; "drop": removes
    round(percent% * m) random true edges.
    """
    g = truth.graph
    n, m = g.n, g.m
    if mode == "full":
        return ConnectivityPrior(EdgeGraph(n, _pair_indices(n)), "full")
    if mode == "coarse":
        if factor < 1:
            raise GraphError("coarse factor must be at least 1")
        target = int(round(factor * m))
        extra = target - m
        pairs = _pair_indices(n)
        keys = pairs[:, 0] * n + pairs[:, 1]
        present = np.isin(keys, g.edges[:, 0] * n + g.edges[:, 1])
        candidates = pairs[~present]
        if extra > candidates.shape[0]:
            raise GraphError("not enough non-edges for the requested coarse factor")
        rng = np.random.default_rng(seed)
        picked = candidates[rng.choice(candidates.shape[0], size=extra, replace=False)]
        edges = np.vstack([g.edges, picked]) if extra else g.edges
        return ConnectivityPrior(EdgeGraph(n, edges), "coarse")
    if mode == "drop":
        if not 0 <= percent <= 100:
            raise GraphError("drop percentage must lie in [0, 100]")
        k = int(round(percent / 100.0 * m))
        if k == 0:
            return ConnectivityPrior(g.unweighted(), f"drop_{percent:g}_percent")
        rng = np.random.default_rng(seed)
        removed = rng.choice(m, size=k, replace=False)
        keep = np.setdiff1d(np.arange(m), removed)
        return ConnectivityPrior(EdgeGraph(n, g.edges[keep]), f"drop_{percent:g}_percent")
    raise GraphError(f"unknown perturbation mode {mode!r}")


def _null_space_spectrum(L):
    """Eigendecomposition of a Laplacian with its single null eigenvalue zeroed."""
    L = np.asarray(L, dtype=float)
    lam, U = np.linalg.eigh(L)
    lmax = float(lam[-1])
    tol = 1e-9 * max(lmax, np.finfo(float).tiny)
    if lam[0] >= tol:
        raise GraphError("matrix has no null eigenvalue; not a graph Laplacian")
    if L.shape[0] > 1 and lam[1] < tol:
        raise GraphError("null space dimension exceeds 1; graph is disconnected")
    lam = np.maximum(lam, 0.0)
    lam[0] = 0.0
    return lam, U


def population_covariance(L_true):
    """Moore-Penrose pseudo-inverse of a connected-graph Laplacian.

    Computed spectrally with the null eigenvalue zeroed; satisfies
    L @ pinv @ L = L and pinv @ 1 = 0.
    """
    lam, U = _null_space_spectrum(L_true)
    inv = np.zeros_like(lam)
    inv[lam > 0] = 1.0 / lam[lam > 0]
    P = (U * inv) @ U.T
    return 0.5 * (P + P.T)


def sample_covariance(L_true, k, seed, chunk=65536):
    """Sample covariance of k draws from the degenerate Gaussian N(0, pinv(L)).

    Each draw is A z with A = pinv(L)^(1/2) and z standard normal projected
    onto the complement of the all-ones direction by P = I - 11^T/n. The
    result is S = A P W P A / k = A W A / k (A 1 = 0, so A P = A), where
    W ~ Wishart_n(k, I) is the scatter matrix of the k raw draws. So
    k S ~ Wishart_n(k, Sigma) with Sigma = pinv(L): E S = Sigma,
    Var S_ij = (Sigma_ij^2 + Sigma_ii Sigma_jj)/k, and S 1 = 0.

    For k >= n, W = T T^T is drawn by the Bartlett decomposition (Bartlett
    1933; Odell and Feiveson 1966): T is lower triangular with standard normals
    below the diagonal and T_ii = sqrt(chi2(k - i)), i = 0..n-1. The cost is
    one n x n draw and two GEMMs, whatever k is. For k < n, where Bartlett does
    not apply, the k raw draws are made directly, ``chunk`` rows at a time,
    and W is their scatter matrix (no centering: A P = A makes it a no-op);
    ``chunk`` bounds memory on that path only.
    """
    k = int(k)
    if k < 1:
        raise GraphError("sample size must be at least 1")
    lam, U = _null_space_spectrum(L_true)
    inv_half = np.zeros_like(lam)
    inv_half[lam > 0] = 1.0 / np.sqrt(lam[lam > 0])
    A = (U * inv_half) @ U.T
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    if k >= n:
        T = np.tril(rng.standard_normal((n, n)), -1)
        T[np.diag_indices(n)] = np.sqrt(rng.chisquare(k - np.arange(n)))
        B = A @ T
        S = B @ B.T / k
        return 0.5 * (S + S.T)
    M = np.zeros((n, n))
    done = 0
    while done < k:
        c = min(chunk, k - done)
        Z = rng.standard_normal((c, n))
        M += Z.T @ Z
        done += c
    S = A @ (M / k) @ A
    return 0.5 * (S + S.T)
