"""Shared fixtures-in-plain-functions for the test suite, and value oracles
that only the tests evaluate (the solvers never need these values)."""

import numpy as np

import laplace_mcp as lm
from laplace_mcp.dca import subproblem_cost_matrix
from laplace_mcp.penalty import mcp_value
from laplace_mcp.ssn import SubproblemContext


def moreau_logdet_value(X, sigma):
    """Moreau envelope of -log det: -log det(P) + (sigma/2) ||P - X||^2 at P = prox."""
    P, cache = lm.prox_logdet(X, sigma)
    return float(-np.log(cache.d).sum() + 0.5 * sigma * np.linalg.norm(P - X) ** 2)


def dc_smooth_value(x, params):
    """Smooth convex part h of the split MCP = lam|x| - h(x)."""
    x = np.asarray(x, dtype=float)
    lam, gamma = params.lam, params.gamma
    ax = np.abs(x)
    return np.where(
        ax <= gamma * lam,
        x * x / (2.0 * gamma),
        lam * ax - 0.5 * gamma * lam * lam,
    )


def mcp_matrix_value(theta, params):
    """Penalty of a symmetric matrix: sum of MCP over off-diagonal entries."""
    p = mcp_value(np.asarray(theta, dtype=float), params)
    return float(p.sum() - np.trace(p))


def subproblem_primal_value(w, ctx):
    """Subproblem objective at the feasible point (A* w, w); +inf off the domain."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if np.any(w < 0):
        return float("inf")
    theta = ctx.problem.astar(w)
    vals = np.linalg.eigvalsh(theta + ctx.problem.J)
    if vals[0] <= 0:
        return float("inf")
    return float(
        -np.log(vals).sum()
        + np.vdot(ctx.cost_matrix, theta)
        + 0.5 * ctx.sigma * np.linalg.norm(theta - ctx.theta_ref) ** 2
        + 0.5 * ctx.sigma * np.linalg.norm(w - ctx.w_ref) ** 2
    )


def random_connected_graph(n, p, seed):
    return lm.generate_connected(lambda s: lm.gen_erdos_renyi(n, p, s), seed)


def make_problem(n=10, p=0.4, seed=0, lam=0.05, gamma=1.5, k=None):
    """Seeded synthetic instance: returns (problem, weighted truth, L_true)."""
    g = random_connected_graph(n, p, seed)
    gw = lm.sample_weights(g, 0.1, 3.0, seed + 1)
    L = gw.laplacian()
    if k is None:
        S = lm.population_covariance(L)
    else:
        S = lm.sample_covariance(L, k, seed + 2)
    problem = lm.ProblemData(S, lm.true_prior(gw), lm.PenaltyParams(lam, gamma))
    return problem, gw, L


def random_context(n=10, p=0.4, seed=0, sigma=1.0, lam=0.05, gamma=1.5):
    """Random subproblem context anchored at a strictly positive iterate."""
    problem, gw, _ = make_problem(n=n, p=p, seed=seed, lam=lam, gamma=gamma, k=5000 * n)
    rng = np.random.default_rng(seed + 10)
    w_k = rng.uniform(0.1, 2.0, problem.m)
    ctx = SubproblemContext(
        problem, sigma, problem.astar(w_k), w_k, subproblem_cost_matrix(w_k, problem)
    )
    return ctx, w_k


def random_symmetric(n, rng, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return 0.5 * (A + A.T)


def bfs_connected(n, edges):
    """Breadth-first connectivity oracle independent of the library path."""
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == n


def golden_min(f, lo, hi, tol=1e-12, max_iter=400):
    """Golden-section search on [lo, hi] for a unimodal scalar function."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def scan_then_golden(f, lo, hi, grid=20000, tol=1e-12):
    """Exhaustive grid scan bracketing the minimizer, refined by golden section."""
    xs = np.linspace(lo, hi, grid)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid - 1)]
    return golden_min(f, a, b, tol=tol)
