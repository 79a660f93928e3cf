"""Shared fixtures-in-plain-functions for the test suite, and value oracles
that only the tests evaluate (the solvers never need these values)."""

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

import laplace_mcp as lm
from laplace_mcp.penalty import mcp_value
from laplace_mcp.ssn import Certificate, SubproblemContext


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


def logdet_objective(w, problem, K, ctx=None):
    """Value and gradient in w of -log det(A* w + J) + <K, A* w>, plus the
    proximal terms (sigma/2)(||A* w - theta_ref||^2 + ||w - w_ref||^2) of
    ``ctx`` when given; (+inf, 0) where A* w + J is not positive definite.
    With K = S + lam I this is the l1 objective, and with ``ctx`` and its
    cost matrix the subproblem primal."""
    theta = problem.astar(w)
    vals, U = np.linalg.eigh(theta + problem.J)
    if vals[0] <= 0:
        return float("inf"), np.zeros_like(w)
    value = -float(np.log(vals).sum()) + float(np.vdot(K, theta))
    grad = problem.a(K - (U / vals) @ U.T)
    if ctx is not None:
        value += 0.5 * ctx.sigma * float(
            np.linalg.norm(theta - ctx.theta_ref) ** 2 + np.linalg.norm(w - ctx.w_ref) ** 2
        )
        grad = grad + ctx.sigma * (problem.a(theta - ctx.theta_ref) + w - ctx.w_ref)
    return value, grad


def stationarity_oracle(w, problem, model):
    """||Pi(g)||/(1 + ||w||) with g the gradient of the ``model`` objective
    from :func:`logdet_objective` (K = S + lam I for l1, K = S plus the MCP
    derivative 2 max(lam - w/gamma, 0) for MCP); Pi keeps g_e where w_e > 0
    and min(g_e, 0) elsewhere."""
    params = problem.params
    K = problem.shifted_S if model == "cgl-l1" else problem.S
    g = logdet_objective(w, problem, K)[1]
    if model == "cgl-mcp":
        g = g + 2.0 * np.maximum(params.lam - w / params.gamma, 0.0)
    g = np.where(w > 0, g, np.minimum(g, 0.0))
    return float(np.linalg.norm(g) / (1.0 + np.linalg.norm(w)))


def subproblem_primal_value(w, ctx):
    """Subproblem objective at the feasible point (A* w, w); +inf off the domain."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if np.any(w < 0):
        return float("inf")
    return logdet_objective(w, ctx.problem, ctx.cost_matrix, ctx)[0]


def reference_solve_l1(problem, params, accelerate=True):
    """The ADMM loop of :func:`laplace_mcp.solve_l1` with all three KKT
    residuals at every iteration: returns the final state, the history and
    the iteration count. With ``accelerate`` it takes the library's
    Anderson steps where ``solve_l1`` does (eps below the warm-start floor);
    without, it is the plain loop, the oracle of the accelerated solver."""
    from laplace_mcp import admm

    state = point = admm.initial_state(problem)
    aa = None
    if accelerate and params.eps < admm._ADMM_EPS_FLOOR:
        aa = admm._Anderson(problem)
    history = []
    iterations = params.max_iter
    for it in range(1, params.max_iter + 1):
        state = admm.admm_step(point, problem, problem.gram_solver)
        res = admm.kkt_residuals(state, problem)
        entry = {
            "iteration": it, "pobj": res.pobj, "dobj": res.dobj, "eta_p": res.eta_p,
            "eta_d": res.eta_d, "eta_g": res.eta_g, "sigma": state.sigma,
            "aa_steps": aa.steps if aa else 0, "aa_rejected": aa.rejected if aa else 0,
        }
        if it % admm._HISTORY_EVERY == 0 or it == 1:
            history.append(entry)
        if res.max < params.eps:
            iterations = it
            break
        if it % admm._ADAPT_EVERY == 0:
            ratio = res.eta_p / max(res.eta_d, 1e-30)
            state.sigma *= min(max(math.sqrt(ratio), admm._ADAPT_LO), admm._ADAPT_HI)
        point = aa.next_point(state) if aa and it < params.max_iter else state
    if history[-1]["iteration"] != iterations:
        history.append(dict(entry, sigma=state.sigma))
    return state, history, iterations


def lbfgsb_min(value_and_grad, w0):
    """Oracle minimizer over w >= 0: scipy's L-BFGS-B, which shares no code
    with the solvers. With ``ftol`` 0 it runs until the projected gradient
    norm reaches 1e-12 or the objective stops decreasing in floating point.
    Returns the scipy result."""
    return minimize(
        value_and_grad, np.asarray(w0, dtype=float), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * len(w0),
        options={"maxiter": 10000, "ftol": 0.0, "gtol": 1e-12},
    )


def grad_below(tol):
    """Accept test for ``ssn_solve`` that passes, with a zero certificate,
    once the dual gradient norm is at most ``tol``. It has no rule on delta,
    so its excess is always +inf."""

    def accept(point):
        if np.linalg.norm(point.grad) <= tol:
            return Certificate(np.zeros_like(point.w_hat), 0.0, 0.0), np.inf
        return None, np.inf

    return accept


def incidence_matrix(graph):
    """Node-arc incidence matrix B with column (i,j) equal to e_i - e_j."""
    m = graph.m
    rows = graph.edges.reshape(-1)
    cols = np.repeat(np.arange(m), 2)
    data = np.tile([1.0, -1.0], m)
    return sp.csc_matrix((data, (rows, cols)), shape=(graph.n, m))


def edge_gram_matrix(B):
    """Matrix form 2I + |B|^T |B| of the composition adjoint-then-Laplacian map."""
    B = sp.csc_matrix(B)
    Babs = abs(B)
    m = B.shape[1]
    return (2.0 * sp.identity(m, format="csc") + (Babs.T @ Babs)).tocsr()


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
    return SubproblemContext(problem, sigma, w_k), w_k


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
