import json

import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp import admm, linalg, penalty
from laplace_mcp.admm import AdmmState, admm_step, initial_state, kkt_residuals
from laplace_mcp.sweep import SweepConfig, make_instance

from util import (
    edge_gram_matrix,
    incidence_matrix,
    lbfgsb_min,
    logdet_objective,
    make_problem,
    reference_solve_l1,
    stationarity_oracle,
)


def two_node_problem(lam=0.1):
    g = lm.EdgeGraph(2, [(0, 1)])
    S = np.array([[1.0, 0.2], [0.2, 1.0]])
    return lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(lam, 1.5))


def two_node_kkt_solution(problem):
    """Closed-form optimum of the single-edge trace-penalized model.

    det(A*w + J) = 2w, so the optimal weight is 1/<A(K), 1> and the dual
    multiplier is (Theta + J)^{-1} - K with zero cone multiplier.
    """
    K = problem.shifted_S
    a = float(problem.a(K)[0])
    w_star = 1.0 / a
    theta = problem.astar([w_star])
    Y = np.linalg.inv(theta + problem.J) - K
    return AdmmState(
        x=np.array([w_star]),
        theta=theta,
        w=np.array([w_star]),
        Y=Y,
        zeta=np.zeros(1),
        sigma=1.0,
    )


class TestAdmmStep:
    def test_fixed_point(self):
        problem = two_node_problem()
        state = two_node_kkt_solution(problem)
        nxt = admm_step(state, problem, problem.gram_solver)
        np.testing.assert_allclose(nxt.x, state.x, atol=1e-10)
        np.testing.assert_allclose(nxt.theta, state.theta, atol=1e-10)
        np.testing.assert_allclose(nxt.w, state.w, atol=1e-10)
        np.testing.assert_allclose(nxt.Y, state.Y, atol=1e-10)
        np.testing.assert_allclose(nxt.zeta, state.zeta, atol=1e-10)

    def test_w_block_nonnegative(self):
        problem, _, _ = make_problem(n=8, seed=0, lam=0.05, k=4000)
        state = initial_state(problem)
        for _ in range(25):
            state = admm_step(state, problem, problem.gram_solver)
            assert np.all(state.w >= 0.0)

    def test_x_update_solves_linear_system(self):
        problem, _, _ = make_problem(n=8, seed=1, lam=0.05, k=4000)
        state = initial_state(problem)
        for _ in range(5):
            prev = state
            state = admm_step(state, problem, problem.gram_solver)
        rhs = (
            problem.a(prev.theta + prev.Y / prev.sigma)
            + prev.w
            + prev.zeta / prev.sigma
        )
        # (I + A A*) x via the 2I + |B|^T|B| identity
        lhs = state.x + edge_gram_matrix(incidence_matrix(problem.prior)) @ state.x
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_theta_plus_j_positive_definite(self):
        problem, _, _ = make_problem(n=6, seed=2, lam=0.05, k=4000)
        state = initial_state(problem)
        for _ in range(10):
            state = admm_step(state, problem, problem.gram_solver)
            assert np.linalg.eigvalsh(state.theta + problem.J)[0] > 0.0


class TestKktResiduals:
    def test_exact_solution_near_zero(self):
        problem = two_node_problem()
        state = two_node_kkt_solution(problem)
        res = kkt_residuals(state, problem)
        assert res.max < 1e-12

    def test_gap_zero_when_objectives_match(self):
        problem = two_node_problem()
        state = two_node_kkt_solution(problem)
        res = kkt_residuals(state, problem)
        assert abs(res.pobj - res.dobj) < 1e-12
        assert res.eta_g < 1e-12

    def test_residuals_nonnegative(self):
        problem, _, _ = make_problem(n=7, seed=3, lam=0.05, k=4000)
        state = initial_state(problem)
        for _ in range(10):
            state = admm_step(state, problem, problem.gram_solver)
            res = kkt_residuals(state, problem)
            assert res.eta_p >= 0 and res.eta_d >= 0 and res.eta_g >= 0

    def test_infeasible_dual_sentinel(self):
        problem = two_node_problem()
        state = two_node_kkt_solution(problem)
        state.Y = state.Y - 100.0 * np.eye(2)
        res = kkt_residuals(state, problem)
        assert np.isneginf(res.dobj)
        assert res.eta_g == 1.0

    def test_primal_objective_matches_slogdet(self):
        problem, _, _ = make_problem(n=9, seed=4, lam=0.05, k=4000)
        state = initial_state(problem)
        state.w = np.random.default_rng(5).uniform(0.1, 2.0, problem.m)
        Atw = problem.astar(state.w)
        sign, logdet = np.linalg.slogdet(Atw + problem.J)
        assert sign > 0
        expected = -logdet + float(np.vdot(problem.shifted_S, Atw))
        res = kkt_residuals(state, problem)
        assert abs(res.pobj - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_singular_and_indefinite_objectives_are_infinite(self):
        problem, _, _ = make_problem(n=6, seed=6, lam=0.05, k=4000)
        state = initial_state(problem)
        # Y + K is the zero matrix, A*w + J is indefinite
        state.Y = -problem.shifted_S
        state.w = -np.ones(problem.m)
        assert np.linalg.eigvalsh(problem.astar(state.w) + problem.J)[0] < 0
        res = kkt_residuals(state, problem)
        assert np.isposinf(res.pobj)
        assert np.isneginf(res.dobj)
        assert res.eta_g == 1.0


def explicit_pair_residuals(w, problem):
    """The KKT residuals of the pair that w defines, built as a four-block
    state: x = w, theta = A* w, Y = R - K, zeta = -a(Y), with R = (A* w +
    J)^{-1} and K = S + lam I."""
    Y = np.linalg.inv(problem.astar(w) + problem.J) - problem.shifted_S
    pair = AdmmState(x=w, theta=problem.astar(w), w=w, Y=Y, zeta=-problem.a(Y))
    return kkt_residuals(pair, problem)


class TestClosedFormPair:
    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_matches_explicit_pair(self, n, c):
        # (cS, c lam) scales the weights by 1/c; a fifth of the edges sit at
        # 0, where the gradient may be negative
        base, _, _ = make_problem(n=n, p=0.5, seed=n, lam=0.05, k=5000 * n)
        problem = lm.ProblemData(c * base.S, base.prior, lm.PenaltyParams(c * 0.05, 1.5))
        rng = np.random.default_rng(n)
        w = rng.uniform(0.1, 2.0, problem.m) / c
        w[rng.random(problem.m) < 0.2] = 0.0
        f = lm.objective_value(w, problem, "cgl-l1")
        R = np.linalg.inv(problem.astar(w) + problem.J)
        g = penalty.objective_gradient(w, problem, "cgl-l1", R)
        assert np.isfinite(f) and (g[w == 0] < 0).any()
        value, (res, stationarity) = admm._kkt_pair(w, f, g)
        want = explicit_pair_residuals(w, problem)
        assert res.eta_p == want.eta_p == 0.0
        for key in ("eta_d", "pobj", "dobj"):
            assert getattr(res, key) == pytest.approx(getattr(want, key), rel=1e-9), key
        # eta_g is the gap relative to 1 + |pobj| + |dobj|, so 1e-9 relative to
        # the objectives is 1e-9 absolute there: at c = 1e-6, where A* w + J
        # has condition ~1e7, the explicit pair's pobj - dobj cancels about
        # three digits and is off by up to 4e-9 of eta_g itself
        assert res.eta_g == pytest.approx(want.eta_g, rel=1e-9, abs=1e-9)
        assert value == res.max
        assert stationarity == penalty.stationarity(w, problem, "cgl-l1", R)

    def test_solve_l1_makes_no_general_kkt_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_l1 called kkt_residuals")

        monkeypatch.setattr(admm, "kkt_residuals", forbidden)
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, k=5000 * 12)
        rep = lm.solve_l1(problem, lm.AdmmParams(eps=1e-8))
        assert rep.converged
        last = rep.history[-1]
        assert last["eta_p"] == 0.0 and max(last["eta_d"], last["eta_g"]) < 1e-8


class TestSolveL1:
    def test_er20_converges(self):
        problem, gw, _ = make_problem(n=20, p=0.3, seed=4, lam=0.01, k=5000 * 20)
        report = lm.solve_l1(problem, lm.AdmmParams(eps=1e-5, max_iter=5000))
        assert report.termination == "converged"
        assert report.history[-1]["iteration"] <= 5000
        res = report.history[-1]
        assert max(res["eta_p"], res["eta_d"], res["eta_g"]) < 1e-5
        assert np.all(report.w >= 0.0)

    @pytest.mark.parametrize("k", [None, 5000 * 12], ids=["exact", "sampled"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_objective_matches_lbfgsb(self, seed, k):
        # independent oracle: L-BFGS-B on -log det(A* w + J) + <S + lam I, A* w>
        problem, _, _ = make_problem(n=12, p=0.3, seed=seed, k=k)
        report = lm.solve_l1(problem, lm.AdmmParams(eps=1e-10))
        assert report.converged
        ref = lbfgsb_min(
            lambda w: logdet_objective(w, problem, problem.shifted_S), np.ones(problem.m)
        )
        assert report.objective == pytest.approx(ref.fun, rel=1e-10)
        assert report.objective == pytest.approx(
            logdet_objective(report.w, problem, problem.shifted_S)[0], rel=1e-12
        )

    @pytest.mark.parametrize("eps", [1e-4, 1e-10])
    def test_stationarity_of_final_point(self, eps):
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, k=5000 * 12)
        report = lm.solve_l1(problem, lm.AdmmParams(eps=eps))
        want = stationarity_oracle(report.w, problem, "cgl-l1")
        assert report.stationarity == pytest.approx(want, rel=1e-8)
        assert report.stationarity < 10 * eps

    def test_disconnected_prior_rejected(self):
        # the objective is +inf everywhere, so the solve fails at entry
        g = lm.EdgeGraph(4, [(0, 1), (2, 3)], weights=[1.0, 1.0])
        problem = lm.ProblemData(np.eye(4), lm.true_prior(g), lm.PenaltyParams(0.1, 1.5))
        with pytest.raises(ValueError, match="connectivity prior is disconnected"):
            lm.solve_l1(problem)

    def test_lambda_beyond_pivot_floor_rejected(self):
        # lam = 1e9 still starts from a finite objective and ends on the line
        # search; at lam = 1e12 the constant start's objective is +inf
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, lam=1e9)
        assert lm.solve_l1(problem).termination == "linesearch_failed"
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, lam=1e12)
        with pytest.raises(ValueError, match=r"lambda = 1e\+12 .* 1e-12 pivot floor"):
            lm.solve_l1(problem)

    def test_degenerate_covariance_rejected_only_at_zero_lambda(self):
        # a duplicated data column makes S_44 + S_55 - 2 S_45 exactly zero; the
        # trace term keeps the l1 objective bounded below for lam > 0 only
        X = np.random.default_rng(0).standard_normal((400, 6))
        X[:, 5] = X[:, 4]
        X -= X.mean(axis=0)
        S = X.T @ X / X.shape[0]
        prior = lm.true_prior(lm.EdgeGraph(6, np.column_stack(np.triu_indices(6, 1))))
        report = lm.solve_l1(lm.ProblemData(S, prior, lm.PenaltyParams(0.05, 1.5)))
        assert report.converged
        with pytest.raises(ValueError, match=r"degenerate covariance.*\(4, 5\)"):
            lm.solve_l1(lm.ProblemData(S, prior, lm.PenaltyParams(0.0, 1.5)))

    def test_trace_monotone_in_lambda(self):
        # the l1 penalty equals lam * trace on Laplacians, so the optimal trace
        # cannot increase with lam
        problem, gw, _ = make_problem(n=12, p=0.4, seed=5, lam=0.01, k=5000 * 12)
        traces = []
        edge_counts = []
        for lam in (0.01, 0.1, 0.5):
            rep = lm.solve_l1(
                lm.ProblemData(problem.S, problem.prior, lm.PenaltyParams(lam, 1.5)),
                lm.AdmmParams(eps=1e-7),
            )
            traces.append(np.trace(rep.theta()))
            edge_counts.append(int(lm.detected_edges(rep.w, problem.prior.edges).shape[0]))
        assert traces[0] >= traces[1] - 1e-4
        assert traces[1] >= traces[2] - 1e-4
        # edge counts recorded, not asserted: the l1 penalty need not sparsify

    def test_gap_decreases_with_tolerance(self):
        # Newton converges quadratically, so two tolerances can end on the same
        # iterate: the gap meets each tolerance and never rises as it tightens
        problem, _, _ = make_problem(n=10, p=0.4, seed=6, lam=0.05, k=5000 * 10)
        gaps = []
        for eps in (1e-3, 1e-5, 1e-7):
            rep = lm.solve_l1(problem, lm.AdmmParams(eps=eps))
            assert rep.converged
            gaps.append(rep.history[-1]["eta_g"])
            assert gaps[-1] < eps
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_matches_generic_convex_solver(self):
        # independent oracle: the same model handed to cvxpy
        cp = pytest.importorskip("cvxpy")
        problem, _, _ = make_problem(n=8, p=0.5, seed=21, lam=0.05, k=5000 * 8)
        n = problem.n
        w = cp.Variable(problem.m, nonneg=True)
        theta = 0
        for k, (i, j) in enumerate(problem.prior.edges):
            M = np.zeros((n, n))
            M[i, i] = M[j, j] = 1.0
            M[i, j] = M[j, i] = -1.0
            theta = theta + w[k] * M
        K = problem.shifted_S
        objective = cp.Minimize(
            -cp.log_det(theta + problem.J) + cp.sum(cp.multiply(K, theta))
        )
        cvx = cp.Problem(objective)
        cvx.solve(solver=cp.SCS, eps=1e-9, max_iters=100000)
        assert cvx.status == "optimal"
        rep = lm.solve_l1(problem, lm.AdmmParams(eps=1e-9))
        assert rep.converged
        assert abs(rep.objective - cvx.value) < 1e-7
        np.testing.assert_allclose(rep.w, w.value, atol=1e-6)

    def test_cap_hit_reported(self):
        problem, _, _ = make_problem(n=10, p=0.4, seed=7, lam=0.05, k=5000 * 10)
        rep = lm.solve_l1(problem, lm.AdmmParams(eps=1e-9, max_iter=3))
        assert rep.termination == "max_iter"

    def test_params_validation(self):
        with pytest.raises(ValueError):
            lm.AdmmParams(eps=0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_iteration_cap_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            lm.AdmmParams(max_iter=max_iter)

    @pytest.mark.parametrize("c", [1e-6, 0.1, 10.0, 1e3])
    def test_scale_equivariance(self, c):
        # (cS, c lam) scales the linear term by c, and -log det(A*w/c + J)
        # differs from -log det(A*w + J) by a constant, so w -> w/c. The KKT
        # residuals do not scale, so at c = 1e-6 they pass at the constant
        # start already; the Newton decrement, which scales, keeps the solve
        # going
        problem, _, _ = make_problem(n=10, p=0.4, seed=8, lam=0.05, k=5000 * 10)
        ref = lm.solve_l1(problem, lm.AdmmParams(eps=1e-8))
        scaled = lm.ProblemData(c * problem.S, problem.prior, lm.PenaltyParams(c * 0.05, 1.5))
        rep = lm.solve_l1(scaled, lm.AdmmParams(eps=1e-8))
        assert ref.converged and rep.converged
        np.testing.assert_allclose(c * rep.w, ref.w, rtol=0, atol=1e-5 * np.abs(ref.w).max())

    def test_node_permutation_equivariance(self):
        base, gw, _ = make_problem(n=12, p=0.35, seed=16, lam=0.05, k=5000 * 12)
        prior = lm.perturb_connectivity(lm.true_prior(gw), "coarse", seed=18, factor=2.0)
        problem = lm.ProblemData(base.S, prior, base.params)
        report = lm.solve_l1(problem, lm.AdmmParams(eps=1e-8))
        perm = np.random.default_rng(17).permutation(12)
        inv = np.argsort(perm)
        # node i of the permuted instance is node perm[i] of the original
        edges = inv[problem.prior.edges]
        edges.sort(axis=1)
        prior_perm = lm.EdgeGraph(12, edges)
        permuted = lm.ProblemData(problem.S[np.ix_(perm, perm)], prior_perm, problem.params)
        report_perm = lm.solve_l1(permuted, lm.AdmmParams(eps=1e-8))
        assert report.termination == report_perm.termination == "converged"
        w_perm = dict(zip(map(tuple, prior_perm.edges.tolist()), report_perm.w))
        mapped = np.array([w_perm[tuple(e)] for e in edges.tolist()])
        np.testing.assert_allclose(mapped, report.w, rtol=0, atol=1e-6 * np.abs(report.w).max())

    def test_no_prox_or_gram_solve(self, monkeypatch):
        # the solve is projected Newton: no log-det prox (eigh) and no ADMM
        # x-update
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_l1 ran an ADMM kernel")

        monkeypatch.setattr(admm, "prox_logdet", forbidden)
        monkeypatch.setattr(linalg, "prox_logdet", forbidden)
        monkeypatch.setattr(linalg.GramSolver, "solve", forbidden)
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, k=5000 * 12)
        rep = lm.solve_l1(problem, lm.AdmmParams(eps=1e-8))
        assert rep.converged

    def test_history_has_one_entry_per_step(self):
        problem, _, _ = make_problem(n=10, p=0.4, seed=6, lam=0.05, k=5000 * 10)
        rep = lm.solve_l1(problem, lm.AdmmParams(eps=1e-8))
        assert [h["iteration"] for h in rep.history] == list(range(len(rep.history)))
        cg = [h["cg_steps"] for h in rep.history]
        assert cg[0] == 0 and cg == sorted(cg)
        assert all(h["eta_p"] == 0.0 for h in rep.history)
        assert set(rep.history[0]) == {
            "iteration", "pobj", "dobj", "eta_p", "eta_d", "eta_g", "cg_steps"
        }
        assert rep.objective == rep.history[-1]["pobj"]
        back = lm.SolveReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert back.history == rep.history


class TestAnderson:
    """The instances that the Anderson-accelerated ADMM loop of earlier
    versions was tested on: the plain ADMM loop is their oracle, and the
    projected-Newton loop that replaced the accelerated one must match it in
    far fewer steps, also on the long linear tails that acceleration was
    for."""

    @pytest.mark.parametrize("k", [None, 5000 * 12], ids=["exact", "sampled"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_objective_matches_plain_loop(self, seed, k):
        problem, _, _ = make_problem(n=12, p=0.3, seed=seed, k=k)
        params = lm.AdmmParams(eps=1e-10)
        rep = lm.solve_l1(problem, params)
        state, iterations = reference_solve_l1(problem, params)
        assert rep.converged
        assert rep.history[-1]["iteration"] < iterations
        assert rep.objective == pytest.approx(kkt_residuals(state, problem).pobj, rel=1e-10)

    def test_strict_float_settings(self):
        # at lam = 1e6 no step must raise where underflow is an error; A* w + J
        # is too ill-conditioned there for the residuals to reach eps, so the
        # solve ends where no step lowers the objective or the residual
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, lam=1e6)
        with np.errstate(all="raise"):
            rep = lm.solve_l1(problem, lm.AdmmParams(eps=1e-5, max_iter=2000))
        assert rep.termination == "linesearch_failed"
        assert rep.history[-1]["iteration"] > 0
        assert np.all(np.isfinite(rep.w))

    @staticmethod
    def grid_problem():
        # the grid's small Fiedler value (0.076 at n=144) gave plain ADMM a
        # long linear tail
        cfg = SweepConfig(ensemble="grid", n=144, scenario="true", seeds=[0])
        inst = make_instance(cfg, 0)
        return lm.ProblemData(inst.S, inst.prior, lm.PenaltyParams(0.01, 1.5))

    def test_grid_tail(self):
        # plain ADMM: 1452 iterations, Anderson-accelerated ADMM: 319
        rep = lm.solve_l1(self.grid_problem(), lm.AdmmParams(eps=1e-6))
        assert rep.converged
        assert rep.history[-1]["iteration"] <= 15

    def test_grid_tail_mcp_warm_start(self):
        # the MCP warm start is projected Newton, not ADMM: no linear tail
        # (plain ADMM took 391 iterations to 1e-4, accelerated ADMM 134)
        rep = lm.solve_mcp(self.grid_problem(), lm.DcaParams(max_outer=0))
        assert rep.warm_start["termination"] == "converged"
        assert rep.warm_start["iterations"] == 0
        assert rep.warm_start["steps"] <= 10

    def test_badly_scaled_covariance_tail(self):
        # plain ADMM takes 9773 iterations on S x 1e3
        base, _, _ = make_problem(n=10, p=0.4, seed=0, k=5000 * 10)
        problem = lm.ProblemData(1e3 * base.S, base.prior, lm.PenaltyParams(0.05, 1.5))
        rep = lm.solve_l1(problem, lm.AdmmParams(eps=1e-8))
        assert rep.converged
        assert rep.history[-1]["iteration"] <= 15


class TestWarmStart:
    def test_admm_state_not_serialized(self):
        # a report carries no solver state: its JSON round trip is exact
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        for report in (lm.solve_l1(problem), lm.solve_mcp(problem)):
            assert not hasattr(report, "admm_state")
            d = report.to_dict()
            assert "admm_state" not in d
            back = lm.SolveReport.from_dict(json.loads(json.dumps(d)))
            assert back.to_dict() == json.loads(json.dumps(d))
