import json
import tracemalloc

import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp import dca, newton, ssn, sweep
from laplace_mcp import problem as problem_module
from laplace_mcp.dca import descent_check, solve_mcp
from laplace_mcp.penalty import dc_smooth_grad_matrix
from laplace_mcp.ssn import SubproblemContext, check_stop_condition, subproblem_error_vector

from util import (
    incidence_matrix,
    lbfgsb_min,
    make_problem,
    mcp_objective,
    scan_then_golden,
    stationarity_oracle,
)


WARM_START_KEYS = {"termination", "iterations", "steps", "cg_steps", "decrement", "wall_time_s"}
HISTORY_KEYS = {
    "k", "f", "f_prev", "sigma", "dw_norm", "ssn_iterations", "ssn_cg_steps",
    "cert_retries", "delta_norm", "r", "bound", "stationarity", "split_exact", "polish_steps",
    "polish_cg_steps", "polish_refused", "polish_f", "polish_dw_norm",
    "polish_stationarity",
}


@pytest.fixture
def pcg_calls(monkeypatch):
    """The CG steps of each ``newton._pcg`` call, in call order."""
    steps = []

    def pcg(*args):
        x, k = ssn._pcg(*args)
        steps.append(k)
        return x, k

    monkeypatch.setattr(newton, "_pcg", pcg)
    return steps


def cost_matrix(w, problem):
    return SubproblemContext(problem, 1.0, w).cost_matrix


class TestCostMatrix:
    def test_zero_iterate(self):
        problem, _, _ = make_problem(n=6, seed=0, lam=0.2)
        G = cost_matrix(np.zeros(problem.m), problem)
        np.testing.assert_allclose(G, problem.S + 0.2 * np.eye(6), atol=1e-14)

    def test_vanishing_penalty(self):
        problem, gw, _ = make_problem(n=6, seed=1, lam=0.0)
        G = cost_matrix(np.asarray(gw.weights), problem)
        np.testing.assert_allclose(G, problem.S, atol=1e-14)

    def test_entrywise_bound(self):
        problem, gw, _ = make_problem(n=8, seed=2, lam=0.3)
        G = cost_matrix(np.asarray(gw.weights), problem)
        diff = G - problem.S - 0.3 * np.eye(8)
        assert np.abs(diff).max() <= 0.3 + 1e-14

    def test_rejects_negative_iterate(self):
        problem, _, _ = make_problem(n=5, seed=3)
        w = np.ones(problem.m)
        w[1] = -1e-12
        with pytest.raises(ValueError, match="w_ref must be non-negative"):
            SubproblemContext(problem, 1.0, w)

    def test_derived_from_iterate_bitwise(self):
        # the context derives A* w and S + lam I - grad_h(A* w) from w alone
        problem, gw, _ = make_problem(n=8, seed=2, lam=0.3)
        w = np.asarray(gw.weights)
        ctx = SubproblemContext(problem, 0.5, w)
        theta = problem.astar(w)
        cost = problem.shifted_S - dc_smooth_grad_matrix(theta, problem.params)
        assert ctx.theta_ref.tobytes() == theta.tobytes()
        assert ctx.cost_matrix.tobytes() == cost.tobytes()
        assert ctx.w_ref.tobytes() == w.tobytes() and ctx.sigma == 0.5


class TestDescentCheck:
    def test_no_move(self):
        assert descent_check(1.0, 1.0, 1.0, 0.0)

    def test_constructed_violation(self):
        assert not descent_check(1.0, 1.0, 1.0, 0.5)
        assert descent_check(1.0, 1.0 - 0.25 * 0.25, 1.0, 0.5)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            descent_check(1.0, 0.0, 0.0, 0.1)


class TestSolveMcp:
    def test_er20_recovers_truth(self):
        problem, gw, L = make_problem(n=20, p=0.3, seed=4, lam=0.05, k=5000 * 20)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.termination == "converged"
        fs = [h["f"] for h in report.history]
        assert all(fs[i + 1] <= fs[i] + 1e-9 for i in range(len(fs) - 1))
        est = lm.detected_edges(report.w, problem.prior.edges)
        assert lm.f1_score(est, gw.edges) == 1.0
        assert lm.recovery_error(report.theta(), L) < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_critical_point_matches_lbfgsb(self, seed):
        # independent oracle: L-BFGS-B on the MCP objective from an l1
        # solution by ADMM, a start the solve itself never sees, reaches the
        # same critical point
        problem, _, _ = make_problem(n=12, p=0.3, seed=seed, lam=0.05, k=60000)
        eps = 1e-8
        report = solve_mcp(problem, lm.DcaParams(eps=eps))
        assert report.converged
        assert stationarity_oracle(report.w, problem, "cgl-mcp") < 2 * eps
        start = lm.solve_l1(problem, lm.AdmmParams(eps=1e-4)).w
        ref = lbfgsb_min(lambda w: mcp_objective(w, problem), start)
        assert np.linalg.norm(report.w - ref.x) <= 1e-5 * np.linalg.norm(ref.x)
        assert report.objective == pytest.approx(ref.fun, rel=1e-12)

    def test_cg_steps_count_newton_operator_applies(self, monkeypatch):
        # every CG step applies the Newton operator once, and nothing else in
        # the solve takes the prox directional derivative
        calls = []
        real = ssn.prox_logdet_dderiv

        def counted(cache, H):
            calls.append(1)
            return real(cache, H)

        monkeypatch.setattr(ssn, "prox_logdet_dderiv", counted)
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, lam=0.05, k=60000)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-8))
        cg_steps = sum(h["ssn_cg_steps"] for h in report.history)
        assert cg_steps > 0
        assert len(calls) == cg_steps

    def test_descent_property_every_iteration(self):
        problem, _, _ = make_problem(n=15, p=0.3, seed=5, lam=0.05, k=5000 * 15)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        f_prev = None
        for h in report.history:
            if f_prev is not None:
                assert descent_check(f_prev, h["f"], h["sigma"], h["dw_norm"])
            f_prev = h["f"]

    def test_sigma_schedule(self):
        problem, _, _ = make_problem(n=10, p=0.4, seed=6, lam=0.05, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-8))
        sigmas = [h["sigma"] for h in report.history]
        assert sigmas[0] == dca._SIGMA0 == 1.0
        for a, b in zip(sigmas, sigmas[1:]):
            assert b == pytest.approx(max(a * 0.8, 1e-4), rel=1e-12)

    def test_lambda_zero_fixed_point(self):
        # with no penalty the warm start already solves the model, so the loop
        # terminates after a few objective-stationary iterations
        problem, _, _ = make_problem(n=10, p=0.4, seed=7, lam=0.0, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.termination == "converged"
        assert len(report.history) <= 5

    def test_deterministic(self):
        problem, _, _ = make_problem(n=10, p=0.4, seed=8, lam=0.05, k=5000 * 10)
        r1 = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        r2 = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert len(r1.history) == len(r2.history)
        np.testing.assert_allclose(r1.w, r2.w, atol=1e-12)
        for h1, h2 in zip(r1.history, r2.history):
            assert h1["ssn_iterations"] == h2["ssn_iterations"]
            assert abs(h1["f"] - h2["f"]) <= 1e-12 * max(1.0, abs(h1["f"]))

    def test_feasible_iterates(self):
        problem, _, _ = make_problem(n=8, p=0.5, seed=9, lam=0.1, k=5000 * 8)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6), keep_trace=True)
        for step in report.trace:
            assert np.all(step.w_next >= 0.0)
            vals = np.linalg.eigvalsh(problem.astar(step.w_next) + problem.J)
            assert vals[0] > 0.0

    def test_certificate_sound_on_trace(self):
        # recompute the error vector for every accepted step and re-verify the
        # acceptance rule and the certificate inequality chain
        problem, _, _ = make_problem(n=12, p=0.35, seed=10, lam=0.05, k=5000 * 12)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6), keep_trace=True)
        assert report.trace
        for step in report.trace:
            ctx = SubproblemContext(problem, step.sigma, step.w_prev)
            cert = subproblem_error_vector(step.w_next, step.E, ctx)
            assert cert.r < 1.0
            assert cert.delta_norm <= cert.bound
            assert check_stop_condition(cert.delta, step.w_next, ctx)

    def test_disconnected_prior_rejected(self):
        g = lm.EdgeGraph(4, [(0, 1), (2, 3)], weights=[1.0, 1.0])
        S = np.eye(4)
        problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(0.1, 1.5))
        with pytest.raises(ValueError, match="connectivity prior is disconnected"):
            solve_mcp(problem)

    def test_connectivity_checked_once_per_instance(self, monkeypatch):
        # the solve and its l1 warm start share one connectivity verdict
        calls = []
        real = problem_module.is_connected

        def spy(graph):
            calls.append(1)
            return real(graph)

        monkeypatch.setattr(problem_module, "is_connected", spy)
        problem, _, _ = make_problem(n=6, p=0.5, seed=3, lam=0.05)
        solve_mcp(problem, lm.DcaParams(eps=1e-4))
        solve_mcp(problem, lm.DcaParams(eps=1e-4))
        assert len(calls) == 1

    def test_degenerate_covariance_rejected(self):
        # a duplicated data column makes S_44 + S_55 - 2 S_45 exactly zero
        X = np.random.default_rng(0).standard_normal((400, 6))
        X[:, 5] = X[:, 4]
        X -= X.mean(axis=0)
        S = X.T @ X / X.shape[0]
        g = lm.EdgeGraph(6, np.column_stack(np.triu_indices(6, 1)))
        problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(0.05, 1.5))
        with pytest.raises(ValueError, match=r"degenerate covariance.*\(4, 5\)"):
            solve_mcp(problem)

    def test_one_edge_matches_golden_section(self):
        # full pipeline against exhaustive scalar minimization of the objective
        g = lm.EdgeGraph(2, [(0, 1)], weights=[1.0])
        L = g.laplacian()
        S = lm.population_covariance(L)
        problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(0.1, 1.5))
        report = solve_mcp(problem, lm.DcaParams(eps=1e-12))
        oracle = scan_then_golden(
            lambda w: lm.objective_value(np.array([w]), problem), 1e-4, 10.0
        )
        assert abs(report.w[0] - oracle) < 1e-6

    def test_certificate_failure_reported(self, monkeypatch):
        # a crippled subsolver cannot produce a usable certificate
        monkeypatch.setattr(ssn, "_MAX_NEWTON", 0)
        problem, _, _ = make_problem(n=8, p=0.5, seed=13, lam=0.05, k=5000 * 8)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-10))
        assert report.termination == "certificate_failed"
        assert not report.converged

    def test_huge_lambda_ends_with_named_status(self, monkeypatch):
        # near the dual optimum (K + Y)/sigma cancels, so an asymmetric Newton
        # direction used to fail the symmetry check of the eigensolver; the
        # CG cap only shortens the run (the defaults end the same way, most
        # of the time in Newton runs at their caps; the warm start takes 3
        # projected-Newton steps)
        runs = []
        real = dca.ssn_solve

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(dca, "ssn_solve", spy)
        monkeypatch.setattr(ssn, "_MAX_CG", 50)
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, lam=1e6)
        with np.errstate(all="raise"):
            report = solve_mcp(problem)
        assert report.termination in ("converged", "max_outer", "certificate_failed")
        # a step that fails gives up after its one Newton run
        failed = report.termination == "certificate_failed"
        assert len(runs) == len(report.history) + failed
        if failed:
            assert runs[-1].status in ("max_iter", "linesearch_failed")

    def test_lambda_beyond_pivot_floor_rejected(self):
        # at lam = 1e12 the best constant weights (2.75e-13) already put a
        # pivot of A* w + J below the objective's 1e-12 floor: the warm start
        # has nowhere finite to start from
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, lam=1e12)
        with pytest.raises(ValueError, match=r"lambda = 1e\+12 .* 1e-12 pivot floor"):
            solve_mcp(problem)

    def test_history_shape(self):
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.history
        for h in report.history:
            assert set(h) == HISTORY_KEYS
            assert h["cert_retries"] == 0
            assert h["ssn_cg_steps"] >= h["ssn_iterations"]
            if h["polish_steps"] == 0:
                assert h["polish_f"] == h["f"]
                assert h["polish_dw_norm"] == h["dw_norm"]
                assert h["polish_stationarity"] == h["stationarity"]
        # the next step starts from the polished point
        for h, h_next in zip(report.history, report.history[1:]):
            assert h_next["f_prev"] == h["polish_f"]
        # converged means the residual of the final weights is below eps
        assert report.termination == "converged"
        assert all(h["polish_stationarity"] >= 1e-6 for h in report.history[:-1])
        assert report.stationarity == report.history[-1]["polish_stationarity"] < 1e-6
        assert report.objective == report.history[-1]["polish_f"]
        back = lm.SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back.history == report.history

    def test_certified_steps_recomputed(self):
        # every step's certificate, recomputed from the trace alone, matches
        # the history and passes the rule with r < 1
        problem, _, _ = make_problem(n=10, p=0.4, seed=6, lam=0.05, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6), keep_trace=True)
        assert len(report.trace) == len(report.history) > 0
        for h, step in zip(report.history, report.trace):
            ctx = SubproblemContext(problem, step.sigma, step.w_prev)
            cert = subproblem_error_vector(step.w_next, step.E, ctx)
            assert cert.r < 1.0
            assert check_stop_condition(cert.delta, step.w_next, ctx)
            assert cert.delta_norm == pytest.approx(h["delta_norm"], rel=1e-12)
            assert cert.r == pytest.approx(h["r"], rel=1e-12)
            assert h["f"] == lm.objective_value(step.w_next, problem)

    def test_one_newton_run_per_step(self, monkeypatch):
        # an instance whose steps once needed Newton runs past a gradient
        # tolerance: the certificate alone ends each step's single run, and
        # the step's acceptance test runs once per Newton point
        runs = []
        real = dca.ssn_solve

        def spy(ctx, Y0, accept):
            checks = []
            res = real(ctx, Y0, lambda point: checks.append(point) or accept(point))
            runs.append((len(checks), res.iterations))
            return res

        monkeypatch.setattr(dca, "ssn_solve", spy)
        problem, _, _ = make_problem(n=10, p=0.3, seed=0, lam=0.1, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.termination == "converged"
        assert runs == [(h["ssn_iterations"] + 1, h["ssn_iterations"]) for h in report.history]

    def test_newton_runs_start_at_the_last_prox_argument(self, monkeypatch):
        # run k >= 1 starts at Y = Z - K_k, where Z = K_{k-1} + Y_{k-1} is the
        # prox argument at which run k - 1 ended; the first run starts at 0
        runs = []
        real = dca.ssn_solve

        def spy(ctx, Y0, accept):
            res = real(ctx, Y0, accept)
            runs.append((ctx.cost_matrix.copy(), None if Y0 is None else Y0.copy(), res.Y))
            return res

        monkeypatch.setattr(dca, "ssn_solve", spy)
        # at lam = 0.5 weights below gamma lam sit where the MCP bends, so the
        # cost matrix moves from step to step
        problem, _, _ = make_problem(n=10, p=0.4, seed=6, lam=0.5, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert len(runs) == len(report.history) > 2
        assert runs[0][1] is None
        assert np.abs(runs[1][0] - runs[0][0]).max() > 1e-2
        for (K_prev, _, Y_prev), (K, Y0, _) in zip(runs, runs[1:]):
            Z = K_prev + Y_prev
            np.testing.assert_allclose(Y0 + K, Z, rtol=0, atol=1e-14 * np.abs(Z).max())

    def test_stationarity_recorded(self):
        problem, _, _ = make_problem(n=10, p=0.4, seed=6, lam=0.05, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6), keep_trace=True)
        # each step's subproblem is centred at the polished weights of the
        # step before; the last step's polished weights are the output
        polished = [step.w_prev for step in report.trace[1:]] + [report.w]
        assert any(h["polish_steps"] > 0 for h in report.history)
        for h, step, w_polish in zip(report.history, report.trace, polished):
            want = stationarity_oracle(step.w_next, problem, "cgl-mcp")
            assert h["stationarity"] == pytest.approx(want, rel=1e-8)
            want = stationarity_oracle(w_polish, problem, "cgl-mcp")
            assert h["polish_stationarity"] == pytest.approx(want, rel=1e-8)
        assert report.stationarity == report.history[-1]["polish_stationarity"] < 1e-6
        back = lm.SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back.stationarity == report.stationarity
        for key in ("stationarity", "polish_stationarity"):
            assert [h[key] for h in back.history] == [h[key] for h in report.history]

    def test_node_permutation_equivariance(self):
        # a coarse prior leaves half the candidate edges at zero weight, so the
        # Newton steps see partial Clarke masks
        base, gw, _ = make_problem(n=12, p=0.35, seed=16, lam=0.05, k=5000 * 12)
        prior = lm.perturb_connectivity(lm.true_prior(gw), "coarse", seed=18, factor=2.0)
        problem = lm.ProblemData(base.S, prior, base.params)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-8))
        assert 0 < np.count_nonzero(report.w) < problem.m
        perm = np.random.default_rng(17).permutation(12)
        inv = np.argsort(perm)
        # node i of the permuted instance is node perm[i] of the original
        S_perm = problem.S[np.ix_(perm, perm)]
        edges = inv[problem.prior.edges]
        edges.sort(axis=1)
        prior_perm = lm.EdgeGraph(12, edges)
        permuted = lm.ProblemData(S_perm, prior_perm, problem.params)
        report_perm = solve_mcp(permuted, lm.DcaParams(eps=1e-8))
        assert report.termination == report_perm.termination == "converged"
        w_perm = dict(zip(map(tuple, prior_perm.edges.tolist()), report_perm.w))
        mapped = np.array([w_perm[tuple(e)] for e in edges.tolist()])
        np.testing.assert_allclose(mapped, report.w, rtol=0, atol=1e-6 * np.abs(report.w).max())

    def test_outer_cap_reported(self):
        # at lam = 0.3 both steps end above the polish thresholds (residuals
        # 0.52 and 0.40), so no polish reaches eps before the cap; at
        # lam = 0.05 the second step is polished to 1e-16
        problem, _, _ = make_problem(n=10, p=0.4, seed=14, lam=0.3, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-14, max_outer=2))
        assert report.termination == "max_outer"
        assert len(report.history) == 2

    def test_report_shape(self):
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.model == "cgl-mcp"
        assert set(report.warm_start) == WARM_START_KEYS
        assert report.warm_start["termination"] == "converged"
        assert report.warm_start["iterations"] == 0
        assert report.warm_start["wall_time_s"] <= report.wall_time_s
        keys = ("f", "sigma", "dw_norm", "ssn_iterations", "ssn_cg_steps")
        for key in keys + ("cert_retries", "r"):
            assert key in report.history[0]
        back = lm.SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert [h["ssn_cg_steps"] for h in back.history] == [
            h["ssn_cg_steps"] for h in report.history
        ]
        assert all(isinstance(h["ssn_cg_steps"], int) for h in back.history)
        assert report.config["eps"] == 1e-6
        assert np.isfinite(report.objective)


def scaled_problem(prior, c, seed=0):
    """The n=12 instance with S and lam multiplied by c, on the true or the
    full prior; its weights scale by 1/c."""
    base, gw, _ = make_problem(n=12, p=0.3, seed=seed, lam=0.05, k=60000)
    graph = lm.true_prior(gw)
    if prior == "full":
        graph = lm.perturb_connectivity(graph, "full")
    return lm.ProblemData(c * base.S, graph, lm.PenaltyParams(c * 0.05, 1.5))


class TestWarmStart:
    @pytest.mark.parametrize("prior", ["true", "full"])
    def test_scale_invariance(self, prior):
        # (S, lam, w) -> (c S, c lam, w / c) scales the gradient by c and the
        # Hessian and its Jacobi diagonal by c^2, so the Newton decrement and
        # the Jacobi-preconditioned CG iterates carry over; only the CG
        # target 1e-2 min(1, sqrt(||g||)) ||g|| depends on the units of g,
        # which moves where CG stops
        ref = solve_mcp(scaled_problem(prior, 1.0), lm.DcaParams(max_outer=0))
        assert ref.warm_start["termination"] == "converged"
        for c in (1e-6, 1e-3, 1e3):
            report = solve_mcp(scaled_problem(prior, c), lm.DcaParams(max_outer=0))
            assert report.warm_start["termination"] == "converged"
            assert report.warm_start["steps"] == ref.warm_start["steps"]
            assert np.linalg.norm(c * report.w - ref.w) <= 1e-3 * np.linalg.norm(ref.w)

    @pytest.mark.parametrize("prior", ["true", "full"])
    def test_objective_descends_to_the_l1_minimum(self, prior, monkeypatch):
        problem = scaled_problem(prior, 1.0)
        values = []
        for cap in range(dca._WARM_STEPS + 1):
            monkeypatch.setattr(dca, "_WARM_STEPS", cap)
            w, warm = dca._warm_start(problem)
            assert warm["steps"] <= cap
            values.append(lm.objective_value(w, problem, "cgl-l1"))
            if warm["termination"] == "converged":
                break
        # at its cap the warm start stops before computing a direction, so it
        # converges one cap after its last step
        assert warm["termination"] == "converged" and warm["steps"] == cap - 1 > 0
        assert all(b <= a for a, b in zip(values, values[1:]))
        best = lm.solve_l1(problem, lm.AdmmParams(eps=1e-8)).objective
        assert abs(values[-1] - best) < 1e-4

    def test_cap_hands_over_the_last_iterate(self, monkeypatch):
        problem = scaled_problem("full", 1.0)
        monkeypatch.setattr(dca, "_WARM_STEPS", 2)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.warm_start["termination"] == "max_iter"
        assert report.warm_start["steps"] == 2
        assert report.warm_start["decrement"] >= dca._WARM_DECREMENT
        assert report.converged

    def test_cap_computes_no_direction_it_cannot_take(self, monkeypatch, pcg_calls):
        monkeypatch.setattr(dca, "_WARM_STEPS", 2)
        _, warm = dca._warm_start(scaled_problem("full", 1.0))
        assert warm["termination"] == "max_iter" and warm["steps"] == 2
        assert len(pcg_calls) == 2 and sum(pcg_calls) == warm["cg_steps"]

    def test_scaled_full_prior_converges(self):
        # S x 1e3 and lam x 1e3 on the full prior: from the ADMM warm start
        # the first Newton run found no certificate, and the solve ended
        # "certificate_failed" after 0 outer steps. At this scale eps asks
        # the polish for decreases near the rounding of f, so the steps after
        # the first are not pinned here
        eps = 1e-6
        problem = scaled_problem("full", 1e3)
        report = solve_mcp(problem, lm.DcaParams(eps=eps))
        assert report.termination == "converged"
        assert stationarity_oracle(report.w, problem, "cgl-mcp") < 2 * eps

    def test_steps_below_the_rounding_of_f_converge(self):
        # on seed 1 at this scale the polish's predicted decreases fall below
        # the rounding of f (about 75): the Armijo test alone let 6 polish
        # steps stall at residual 1.5e-5 and the next Newton run found no
        # certificate. There a step is taken where it lowers the residual
        eps = 1e-6
        problem = scaled_problem("full", 1e3, seed=1)
        report = solve_mcp(problem, lm.DcaParams(eps=eps))
        assert report.termination == "converged"
        assert report.stationarity < eps
        assert stationarity_oracle(report.w, problem, "cgl-mcp") < 2 * eps


def full_prior_problem(n, lam, seed=3):
    """An ER instance on the full prior, with the true weights (zero off the
    true graph) as a start whose objective is finite."""
    base, gw, _ = make_problem(n=n, p=0.3, seed=seed, lam=lam, k=5000 * n)
    prior = lm.perturb_connectivity(lm.true_prior(gw), "full")
    problem = lm.ProblemData(base.S, prior, base.params)
    index = {e: i for i, e in enumerate(map(tuple, problem.prior.edges.tolist()))}
    w = np.zeros(problem.m)
    for e, x in zip(map(tuple, gw.edges.tolist()), gw.weights):
        w[index[e]] = x
    return problem, w


class TestPolish:
    @pytest.mark.parametrize("n, seed", [(6, 0), (9, 1), (12, 2)])
    def test_hessian_apply_matches_dense(self, n, seed):
        # B_F^T R B_F o B_F^T R B_F, minus 2/gamma on the concave diagonal,
        # on the free edges whose diagonal entry is positive; the weights are
        # scaled so that the kept edges hold concave and convex ones, and some
        # free edges are dropped
        problem, w0 = full_prior_problem(n, 0.5, seed)
        rng = np.random.default_rng(seed)
        w = np.where(
            rng.random(problem.m) < 0.3, 0.0, 0.35 * (w0 + rng.uniform(0, 1.5, problem.m))
        )
        R = np.linalg.inv(problem.astar(w) + problem.J)
        g = lm.penalty.objective_gradient(w, problem, "cgl-mcp", R)
        free = (w > 0) | (g < 0)
        assert 0 < free.sum() < problem.m
        B = incidence_matrix(problem.prior).toarray()[:, free]
        P = B.T @ R @ B
        concave = w[free] < problem.params.gamma * problem.params.lam
        H = P * P - np.diag((2.0 / problem.params.gamma) * concave)
        kept, diag, apply = newton._reduced_hessian(w, R, free, problem)
        assert np.array_equal(kept[free], np.diag(H) > 0)
        assert not kept[~free].any()
        keep = kept[free]
        assert 0 < concave[keep].sum() < keep.sum() < free.sum()
        H = H[np.ix_(keep, keep)]
        np.testing.assert_allclose(diag, np.diag(H), rtol=1e-12, atol=0)
        for _ in range(3):
            v = rng.standard_normal(keep.sum())
            want = H @ v
            assert np.linalg.norm(apply(v) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("n, seed", [(6, 0), (9, 1), (12, 2)])
    def test_l1_hessian_keeps_every_free_edge(self, n, seed):
        # the l1 objective has no concave term: its reduced Hessian is
        # P o P with P = B_F^T R B_F on all of F, so the warm start holds
        # no edge and pushes none
        problem, w0 = full_prior_problem(n, 0.5, seed)
        rng = np.random.default_rng(seed)
        w = np.where(rng.random(problem.m) < 0.3, 0.0, w0 + rng.uniform(0, 1.5, problem.m))
        R = np.linalg.inv(problem.astar(w) + problem.J)
        g = lm.penalty.objective_gradient(w, problem, "cgl-l1", R)
        free = (w > 0) | (g < 0)
        assert 0 < free.sum() < problem.m
        B = incidence_matrix(problem.prior).toarray()[:, free]
        P = B.T @ R @ B
        H = P * P
        kept, diag, apply = newton._reduced_hessian(w, R, free, problem, "cgl-l1")
        assert np.array_equal(kept, free)
        np.testing.assert_allclose(diag, np.diag(H), rtol=1e-12, atol=0)
        for _ in range(3):
            v = rng.standard_normal(free.sum())
            want = H @ v
            assert np.linalg.norm(apply(v) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("lam, shift", [(0.0, 0.0), (0.1, 0.0), (0.5, 0.5)])
    def test_steps_never_raise_f(self, monkeypatch, lam, shift):
        # at lam = 0.5 the start w + 0.5 takes all six steps; the second
        # pushes two concave-zone edges with a nonpositive diagonal to 0
        problem, w = full_prior_problem(10, lam)
        w = np.where(w > 0, w + shift, 0.0)
        f = lm.objective_value(w, problem)
        values = [f]
        for cap in range(1, dca._POLISH_STEPS + 1):
            monkeypatch.setattr(dca, "_POLISH_STEPS", cap)
            out = dca._polish(w, f, problem, 1e-12)
            assert out.f == lm.objective_value(out.w, problem)
            assert np.all(out.w >= 0)
            values.append(out.f)
            if out.steps < cap:
                break
        assert len(values) > 2
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_single_edge_refuses_on_nonpositive_curvature(self, monkeypatch):
        # one edge on two nodes: b^T R b = 1/w, so inside the concave zone
        # w < gamma lam the second derivative is 1/w^2 - 2/gamma, which
        # changes sign at w = sqrt(gamma/2), about 0.866 at gamma = 1.5
        g = lm.EdgeGraph(2, [(0, 1)], weights=[1.0])
        S = lm.population_covariance(g.laplacian())
        problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(1.0, 1.5))
        monkeypatch.setattr(dca, "_POLISH_STEPS", 1)
        for w0 in (0.3, 0.6, 0.85, 0.87, 1.0, 1.4):
            w = np.array([w0])
            R = np.linalg.inv(problem.astar(w) + problem.J)
            kept, diag, _ = newton._reduced_hessian(w, R, np.array([True]), problem)
            curvature = 1.0 / w0**2 - 2.0 / 1.5
            assert kept[0] == (curvature > 0)
            assert diag == pytest.approx(np.array([curvature])[kept], rel=1e-12)
            out = dca._polish(w, lm.objective_value(w, problem), problem, 1e-12)
            assert out.refused == (curvature <= 0)
            assert out.steps == (curvature > 0)

    def test_cap_computes_no_direction_it_cannot_take(self, monkeypatch, pcg_calls):
        problem, w = full_prior_problem(10, 0.5)
        w = np.where(w > 0, w + 0.5, 0.0)
        monkeypatch.setattr(dca, "_POLISH_STEPS", 1)
        out = dca._polish(w, lm.objective_value(w, problem), problem, 1e-12)
        assert out.termination == "max_iter" and out.steps == 1
        assert len(pcg_calls) == 1 and sum(pcg_calls) == out.cg_steps

    def test_memory_stays_linear_in_the_edges(self):
        # a dense |F| x |F| Hessian on the n=40 full prior (m=780) would take
        # m^2 = 608400 words; the matrix-free polish needs O(n^2 + m)
        problem, w = full_prior_problem(40, 0.0)
        f = lm.objective_value(w, problem)
        dca._polish(w, f, problem, 1e-12)
        tracemalloc.start()
        try:
            out = dca._polish(w, f, problem, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.steps > 0
        assert peak <= 16 * 8 * (problem.n**2 + problem.m)

    def test_nonpositive_curvature_edge_pushed_down(self, monkeypatch):
        # a triangle whose light edge (0, 1) sits in the concave zone
        # w < gamma lam = 1.5 parallel to a heavy path, so its effective
        # resistance is small and its diagonal entry is <= 0; the other two
        # edges, outside the zone, have positive diagonals. The objective is
        # concave along the light edge and rises with it, so the polish pushes
        # it toward 0 while Newton moves the other two
        g = lm.EdgeGraph(3, [(0, 1), (0, 2), (1, 2)], weights=[1.0, 1.0, 1.0])
        S = lm.population_covariance(g.laplacian())
        problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(1.0, 1.5))
        w = np.array([0.1, 5.0, 5.0])
        R = np.linalg.inv(problem.astar(w) + problem.J)
        kept, diag, _ = newton._reduced_hessian(w, R, np.ones(3, dtype=bool), problem)
        assert kept.tolist() == [False, True, True]
        assert diag.min() > 0
        assert lm.penalty.objective_gradient(w, problem, "cgl-mcp", R)[0] > 0
        monkeypatch.setattr(dca, "_POLISH_STEPS", 1)
        f = lm.objective_value(w, problem)
        out = dca._polish(w, f, problem, 1e-12)
        assert out.steps == 1 and not out.refused
        assert 0 <= out.w[0] < w[0]
        assert np.all(out.w[1:] != w[1:])
        assert out.f < f

    def test_negative_curvature_on_the_first_cg_step(self, monkeypatch):
        # every edge is kept, but the first CG direction, the Jacobi-scaled
        # gradient g/diag, has p^T H p <= 0: the polish steps along -g/diag
        problem, _ = full_prior_problem(4, 0.5, 5)
        rng = np.random.default_rng(46)
        w = np.where(rng.random(problem.m) < 0.7, rng.uniform(0, 1, problem.m), 0.0)
        R = np.linalg.inv(problem.astar(w) + problem.J)
        g = lm.penalty.objective_gradient(w, problem, "cgl-mcp", R)
        kept, diag, hessian = newton._reduced_hessian(w, R, (w > 0) | (g < 0), problem)
        assert kept.all()
        p = g / diag
        assert p @ hessian(p) <= 0
        monkeypatch.setattr(dca, "_POLISH_STEPS", 1)
        f = lm.objective_value(w, problem)
        out = dca._polish(w, f, problem, 1e-12)
        assert out.steps == 1 and not out.refused
        assert out.f < f
        assert any(
            np.array_equal(out.w, np.maximum(w - 0.5**k * p, 0.0))
            for k in range(newton._BACKTRACKS)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_full_prior_solves_never_refuse(self, monkeypatch, seed):
        # on these instances concave-zone edges in transit to 0 have a
        # nonpositive diagonal; pushed down where the gradient is positive,
        # they leave the polish free to finish each solve on the residual
        eps = 1e-6
        rhs = []
        cg_steps = []

        def pcg(T, b, diag, target, max_steps):
            rhs.append(float(np.linalg.norm(b)))
            x, steps = ssn._pcg(T, b, diag, target, max_steps)
            cg_steps.append(steps)
            return x, steps

        monkeypatch.setattr(newton, "_pcg", pcg)
        problem, _ = full_prior_problem(12, 0.05, seed)
        report = solve_mcp(problem, lm.DcaParams(eps=eps), keep_trace=True)
        assert report.termination == "converged"
        assert report.stationarity < eps
        # a work count, not a timing: the first step leaves the warm start at
        # residual 0.09-0.11 and the second is polished to eps, so these
        # solves take 2-3 outer steps; polishing only below 1e-2 took 15-18
        assert len(report.history) <= 4
        assert sum(h["polish_steps"] for h in report.history) > 0
        assert not any(h["polish_refused"] for h in report.history)
        # the polish runs on every step with eps <= residual and either a
        # residual below _POLISH_START on the first step and below
        # _POLISH_HANDOVER after it, or, after the first, an exact split: no
        # accepted weight in the concave zone (0, gamma lam)
        gamma_lam = problem.params.gamma * problem.params.lam
        for h, step in zip(report.history, report.trace):
            w_next = step.w_next
            assert h["split_exact"] == (not ((0 < w_next) & (w_next < gamma_lam)).any())
            ran = h["polish_steps"] > 0
            start = dca._POLISH_HANDOVER if h["k"] else dca._POLISH_START
            handover = h["stationarity"] < start or (h["k"] >= 1 and h["split_exact"])
            assert ran == (eps <= h["stationarity"] and handover)
        # once the gradient on the kept edges is below 1e-2 eps, another
        # Newton step cannot help: the polish ends, or pushes held edges
        # without a CG call
        assert rhs and min(rhs) >= 1e-2 * eps
        # every CG step of the warm start and the polish is reported
        reported = report.warm_start["cg_steps"]
        assert sum(cg_steps) == reported + sum(h["polish_cg_steps"] for h in report.history)

    def test_negative_curvature_instance_converges(self, monkeypatch):
        # on this instance CG in the polish meets p^T H p <= 0 (the reduced
        # Hessian is indefinite although every kept diagonal is positive);
        # the polish steps along the CG iterate instead of refusing
        curvatures = []
        pcg = ssn._pcg

        def spy(T, b, diag, target, max_steps):
            def apply(v):
                Tv = T(v)
                curvatures.append(float(v @ Tv))
                return Tv

            return pcg(apply, b, diag, target, max_steps)

        monkeypatch.setattr(newton, "_pcg", spy)
        report = solve_mcp(full_prior_problem(12, 0.5, 2)[0], lm.DcaParams(eps=1e-6))
        assert min(curvatures) <= 0
        assert report.termination == "converged"
        assert report.stationarity < 1e-6
        assert not any(h["polish_refused"] for h in report.history)


class TestSplitHandover:
    @staticmethod
    def problem(lam, gamma, c=1.0):
        base, _, _ = make_problem(n=6, p=0.5, seed=0)
        return lm.ProblemData(c * base.S, base.prior, lm.PenaltyParams(c * lam, gamma / c**2))

    @pytest.mark.parametrize("c", [1e-3, 0.5, 1.0, 2.0])
    def test_concave_zone_weight_breaks_the_split(self, c):
        # under (S, lam, gamma) -> (c S, c lam, gamma / c^2) the weights go
        # to w / c and the plateau edge gamma lam to gamma lam / c
        lam, gamma = 0.2, 6.0
        problem = self.problem(lam, gamma, c)
        m, gamma_lam = problem.m, gamma * lam
        plateau = np.where(np.arange(m) % 2, 1.5 * gamma_lam, 0.0)
        assert dca._split_exact(plateau / c, problem)
        assert dca._split_exact(np.zeros(m), problem)
        inside = plateau.copy()
        inside[0] = 0.5 * gamma_lam
        assert not dca._split_exact(inside / c, problem)
        if c == 1.0:
            # the plateau starts at gamma lam itself
            inside[0] = gamma_lam
            assert dca._split_exact(inside, problem)

    def test_always_exact_at_zero_lambda(self):
        # lam = 0 makes the model convex, and h vanishes
        problem = self.problem(0.0, 1.5)
        rng = np.random.default_rng(0)
        assert dca._split_exact(rng.uniform(1e-12, 1e-6, problem.m), problem)

    @pytest.mark.parametrize("n", [20, 30, 40])
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_split_hands_over_early(self, monkeypatch, n, seed):
        # a work count, not a timing: these solves reach the plateau after a
        # step or two but stay above residual 1e-1, where the d.c. loop alone
        # took 3-6 outer steps; the hand-over reaches the same critical point
        cfg = sweep.SweepConfig(model="cgl-mcp", ensemble="er", n=n, scenario="true")
        inst = sweep.make_instance(cfg, seed)
        problem = lm.ProblemData(inst.S, inst.prior, lm.PenaltyParams(0.1, cfg.gamma))
        report = solve_mcp(problem, lm.DcaParams(eps=cfg.eps))
        assert report.termination == "converged"
        assert len(report.history) <= 3
        monkeypatch.setattr(dca, "_split_exact", lambda w, problem: False)
        plain = solve_mcp(problem, lm.DcaParams(eps=cfg.eps))
        assert plain.termination == "converged"
        assert report.objective == pytest.approx(plain.objective, rel=1e-9, abs=0)


class TestDcaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lm.DcaParams(eps=0.0)
        with pytest.raises(TypeError):
            lm.DcaParams(sigma0=0.5)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_admm_cap_below_one_rejected(self, cap):
        # the solve runs no ADMM, so an ADMM cap is no field at any value
        with pytest.raises(TypeError, match="admm_max_iter"):
            lm.DcaParams(admm_max_iter=cap)

    def test_negative_outer_cap_rejected(self):
        with pytest.raises(ValueError, match="max_outer"):
            lm.DcaParams(max_outer=-1)
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = lm.solve_mcp(problem, lm.DcaParams(max_outer=0))
        assert report.termination == "max_outer"
        assert report.history == []
