import json

import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp import dca, ssn
from laplace_mcp import problem as problem_module
from laplace_mcp.dca import descent_check, solve_mcp
from laplace_mcp.penalty import dc_smooth_grad_matrix
from laplace_mcp.ssn import SubproblemContext, check_stop_condition, subproblem_error_vector

from util import make_problem, scan_then_golden, stationarity_oracle


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
        # caps only shorten the run (the defaults end the same way in ~7 s,
        # most of it in the ADMM warm start)
        runs = []
        real = dca.ssn_solve

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(dca, "ssn_solve", spy)
        monkeypatch.setattr(ssn, "_MAX_CG", 50)
        problem, _, _ = make_problem(n=12, p=0.3, seed=0, lam=1e6)
        params = lm.DcaParams(admm_max_iter=2000)
        with np.errstate(all="raise"):
            report = solve_mcp(problem, params)
        assert report.termination in ("converged", "max_outer", "certificate_failed")
        # a step that fails gives up after its one Newton run
        failed = report.termination == "certificate_failed"
        assert len(runs) == len(report.history) + failed
        if failed:
            assert runs[-1].status in ("max_iter", "linesearch_failed")

    def test_history_shape(self):
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.history
        for h in report.history:
            assert "ssn_status" not in h and "ssn_unconverged" not in h
            assert h["cert_retries"] == 0
            assert h["ssn_cg_steps"] >= h["ssn_iterations"]
        back = lm.SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        for key in ("ssn_cg_steps", "cert_checks"):
            assert [h[key] for h in back.history] == [h[key] for h in report.history]

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
        # tolerance: the certificate alone ends each step's single run
        calls = []
        real = dca.ssn_solve

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dca, "ssn_solve", spy)
        problem, _, _ = make_problem(n=10, p=0.3, seed=0, lam=0.1, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.termination == "converged"
        assert len(calls) == len(report.history)
        for h in report.history:
            assert h["cert_checks"] == h["ssn_iterations"] + 1

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
        for h, step in zip(report.history, report.trace):
            want = stationarity_oracle(step.w_next, problem, "cgl-mcp")
            assert h["stationarity"] == pytest.approx(want, rel=1e-8)
        assert report.stationarity == report.history[-1]["stationarity"] < 1e-3
        back = lm.SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back.stationarity == report.stationarity
        assert [h["stationarity"] for h in back.history] == [
            h["stationarity"] for h in report.history
        ]

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
        problem, _, _ = make_problem(n=10, p=0.4, seed=14, lam=0.05, k=5000 * 10)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-14, max_outer=2))
        assert report.termination == "max_outer"
        assert len(report.history) == 2

    def test_report_shape(self):
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.model == "cgl-mcp"
        assert report.warm_start is not None
        assert report.warm_start["termination"] == "converged"
        keys = ("f", "sigma", "dw_norm", "ssn_iterations", "ssn_cg_steps")
        for key in keys + ("cert_checks", "cert_retries", "r"):
            assert key in report.history[0]
        back = lm.SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert [h["ssn_cg_steps"] for h in back.history] == [
            h["ssn_cg_steps"] for h in report.history
        ]
        assert all(isinstance(h["ssn_cg_steps"], int) for h in back.history)
        assert report.config["eps"] == 1e-6
        assert np.isfinite(report.objective)

    def test_warm_start_tolerance_floor(self):
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = solve_mcp(problem, lm.DcaParams(eps=1e-6))
        assert report.warm_start["eps"] == 1e-4
        assert report.warm_start["wall_time_s"] <= report.wall_time_s
        assert report.warm_start["sigma"] > 0


class TestDcaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lm.DcaParams(eps=0.0)
        with pytest.raises(TypeError):
            lm.DcaParams(sigma0=0.5)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_admm_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="admm_max_iter"):
            lm.DcaParams(admm_max_iter=cap)

    def test_negative_outer_cap_rejected(self):
        with pytest.raises(ValueError, match="max_outer"):
            lm.DcaParams(max_outer=-1)
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = lm.solve_mcp(problem, lm.DcaParams(max_outer=0))
        assert report.termination == "max_outer"
        assert report.history == []
