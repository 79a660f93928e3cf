import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laplace_mcp as lm
from laplace_mcp.penalty import dc_smooth_grad, dc_smooth_grad_matrix, mcp_value

from util import dc_smooth_value, make_problem, mcp_matrix_value

P15 = lm.PenaltyParams(1.0, 1.5)


class TestMcpScalar:
    def test_zero(self):
        assert mcp_value(0.0, P15) == 0.0

    def test_plateau_branch(self):
        # |x| > gamma*lam: value is the plateau gamma*lam^2/2
        assert mcp_value(2.0, P15) == pytest.approx(0.75, abs=1e-15)

    def test_quadratic_branch(self):
        assert mcp_value(1.0, P15) == pytest.approx(2.0 / 3.0, abs=1e-15)

    @given(st.floats(-100, 100))
    @settings(deadline=None, max_examples=100)
    def test_even_and_bounded(self, x):
        p = lm.PenaltyParams(0.7, 2.5)
        v = float(mcp_value(x, p))
        assert v == float(mcp_value(-x, p))
        assert 0.0 <= v <= 0.5 * p.gamma * p.lam**2 + 1e-15

    def test_nondecreasing_on_positives(self):
        xs = np.linspace(0, 5, 400)
        vals = mcp_value(xs, P15)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_continuous_at_kink(self):
        lo = mcp_value(1.5 - 1e-12, P15)
        hi = mcp_value(1.5 + 1e-12, P15)
        assert abs(lo - hi) < 1e-10


class TestSmoothPart:
    def test_grad_at_zero(self):
        assert dc_smooth_grad(0.0, P15) == 0.0

    def test_grad_branches(self):
        assert dc_smooth_grad(1.0, P15) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert dc_smooth_grad(-5.0, P15) == pytest.approx(-1.0, abs=1e-15)

    @given(st.floats(-50, 50))
    @settings(deadline=None, max_examples=100)
    def test_dc_identity_exact(self, x):
        # MCP + smooth part recovers lam|x| exactly on both branches
        p = lm.PenaltyParams(1.25, 1.75)
        total = float(mcp_value(x, p)) + float(dc_smooth_value(x, p))
        assert total == pytest.approx(p.lam * abs(x), abs=1e-12, rel=1e-12)

    def test_grad_matches_finite_difference(self):
        for x in (-2.0, -0.5, 0.5, 2.0):
            t = 1e-7
            fd = (dc_smooth_value(x + t, P15) - dc_smooth_value(x - t, P15)) / (
                2 * t
            )
            assert abs(fd - dc_smooth_grad(x, P15)) < 1e-6

    def test_grad_bounded_by_lam(self):
        xs = np.linspace(-10, 10, 1001)
        assert np.abs(dc_smooth_grad(xs, P15)).max() <= P15.lam

    def test_grad_lipschitz(self):
        # difference quotients bounded by 1/gamma
        rng = np.random.default_rng(0)
        xs = rng.uniform(-5, 5, 200)
        ys = rng.uniform(-5, 5, 200)
        quot = np.abs(dc_smooth_grad(xs, P15) - dc_smooth_grad(ys, P15)) / np.abs(
            xs - ys
        )
        assert quot.max() <= 1.0 / P15.gamma + 1e-12

    def test_smooth_part_midpoint_convex(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(-4, 4, 100), rng.uniform(-4, 4, 100)
        mid = dc_smooth_value(0.5 * (x + y), P15)
        avg = 0.5 * (dc_smooth_value(x, P15) + dc_smooth_value(y, P15))
        assert np.all(mid <= avg + 1e-12)


class TestMatrixGradient:
    def test_diagonal_input(self):
        assert np.all(dc_smooth_grad_matrix(np.diag([1.0, 2.0, 3.0]), P15) == 0.0)

    def test_path_example(self):
        g = lm.EdgeGraph(3, [(0, 1), (1, 2)])
        theta = lm.weights_to_laplacian([1.0, 1.0], g)
        G = dc_smooth_grad_matrix(theta, P15)
        assert G[0, 1] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert G[1, 2] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert np.all(np.diag(G) == 0.0)

    def test_zero_diagonal_and_symmetric(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 6))
        theta = 0.5 * (A + A.T)
        G = dc_smooth_grad_matrix(theta, P15)
        assert np.all(np.diag(G) == 0.0)
        assert np.allclose(G, G.T)
        assert np.abs(G).max() <= P15.lam

    def test_matrix_dc_identity(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 5))
        theta = 0.5 * (A + A.T)
        off_l1 = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
        h_val = float(
            dc_smooth_value(theta, P15).sum()
            - np.trace(dc_smooth_value(theta, P15))
        )
        assert mcp_matrix_value(theta, P15) + h_val == pytest.approx(
            P15.lam * off_l1, rel=1e-12
        )


class TestObjective:
    def test_two_node_hand_value(self):
        g = lm.EdgeGraph(2, [(0, 1)], weights=[1.0])
        S = np.array([[0.5, 0.1], [0.1, 0.5]])
        problem = lm.ProblemData(S, lm.true_prior(g), P15)
        w = np.array([1.0])
        theta = lm.weights_to_laplacian(w, g)
        # Theta + J = [[1.5, -0.5], [-0.5, 1.5]] has determinant 2
        expected = -np.log(2.0) + np.vdot(S, theta) + 2 * float(mcp_value(1.0, P15))
        assert lm.objective_value(w, problem) == pytest.approx(expected, rel=1e-12)

    def test_matches_matrix_route(self):
        problem, gw, _ = make_problem(n=8, seed=4, lam=0.3, gamma=2.0, k=2000)
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.uniform(0.05, 2.0, problem.m)
            theta = problem.astar(w)
            sign, logdet = np.linalg.slogdet(theta + problem.J)
            direct = (
                -logdet
                + np.vdot(problem.S, theta)
                + mcp_matrix_value(theta, problem.params)
            )
            assert lm.objective_value(w, problem) == pytest.approx(direct, rel=1e-10)

    def test_lambda_zero_is_pure_likelihood(self):
        problem, gw, _ = make_problem(n=6, seed=6, lam=0.0, gamma=1.5)
        w = np.asarray(gw.weights)
        theta = problem.astar(w)
        sign, logdet = np.linalg.slogdet(theta + problem.J)
        assert lm.objective_value(w, problem) == pytest.approx(
            -logdet + np.vdot(problem.S, theta), rel=1e-12
        )

    def test_penalty_plateau_bound(self):
        problem, _, _ = make_problem(n=7, seed=7, lam=0.4, gamma=1.5)
        rng = np.random.default_rng(8)
        lam, gamma = problem.params.lam, problem.params.gamma
        for _ in range(10):
            w = rng.uniform(0, 3, problem.m)
            pen = mcp_matrix_value(problem.astar(w), problem.params)
            assert 0.0 <= pen <= gamma * lam**2 * problem.m + 1e-12

    def test_infeasible_gives_inf(self):
        problem, _, _ = make_problem(n=5, seed=9)
        assert np.isinf(lm.objective_value(-np.ones(problem.m), problem))
        assert np.isinf(lm.objective_value(np.zeros(problem.m), problem))

    def test_disconnected_support_gives_inf(self):
        # Theta + J is singular when the support leaves node 2 alone
        g = lm.EdgeGraph(3, [(0, 1), (0, 2), (1, 2)])
        problem = lm.ProblemData(np.eye(3), g, P15)
        assert np.isinf(lm.objective_value(np.array([1.0, 0.0, 0.0]), problem))
        assert np.isfinite(lm.objective_value(np.array([1.0, 0.0, 1.0]), problem))

    @pytest.mark.parametrize("w", [1e-13, 2e-13, 3e-13, 4e-13, 6e-13, 1e-6])
    def test_cholesky_floor_on_one_edge(self, w):
        # one edge on two nodes: Theta + J has eigenvalues 2w and 1, and the
        # Cholesky pivots squared 1/2 + w and 2w/(1/2 + w); +inf comes from
        # the pivot floor 1e-12, so 3e-13 and 4e-13 are finite although their
        # smallest eigenvalue is below 1e-12 (the documented difference)
        g = lm.EdgeGraph(2, [(0, 1)])
        S = np.array([[0.5, 0.1], [0.1, 0.5]])
        problem = lm.ProblemData(S, g, P15)
        value = lm.objective_value(np.array([w]), problem)
        if 2 * w / (0.5 + w) < 1e-12:
            assert np.isinf(value)
        else:
            theta = lm.weights_to_laplacian(np.array([w]), g)
            expected = -np.log(2 * w) + np.vdot(S, theta) + 2 * float(mcp_value(w, P15))
            # the last pivot cancels to about 1e-16/(2w) relative
            assert value == pytest.approx(expected, abs=1e-3)


class TestPenaltyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lm.PenaltyParams(-0.1, 1.5)
        with pytest.raises(ValueError):
            lm.PenaltyParams(0.1, 1.0)
        lm.PenaltyParams(0.0, 1.5)
