import dataclasses

import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp import ssn
from laplace_mcp.dca import _StepTest
from laplace_mcp.ssn import (
    Certificate,
    CertificateError,
    SubproblemContext,
    dual_jacobian_apply,
    _dual_eval,
    _jacobi_diagonal,
    _newton_direction,
    recover_primal,
    ssn_solve,
    subproblem_error_vector,
)

from util import (
    IterateLog,
    check_stop_condition,
    dual_gradient,
    dual_value,
    golden_min,
    grad_below,
    lbfgsb_min,
    logdet_objective,
    random_context,
    random_symmetric,
    subproblem_primal_value,
)


def one_edge_context(sigma=0.8, w_ref=0.6, lam=0.1):
    """Single-edge subproblem with a closed-form optimum.

    With a = <A(K)> the objective reduces to the scalar problem
    -log(2w) + a w + (5 sigma / 2)(w - w_ref)^2 over w >= 0, whose positive
    stationary point solves 5 sigma w^2 + (a - 5 sigma w_ref) w - 1 = 0.
    """
    g = lm.EdgeGraph(2, [(0, 1)])
    S = np.array([[0.9, 0.15], [0.15, 1.1]])
    problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(lam, 1.5))
    w_ref_vec = np.array([w_ref])
    ctx = SubproblemContext(problem, sigma, w_ref_vec)
    K = ctx.cost_matrix
    a = float(problem.a(K)[0])
    b = a - 5 * sigma * w_ref
    w_star = (-b + np.sqrt(b * b + 20 * sigma)) / (10 * sigma)
    theta_star = problem.astar([w_star])
    Y_star = (
        np.linalg.inv(theta_star + problem.J)
        - K
        - sigma * problem.astar([w_star - w_ref])
    )
    return ctx, w_star, Y_star


class TestDualValue:
    def test_weak_duality(self):
        ctx, _ = random_context(n=6, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            Y = random_symmetric(6, rng)
            w_feas = np.abs(rng.standard_normal(ctx.problem.m)) + 0.05
            assert dual_value(Y, ctx) <= subproblem_primal_value(w_feas, ctx) + 1e-9

    def test_midpoint_concavity(self):
        ctx, _ = random_context(n=5, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            Y1 = random_symmetric(5, rng)
            Y2 = random_symmetric(5, rng)
            mid = dual_value(0.5 * (Y1 + Y2), ctx)
            avg = 0.5 * (dual_value(Y1, ctx) + dual_value(Y2, ctx))
            assert mid >= avg - 1e-10

    def test_strong_duality_on_scalar_instance(self):
        ctx, w_star, Y_star = one_edge_context()
        primal = subproblem_primal_value(np.array([w_star]), ctx)
        assert dual_value(Y_star, ctx) == pytest.approx(primal, rel=1e-10)


class TestDualGradient:
    def test_matches_finite_differences(self):
        ctx, _ = random_context(n=5, seed=4)
        rng = np.random.default_rng(5)
        Y = random_symmetric(5, rng)
        g = dual_gradient(Y, ctx)
        for _ in range(5):
            H = random_symmetric(5, rng)
            H /= np.linalg.norm(H)
            t = 1e-6
            fd = (dual_value(Y + t * H, ctx) - dual_value(Y - t * H, ctx)) / (2 * t)
            assert abs(fd - np.vdot(g, H)) < 1e-5 * max(1.0, abs(fd))

    def test_symmetric(self):
        ctx, _ = random_context(n=6, seed=6)
        Y = random_symmetric(6, np.random.default_rng(7))
        g = dual_gradient(Y, ctx)
        np.testing.assert_allclose(g, g.T, atol=1e-12)

    def test_zero_at_scalar_optimum(self):
        ctx, _, Y_star = one_edge_context()
        assert np.linalg.norm(dual_gradient(Y_star, ctx)) < 1e-10


class TestDualJacobian:
    def test_zero_direction(self):
        ctx, _ = random_context(n=5, seed=8)
        Y = random_symmetric(5, np.random.default_rng(9))
        mask = lm.clarke_diag(ctx.projection_point(Y))
        out = dual_jacobian_apply(Y, np.zeros((5, 5)), ctx, mask)
        assert np.all(out == 0.0)

    def test_self_adjoint(self):
        ctx, _ = random_context(n=6, seed=10)
        rng = np.random.default_rng(11)
        Y = random_symmetric(6, rng)
        mask = lm.clarke_diag(ctx.projection_point(Y))
        _, cache = lm.prox_logdet(ctx.base_point(Y), ctx.sigma)
        for _ in range(5):
            H1 = random_symmetric(6, rng)
            H2 = random_symmetric(6, rng)
            lhs = np.vdot(dual_jacobian_apply(Y, H1, ctx, mask, cache), H2)
            rhs = np.vdot(H1, dual_jacobian_apply(Y, H2, ctx, mask, cache))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_negative_definite(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            ctx, _ = random_context(n=6, seed=20 + seed)
            Y = random_symmetric(6, rng)
            mask = lm.clarke_diag(ctx.projection_point(Y))
            H = random_symmetric(6, rng)
            quad = np.vdot(H, dual_jacobian_apply(Y, H, ctx, mask))
            assert quad < 0.0

    def test_stale_cache_rejected(self):
        ctx, _ = random_context(n=5, seed=13)
        rng = np.random.default_rng(14)
        Y = random_symmetric(5, rng)
        mask = lm.clarke_diag(ctx.projection_point(Y))
        _, cache = lm.prox_logdet(ctx.base_point(Y + 1.0), ctx.sigma)
        with pytest.raises(ValueError):
            dual_jacobian_apply(Y, np.eye(5), ctx, mask, cache)


def dense_jacobian_apply(ctx, cache, mask, H):
    """Generalized Jacobian with the projection part summed over every edge."""
    problem = ctx.problem
    d = lm.prox_logdet_dderiv(cache, H)
    return -(d + problem.astar(mask * problem.a(H))) / ctx.sigma


MASK_KINDS = ("random", "fractional", "zero", "one")


def make_mask(kind, m, rng):
    """Projection Jacobian mask; "fractional" takes values in (0, 1) as a
    Clarke element may at ties."""
    if kind == "random":
        return (rng.random(m) < 0.5).astype(float)
    if kind == "fractional":
        return (rng.random(m) < 0.5) * rng.uniform(0.1, 0.9, m)
    return np.full(m, float(kind == "one"))


class TestActiveEdgeJacobian:
    def test_matches_all_edge_formula(self):
        rng = np.random.default_rng(40)
        for seed in range(3):
            ctx, _ = random_context(n=7, seed=41 + seed)
            Y = random_symmetric(7, rng)
            _, cache = lm.prox_logdet(ctx.base_point(Y), ctx.sigma)
            for kind in MASK_KINDS:
                mask = make_mask(kind, ctx.problem.m, rng)
                H = random_symmetric(7, rng)
                out = dual_jacobian_apply(Y, H, ctx, mask, cache)
                ref = dense_jacobian_apply(ctx, cache, mask, H)
                np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_rejects_negative_mask(self):
        ctx, _ = random_context(n=5, seed=44)
        mask = -np.ones(ctx.problem.m)
        with pytest.raises(ValueError):
            dual_jacobian_apply(np.zeros((5, 5)), np.eye(5), ctx, mask)


class TestJacobiPreconditioner:
    def setup_point(self, seed, mask_kind):
        ctx, _ = random_context(n=6, seed=seed, sigma=0.7)
        rng = np.random.default_rng(seed + 100)
        Y = random_symmetric(6, rng)
        _, cache = lm.prox_logdet(ctx.base_point(Y), ctx.sigma)
        mask = make_mask(mask_kind, ctx.problem.m, rng)
        return ctx, Y, cache, mask

    @pytest.mark.parametrize("mask_kind", MASK_KINDS)
    def test_positive_and_exact_on_diagonal(self, mask_kind):
        ridge = 1e-12
        ctx, Y, cache, mask = self.setup_point(50, mask_kind)
        active = ctx.problem.prior.support(mask)
        diag = _jacobi_diagonal(cache, active, ctx.sigma, ridge)
        assert np.all(diag > 0.0)
        np.testing.assert_array_equal(diag, diag.T)
        n = ctx.problem.n
        for i in range(n):
            E = np.zeros((n, n))
            E[i, i] = 1.0
            T_E = -dual_jacobian_apply(Y, E, ctx, mask, cache) + ridge * E
            assert diag[i, i] == pytest.approx(T_E[i, i], rel=1e-12)

    @pytest.mark.parametrize("mask_kind", MASK_KINDS)
    def test_mask_part_exact_everywhere(self, mask_kind):
        ctx, Y, cache, mask = self.setup_point(51, mask_kind)
        problem, sigma = ctx.problem, ctx.sigma
        active = problem.prior.support(mask)
        V = cache.U * cache.U
        mask_part = _jacobi_diagonal(cache, active, sigma, 0.0) - V @ cache.gamma @ V.T / sigma
        n = problem.n
        brute = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                E = np.zeros((n, n))
                E[i, j] = 1.0
                brute[i, j] = problem.astar(mask * problem.a(E))[i, j] / sigma
        np.testing.assert_allclose(mask_part, brute, rtol=0, atol=1e-12)


def forcing_target(gnorm, excess=np.inf):
    """Residual target of the Newton direction at gradient norm ``gnorm``
    and rule excess ``excess``."""
    return min(
        ssn._ETA_BAR,
        max(gnorm ** (1.0 + ssn._FORCING_TAU), ssn._RULE_MARGIN * gnorm / excess),
    )


class TestNewtonDirection:
    def test_residual_meets_forcing_target(self):
        rng = np.random.default_rng(60)
        for seed in range(4):
            ctx, _ = random_context(n=8, seed=61 + seed, sigma=0.5)
            Y = random_symmetric(8, rng, scale=0.3)
            point = _dual_eval(Y, ctx)
            mask = lm.clarke_diag(point.c)
            gnorm = float(np.linalg.norm(point.grad))
            D, steps = _newton_direction(point, ctx, mask, gnorm, np.inf)
            assert 0 < steps < ssn._MAX_CG
            assert np.array_equal(D, D.T)
            T_D = -dual_jacobian_apply(Y, D, ctx, mask, point.cache) + ssn._CG_RIDGE * D
            target = forcing_target(gnorm)
            assert np.linalg.norm(T_D - point.grad) <= target * (1.0 + 1e-9)

    def test_step_cap_counts(self, monkeypatch):
        monkeypatch.setattr(ssn, "_MAX_CG", 2)
        ctx, _ = random_context(n=8, seed=65)
        point = _dual_eval(np.zeros((8, 8)), ctx)
        mask = lm.clarke_diag(point.c)
        gnorm = float(np.linalg.norm(point.grad))
        _, steps = _newton_direction(point, ctx, mask, gnorm, np.inf)
        assert steps == 2

    def test_run_total_matches_first_direction(self, monkeypatch):
        monkeypatch.setattr(ssn, "_MAX_NEWTON", 1)
        ctx, _ = random_context(n=8, seed=66)
        point = _dual_eval(np.zeros((8, 8)), ctx)
        gnorm = float(np.linalg.norm(point.grad))
        _, steps = _newton_direction(point, ctx, lm.clarke_diag(point.c), gnorm, np.inf)
        res = ssn_solve(ctx, None, grad_below(1e-12))
        assert res.status == "max_iter"
        assert res.cg_steps == steps


def run_points(ctx, tol=1e-8):
    """The dual points of a Newton run from zero that stops at ||grad|| <= tol."""
    points = []
    accept = grad_below(tol)

    def record(point):
        points.append(point)
        return accept(point)

    ssn_solve(ctx, None, record)
    return points


class TestRuleFloor:
    def true_residual(self, ctx, point, mask, D):
        active = ctx.problem.prior.support(mask)
        T = ssn._newton_operator(point.cache, active, ctx.sigma, ssn._CG_RIDGE)
        return float(np.linalg.norm(T(D) - point.grad))

    def test_floored_target_takes_no_more_cg_steps(self):
        # a finite excess can only loosen the target: the same point meets the
        # floored target in at most the CG steps of the plain one
        fewer = 0
        for seed in (70, 71):
            ctx, _ = random_context(n=8, seed=seed, sigma=0.5)
            for point in run_points(ctx)[:-1]:
                mask = lm.clarke_diag(point.c)
                gnorm = float(np.linalg.norm(point.grad))
                _, plain = _newton_direction(point, ctx, mask, gnorm, np.inf)
                D, floored = _newton_direction(point, ctx, mask, gnorm, 2.0)
                assert self.true_residual(ctx, point, mask, D) <= forcing_target(gnorm, 2.0)
                assert floored <= plain
                fewer += floored < plain
        assert fewer >= 2

    def test_tiny_gradient_scales_exactly(self):
        # CG is linear in the gradient and scaling by a power of two is exact
        # far above float64 underflow, so a gradient scaled by 2^-80 gives the
        # direction scaled by 2^-80 in the same CG steps
        ctx, _ = random_context(n=8, seed=72, sigma=0.5)
        point = run_points(ctx)[0]
        mask = lm.clarke_diag(point.c)
        # a gradient norm in [2^-5, 2^-4), where excess 2 sets the target
        scale = 2.0 ** -(5 + np.floor(np.log2(np.linalg.norm(point.grad))))
        big = dataclasses.replace(point, grad=scale * point.grad)
        tiny = dataclasses.replace(point, grad=2.0**-80 * big.grad)
        D_big, steps_big = _newton_direction(
            big, ctx, mask, float(np.linalg.norm(big.grad)), 2.0
        )
        gnorm = float(np.linalg.norm(tiny.grad))
        D, steps = _newton_direction(tiny, ctx, mask, gnorm, 2.0)
        assert np.all(np.isfinite(D))
        assert self.true_residual(ctx, tiny, mask, D) <= forcing_target(gnorm, 2.0)
        assert steps == steps_big > 0
        assert np.array_equal(D, 2.0**-80 * D_big)


def test_newton_cg_is_float64():
    ctx, _ = random_context(n=8, seed=99)
    Y = random_symmetric(8, np.random.default_rng(100), scale=0.3)
    P, cache = lm.prox_logdet(ctx.base_point(Y), ctx.sigma)
    assert P.dtype == np.float64
    H32 = random_symmetric(8, np.random.default_rng(101)).astype(np.float32)
    assert lm.prox_logdet_dderiv(cache, H32).dtype == np.float64
    mask = lm.clarke_diag(ctx.projection_point(Y))
    assert dual_jacobian_apply(Y, H32, ctx, mask, cache).dtype == np.float64
    active = ctx.problem.prior.support(mask)
    T = ssn._newton_operator(cache, active, ctx.sigma, ssn._CG_RIDGE)
    assert T(H32).dtype == np.float64
    graph = ctx.problem.prior
    w32 = np.ones(graph.m, dtype=np.float32)
    assert lm.weights_to_laplacian(w32, graph).dtype == np.float64
    assert lm.laplacian_adjoint(H32, graph).dtype == np.float64
    res = ssn_solve(ctx, None, grad_below(1e-8))
    assert res.cg_steps > 0
    assert res.Y.dtype == res.E.dtype == res.w_hat.dtype == np.float64
    report = lm.solve_mcp(ctx.problem, lm.DcaParams(eps=1e-6))
    assert report.history
    assert report.w.dtype == np.float64


class TestSsnSolve:
    def test_starts_at_optimum(self):
        ctx, _, Y_star = one_edge_context()
        res = ssn_solve(ctx, Y_star, grad_below(1e-8))
        assert res.converged
        assert res.iterations <= 1

    def test_converges_on_random_context(self):
        ctx, _ = random_context(n=10, seed=15)
        log = IterateLog(grad_below(1e-8))
        res = ssn_solve(ctx, None, log)
        assert res.converged
        assert float(np.linalg.norm(res.E)) == log.grad_norms[-1] < 1e-8
        # gradient norms eventually strictly decrease
        tail = log.grad_norms[-3:]
        assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))

    def test_dual_ascent(self):
        ctx, _ = random_context(n=8, seed=16)
        log = IterateLog(grad_below(1e-8))
        res = ssn_solve(ctx, None, log)
        assert res.converged
        vals = log.values
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))

    def test_zero_e_at_convergence(self):
        ctx, _ = random_context(n=6, seed=17)
        res = ssn_solve(ctx, None, grad_below(1e-9))
        assert np.linalg.norm(res.E) <= 1e-9

    @pytest.mark.parametrize("max_iter", [0, 2, 100])
    def test_w_hat_is_recovered_weight(self, max_iter, monkeypatch):
        monkeypatch.setattr(ssn, "_MAX_NEWTON", max_iter)
        ctx, _ = random_context(n=8, seed=22)
        res = ssn_solve(ctx, None, grad_below(1e-9))
        _, w_bar = recover_primal(res.Y, ctx)
        assert res.w_hat.tobytes() == w_bar.tobytes()


def run_fields(res, log):
    """Every field of an ssn_solve result, with the values and gradient
    norms its :class:`IterateLog` recorded."""
    return (
        res.Y.tobytes(), res.E.tobytes(), res.w_hat.tobytes(), res.iterations,
        res.converged, res.status, res.cg_steps, res.certificate, log.grad_norms,
        log.values,
    )


class TestAcceptStop:
    @pytest.mark.parametrize("max_iter", [0, 2, 100])
    def test_failing_test_changes_nothing(self, max_iter, monkeypatch):
        monkeypatch.setattr(ssn, "_MAX_NEWTON", max_iter)
        ctx, _ = random_context(n=8, seed=40)
        never = IterateLog(lambda point: (None, np.inf))
        ref_log = IterateLog(grad_below(1e-9))
        res = ssn_solve(ctx, None, never)
        ref = ssn_solve(ctx, None, ref_log)
        assert res.certificate is None
        # tested once at every iterate, the start and the last included
        assert len(never.grad_norms) == res.iterations + 1
        assert never.grad_norms[-1] == float(np.linalg.norm(res.E))
        if max_iter < 100:
            assert ref.status == "max_iter"
            assert run_fields(res, never) == run_fields(ref, ref_log)
        else:
            # the gradient test ends the reference run; the failing test goes
            # on from the same iterates until a cap or a stalled line search
            assert ref.status == "certified"
            assert never.grad_norms[: len(ref_log.grad_norms)] == ref_log.grad_norms
            assert never.values[: len(ref_log.values)] == ref_log.values
            assert res.status in ("max_iter", "linesearch_failed")

    def test_passing_test_stops_there(self, monkeypatch):
        ctx, _ = random_context(n=8, seed=41)
        cert = Certificate(np.zeros(ctx.problem.m), 0.0, 0.0)
        seen = []

        def third(point):
            seen.append(point)
            return (cert if len(seen) == 3 else None), np.inf

        res = ssn_solve(ctx, None, third)
        monkeypatch.setattr(ssn, "_MAX_NEWTON", 2)
        ref = ssn_solve(ctx, None, grad_below(1e-12))
        assert ref.status == "max_iter"
        assert (res.status, res.converged, res.iterations) == ("certified", True, 2)
        assert res.certificate is cert
        assert res.Y.tobytes() == ref.Y.tobytes()
        assert res.w_hat.tobytes() == seen[-1].w_hat.tobytes() == ref.w_hat.tobytes()
        assert res.E.tobytes() == ref.E.tobytes()
        assert (np.linalg.norm(res.E), res.cg_steps) == (np.linalg.norm(ref.E), ref.cg_steps)

    def test_stops_at_first_certified_point(self):
        # the rule's excess steers the CG targets, never the stop: the run
        # ends at the first point the step test passes
        ctx, _ = random_context(n=10, seed=42, sigma=0.5)
        test = _StepTest(ctx)
        points = []

        def accept(point):
            points.append(point)
            return test(point)

        res = ssn_solve(ctx, None, accept)
        assert res.status == "certified"
        assert len(points) == res.iterations + 1 > 1
        verdicts = [_StepTest(ctx)(point) for point in points]
        assert all(cert is None for cert, _ in verdicts[:-1])
        assert any(np.isfinite(excess) for _, excess in verdicts[:-1])
        assert verdicts[-1][0] is not None
        assert res.w_hat.tobytes() == points[-1].w_hat.tobytes()

    def test_failed_line_search_ends_the_run(self, monkeypatch):
        # no step can meet an infinite Armijo increase, so the first line
        # search backtracks to its cap and the run ends at its start point
        monkeypatch.setattr(ssn, "_ARMIJO_MU", np.inf)
        ctx, _ = random_context(n=8, seed=45)
        log = IterateLog(grad_below(1e-9))
        res = ssn_solve(ctx, None, log)
        assert (res.status, res.converged, res.iterations) == ("linesearch_failed", False, 0)
        assert res.certificate is None
        assert res.cg_steps > 0
        assert not res.Y.any()
        assert len(log.grad_norms) == 1

    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_certified_run_is_no_longer(self, seed):
        # the acceptance test against a gradient tolerance of 1e-4 (1 + ||K||)
        ctx, _ = random_context(n=10, seed=seed, sigma=0.5)
        tol = 1e-4 * (1.0 + np.linalg.norm(ctx.cost_matrix))
        test = _StepTest(ctx)
        checks = []
        res = ssn_solve(ctx, None, lambda point: checks.append(point) or test(point))
        ref = ssn_solve(ctx, None, grad_below(tol))
        assert res.status == ref.status == "certified"
        assert res.iterations <= ref.iterations
        assert len(checks) == res.iterations + 1
        assert check_stop_condition(res.certificate.delta, res.w_hat, ctx)


class TestRecoverPrimal:
    def test_nonnegative_and_definite(self):
        ctx, _ = random_context(n=7, seed=18)
        rng = np.random.default_rng(19)
        for _ in range(5):
            Y = random_symmetric(7, rng)
            theta_bar, w_bar = recover_primal(Y, ctx)
            assert np.all(w_bar >= 0.0)
            assert np.linalg.eigvalsh(theta_bar + ctx.problem.J)[0] > 0.0

    def test_gradient_identity(self):
        # the dual gradient equals the primal infeasibility of the recovery pair
        ctx, _ = random_context(n=6, seed=20)
        Y = random_symmetric(6, np.random.default_rng(21))
        theta_bar, w_bar = recover_primal(Y, ctx)
        gap = theta_bar - ctx.problem.astar(w_bar)
        np.testing.assert_allclose(gap, dual_gradient(Y, ctx), atol=1e-12)

    def test_scalar_instance_matches_golden_section(self):
        ctx, w_star, _ = one_edge_context()
        res = ssn_solve(ctx, None, grad_below(1e-12))
        _, w_bar = recover_primal(res.Y, ctx)
        oracle = golden_min(
            lambda w: subproblem_primal_value(np.array([w]), ctx), 1e-6, 10.0
        )
        assert abs(w_bar[0] - oracle) < 1e-8
        assert abs(w_bar[0] - w_star) < 1e-8


class TestSubproblemOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("sigma", [1.0, 0.1])
    def test_matches_lbfgsb(self, seed, sigma):
        # the subproblem primal is sigma-strongly convex, so L-BFGS-B on it
        # from w_ref is an independent multi-edge oracle for w_hat
        ctx, w_k = random_context(n=10, seed=seed, sigma=sigma)
        res = ssn_solve(ctx, None, grad_below(1e-9))
        assert res.status == "certified"
        ref = lbfgsb_min(lambda w: logdet_objective(w, ctx.problem, ctx.cost_matrix, ctx), w_k)
        value = subproblem_primal_value(res.w_hat, ctx)
        assert ref.fun >= value - 1e-12 * abs(value)
        np.testing.assert_allclose(res.w_hat, ref.x, rtol=0, atol=1e-6)

    def test_matches_generic_convex_solver(self):
        # independent multi-edge oracle: the same convex subproblem in cvxpy
        cp = pytest.importorskip("cvxpy")
        ctx, _ = random_context(n=7, seed=33, sigma=0.6)
        problem = ctx.problem
        n = problem.n
        w = cp.Variable(problem.m, nonneg=True)
        theta = 0
        for k, (i, j) in enumerate(problem.prior.edges):
            M = np.zeros((n, n))
            M[i, i] = M[j, j] = 1.0
            M[i, j] = M[j, i] = -1.0
            theta = theta + w[k] * M
        objective = cp.Minimize(
            -cp.log_det(theta + problem.J)
            + cp.sum(cp.multiply(ctx.cost_matrix, theta))
            + ctx.sigma / 2 * cp.sum_squares(theta - ctx.theta_ref)
            + ctx.sigma / 2 * cp.sum_squares(w - ctx.w_ref)
        )
        cvx = cp.Problem(objective)
        cvx.solve(solver=cp.SCS, eps=1e-10, max_iters=200000)
        assert cvx.status == "optimal"
        res = ssn_solve(ctx, None, grad_below(1e-11))
        _, w_bar = recover_primal(res.Y, ctx)
        np.testing.assert_allclose(w_bar, w.value, atol=1e-8)
        # strong duality at the computed pair
        assert subproblem_primal_value(w_bar, ctx) == pytest.approx(
            dual_value(res.Y, ctx), abs=1e-9
        )


class TestErrorCertificate:
    def test_zero_error_gives_zero_delta(self):
        ctx, w_k = random_context(n=6, seed=22)
        cert = subproblem_error_vector(w_k, np.zeros((6, 6)), ctx)
        assert np.all(cert.delta == 0.0)
        assert cert.r == 0.0
        assert cert.bound == 0.0

    def test_bound_dominates(self):
        for seed in range(5):
            ctx, _ = random_context(n=7, seed=30 + seed)
            res = ssn_solve(ctx, None, grad_below(1e-5))
            _, w_bar = recover_primal(res.Y, ctx)
            cert = subproblem_error_vector(w_bar, res.E, ctx)
            assert cert.r < 1.0
            assert cert.delta_norm <= cert.bound

    def test_delta_scales_with_error(self):
        ctx, _ = random_context(n=6, seed=23)
        res = ssn_solve(ctx, None, grad_below(1e-4))
        _, w_bar = recover_primal(res.Y, ctx)
        E = res.E
        if np.linalg.norm(E) < 1e-10:
            E = 1e-6 * np.eye(6)
        n1 = subproblem_error_vector(w_bar, E, ctx).delta_norm
        n2 = subproblem_error_vector(w_bar, 0.5 * E, ctx).delta_norm
        assert 0.3 < n2 / n1 < 0.7

    def test_bound_matches_svd_formula(self):
        for seed in range(4):
            ctx, _ = random_context(n=7, seed=70 + seed)
            res = ssn_solve(ctx, None, grad_below(1e-4))
            _, w_bar = recover_primal(res.Y, ctx)
            E = res.E if np.linalg.norm(res.E) > 0 else 1e-6 * np.eye(7)
            cert = subproblem_error_vector(w_bar, E, ctx)
            X1_inv = np.linalg.inv(ctx.problem.astar(w_bar) + ctx.problem.J - E)
            svd = (
                2.0
                * np.sqrt(ctx.problem.m)
                * np.linalg.norm(E, 2)
                * (ctx.sigma + np.linalg.norm(X1_inv, 2) ** 2 / (1.0 - cert.r))
            )
            assert cert.bound == pytest.approx(svd, rel=1e-12)

    @pytest.mark.parametrize("seed", [80, 81, 82])
    def test_cached_terms_match_inverses(self, seed):
        # at a Newton point X1 = A* w_hat + J - E is the prox output theta_hat + J
        ctx, _ = random_context(n=8, seed=seed, sigma=0.5)
        points = []
        ssn_solve(ctx, None, lambda point: (points.append(point), np.inf))
        certified = 0
        for point in points:
            E = -point.grad
            cached = ssn._error_terms(point.w_hat, E, ctx, point.cache)
            direct = ssn._error_terms(point.w_hat, E, ctx)
            # delta subtracts two inverses of the size of X2^{-1}, which puts an
            # absolute rounding floor under it once E is tiny
            X2 = ctx.problem.astar(point.w_hat) + ctx.problem.J
            floor = 1e-14 * np.linalg.norm(ctx.problem.a(np.linalg.inv(X2)))
            assert np.linalg.norm(cached[0] - direct[0]) <= (
                1e-10 * np.linalg.norm(direct[0]) + floor
            )
            for got, want in zip(cached[1:], direct[1:]):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            try:
                want = subproblem_error_vector(point.w_hat, E, ctx)
            except CertificateError:
                with pytest.raises(CertificateError):
                    subproblem_error_vector(point.w_hat, E, ctx, cached)
                continue
            got = subproblem_error_vector(point.w_hat, E, ctx, cached)
            certified += 1
            assert np.linalg.norm(got.delta - want.delta) <= 1e-10 * want.delta_norm + floor
            assert got.r == pytest.approx(want.r, rel=1e-10)
            assert got.bound == pytest.approx(want.bound, rel=1e-10)
        assert certified >= 2

    def test_large_error_rejected(self):
        ctx, w_k = random_context(n=5, seed=24)
        E = 100.0 * np.eye(5)
        with pytest.raises(CertificateError):
            subproblem_error_vector(w_k, E, ctx)

    def test_perturbed_kkt_point(self):
        # w_next must be the exact KKT point of the delta-perturbed subproblem
        ctx, w_k = random_context(n=8, seed=25, sigma=0.7)
        res = ssn_solve(ctx, None, grad_below(1e-8))
        _, w_next = recover_primal(res.Y, ctx)
        cert = subproblem_error_vector(w_next, res.E, ctx)
        problem, sigma = ctx.problem, ctx.sigma
        X2_inv = np.linalg.inv(problem.astar(w_next) + problem.J)
        grad = (
            -problem.a(X2_inv)
            + problem.a(ctx.cost_matrix)
            + cert.delta
            + sigma * (w_next - w_k)
            + sigma * problem.a(problem.astar(w_next - w_k))
        )
        kkt = np.abs(np.where(w_next > 1e-12, grad, np.minimum(grad, 0.0)))
        assert kkt.max() < 1e-10


class TestStopCondition:
    def test_zero_delta_accepts(self):
        ctx, w_k = random_context(n=5, seed=26)
        w_next = w_k + 0.01
        assert check_stop_condition(np.zeros(ctx.problem.m), w_next, ctx)

    def test_boundary_equality_accepts(self):
        ctx, w_k = random_context(n=5, seed=27)
        w_next = w_k + 0.01
        dw = w_next - w_k
        dwn = np.linalg.norm(dw)
        rhs = 0.25 * 1.0 * dwn + 0.5 * 1.0 * np.linalg.norm(
            ctx.problem.astar(dw)
        ) ** 2 / dwn
        delta = np.zeros(ctx.problem.m)
        delta[0] = rhs
        assert check_stop_condition(delta, w_next, ctx)

    def test_above_boundary_rejects(self):
        ctx, w_k = random_context(n=5, seed=28)
        w_next = w_k + 0.01
        dw = w_next - w_k
        dwn = np.linalg.norm(dw)
        rhs = 0.25 * dwn + 0.5 * np.linalg.norm(ctx.problem.astar(dw)) ** 2 / dwn
        delta = np.zeros(ctx.problem.m)
        delta[0] = 1.01 * rhs
        assert not check_stop_condition(delta, w_next, ctx)

    def test_zero_step_requires_exact_solve(self):
        ctx, w_k = random_context(n=5, seed=29)
        tiny = np.full(ctx.problem.m, 1e-13 / np.sqrt(ctx.problem.m))
        assert check_stop_condition(tiny, w_k, ctx)
        big = np.full(ctx.problem.m, 1e-3)
        assert not check_stop_condition(big, w_k, ctx)


class TestContextValidation:
    def test_rejects_bad_sigma(self):
        ctx, w_k = random_context(n=4, seed=31)
        for sigma in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma must be positive"):
                SubproblemContext(ctx.problem, sigma, w_k)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rejects_wrong_length(self, extra):
        ctx, w_k = random_context(n=4, seed=32)
        w = np.ones(ctx.problem.m + extra)
        with pytest.raises(ValueError, match="one entry per candidate edge"):
            SubproblemContext(ctx.problem, 1.0, w)
