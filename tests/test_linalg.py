import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laplace_mcp as lm
from laplace_mcp.linalg import EigCache, project_nonneg, sym_eig

from util import (
    edge_gram_matrix,
    incidence_matrix,
    moreau_logdet_value,
    random_connected_graph,
    random_symmetric,
)


class TestSymEig:
    def test_identity(self):
        U, lam = sym_eig(np.eye(4))
        np.testing.assert_allclose(lam, 1.0)

    def test_diagonal(self):
        U, lam = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(lam, [1.0, 2.0, 3.0])
        # columns are signed unit vectors
        assert np.allclose(np.abs(U).max(axis=0), 1.0)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        X = random_symmetric(8, rng)
        U, lam = sym_eig(X)
        err = np.linalg.norm((U * lam) @ U.T - X)
        assert err < 1e-10 * max(1.0, np.linalg.norm(X))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestProxLogdet:
    def test_scalar_zero(self):
        P, _ = lm.prox_logdet(np.array([[0.0]]), 1.0)
        np.testing.assert_allclose(P, [[1.0]], atol=1e-14)

    def test_scalar_three(self):
        P, _ = lm.prox_logdet(np.array([[3.0]]), 1.0)
        np.testing.assert_allclose(P, [[(np.sqrt(13) + 3) / 2]], atol=1e-14)

    def test_optimality_residual(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(2, 11))
            sigma = float(rng.choice([0.1, 1.0, 10.0]))
            X = random_symmetric(n, rng, scale=2.0)
            P, _ = lm.prox_logdet(X, sigma)
            res = np.linalg.norm(-np.linalg.inv(P) + sigma * (P - X))
            assert res <= 1e-8 * sigma * max(1.0, np.linalg.norm(X))

    @pytest.mark.parametrize("lam", [-1e8, -3e5])
    def test_eigenvalues_far_below_zero(self, lam):
        # d sigma (d - lam) = 1 is -1/d + sigma (d - lam) = 0 on one eigenvalue;
        # (sqrt(lam^2 + 4) + lam)/2 cancels here
        _, cache = lm.prox_logdet(np.diag([lam, 1.0]), 1.0)
        d = cache.d[0]
        assert d * (d - lam) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_large_positive_eigenvalue_no_warning(self):
        # both np.where branches are evaluated; s - lam rounds to zero at 3e8
        _, cache = lm.prox_logdet(np.diag([3e8, 1.0, -1e8]), 1.0)
        assert np.all(np.isfinite(cache.d))

    def test_large_sigma_limit(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 5))
        X = A @ A.T + 5 * np.eye(5)
        P, _ = lm.prox_logdet(X, 1e8)
        assert np.linalg.norm(P - X) < 1e-6

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            lm.prox_logdet(np.eye(2), 0.0)


class TestProxDerivative:
    def test_zero_direction(self):
        _, cache = lm.prox_logdet(random_symmetric(4, np.random.default_rng(3)), 1.0)
        assert np.all(lm.prox_logdet_dderiv(cache, np.zeros((4, 4))) == 0.0)

    def test_finite_difference_rate(self):
        rng = np.random.default_rng(4)
        X = random_symmetric(6, rng)
        H = random_symmetric(6, rng)
        H /= np.linalg.norm(H)
        P0, cache = lm.prox_logdet(X, 1.0)
        deriv = lm.prox_logdet_dderiv(cache, H)
        errs = []
        for t in (1e-4, 1e-5):
            Pt, _ = lm.prox_logdet(X + t * H, 1.0)
            errs.append(np.linalg.norm((Pt - P0) / t - deriv))
        assert errs[0] < 1e-2
        assert errs[1] < 0.3 * errs[0]

    def test_gamma_boundary_at_zero(self):
        _, cache = lm.prox_logdet(np.zeros((3, 3)), 1.0)
        np.testing.assert_allclose(cache.gamma, 0.5, atol=1e-14)

    def test_gamma_open_unit_interval(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            X = random_symmetric(6, rng, scale=5.0)
            _, cache = lm.prox_logdet(X, float(rng.choice([0.1, 1.0, 10.0])))
            assert cache.gamma.min() > 0.0 and cache.gamma.max() < 1.0

    def test_float32_copy(self):
        X = random_symmetric(5, np.random.default_rng(7), scale=3.0)
        _, cache = lm.prox_logdet(X, 0.7)
        low = cache.astype(np.float32)
        assert low.U.dtype == low.gamma.dtype == np.float32
        assert low.gamma.tobytes() == cache.gamma.astype(np.float32).tobytes()
        assert low.base is cache.base and low.d is cache.d
        H = random_symmetric(5, np.random.default_rng(8))
        assert lm.prox_logdet_dderiv(low, H).dtype == np.float32

    def test_linear_and_symmetric(self):
        rng = np.random.default_rng(6)
        _, cache = lm.prox_logdet(random_symmetric(5, rng), 2.0)
        H1, H2 = random_symmetric(5, rng), random_symmetric(5, rng)
        out = lm.prox_logdet_dderiv(cache, 2.0 * H1 - 3.0 * H2)
        ref = 2.0 * lm.prox_logdet_dderiv(cache, H1) - 3.0 * lm.prox_logdet_dderiv(cache, H2)
        np.testing.assert_allclose(out, ref, atol=1e-12)
        assert np.allclose(out, out.T)

    def test_dimension_mismatch(self):
        _, cache = lm.prox_logdet(np.eye(3), 1.0)
        with pytest.raises(ValueError):
            lm.prox_logdet_dderiv(cache, np.eye(4))


class TestMoreauValue:
    def test_scalar_value(self):
        p = (np.sqrt(5) + 1) / 2
        expected = -np.log(p) + 0.5 * (p - 1) ** 2
        assert abs(moreau_logdet_value(np.array([[1.0]]), 1.0) - expected) < 1e-12

    def test_gradient_identity(self):
        # sigma (X - prox(X)) equals the finite-difference gradient of the value
        rng = np.random.default_rng(7)
        X = random_symmetric(5, rng)
        sigma = 2.0
        P, _ = lm.prox_logdet(X, sigma)
        G = sigma * (X - P)
        H = random_symmetric(5, rng)
        H /= np.linalg.norm(H)
        t = 1e-6
        fd = (
            moreau_logdet_value(X + t * H, sigma)
            - moreau_logdet_value(X - t * H, sigma)
        ) / (2 * t)
        assert abs(fd - np.vdot(G, H)) < 1e-6 * max(1.0, abs(fd))

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            X1 = random_symmetric(4, rng)
            X2 = random_symmetric(4, rng)
            mid = moreau_logdet_value(0.5 * (X1 + X2), 1.0)
            avg = 0.5 * (
                moreau_logdet_value(X1, 1.0) + moreau_logdet_value(X2, 1.0)
            )
            assert mid <= avg + 1e-10


class TestProjection:
    def test_basic(self):
        np.testing.assert_array_equal(
            project_nonneg([1.0, -2.0, 0.0]), [1.0, 0.0, 0.0]
        )

    def test_all_negative(self):
        assert np.all(project_nonneg([-1.0, -5.0]) == 0.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    @settings(deadline=None, max_examples=50)
    def test_idempotent(self, values):
        c = np.array(values)
        once = project_nonneg(c)
        np.testing.assert_array_equal(project_nonneg(once), once)

    def test_projection_optimality(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal(15)
        proj = project_nonneg(c)
        dist = np.linalg.norm(c - proj)
        for _ in range(100):
            v = np.abs(rng.standard_normal(15))
            assert dist <= np.linalg.norm(c - v) + 1e-14


class TestClarkeMask:
    def test_tie_rule(self):
        np.testing.assert_array_equal(lm.clarke_diag([1.0, -1.0, 0.0]), [1.0, 0.0, 0.0])

    def test_all_positive(self):
        assert np.all(lm.clarke_diag([0.5, 2.0]) == 1.0)

    def test_directional_probe(self):
        rng = np.random.default_rng(10)
        c = rng.standard_normal(12)
        c = c[np.abs(c) > 1e-3]
        mask = lm.clarke_diag(c)
        t = 1e-6
        for i in range(c.size):
            e = np.zeros(c.size)
            e[i] = t * np.sign(c[i])
            diff = project_nonneg(c + e) - project_nonneg(c)
            np.testing.assert_allclose(diff[i], e[i] * mask[i], atol=1e-15)


class TestEdgeGram:
    def test_path_example(self):
        B = incidence_matrix(lm.EdgeGraph(3, [(0, 1), (1, 2)]))
        np.testing.assert_array_equal(
            edge_gram_matrix(B).toarray(), [[4.0, 1.0], [1.0, 4.0]]
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            g = random_connected_graph(int(rng.integers(3, 9)), 0.6, trial)
            Bd = incidence_matrix(g).toarray()
            G = edge_gram_matrix(incidence_matrix(g)).toarray()
            w = rng.standard_normal(g.m)
            brute = np.diag(Bd.T @ (Bd @ np.diag(w) @ Bd.T) @ Bd)
            np.testing.assert_allclose(G @ w, brute, atol=1e-12)

    def test_diagonal_is_four(self):
        g = random_connected_graph(10, 0.4, 12)
        G = edge_gram_matrix(incidence_matrix(g)).toarray()
        np.testing.assert_array_equal(np.diag(G), 4.0)


GRAM_GRAPHS = [
    lm.EdgeGraph(2, [(0, 1)]),
    lm.EdgeGraph(7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)]),
    random_connected_graph(12, 0.4, 14),
    lm.EdgeGraph(9, np.column_stack(np.triu_indices(9, 1))),
    # largest d_max for its n, so the largest cond(3I + |B||B|^T)
    lm.EdgeGraph(12, [(0, j) for j in range(1, 12)]),
]
GRAM_IDS = ["single-edge", "tree", "erdos-renyi", "complete", "star"]


class TestGramSolver:
    def test_zero_rhs(self):
        g = random_connected_graph(6, 0.5, 13)
        solver = lm.GramSolver(g)
        assert np.all(solver.solve(np.zeros(g.m)) == 0.0)

    def test_path_hand_solve(self):
        # 3I + |B|^T|B| = [[5,1],[1,5]] maps (1,1) to (6,6)
        solver = lm.GramSolver(lm.EdgeGraph(3, [(0, 1), (1, 2)]))
        np.testing.assert_allclose(solver.solve([6.0, 6.0]), [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("graph", GRAM_GRAPHS, ids=GRAM_IDS)
    def test_matches_dense_solve(self, graph):
        M = edge_gram_matrix(incidence_matrix(graph)).toarray() + np.eye(graph.m)
        b = np.random.default_rng(15).standard_normal(graph.m)
        x = lm.GramSolver(graph).solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(M, b), atol=1e-10)

    @pytest.mark.parametrize("graph", GRAM_GRAPHS, ids=GRAM_IDS)
    def test_edge_arrays_match_sparse_products(self, graph):
        # the scatter-add and the gather sum in the order of the CSR products
        # |B| b and |B|^T y, so the solve is bit-identical to the sparse form
        babs = abs(incidence_matrix(graph)).tocsr()
        babs_t = babs.T.tocsr()
        solver = lm.GramSolver(graph)
        C = 3.0 * np.eye(graph.n) + (babs @ babs_t).toarray()
        assert np.array_equal(solver._c_inv, np.linalg.inv(C))
        rng = np.random.default_rng(18)
        for _ in range(20):
            b = rng.standard_normal(graph.m)
            expected = (b - babs_t @ (solver._c_inv @ (babs @ b))) / 3.0
            assert solver.solve(b).tobytes() == expected.tobytes()

    def test_residual(self):
        g = random_connected_graph(15, 0.3, 16)
        M = edge_gram_matrix(incidence_matrix(g)).toarray() + np.eye(g.m)
        rng = np.random.default_rng(17)
        b = rng.standard_normal(g.m)
        x = lm.GramSolver(g).solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_rhs_length_validation(self):
        g = random_connected_graph(6, 0.5, 19)
        solver = lm.GramSolver(g)
        with pytest.raises(ValueError):
            solver.solve(np.zeros(g.m + 1))


class TestEigCacheStaleness:
    def test_matches(self):
        X = random_symmetric(4, np.random.default_rng(23))
        _, cache = lm.prox_logdet(X, 1.0)
        assert cache.matches(X)
        assert not cache.matches(X + 1e-6)
        assert isinstance(cache, EigCache)


def test_no_module_imports_scipy_linalg():
    """Every dense kernel must run on numpy's LAPACK/BLAS.

    numpy and scipy each bundle their own OpenBLAS with its own thread pool,
    whose workers busy-wait after each call. An ADMM iteration that alternates
    numpy's eigh with scipy's Cholesky makes the two pools fight for the same
    cores. At n=250 on 2 vCPUs, one eigh plus two Choleskys took 33-58 ms
    with scipy.linalg.cho_factor and 10-13 ms with np.linalg.cholesky, and
    the median ER n=250 l1 solve (bench/run.py, er250-l1) took 23.8 s
    instead of 4.4 s.
    """
    src = Path(lm.__file__).resolve().parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                names = [mod] + [f"{mod}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"scipy.linalg imported at {offenders}"
