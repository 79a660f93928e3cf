import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laplace_mcp as lm
from laplace_mcp.graphs import GraphError, is_connected

from util import bfs_connected, edge_tuples, incidence_matrix, random_connected_graph


def path3():
    return lm.EdgeGraph(3, [(0, 1), (1, 2)])


class TestLaplacianMap:
    def test_three_node_example(self):
        # hand-expanded B Diag(w) B^T for the 2-edge path
        g = path3()
        w12, w23 = 0.7, 1.9
        theta = lm.weights_to_laplacian([w12, w23], g)
        expected = np.array(
            [[w12, -w12, 0.0], [-w12, w12 + w23, -w23], [0.0, -w23, w23]]
        )
        np.testing.assert_allclose(theta, expected, atol=0)

    def test_zero_weights(self):
        g = path3()
        assert np.all(lm.weights_to_laplacian([0.0, 0.0], g) == 0.0)

    def test_row_sums_vanish(self):
        g = random_connected_graph(6, 0.5, 2)
        rng = np.random.default_rng(3)
        w = rng.uniform(0, 5, g.m)
        theta = lm.weights_to_laplacian(w, g)
        assert np.abs(theta.sum(axis=1)).max() < 1e-12

    def test_matches_incidence_product(self):
        g = random_connected_graph(7, 0.5, 9)
        B = incidence_matrix(g).toarray()
        rng = np.random.default_rng(4)
        w = rng.uniform(0, 3, g.m)
        np.testing.assert_allclose(
            lm.weights_to_laplacian(w, g), B @ np.diag(w) @ B.T, atol=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lm.weights_to_laplacian([1.0], path3())

    def test_laplacian_validity(self):
        # zero row sums, non-positive off-diagonals, PSD for w >= 0
        for seed in range(10):
            g = random_connected_graph(8, 0.5, seed)
            w = np.random.default_rng(seed).uniform(0, 4, g.m)
            theta = lm.weights_to_laplacian(w, g)
            off = theta - np.diag(np.diag(theta))
            assert off.max() <= 0
            assert np.abs(theta.sum(axis=1)).max() < 1e-12
            assert np.linalg.eigvalsh(theta)[0] > -1e-10


class TestAdjointMap:
    def test_identity_input(self):
        g = random_connected_graph(6, 0.5, 1)
        np.testing.assert_allclose(lm.laplacian_adjoint(np.eye(6), g), 2.0)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            g = lm.gen_erdos_renyi(n, 0.6, trial) if n > 2 else lm.EdgeGraph(2, [(0, 1)])
            if g.m == 0:
                continue
            X = rng.standard_normal((n, n))
            X = 0.5 * (X + X.T)
            w = rng.standard_normal(g.m)
            lhs = lm.laplacian_adjoint(X, g) @ w
            rhs = np.vdot(X, lm.weights_to_laplacian(w, g))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_composition_on_path(self):
        # diag(B^T Theta B) computed by hand for Theta = A*(a, b)
        g = path3()
        a, b = 1.3, 0.4
        out = lm.laplacian_adjoint(lm.weights_to_laplacian([a, b], g), g)
        np.testing.assert_allclose(out, [4 * a + b, a + 4 * b], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lm.laplacian_adjoint(np.eye(4), path3())


class TestSupport:
    def test_keeps_nonzero_edges_and_weights(self):
        g = lm.EdgeGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        sub = g.support([0.0, 0.5, 0.0, 2.0])
        assert sub.n == 4
        assert [tuple(e) for e in sub.edges] == [(0, 2), (2, 3)]
        np.testing.assert_array_equal(sub.weights, [0.5, 2.0])
        with pytest.raises(ValueError):
            sub.edges[0, 0] = 1

    def test_maps_match_masked_full_maps(self):
        g = random_connected_graph(9, 0.5, 3)
        rng = np.random.default_rng(4)
        mask = (rng.random(g.m) < 0.4) * rng.uniform(0.5, 2.0, g.m)
        sub = g.support(mask)
        X = rng.standard_normal((9, 9))
        v = rng.standard_normal(g.m)
        np.testing.assert_array_equal(
            lm.weights_to_laplacian(v[mask != 0], sub),
            lm.weights_to_laplacian(np.where(mask != 0, v, 0.0), g),
        )
        np.testing.assert_array_equal(
            lm.laplacian_adjoint(X, sub), lm.laplacian_adjoint(X, g)[mask != 0]
        )

    def test_empty_support(self):
        g = path3()
        sub = g.support([0.0, 0.0])
        assert sub.m == 0
        assert np.all(lm.weights_to_laplacian(np.zeros(0), sub) == 0.0)
        assert lm.laplacian_adjoint(np.eye(3), sub).shape == (0,)

    def test_rejects_bad_weights(self):
        g = path3()
        with pytest.raises(GraphError):
            g.support([1.0])
        with pytest.raises(GraphError):
            g.support([1.0, -1.0])
        with pytest.raises(GraphError):
            g.support([1.0, np.nan])


class TestGenerators:
    def test_er_expected_edge_count(self):
        # binomial mean C(100,2)*0.1 = 495, averaged over seeds (3 standard errors)
        counts = [lm.gen_erdos_renyi(100, 0.1, s).m for s in range(30)]
        se = np.sqrt(4950 * 0.1 * 0.9 / 30)
        assert abs(np.mean(counts) - 495.0) < 3 * se + 1

    def test_er_dense_is_connected(self):
        g = lm.gen_erdos_renyi(30, 0.9, 7)
        assert bfs_connected(g.n, g.edges)
        assert is_connected(g)

    def test_er_deterministic(self):
        a = lm.gen_erdos_renyi(40, 0.2, 123)
        b = lm.gen_erdos_renyi(40, 0.2, 123)
        assert np.array_equal(a.edges, b.edges)

    def test_er_probability_validation(self):
        with pytest.raises(GraphError):
            lm.gen_erdos_renyi(10, 0.0, 0)
        with pytest.raises(GraphError):
            lm.gen_erdos_renyi(10, 1.5, 0)

    def test_grid_degrees(self):
        g = lm.gen_grid(9)
        deg = g.with_weights(np.ones(g.m)).laplacian().diagonal()
        corners = [0, 2, 6, 8]
        assert all(deg[c] == 2 for c in corners)
        assert deg[4] == 4

    def test_grid_edge_count(self):
        assert lm.gen_grid(100).m == 180

    def test_grid_rejects_non_square(self):
        with pytest.raises(GraphError):
            lm.gen_grid(20)

    def test_modular_cross_density(self):
        # 9600 cross pairs at p1 = 0.005 give 48 expected cross edges
        cross_pairs = 160 * 159 // 2 - 4 * (40 * 39 // 2)
        counts = []
        for s in range(25):
            g = lm.gen_modular(160, 0.005, 0.25, s)
            blk = np.repeat(np.arange(4), 40)
            cross = np.sum(blk[g.edges[:, 0]] != blk[g.edges[:, 1]])
            counts.append(cross / cross_pairs)
        se = np.sqrt(0.005 * 0.995 / cross_pairs / 25)
        assert abs(np.mean(counts) - 0.005) < 4 * se

    def test_modular_deterministic(self):
        a = lm.gen_modular(40, 0.01, 0.3, 5)
        b = lm.gen_modular(40, 0.01, 0.3, 5)
        assert np.array_equal(a.edges, b.edges)


def _edge_graph(n, pairs):
    """EdgeGraph on n nodes from unordered pairs, dropping loops and repeats."""
    edges = {(min(i, j), max(i, j)) for i, j in pairs if i != j}
    return lm.EdgeGraph(n, sorted(edges) or np.zeros((0, 2), dtype=np.int64))


def _random_path(n, seed):
    """Path through the nodes in a random order, so labels do not follow it."""
    order = np.random.default_rng(seed).permutation(n)
    return list(zip(order[:-1].tolist(), order[1:].tolist()))


def _clique(nodes):
    return [(i, j) for a, i in enumerate(nodes) for j in nodes[a + 1:]]


class TestIsConnected:
    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_matches_bfs(self, data):
        n = data.draw(st.integers(1, 40))
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
        g = _edge_graph(n, pairs)
        assert is_connected(g) == bfs_connected(g.n, g.edges)

    def test_tiny(self):
        assert is_connected(_edge_graph(1, []))
        assert not is_connected(_edge_graph(2, []))
        assert is_connected(_edge_graph(2, [(0, 1)]))

    def test_isolated_last_node(self):
        # enough edges (10 >= n - 1) that only the search can tell
        g = _edge_graph(6, _clique(list(range(5))))
        assert not is_connected(g)
        assert is_connected(_edge_graph(6, _clique(list(range(5))) + [(4, 5)]))

    def test_long_random_path(self):
        n = 2000
        path = _random_path(n, 0)
        assert is_connected(_edge_graph(n, path))
        # cut the path in the middle and add a chord: still n - 1 edges
        cut = path[: n // 2] + path[n // 2 + 1:] + [(path[0][0], path[2][1])]
        assert not is_connected(_edge_graph(n, cut))

    def test_star(self):
        for center in (0, 7, 15):
            pairs = [(center, v) for v in range(16) if v != center]
            assert is_connected(_edge_graph(16, pairs))

    def test_two_cliques(self):
        left, right = [0, 2, 4, 6, 8], [1, 3, 5, 7, 9]
        apart = _clique(left) + _clique(right)
        assert not is_connected(_edge_graph(10, apart))
        assert is_connected(_edge_graph(10, apart + [(8, 9)]))


class TestSampleWeights:
    def test_within_interval(self):
        g = random_connected_graph(20, 0.3, 0)
        gw = lm.sample_weights(g, 0.1, 3.0, 4)
        assert gw.weights.min() >= 0.1 and gw.weights.max() <= 3.0

    def test_degenerate_interval(self):
        g = random_connected_graph(10, 0.4, 1)
        gw = lm.sample_weights(g, 0.5, 0.5, 9)
        assert np.all(gw.weights == 0.5)

    def test_monte_carlo_mean(self):
        g = lm.gen_erdos_renyi(150, 0.9, 0)
        draws = np.concatenate(
            [lm.sample_weights(g, 0.1, 3.0, s).weights for s in range(2)]
        )[:10000]
        lo, hi = 0.1, 3.0
        se = (hi - lo) / np.sqrt(12 * draws.size)
        assert abs(draws.mean() - 0.5 * (lo + hi)) < 3 * se

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            lm.sample_weights(lm.EdgeGraph(3, np.zeros((0, 2))), 0.1, 3.0, 0)


class TestConnectivityPrior:
    def test_full_pair_count(self):
        g = random_connected_graph(33, 0.2, 3)
        full = lm.perturb_connectivity(lm.true_prior(g), "full")
        assert full.graph.m == 33 * 32 // 2 == 528
        assert full.tag == "full"

    def test_drop_zero_is_identity(self):
        g = random_connected_graph(12, 0.4, 5)
        p = lm.perturb_connectivity(lm.true_prior(g), "drop", seed=0, percent=0.0)
        assert np.array_equal(p.graph.edges, g.edges)

    def test_drop_removes_fraction(self):
        g = random_connected_graph(20, 0.5, 2)
        p = lm.perturb_connectivity(lm.true_prior(g), "drop", seed=1, percent=25.0)
        assert p.graph.m == g.m - int(round(0.25 * g.m))
        assert edge_tuples(p.graph) <= edge_tuples(g)
        assert p.tag == "drop_25_percent"

    def test_coarse_superset(self):
        rng = np.random.default_rng(11)
        pairs = np.column_stack(np.triu_indices(50, 1))
        picked = pairs[rng.choice(pairs.shape[0], size=500, replace=False)]
        truth = lm.true_prior(lm.EdgeGraph(50, picked))
        coarse = lm.perturb_connectivity(truth, "coarse", seed=3, factor=1.5)
        assert coarse.graph.m == 750
        assert edge_tuples(truth.graph) <= edge_tuples(coarse.graph)

    def test_coarse_factor_validation(self):
        g = random_connected_graph(10, 0.4, 7)
        with pytest.raises(GraphError):
            lm.perturb_connectivity(lm.true_prior(g), "coarse", seed=0, factor=0.5)
        with pytest.raises(GraphError):
            lm.perturb_connectivity(lm.true_prior(g), "drop", seed=0, percent=120.0)


class TestCovariance:
    def test_pinv_kills_ones(self):
        g = random_connected_graph(8, 0.5, 0)
        L = lm.sample_weights(g, 0.1, 3.0, 1).laplacian()
        pinv = lm.population_covariance(L)
        assert np.abs(pinv @ np.ones(8)).max() < 1e-10

    def test_pinv_spectral_identity(self):
        # (L + J)^{-1} - J equals the pseudo-inverse for connected graphs
        g = random_connected_graph(6, 0.6, 4)
        L = lm.sample_weights(g, 0.1, 3.0, 2).laplacian()
        J = np.full((6, 6), 1 / 6)
        np.testing.assert_allclose(
            lm.population_covariance(L), np.linalg.inv(L + J) - J, atol=1e-10
        )

    def test_two_node_hand_value(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(
            lm.population_covariance(L), np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-14
        )

    def test_pinv_moore_penrose(self):
        g = random_connected_graph(7, 0.5, 8)
        L = lm.sample_weights(g, 0.1, 3.0, 3).laplacian()
        pinv = lm.population_covariance(L)
        np.testing.assert_allclose(L @ pinv @ L, L, atol=1e-9)

    def test_disconnected_rejected(self):
        L = np.zeros((4, 4))
        L[0, 0] = L[1, 1] = 1.0
        L[0, 1] = L[1, 0] = -1.0
        L[2, 2] = L[3, 3] = 2.0
        L[2, 3] = L[3, 2] = -2.0
        with pytest.raises(GraphError):
            lm.population_covariance(L)

    def test_sample_covariance_structure(self):
        g = random_connected_graph(10, 0.5, 3)
        L = lm.sample_weights(g, 0.1, 3.0, 5).laplacian()
        S = lm.sample_covariance(L, 500, 17)
        assert np.linalg.eigvalsh(S)[0] > -1e-10
        assert np.abs(S @ np.ones(10)).max() < 1e-8

    def test_sample_covariance_converges(self):
        g = random_connected_graph(10, 0.5, 6)
        L = lm.sample_weights(g, 0.1, 3.0, 7).laplacian()
        pinv = lm.population_covariance(L)
        scale = np.linalg.norm(pinv)
        err_small = np.linalg.norm(lm.sample_covariance(L, 100, 0) - pinv) / scale
        err_big = np.linalg.norm(lm.sample_covariance(L, 10000, 0) - pinv) / scale
        assert err_big < err_small

    def test_sample_covariance_deterministic(self):
        g = random_connected_graph(6, 0.6, 9)
        L = lm.sample_weights(g, 0.1, 3.0, 9).laplacian()
        np.testing.assert_array_equal(
            lm.sample_covariance(L, 300, 5), lm.sample_covariance(L, 300, 5)
        )


class TestSampleCovarianceLaw:
    """k S ~ Wishart_n(k, pinv(L)): checked by moments over many seeds and by the
    rank and null direction at and below the Bartlett boundary k = n."""

    @staticmethod
    def laplacian(n=8):
        g = random_connected_graph(n, 0.5, 21)
        return lm.sample_weights(g, 0.1, 3.0, 22).laplacian()

    @pytest.mark.parametrize("k", [5, 50])
    def test_first_two_moments(self, k):
        L, draws = self.laplacian(), 20000
        sigma = lm.population_covariance(L)
        iu = np.triu_indices(L.shape[0])
        samples = np.array([lm.sample_covariance(L, k, seed)[iu] for seed in range(draws)])
        target_var = ((sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / k)[iu]
        # Monte-Carlo standard errors of the sample mean and the sample variance
        z_mean = (samples.mean(axis=0) - sigma[iu]) / np.sqrt(target_var / draws)
        dev2 = (samples - samples.mean(axis=0)) ** 2
        z_var = (dev2.mean(axis=0) - target_var) / (dev2.std(axis=0) / np.sqrt(draws))
        assert np.abs(z_mean).max() < 5.0
        assert np.abs(z_var).max() < 5.0

    @pytest.mark.parametrize("k", [8, 9])
    def test_bartlett_boundary(self, k):
        L = self.laplacian()
        S = lm.sample_covariance(L, k, 3)
        vals = np.linalg.eigvalsh(S)
        assert np.all(np.isfinite(S))
        assert vals[0] > -1e-12 * vals[-1]
        assert np.linalg.matrix_rank(S) == 7
        assert np.abs(S @ np.ones(8)).max() < 1e-12 * vals[-1]

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_fewer_draws_than_nodes(self, k):
        L = self.laplacian()
        S = lm.sample_covariance(L, k, 4, chunk=2)
        vals = np.linalg.eigvalsh(S)
        assert vals[0] > -1e-12 * vals[-1]
        assert np.linalg.matrix_rank(S) == min(k, 7)
        assert np.abs(S @ np.ones(8)).max() < 1e-12 * vals[-1]


class TestTraceIdentity:
    def test_l1_norm_equals_trace(self):
        # off-diagonal l1 mass of a Laplacian equals its trace
        rng = np.random.default_rng(0)
        for trial in range(100):
            g = random_connected_graph(int(rng.integers(3, 9)), 0.6, trial)
            w = rng.uniform(0, 3, g.m)
            theta = lm.weights_to_laplacian(w, g)
            off = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
            assert abs(off - np.trace(theta)) < 1e-12 * max(1.0, np.trace(theta))


class TestEdgeGraphValidation:
    def test_rejects_bad_edges(self):
        with pytest.raises(GraphError):
            lm.EdgeGraph(3, [(1, 1)])
        with pytest.raises(GraphError):
            lm.EdgeGraph(3, [(2, 1)])
        with pytest.raises(GraphError):
            lm.EdgeGraph(3, [(0, 3)])
        with pytest.raises(GraphError):
            lm.EdgeGraph(3, [(0, 1), (0, 1)])

    def test_sorts_lexicographically(self):
        g = lm.EdgeGraph(4, [(1, 3), (0, 2), (0, 1)], weights=[3.0, 2.0, 1.0])
        assert [tuple(e) for e in g.edges] == [(0, 1), (0, 2), (1, 3)]
        np.testing.assert_array_equal(g.weights, [1.0, 2.0, 3.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphError):
            lm.EdgeGraph(3, [(0, 1)], weights=[-1.0])

    def test_immutable_arrays(self):
        g = lm.EdgeGraph(3, [(0, 1)], weights=[1.0])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2
        with pytest.raises(ValueError):
            g.weights[0] = 2.0
