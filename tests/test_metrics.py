import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp.metrics import _edge_decision


class TestDetectedEdges:
    def test_all_zero_weights(self):
        edges = np.array([[0, 1], [1, 2]])
        assert lm.detected_edges(np.zeros(2), edges).shape[0] == 0

    def test_relative_threshold(self):
        edges = np.array([[0, 1], [1, 2]])
        out = lm.detected_edges(np.array([1.0, 1e-6]), edges, 1e-4)
        assert out.shape[0] == 1
        assert tuple(out[0]) == (0, 1)

    def test_zero_threshold_counts_positives(self):
        edges = np.array([[0, 1], [1, 2], [0, 2]])
        out = lm.detected_edges(np.array([0.5, 0.0, 1e-300]), edges, 0.0)
        assert {tuple(e) for e in out} == {(0, 1), (0, 2)}

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            lm.detected_edges(np.ones(1), np.array([[0, 1]]), -1.0)


class TestF1:
    def test_perfect(self):
        edges = [(0, 1), (2, 3)]
        assert lm.f1_score(edges, edges) == 1.0

    def test_half(self):
        # tp=1, fp=1, fn=1
        assert lm.f1_score([(0, 1), (1, 2)], [(0, 1), (2, 3)]) == 0.5

    def test_disjoint(self):
        assert lm.f1_score([(0, 1)], [(2, 3)]) == 0.0

    def test_both_empty(self):
        assert lm.f1_score([], []) == 1.0

    def test_permutation_invariant(self):
        a = [(0, 1), (1, 2), (2, 3)]
        b = [(2, 3), (0, 1), (1, 2)]
        assert lm.f1_score(a, b) == 1.0

    def test_symmetric_in_fp_fn(self):
        est = [(0, 1), (1, 2), (4, 5)]
        truth = [(0, 1), (2, 3), (6, 7)]
        assert lm.f1_score(est, truth) == lm.f1_score(truth, est)

    def test_counts(self):
        d = _edge_decision([(0, 1), (1, 2)], [(0, 1), (2, 3), (3, 4)])
        assert (d.tp, d.fp, d.fn) == (1, 1, 2)
        assert d.tp + d.fn == 3
        assert d.tp + d.fp == 2


class TestRecoveryError:
    def test_exact(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert lm.recovery_error(L, L) == 0.0

    def test_zero_estimate(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert lm.recovery_error(np.zeros((2, 2)), L) == 1.0

    def test_double_estimate(self):
        L = np.array([[2.0, -2.0], [-2.0, 2.0]])
        assert lm.recovery_error(2 * L, L) == pytest.approx(1.0, rel=1e-14)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            lm.recovery_error(np.eye(2), np.zeros((2, 2)))

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(0)
        g = lm.gen_erdos_renyi(8, 0.5, 1)
        gw = lm.sample_weights(g, 0.1, 3.0, 2)
        L = gw.laplacian()
        theta = L + 0.01 * rng.standard_normal((8, 8))
        theta = 0.5 * (theta + theta.T)
        perm = rng.permutation(8)
        P = np.eye(8)[perm]
        assert lm.recovery_error(theta, L) == pytest.approx(
            lm.recovery_error(P @ theta @ P.T, P @ L @ P.T), rel=1e-12
        )
