import numpy as np
import pytest

import laplace_mcp as lm


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
        # tp=1, fp=1, fn=2: 2 tp / (2 tp + fp + fn) = 2/5
        assert lm.f1_score([(0, 1), (1, 2)], [(0, 1), (2, 3), (3, 4)]) == 2.0 / 5

    def test_equals_confusion_count_formula(self):
        # 2 |est & truth| / (|est| + |truth|) is 2 tp / (2 tp + fp + fn) in
        # the same integers, so the two agree to the last bit
        rng = np.random.default_rng(3)
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        for _ in range(50):
            est = [pairs[k] for k in rng.choice(len(pairs), rng.integers(0, 10), replace=False)]
            truth = [pairs[k] for k in rng.choice(len(pairs), rng.integers(1, 10), replace=False)]
            tp = len(set(est) & set(truth))
            fp, fn = len(est) - tp, len(truth) - tp
            assert lm.f1_score(est, truth) == 2.0 * tp / (2 * tp + fp + fn)


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
