import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp import io as lio

from util import make_problem

TRIANGLE = lm.EdgeGraph(3, [(0, 1), (0, 2), (1, 2)])
P = lm.PenaltyParams(0.1, 1.5)
EYE = np.eye(3)
ASYMMETRIC = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestInputs:
    @pytest.mark.parametrize(
        "S, prior, params, exc, match",
        [
            (np.ones((3, 4)), TRIANGLE, P, ValueError, "square"),
            (np.diag([1.0, np.nan, 1.0]), TRIANGLE, P, ValueError, "non-finite"),
            (ASYMMETRIC, TRIANGLE, P, ValueError, "not symmetric"),
            (EYE, [(0, 1), (1, 2)], P, TypeError, "EdgeGraph or ConnectivityPrior"),
            (EYE, lm.EdgeGraph(3, []), P, ValueError, "no candidate edges"),
            (np.eye(4), TRIANGLE, P, ValueError, "node count"),
            (EYE, TRIANGLE, (0.1, 1.5), TypeError, "PenaltyParams"),
        ],
        ids=[
            "non_square", "non_finite", "asymmetric", "prior_type", "empty_prior",
            "node_count", "params_type",
        ],
    )
    def test_rejected(self, S, prior, params, exc, match):
        with pytest.raises(exc, match=match):
            lm.ProblemData(S, prior, params)


class TestDegeneracyFloor:
    """The a(S) floor of check_solvable is relative, so rescaling S changes
    no verdict."""

    MODELS = [("cgl-mcp", 0.05), ("cgl-l1", 0.0)]

    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e8])
    @pytest.mark.parametrize("model, lam", MODELS)
    def test_scaled_covariance_passes(self, c, model, lam):
        problem, _, _ = make_problem(n=12, p=0.4, seed=5, k=60000)
        scaled = lm.ProblemData(c * problem.S, problem.prior, lm.PenaltyParams(lam, 1.5))
        scaled.check_solvable(model)

    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e8])
    @pytest.mark.parametrize("model, lam", MODELS)
    def test_duplicated_column_raises(self, c, model, lam):
        X = np.random.default_rng(0).standard_normal((400, 6))
        X[:, 5] = X[:, 4]
        S = c * lio.covariance_from_data(X)
        full = lm.EdgeGraph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        problem = lm.ProblemData(S, full, lm.PenaltyParams(lam, 1.5))
        with pytest.raises(ValueError, match=r"degenerate covariance.*\(4, 5\)"):
            problem.check_solvable(model)
