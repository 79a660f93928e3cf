"""Sparse combinatorial graph Laplacian estimation with a minimax concave penalty.

Solves the non-convex MCP-penalized maximum-likelihood model over the cone of
graph Laplacians by an inexact proximal difference-of-convex loop whose convex
subproblems are handled through a semismooth Newton method on their duals,
warm-started by projected Newton on the l1 (trace) penalized model, whose
ADMM solver is the l1 baseline.
"""

from .admm import AdmmParams, solve_l1
from .dca import DcaParams, DescentError, solve_mcp
from .graphs import (
    ConnectivityPrior,
    EdgeGraph,
    GraphError,
    gen_erdos_renyi,
    gen_grid,
    gen_modular,
    generate_connected,
    laplacian_adjoint,
    perturb_connectivity,
    population_covariance,
    sample_covariance,
    sample_weights,
    true_prior,
    weights_to_laplacian,
)
from .linalg import (
    GramSolver,
    clarke_diag,
    prox_logdet,
    prox_logdet_dderiv,
)
from .metrics import detected_edges, f1_score, recovery_error
from .penalty import PenaltyParams, objective_value
from .problem import ProblemData
from .report import SolveReport
from .ssn import CertificateError

__version__ = "0.1.0"
