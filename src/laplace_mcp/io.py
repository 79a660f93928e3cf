"""File interchange: Matrix Market covariances, CSV data matrices, JSON graphs
and reports, and sweep CSV emission."""

from __future__ import annotations

import csv
import json

import numpy as np

from .graphs import EdgeGraph
from .report import SolveReport

__all__ = [
    "read_covariance",
    "write_covariance",
    "read_data_matrix",
    "covariance_from_data",
    "load_graph",
    "save_graph",
    "load_report",
    "save_report",
    "SWEEP_COLUMNS",
    "write_sweep_csv",
]

SWEEP_COLUMNS = ["lambda", "edges", "f1", "recovery_error", "objective", "time_s", "status"]


def read_covariance(path):
    """Read a symmetric matrix in Matrix Market array or coordinate format.

    Rejects NaN entries and non-square inputs; enforces symmetry as (S+S^T)/2.
    """
    # imported on use, so that a solver process reading no Matrix Market file
    # loads no scipy (README, "One BLAS")
    import scipy.io
    import scipy.sparse

    M = scipy.io.mmread(path)
    if scipy.sparse.issparse(M):
        M = M.toarray()
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"covariance in {path} is not square: shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(
            f"covariance in {path} has non-finite entries; generalized covariances "
            "for missing data are not supported"
        )
    return 0.5 * (M + M.T)


def write_covariance(path, S):
    import scipy.io

    scipy.io.mmwrite(path, np.asarray(S, dtype=float))


def read_data_matrix(path):
    """Read a raw data matrix (k rows of n comma-separated values, header optional)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    tokens = [t.strip() for t in first.strip().split(",") if t.strip() != ""]
    skip = 0
    try:
        [float(t) for t in tokens]
    except ValueError:
        skip = 1
    X = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"data in {path} has non-finite entries")
    if X.shape[0] < 2:
        raise ValueError("at least two samples are required")
    return X


def covariance_from_data(X):
    """Second-moment matrix of column-centered data: S = (1/k) X^T X."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("at least two samples are required")
    Xc = X - X.mean(axis=0, keepdims=True)
    S = Xc.T @ Xc / X.shape[0]
    return 0.5 * (S + S.T)


def load_graph(path):
    """Read a graph JSON object {"n": int, "edges": [[i, j, weight], ...]}.

    Entries may be [i, j] pairs (unweighted) or [i, j, w] triples; 0-based
    node indices.
    """
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    n = int(d["n"])
    raw = d.get("edges", [])
    if not raw:
        return EdgeGraph(n, np.zeros((0, 2), dtype=np.int64))
    lens = {len(e) for e in raw}
    if lens == {2}:
        return EdgeGraph(n, [(int(e[0]), int(e[1])) for e in raw])
    if lens == {3}:
        edges = [(int(e[0]), int(e[1])) for e in raw]
        weights = [float(e[2]) for e in raw]
        return EdgeGraph(n, edges, weights)
    raise ValueError(f"graph file {path} mixes weighted and unweighted edges")


def save_graph(path, graph):
    if graph.weights is not None:
        edges = [
            [int(i), int(j), float(w)]
            for (i, j), w in zip(graph.edges, graph.weights)
        ]
    else:
        edges = [[int(i), int(j)] for i, j in graph.edges]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": int(graph.n), "edges": edges}, fh)
        fh.write("\n")


def save_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return SolveReport.from_dict(json.load(fh))


def write_sweep_csv(path, rows):
    """Write sweep rows (dicts keyed by SWEEP_COLUMNS) with the fixed schema."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in SWEEP_COLUMNS})
