"""Edge-recovery metrics: detected edge sets, F1 score, and relative recovery error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["detected_edges", "f1_score", "recovery_error"]


@dataclass(frozen=True)
class _EdgeDecision:
    """Confusion counts of an estimated edge set against the true one."""

    tp: int
    fp: int
    fn: int


def detected_edges(w, edges, threshold_rel=1e-4):
    """Edges whose weight exceeds threshold_rel times the largest weight.

    With threshold_rel = 0 every strictly positive weight counts.
    """
    if threshold_rel < 0:
        raise ValueError("threshold must be non-negative")
    w = np.asarray(w, dtype=float).reshape(-1)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if w.shape[0] != edges.shape[0]:
        raise ValueError("weights and edges must align")
    if w.size == 0:
        return edges[:0]
    wmax = max(float(w.max()), 0.0)
    return edges[w > threshold_rel * wmax]


def _as_edge_set(edges):
    if isinstance(edges, set):
        return {(int(i), int(j)) for i, j in edges}
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return {(int(i), int(j)) for i, j in edges}


def _edge_decision(est, truth):
    est_set = _as_edge_set(est)
    true_set = _as_edge_set(truth)
    tp = len(est_set & true_set)
    return _EdgeDecision(tp=tp, fp=len(est_set) - tp, fn=len(true_set) - tp)


def f1_score(est, truth):
    """2 tp / (2 tp + fp + fn); defined as 1 when both edge sets are empty."""
    d = _edge_decision(est, truth)
    denom = 2 * d.tp + d.fp + d.fn
    if denom == 0:
        return 1.0
    return 2.0 * d.tp / denom


def recovery_error(theta, L_true):
    """Relative Frobenius error ||theta - L_true|| / ||L_true||."""
    theta = np.asarray(theta, dtype=float)
    L_true = np.asarray(L_true, dtype=float)
    scale = np.linalg.norm(L_true)
    if scale == 0:
        raise ValueError("true matrix must be nonzero")
    return float(np.linalg.norm(theta - L_true) / scale)
