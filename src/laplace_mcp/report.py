"""Solver run reports: iterate history, termination reason, and JSON round-trip."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import EdgeGraph, weights_to_laplacian

__all__ = ["SolveReport"]


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``history`` holds one dict per recorded iteration with plain floats only;
    ``stationarity`` is the first-order stationarity residual of ``w`` (see
    :func:`laplace_mcp.penalty.stationarity`); ``config`` echoes the fully
    resolved run configuration so the run can be reproduced from the report
    alone. ``trace`` carries in-memory arrays for certificate auditing and is
    not serialized.
    """

    model: str
    n: int
    edges: np.ndarray
    w: np.ndarray
    objective: float
    termination: str
    wall_time_s: float
    history: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    warm_start: dict | None = None
    stationarity: float | None = None
    trace: list | None = None

    @property
    def converged(self):
        return self.termination == "converged"

    def graph(self):
        return EdgeGraph(self.n, self.edges)

    def theta(self):
        """Estimated precision matrix built from the final weights."""
        return weights_to_laplacian(self.w, self.graph())

    def to_dict(self):
        return {
            "model": self.model,
            "n": int(self.n),
            "edges": [[int(i), int(j)] for i, j in np.asarray(self.edges)],
            "w": [float(v) for v in np.asarray(self.w)],
            "objective": float(self.objective),
            "termination": self.termination,
            "wall_time_s": float(self.wall_time_s),
            "history": self.history,
            "config": self.config,
            "warm_start": self.warm_start,
            "stationarity": self.stationarity,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            model=d["model"],
            n=int(d["n"]),
            edges=np.asarray(d["edges"], dtype=np.int64).reshape(-1, 2),
            w=np.asarray(d["w"], dtype=float),
            objective=float(d["objective"]),
            termination=d["termination"],
            wall_time_s=float(d["wall_time_s"]),
            history=list(d.get("history", [])),
            config=dict(d.get("config", {})),
            warm_start=d.get("warm_start"),
            stationarity=d.get("stationarity"),
        )
