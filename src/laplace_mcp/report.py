"""Solver run reports: iterate history, termination reason, and JSON round-trip."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .graphs import EdgeGraph, weights_to_laplacian

__all__ = ["SolveReport"]


def _same(value):
    return value


def _edge_array(edges):
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _float_array(values):
    return np.asarray(values, dtype=float)


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``history`` holds one dict per recorded iteration with plain floats only;
    ``stationarity`` is the first-order stationarity residual of ``w`` (see
    :func:`laplace_mcp.penalty.stationarity`); ``config`` echoes the fully
    resolved run configuration so the run can be reproduced from the report
    alone. Every field is serialized: :meth:`to_dict` has one key per field,
    and :meth:`from_dict` restores each of them, both through the field's
    ``convert`` metadata where it has one.
    """

    model: str
    n: int = field(metadata={"convert": int})
    edges: np.ndarray = field(metadata={"convert": _edge_array})
    w: np.ndarray = field(metadata={"convert": _float_array})
    objective: float = field(metadata={"convert": float})
    termination: str
    wall_time_s: float = field(metadata={"convert": float})
    history: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    warm_start: dict | None = None
    stationarity: float | None = None

    @property
    def converged(self):
        return self.termination == "converged"

    def graph(self):
        return EdgeGraph(self.n, self.edges)

    def theta(self):
        """Estimated precision matrix built from the final weights."""
        return weights_to_laplacian(self.w, self.graph())

    def to_dict(self):
        """One JSON-ready entry per field, each converted by its ``convert``
        (arrays become nested lists)."""
        d = {}
        for f in fields(self):
            value = f.metadata.get("convert", _same)(getattr(self, f.name))
            d[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return d

    @classmethod
    def from_dict(cls, d):
        """The report of a :meth:`to_dict` mapping. A missing field without a
        default raises KeyError naming it; a key that names no field is
        ignored."""
        return cls(
            **{
                f.name: f.metadata.get("convert", _same)(d[f.name])
                for f in fields(cls)
                if f.name in d or (f.default is MISSING and f.default_factory is MISSING)
            }
        )
