"""Benchmark sweeps: per-seed synthetic instances, lambda grids, and averaged
records matching the documented CSV schema."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .admm import AdmmParams, solve_l1
from .dca import DcaParams, solve_mcp
from .graphs import (
    gen_erdos_renyi,
    gen_grid,
    gen_modular,
    generate_connected,
    perturb_connectivity,
    population_covariance,
    sample_covariance,
    sample_weights,
    true_prior,
)
from .metrics import detected_edges, f1_score, recovery_error
from .penalty import PenaltyParams
from .problem import ProblemData

__all__ = ["SweepConfig", "SweepRecord", "make_instance", "run_sweep", "solve_cell"]

# the truth ensembles by name: each draws an unweighted graph of cfg from a seed
_ENSEMBLES = {
    "er": lambda cfg, s: gen_erdos_renyi(cfg.n, cfg.prob, s),
    "grid": lambda cfg, s: gen_grid(cfg.n),
    "modular": lambda cfg, s: gen_modular(cfg.n, cfg.p1, cfg.p2, s, cfg.modules),
}

# the connectivity-prior scenarios by name: each maps the true prior to the
# prior of cfg's scenario for one seed
_SCENARIOS = {
    "true": lambda base, cfg, seed: base,
    "coarse": lambda base, cfg, seed: perturb_connectivity(
        base, "coarse", seed + 15485863, factor=cfg.coarse_factor
    ),
    "full": lambda base, cfg, seed: perturb_connectivity(base, "full"),
    "drop": lambda base, cfg, seed: perturb_connectivity(
        base, "drop", seed + 32452843, percent=cfg.drop_percent
    ),
}


@dataclass
class SweepConfig:
    """Fully resolved sweep configuration; echoed next to the CSV output."""

    model: str = "cgl-mcp"
    ensemble: str = "er"
    n: int = 100
    prob: float = 0.1
    p1: float = 0.005
    p2: float = 0.25
    modules: int = 4
    truth_file: str | None = None
    scenario: str = "true"
    coarse_factor: float = 1.5
    drop_percent: float = 10.0
    lambdas: list = field(default_factory=lambda: list(np.logspace(-4, 0, 10)))
    seeds: list = field(default_factory=lambda: list(range(5)))
    samples_per_node: int = 5000
    exact_cov: bool = False
    gamma: float = 1.5
    eps: float = 1e-6
    weight_lo: float = 0.1
    weight_hi: float = 3.0
    threshold_rel: float = 1e-4
    # cells solved at once on a thread pool; default 1 (see the README)
    threads: int = 1

    def to_dict(self):
        d = dict(self.__dict__)
        d["lambdas"] = [float(v) for v in self.lambdas]
        d["seeds"] = [int(s) for s in self.seeds]
        return d


@dataclass
class SweepRecord:
    """One (lambda, seed) cell with the reported metric columns."""

    lam: float
    seed: int
    edges: int
    f1: float
    recovery_error: float
    objective: float
    time_s: float
    status: str

    def row(self):
        return {
            "lambda": f"{self.lam:.10g}",
            "edges": self.edges,
            "f1": f"{self.f1:.6f}",
            "recovery_error": f"{self.recovery_error:.6e}",
            "objective": f"{self.objective:.10e}",
            "time_s": f"{self.time_s:.3f}",
            "status": self.status,
        }


@dataclass
class _Instance:
    truth: object
    L_true: np.ndarray
    S: np.ndarray
    prior: object


def _lookup(table, kind, name):
    """The entry ``name`` of ``table``; a ValueError names the choices when
    there is none."""
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; expected one of {tuple(table)}")
    return table[name]


def truth_graph(cfg, seed):
    """The seeded weighted truth graph of ``cfg``: its truth file, or a
    connected draw from its ensemble."""
    if cfg.truth_file is not None:
        from .io import load_graph

        g = load_graph(cfg.truth_file)
        if g.weights is None:
            g = sample_weights(g, cfg.weight_lo, cfg.weight_hi, seed)
        return g
    draw = _lookup(_ENSEMBLES, "ensemble", cfg.ensemble)
    g = generate_connected(lambda s: draw(cfg, s), seed)
    return sample_weights(g, cfg.weight_lo, cfg.weight_hi, seed + 7919)


def instance_covariance(L, seed, k):
    """The covariance input of the instance of ``seed`` with Laplacian ``L``:
    sampled from ``k`` draws, or the exact pseudo-inverse when ``k`` is None."""
    if k is None:
        return population_covariance(L)
    return sample_covariance(L, k, seed + 104729)


def make_instance(cfg, seed):
    """Build one seeded instance: weighted truth, its Laplacian, the covariance
    input, and the connectivity prior for the configured scenario."""
    scenario = _lookup(_SCENARIOS, "scenario", cfg.scenario)
    truth = truth_graph(cfg, seed)
    L = truth.laplacian()
    k = None if cfg.exact_cov else cfg.samples_per_node * truth.n
    S = instance_covariance(L, seed, k)
    return _Instance(truth, L, S, scenario(true_prior(truth), cfg, seed))


def solve_cell(cfg, inst, seed, lam):
    """Solve the (lam, seed) cell of ``cfg`` on ``inst``, the instance of
    ``seed``, from its own constant weights, and return (record, problem,
    report). The solver gets ``cfg.eps`` and its other parameters' defaults."""
    t0 = time.perf_counter()
    problem = ProblemData(inst.S, inst.prior, PenaltyParams(lam, cfg.gamma))
    if cfg.model == "cgl-mcp":
        report = solve_mcp(problem, DcaParams(eps=cfg.eps))
    elif cfg.model == "cgl-l1":
        report = solve_l1(problem, AdmmParams(eps=cfg.eps))
    else:
        raise ValueError(f"unknown model {cfg.model!r}")
    est = detected_edges(report.w, problem.prior.edges, cfg.threshold_rel)
    record = SweepRecord(
        lam=float(lam),
        seed=int(seed),
        edges=int(est.shape[0]),
        f1=f1_score(est, inst.truth.edges),
        recovery_error=recovery_error(report.theta(), inst.L_true),
        objective=float(report.objective),
        time_s=time.perf_counter() - t0,
        status=report.termination,
    )
    return record, problem, report


def run_sweep(cfg):
    """Run every (lambda, seed) cell and return (records, per-lambda averages).

    Instance data is synthesized once per seed. Each cell is solved on its
    own (see :func:`solve_cell`), one after another unless ``cfg.threads >
    1``, which solves that many cells at once on a thread pool. Records come
    back lambda-major in the grid order as given, seeds in the order as given.
    """
    if not cfg.lambdas:
        raise ValueError("lambda grid is empty")
    if not cfg.seeds:
        raise ValueError("seed list is empty")
    if cfg.threads < 1:
        raise ValueError(f"threads must be at least 1, got {cfg.threads}")
    instances = {seed: make_instance(cfg, seed) for seed in cfg.seeds}
    lams, seeds = zip(*[(lam, seed) for lam in cfg.lambdas for seed in cfg.seeds])
    run = lambda lam, seed: solve_cell(cfg, instances[seed], seed, lam)[0]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            records = list(pool.map(run, lams, seeds))
    else:
        records = list(map(run, lams, seeds))
    averages = []
    for lam in cfg.lambdas:
        group = [r for r in records if r.lam == float(lam)]
        averages.append(
            SweepRecord(
                lam=float(lam),
                seed=-1,
                edges=int(round(np.mean([r.edges for r in group]))),
                f1=float(np.mean([r.f1 for r in group])),
                recovery_error=float(np.mean([r.recovery_error for r in group])),
                objective=float(np.mean([r.objective for r in group])),
                time_s=float(np.mean([r.time_s for r in group])),
                status="converged"
                if all(r.status == "converged" for r in group)
                else "mixed",
            )
        )
    return records, averages
