"""Command-line surface: gen, solve, sweep, and eval subcommands.

Exit codes: 0 success, 1 usage, input or IO error, 2 the solve ended
unconverged (an iteration cap, a failed line search or no certified step),
3 solver invariant violated (the quantified descent check failed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .admm import AdmmParams, solve_l1
from .dca import DcaParams, DescentError, solve_mcp
from .graphs import (
    ConnectivityPrior,
    EdgeGraph,
    GraphError,
    _pair_indices,
    population_covariance,
    sample_covariance,
)
from .metrics import detected_edges, f1_score, recovery_error
from .penalty import PenaltyParams
from .problem import ProblemData
from .sweep import SweepConfig, run_sweep, truth_graph

__all__ = ["main"]


def _parse_lambda_grid(spec):
    """Log-spaced grid from a lo:hi:count specification."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("lambda grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if lo <= 0 or hi <= 0 or count < 1:
        raise ValueError("lambda grid requires positive endpoints and count >= 1")
    if count == 1:
        return [lo]
    return list(np.logspace(np.log10(lo), np.log10(hi), count))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="laplace-mcp",
        description="Learn sparse combinatorial graph Laplacians from covariance data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic weighted graph (and covariance)")
    gen.add_argument("--ensemble", choices=["er", "grid", "modular"], required=True)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--prob", type=float, default=0.1, help="edge probability (er)")
    gen.add_argument("--p1", type=float, default=0.005, help="cross-module probability")
    gen.add_argument("--p2", type=float, default=0.25, help="within-module probability")
    gen.add_argument("--modules", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weights", type=float, nargs=2, default=(0.1, 3.0), metavar=("LO", "HI"))
    gen.add_argument("--out", required=True, help="graph JSON output path")
    gen.add_argument("--cov", help="also write a covariance Matrix Market file")
    gen.add_argument(
        "--samples",
        type=int,
        help="sample size for the covariance, at least 1; omit to write the exact "
        "pseudo-inverse",
    )

    solve = sub.add_parser("solve", help="solve one model instance from files")
    solve.add_argument("--model", choices=["cgl-mcp", "cgl-l1"], required=True)
    cov_src = solve.add_mutually_exclusive_group(required=True)
    cov_src.add_argument("--cov", help="covariance Matrix Market file")
    cov_src.add_argument(
        "--data",
        help="raw data CSV (k rows x n columns, header optional); columns are "
        "mean-centered and the covariance is (1/k) X^T X",
    )
    solve.add_argument(
        "--connectivity",
        default="full",
        help="'full' or a graph JSON file with the candidate edges",
    )
    solve.add_argument("--lambda", dest="lam", type=float, required=True)
    solve.add_argument("--gamma", type=float, default=1.5)
    solve.add_argument("--eps", type=float, default=1e-6)
    solve.add_argument("--max-outer", type=int, default=500)
    solve.add_argument(
        "--max-iter",
        type=int,
        help="cap on the projected-Newton steps of a cgl-l1 solve (default 20000); "
        "cgl-mcp rejects it",
    )
    solve.add_argument("--out", help="report JSON output path")

    sweep = sub.add_parser("sweep", help="lambda/seed benchmark sweep on synthetic graphs")
    sweep.add_argument("--model", choices=["cgl-mcp", "cgl-l1"], default="cgl-mcp")
    sweep.add_argument("--ensemble", choices=["er", "grid", "modular"], default="er")
    sweep.add_argument("--nodes", type=int, default=100)
    sweep.add_argument("--prob", type=float, default=0.1)
    sweep.add_argument("--p1", type=float, default=0.005)
    sweep.add_argument("--p2", type=float, default=0.25)
    sweep.add_argument("--modules", type=int, default=4)
    sweep.add_argument("--truth", help="fixed truth graph JSON instead of an ensemble")
    sweep.add_argument(
        "--scenario", choices=["true", "coarse", "full", "drop"], default="true"
    )
    sweep.add_argument("--coarse-factor", type=float, default=1.5)
    sweep.add_argument("--drop-percent", type=float, default=10.0)
    sweep.add_argument("--lambdas", default="1e-4:1:10", help="log grid lo:hi:count")
    sweep.add_argument("--seeds", type=int, default=5, help="number of seeds (0..N-1)")
    sweep.add_argument("--samples-per-node", type=int, default=5000)
    sweep.add_argument("--exact-cov", action="store_true")
    sweep.add_argument("--gamma", type=float, default=1.5)
    sweep.add_argument("--eps", type=float, default=1e-6)
    sweep.add_argument("--weights", type=float, nargs=2, default=(0.1, 3.0))
    sweep.add_argument(
        "--threads",
        type=int,
        default=1,
        help="(lambda, seed) cells solved at once, at least 1; default 1: more "
        "threads compete with a multithreaded BLAS, and pay with one BLAS thread "
        "(OPENBLAS_NUM_THREADS=1)",
    )
    sweep.add_argument("--out", required=True, help="CSV output path")

    ev = sub.add_parser("eval", help="score a report against a truth graph")
    ev.add_argument("--report", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--threshold-rel", type=float, default=1e-4)
    ev.add_argument("--out", help="metrics JSON output path (default: stdout)")
    return parser


def _cmd_gen(args):
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    cfg = SweepConfig(
        ensemble=args.ensemble,
        n=args.nodes,
        prob=args.prob,
        p1=args.p1,
        p2=args.p2,
        modules=args.modules,
        weight_lo=args.weights[0],
        weight_hi=args.weights[1],
    )
    g = truth_graph(cfg, args.seed)
    io.save_graph(args.out, g)
    print(f"wrote {args.out}: n={g.n}, edges={g.m}")
    if args.cov:
        L = g.laplacian()
        if args.samples is not None:
            S = sample_covariance(L, args.samples, args.seed + 104729)
            kind = f"sampled k={args.samples}"
        else:
            S = population_covariance(L)
            kind = "exact pseudo-inverse"
        io.write_covariance(args.cov, S)
        print(f"wrote {args.cov} ({kind})")
    return 0


def _resolve_prior(spec, n):
    if spec == "full":
        return ConnectivityPrior(EdgeGraph(n, _pair_indices(n)), "full")
    g = io.load_graph(spec).unweighted()
    if g.n != n:
        raise ValueError(
            f"connectivity file has {g.n} nodes but the covariance has {n}"
        )
    return ConnectivityPrior(g, "file")


def _cmd_solve(args):
    if args.model == "cgl-mcp" and args.max_iter is not None:
        raise ValueError(
            "--max-iter must be left unset for --model cgl-mcp: it caps the "
            "projected Newton steps of a cgl-l1 solve"
        )
    if args.cov:
        S = io.read_covariance(args.cov)
    else:
        S = io.covariance_from_data(io.read_data_matrix(args.data))
    n = S.shape[0]
    prior = _resolve_prior(args.connectivity, n)
    if args.model == "cgl-l1" and args.lam <= 0:
        raise ValueError("the cgl-l1 model requires lambda > 0")
    if args.lam < 0:
        raise ValueError("lambda must be non-negative")
    problem = ProblemData(S, prior, PenaltyParams(args.lam, args.gamma))
    if args.model == "cgl-mcp":
        report = solve_mcp(problem, DcaParams(eps=args.eps, max_outer=args.max_outer))
    else:
        max_iter = AdmmParams.max_iter if args.max_iter is None else args.max_iter
        report = solve_l1(problem, AdmmParams(eps=args.eps, max_iter=max_iter))
    report.config.update(
        {
            "cov": args.cov,
            "data": args.data,
            "connectivity": args.connectivity,
            "out": args.out,
        }
    )
    if args.out:
        io.save_report(args.out, report)
    warm = report.warm_start
    warm_note = (
        f", warm start {warm['steps']} projected-Newton steps ({warm['cg_steps']} CG "
        f"steps) in {warm['wall_time_s']:.2f}s"
        if warm
        else ""
    )
    print(
        f"{args.model}: termination={report.termination}, "
        f"objective={report.objective:.6e}, stationarity={report.stationarity:.3e}, "
        f"time={report.wall_time_s:.2f}s{warm_note}"
    )
    if args.model == "cgl-mcp":
        steps = report.history
        print(
            f"work: {len(steps)} outer steps, "
            f"{sum(h['ssn_iterations'] for h in steps)} Newton steps, "
            f"{sum(h['ssn_cg_steps'] for h in steps)} CG steps"
        )
        polished = [h for h in steps if h["polish_steps"] or h["polish_refused"]]
        print(
            f"polish: {sum(h['polish_steps'] for h in steps)} steps, "
            f"{sum(h['polish_refused'] for h in steps)} refused, "
            f"{sum(h['split_exact'] for h in polished)} of {len(polished)} started on "
            "the exact split"
        )
    else:
        last = report.history[-1]
        print(
            f"work: {last['iteration']} projected-Newton steps ({last['cg_steps']} CG steps)"
        )
    return 0 if report.converged else 2


def _cmd_sweep(args):
    cfg = SweepConfig(
        model=args.model,
        ensemble=args.ensemble,
        n=args.nodes,
        prob=args.prob,
        p1=args.p1,
        p2=args.p2,
        modules=args.modules,
        truth_file=args.truth,
        scenario=args.scenario,
        coarse_factor=args.coarse_factor,
        drop_percent=args.drop_percent,
        lambdas=_parse_lambda_grid(args.lambdas),
        seeds=list(range(args.seeds)),
        samples_per_node=args.samples_per_node,
        exact_cov=args.exact_cov,
        gamma=args.gamma,
        eps=args.eps,
        weight_lo=args.weights[0],
        weight_hi=args.weights[1],
        threads=args.threads,
    )
    records, averages = run_sweep(cfg)
    io.write_sweep_csv(args.out, [r.row() for r in records])
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    avg_path = stem + "_avg.csv"
    io.write_sweep_csv(avg_path, [r.row() for r in averages])
    cfg_path = stem + "_config.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} rows to {args.out}, averages to {avg_path}")
    capped = sum(1 for r in records if r.status != "converged")
    if capped:
        print(f"{capped} cells did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_eval(args):
    report = io.load_report(args.report)
    truth = io.load_graph(args.truth)
    if truth.n != report.n:
        raise ValueError(
            f"truth has {truth.n} nodes but the report has {report.n}"
        )
    est = detected_edges(report.w, report.edges, args.threshold_rel)
    metrics = {
        "f1": f1_score(est, truth.edges),
        "estimated_edges": int(est.shape[0]),
        "true_edges": int(truth.m),
    }
    if truth.weights is not None:
        metrics["recovery_error"] = recovery_error(report.theta(), truth.laplacian())
    payload = json.dumps(metrics, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, GraphError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DescentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
