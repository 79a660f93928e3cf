"""Command-line surface: gen, solve, sweep, and eval subcommands.

Exit codes: 0 success, 1 usage (argparse's own usage errors included),
input or IO error, 2 the solve ended unconverged (an iteration cap, a failed
line search or no certified step), 3 solver invariant violated (the
quantified descent check failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import io
from .admm import AdmmParams, solve_l1
from .dca import DcaParams, DescentError, solve_mcp
from .graphs import ConnectivityPrior, EdgeGraph, GraphError, _pair_indices
from .metrics import detected_edges, f1_score, recovery_error
from .penalty import _MODELS, PenaltyParams
from .problem import ProblemData
from .sweep import (
    _ENSEMBLES,
    _SCENARIOS,
    SweepConfig,
    instance_covariance,
    run_sweep,
    truth_graph,
)

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


def _seed_range(count):
    """The seeds 0..count-1 of a ``--seeds`` count."""
    return list(range(int(count)))


def _add_graph_options(parser, defaults, required):
    """The truth-graph options that gen and sweep share. Each sets the
    :class:`SweepConfig` field named by its dest, or for ``--weights`` the
    weight range, and defaults to that field's value in ``defaults``; with
    ``required``, ``--ensemble`` and ``--nodes`` must be given."""
    parser.add_argument(
        "--ensemble", choices=list(_ENSEMBLES), required=required,
        default=defaults.ensemble,
    )
    parser.add_argument("--nodes", dest="n", type=int, required=required, default=defaults.n)
    parser.add_argument("--prob", type=float, default=defaults.prob, help="edge probability (er)")
    parser.add_argument("--p1", type=float, default=defaults.p1, help="cross-module probability")
    parser.add_argument("--p2", type=float, default=defaults.p2, help="within-module probability")
    parser.add_argument("--modules", type=int, default=defaults.modules)
    parser.add_argument(
        "--weights", type=float, nargs=2, metavar=("LO", "HI"),
        default=(defaults.weight_lo, defaults.weight_hi),
    )


class _Parser(argparse.ArgumentParser):
    """argparse's parser with usage errors exiting 1, not argparse's 2, which
    here means an unconverged solve; the subcommand parsers share the class."""

    def error(self, message):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _build_parser():
    defaults = SweepConfig()
    parser = _Parser(
        prog="laplace-mcp",
        description="Learn sparse combinatorial graph Laplacians from covariance data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic weighted graph (and covariance)")
    _add_graph_options(gen, defaults, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="graph JSON output path")
    gen.add_argument("--cov", help="also write a covariance Matrix Market file")
    gen.add_argument(
        "--samples",
        type=int,
        help="sample size for the covariance, at least 1; omit to write the exact "
        "pseudo-inverse",
    )

    solve = sub.add_parser("solve", help="solve one model instance from files")
    solve.add_argument("--model", choices=_MODELS, required=True)
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
    solve.add_argument("--gamma", type=float, default=defaults.gamma)
    solve.add_argument("--eps", type=float)
    solve.add_argument(
        "--max-outer",
        type=int,
        help="cap on the outer d.c. steps of a cgl-mcp solve; cgl-l1 rejects it",
    )
    solve.add_argument(
        "--max-iter",
        type=int,
        help="cap on the projected-Newton steps of a cgl-l1 solve; cgl-mcp rejects it",
    )
    solve.add_argument("--out", help="report JSON output path")

    sweep = sub.add_parser("sweep", help="lambda/seed benchmark sweep on synthetic graphs")
    sweep.add_argument("--model", choices=_MODELS, default=defaults.model)
    _add_graph_options(sweep, defaults, required=False)
    sweep.add_argument(
        "--truth", dest="truth_file", help="fixed truth graph JSON instead of an ensemble"
    )
    sweep.add_argument("--scenario", choices=list(_SCENARIOS), default=defaults.scenario)
    sweep.add_argument("--coarse-factor", type=float, default=defaults.coarse_factor)
    sweep.add_argument("--drop-percent", type=float, default=defaults.drop_percent)
    sweep.add_argument("--lambdas", help="log grid lo:hi:count")
    sweep.add_argument(
        "--seeds", type=_seed_range, default=defaults.seeds, help="number of seeds (0..N-1)"
    )
    sweep.add_argument("--samples-per-node", type=int, default=defaults.samples_per_node)
    sweep.add_argument("--exact-cov", action="store_true", default=defaults.exact_cov)
    sweep.add_argument("--gamma", type=float, default=defaults.gamma)
    sweep.add_argument("--eps", type=float, default=defaults.eps)
    sweep.add_argument(
        "--threads",
        type=int,
        default=defaults.threads,
        help="(lambda, seed) cells solved at once, at least 1; more threads compete "
        "with a multithreaded BLAS, and pay with one BLAS thread (OPENBLAS_NUM_THREADS=1)",
    )
    sweep.add_argument("--out", required=True, help="CSV output path")

    ev = sub.add_parser("eval", help="score a report against a truth graph")
    ev.add_argument("--report", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--threshold-rel", type=float, default=defaults.threshold_rel)
    ev.add_argument("--out", help="metrics JSON output path (default: stdout)")
    return parser


def _sweep_config(args):
    """The :class:`SweepConfig` of parsed gen or sweep options: each option
    sets the field named by its dest, ``--weights`` the weight range and
    ``--lambdas``, where given, the grid it spells; the other fields keep
    their defaults."""
    names = {f.name for f in dataclasses.fields(SweepConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    if "lambdas" in given:
        given["lambdas"] = _parse_lambda_grid(given["lambdas"])
    given["weight_lo"], given["weight_hi"] = args.weights
    return SweepConfig(**given)


def _cmd_gen(args):
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    g = truth_graph(_sweep_config(args), args.seed)
    io.save_graph(args.out, g)
    print(f"wrote {args.out}: n={g.n}, edges={g.m}")
    if args.cov:
        io.write_covariance(args.cov, instance_covariance(g.laplacian(), args.seed, args.samples))
        kind = "exact pseudo-inverse" if args.samples is None else f"sampled k={args.samples}"
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
    if args.model == "cgl-l1" and args.max_outer is not None:
        raise ValueError(
            "--max-outer must be left unset for --model cgl-l1: it caps the "
            "outer d.c. steps of a cgl-mcp solve"
        )
    if args.cov:
        S = io.read_covariance(args.cov)
    else:
        S = io.covariance_from_data(io.read_data_matrix(args.data))
    n = S.shape[0]
    prior = _resolve_prior(args.connectivity, n)
    problem = ProblemData(S, prior, PenaltyParams(args.lam, args.gamma))
    # an option left unset keeps the parameter class's default
    given = {
        k: v for k, v in vars(args).items()
        if k in ("eps", "max_outer", "max_iter") and v is not None
    }
    if args.model == "cgl-mcp":
        report = solve_mcp(problem, DcaParams(**given))
    else:
        report = solve_l1(problem, AdmmParams(**given))
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
    cfg = _sweep_config(args)
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
