"""Benchmark for laplace-mcp: time to a certified solution, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload table2-full --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Workloads (closed loop: one caller, one solve at a time, public API only):

  er100-sweep  run_sweep, model cgl-mcp, ER n=100 p=0.1, true prior, sampled
               covariance (5000 samples/node), a lambda grid over two seeds.
               Many short solves; the only workload with lambda paths.
  table2-full  solve_mcp on the acceptance suite's Table-2 graph (modular
               n=160, p1=0.005, p2=0.25, graph seed 0) with the full prior
               (m=12720) and a covariance sampled from the seed, lambda=0.005.
               One long solve dominated by Newton-CG over a dense candidate set.
  er250-l1     solve_l1 on ER n=250 p=0.05 with the exact covariance. ADMM at
               the largest n with the sparse-LU Gram solver; SSN never runs.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (median
over repeated set-ups), ``solve_s`` (median over the solves that fit in
``--seconds``, at least one), ``f1``, ``rel_err``, ``pass_ratio`` and
``peak_rss_mb``. With ``--trace 1`` it solves once untraced and once with spans
around the library's public functions (see spans.py), checks that both return
bit-identical weights, and reports the per-layer metrics plus
``trace.overhead``; the spans go to ``bench/out/``. The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.

BLAS threads stay at the library default and sweeps run with one worker
thread; the environment echo records both. Each run uses one workload in its
own process, so ``peak_rss_mb`` belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# logspace(-4, 0, 5): the acceptance suite's ten-point grid would double the run
SWEEP_LAMBDAS = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
SWEEP_SEEDS_PER_RUN = 2
SWEEP_THREADS = 1
EPS = 1e-6
GAMMA = 1.5


def _import_library():
    """Import laplace_mcp from this checkout's src/ and nowhere else."""
    if not (SRC / "laplace_mcp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no laplace_mcp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import laplace_mcp as lm
    import laplace_mcp.sweep  # noqa: F401  (run_sweep lives outside the package namespace)

    if Path(lm.__file__).resolve().parent != (SRC / "laplace_mcp").resolve():
        raise SystemExit(f"bench: imported laplace_mcp from {lm.__file__}, not {SRC}")
    return lm


def _solve_errors(lm):
    """Exceptions a solve can end with; each counts as one failed solve."""
    return (lm.DescentError, lm.CertificateError, RuntimeError, ValueError)


@contextmanager
def _keep_weights(owner, attr):
    """Patch owner.attr, a solver, to keep a copy of each returned report's w."""
    fn = vars(owner)[attr]
    kept = []

    def wrapper(*args, **kwargs):
        report = fn(*args, **kwargs)
        kept.append(report.w.copy())
        return report

    setattr(owner, attr, wrapper)
    try:
        yield kept
    finally:
        setattr(owner, attr, fn)


# ---------------------------------------------------------------- environment


def _openblas_info():
    """Config string and live thread count of each bundled scipy-openblas."""
    import numpy as np

    site = Path(np.__file__).resolve().parent.parent
    libs = []
    for pattern, suffix in (("numpy.libs/libscipy_openblas64_*.so", "64_"),
                            ("scipy.libs/libscipy_openblas*.so", "")):
        for path in sorted(glob.glob(str(site / pattern))):
            lib = ctypes.CDLL(path)
            get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            libs.append({
                "library": Path(path).name,
                "config": get_config().decode(),
                "threads": int(get_threads()),
            })
    return libs


def environment(seed):
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "sweep_threads": SWEEP_THREADS,
        "seed": seed,
    }


# ------------------------------------------------------------------ workloads


class Outcome:
    """Result of one timed call: solves attempted and passed, quality, and the
    weight vectors used for the traced-versus-untraced identity check."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.passed = 0
        self.errors = []
        self.f1 = 0.0
        self.rel_err = 0.0
        self.weights = []


class Er100Sweep:
    name = "er100-sweep"
    n = 100
    setup_repeats = 3

    def __init__(self, lm, seed):
        self.lm = lm
        seeds = [SWEEP_SEEDS_PER_RUN * seed + i for i in range(SWEEP_SEEDS_PER_RUN)]
        self.cfg = lm.sweep.SweepConfig(
            model="cgl-mcp", ensemble="er", n=self.n, prob=0.1, scenario="true",
            lambdas=list(SWEEP_LAMBDAS), seeds=seeds, samples_per_node=5000,
            gamma=GAMMA, eps=EPS, threads=SWEEP_THREADS,
        )

    def setup(self):
        return [self.lm.sweep.make_instance(self.cfg, s) for s in self.cfg.seeds]

    def solve(self, state):
        cells = len(self.cfg.lambdas) * len(self.cfg.seeds)
        out = Outcome(cells)
        try:
            with _keep_weights(self.lm.sweep, "solve_mcp") as out.weights:
                records, averages = self.lm.sweep.run_sweep(self.cfg)
        except _solve_errors(self.lm) as exc:
            out.errors.append(type(exc).__name__)
            return out
        # acceptance criterion 7: best lambda by (mean F1, -mean error)
        best = max(averages, key=lambda r: (r.f1, -r.recovery_error))
        out.f1, out.rel_err = best.f1, best.recovery_error
        if any(r.f1 >= 0.99 and r.recovery_error <= 2e-2 for r in averages):
            out.passed = sum(r.status == "converged" for r in records)
        else:
            out.errors.append("criterion7_not_met")
        out.errors += [f"cell_{r.status}" for r in records if r.status != "converged"]
        return out


class _SingleSolve:
    """Shared set-up and scoring for the two single-solve workloads."""

    setup_repeats = 3

    def setup(self):
        problem = self.lm.ProblemData(
            self.S, self.prior, self.lm.PenaltyParams(self.lam, GAMMA)
        )
        problem.gram_solver
        return problem

    def solve(self, problem):
        out = Outcome(1)
        try:
            report = self.call(problem)
        except _solve_errors(self.lm) as exc:
            out.errors.append(type(exc).__name__)
            return out
        lm = self.lm
        est = lm.detected_edges(report.w, problem.prior.edges, self.threshold)
        out.f1 = lm.f1_score(est, self.truth.edges)
        out.rel_err = lm.recovery_error(report.theta(), self.L)
        out.weights.append(report.w.copy())
        failures = self.gate(report, out)
        if report.termination != "converged":
            failures.insert(0, f"termination_{report.termination}")
        out.errors += failures
        out.passed = int(not failures)
        return out


class Table2Full(_SingleSolve):
    name = "table2-full"
    n = 160
    lam = 0.005
    threshold = 1e-2  # detection threshold for full-connectivity priors
    setup_repeats = 5

    # The graph stays fixed and the seed draws the samples: across modular
    # graph seeds the ADMM warm start alone ranges from about 390 to 890
    # iterations, so one solve per run could not give a steady solve_s.
    graph_seed = 0

    def __init__(self, lm, seed):
        self.lm = lm
        g = self.graph_seed
        truth = lm.generate_connected(lambda s: lm.gen_modular(self.n, 0.005, 0.25, s), g)
        self.truth = lm.sample_weights(truth, 0.1, 3.0, g + 7919)
        self.L = self.truth.laplacian()
        # a small chunk keeps input generation below the solver in peak memory
        self.S = lm.sample_covariance(self.L, 5000 * self.n, seed + 104729, chunk=8192)
        self.prior = lm.perturb_connectivity(lm.true_prior(self.truth), "full")

    def call(self, problem):
        return self.lm.dca.solve_mcp(problem, self.lm.DcaParams(eps=EPS))

    def gate(self, report, out):
        # acceptance criterion 8
        failures = []
        if out.f1 < 0.95:
            failures.append("f1_below_0.95")
        if out.rel_err > 2e-2:
            failures.append("rel_err_above_2e-2")
        return failures


class Er250L1(_SingleSolve):
    name = "er250-l1"
    n = 250
    lam = 0.01
    threshold = 1e-4

    def __init__(self, lm, seed):
        self.lm = lm
        truth = lm.generate_connected(lambda s: lm.gen_erdos_renyi(self.n, 0.05, s), seed)
        self.truth = lm.sample_weights(truth, 0.1, 3.0, seed + 7919)
        self.L = self.truth.laplacian()
        self.S = lm.population_covariance(self.L)
        self.prior = lm.true_prior(self.truth)

    def call(self, problem):
        return self.lm.admm.solve_l1(problem, self.lm.AdmmParams(eps=EPS))

    def gate(self, report, out):
        failures = []
        last = report.history[-1]
        if not max(last["eta_p"], last["eta_d"], last["eta_g"]) < EPS:
            failures.append("kkt_not_below_eps")
        if out.f1 != 1.0:
            failures.append("f1_not_1")
        return failures


WORKLOADS = {w.name: w for w in (Er100Sweep, Table2Full, Er250L1)}


# --------------------------------------------------------------------- runs


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(work, seconds):
    """End-to-end metrics with tracing off."""
    setups = []
    for _ in range(work.setup_repeats):
        dt, state = _timed(work.setup)
        setups.append(dt)
    solves, outcomes = [], []
    t_start = time.perf_counter()
    while True:
        dt, out = _timed(work.solve, state)
        solves.append(dt)
        outcomes.append(out)
        elapsed = time.perf_counter() - t_start
        # start another solve only if one more is expected to end in time
        if elapsed + statistics.median(solves) > seconds:
            break
    attempted = sum(o.attempted for o in outcomes)
    passed = sum(o.passed for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(solves), "s"),
        "f1": (statistics.median(o.f1 for o in outcomes), "ratio"),
        "rel_err": (statistics.median(o.rel_err for o in outcomes), "ratio"),
        "pass_ratio": (passed / attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {
        "setup_s_all": setups,
        "solve_s_all": solves,
        "errors": sorted({e for o in outcomes for e in o.errors}),
    }
    return attempted, attempted - passed, True, metrics, detail


def run_traced(work, spans_path):
    """Per-layer metrics from one traced solve, checked against an untraced one."""
    from spans import Tracer, layer_metrics, layer_targets

    state = work.setup()
    plain_s, ref = _timed(work.solve, state)

    tracer = Tracer()
    tracer.install(layer_targets(work.lm))
    try:
        with tracer.span("bench.run"):
            with tracer.span("bench.setup"):
                state = work.setup()
            with tracer.span("bench.solve"):
                traced_s, out = _timed(work.solve, state)
    finally:
        tracer.remove()
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)

    identical = len(ref.weights) == len(out.weights) > 0 and all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(ref.weights, out.weights)
    )
    values = layer_metrics(tracer.spans, work.n)
    values["trace.overhead"] = traced_s / plain_s - 1.0
    metrics = {k: (v, _layer_unit(k)) for k, v in values.items()}
    attempted = ref.attempted + out.attempted
    failed = attempted - ref.passed - out.passed
    detail = {
        "untraced_solve_s": plain_s,
        "traced_solve_s": traced_s,
        "weights_identical": identical,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "errors": sorted(set(ref.errors) | set(out.errors)),
    }
    return attempted, failed, identical, metrics, detail


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "Gflop_computed"
    if name.endswith(("_ratio", "_per_newton", ".overhead")):
        return "ratio"
    return "count"


def run_workload(name, seed, seconds, trace):
    lm = _import_library()
    env = environment(seed)
    work = WORKLOADS[name](lm, seed)
    if trace:
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        attempted, failed, ok, metrics, detail = run_traced(work, spans_path)
    else:
        attempted, failed, ok, metrics, detail = run_plain(work, seconds)
    print("env " + json.dumps(env))
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<28} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    print("detail " + json.dumps(detail))
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
