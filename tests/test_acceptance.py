"""Acceptance suite: end-to-end correctness and reproduction checks, one
PASS/FAIL line per criterion. The benchmark-scale runs (criteria 7, 8) are
shared through a module fixture whose per-step certificates feed criteria 5
and 10. Criterion 7's cells are those of ``sweep.solve_cell``, which
``laplace-mcp sweep`` solves: each (lambda, seed) cell on its own, every MCP
cell from its own l1 warm start."""

import time
from fractions import Fraction

import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp.dca import descent_check, solve_mcp
from laplace_mcp.ssn import (
    SubproblemContext,
    check_stop_condition,
    dual_gradient,
    dual_jacobian_apply,
    dual_value,
    subproblem_error_vector,
)
from laplace_mcp.sweep import SweepConfig, make_instance, solve_cell

from util import (
    edge_gram_matrix,
    incidence_matrix,
    random_connected_graph,
    random_context,
    random_symmetric,
    scan_then_golden,
)

FIG1_LAMBDAS = list(np.logspace(-4, 0, 10))
FIG1_SEEDS = [0, 1, 2, 3, 4]
TABLE2_SEEDS = [0, 1]
TABLE2_DETECT_REL = 1e-2  # reproduction threshold for full-connectivity runs


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:>2}] {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _audit_run(problem, report):
    """Recompute the certificate chain for every accepted step, then free the trace."""
    audits = []
    for step in report.trace:
        ctx = SubproblemContext(problem, step.sigma, step.w_prev)
        try:
            cert = subproblem_error_vector(step.w_next, step.E, ctx)
            ok = (
                cert.r < 1.0
                and cert.delta_norm <= cert.bound
                and check_stop_condition(cert.delta, step.w_next, ctx)
            )
            audits.append(
                {"r": cert.r, "delta": cert.delta_norm, "bound": cert.bound, "ok": bool(ok)}
            )
        except lm.CertificateError as exc:
            audits.append(
                {"r": exc.r, "delta": float("nan"), "bound": float("nan"), "ok": False}
            )
    report.trace = None
    return audits


def _fig1_cells(cfg, seed):
    """One seed's Fig.-1 cells in grid order, each audited."""
    cells = []
    inst = make_instance(cfg, seed)
    for lam in cfg.lambdas:
        record, problem, report = solve_cell(cfg, inst, seed, lam, keep_trace=True)
        cells.append(
            {
                "lam": record.lam,
                "seed": seed,
                "f1": record.f1,
                "err": record.recovery_error,
                "history": report.history,
                "audits": _audit_run(problem, report),
                "converged": report.converged,
            }
        )
    return cells


def _table2_run(seed):
    inst = make_instance(SweepConfig(ensemble="modular", n=160, scenario="full"), seed)
    truth, L = inst.truth, inst.L_true
    problem = lm.ProblemData(inst.S, inst.prior, lm.PenaltyParams(0.005, 1.5))
    t0 = time.perf_counter()
    report = solve_mcp(problem, lm.DcaParams(eps=1e-6), keep_trace=True)
    solve_time = time.perf_counter() - t0
    audits = _audit_run(problem, report)
    est_default = lm.detected_edges(report.w, problem.prior.edges)
    est_repro = lm.detected_edges(report.w, problem.prior.edges, TABLE2_DETECT_REL)
    return {
        "seed": seed,
        "f1_default": lm.f1_score(est_default, truth.edges),
        "f1": lm.f1_score(est_repro, truth.edges),
        "err": lm.recovery_error(report.theta(), L),
        "edges": int(est_repro.shape[0]),
        "true_edges": int(truth.m),
        "history": report.history,
        "audits": audits,
        "solve_time": solve_time,
        "converged": report.converged,
    }


@pytest.fixture(scope="module")
def runs():
    """All benchmark-scale DCA runs, with per-step certificate audits."""
    data = {}

    g = random_connected_graph(20, 0.3, 4)
    truth = lm.sample_weights(g, 0.1, 3.0, 5)
    L = truth.laplacian()
    S = lm.sample_covariance(L, 5000 * 20, 6)
    problem = lm.ProblemData(S, lm.true_prior(truth), lm.PenaltyParams(0.05, 1.5))
    rep = solve_mcp(problem, lm.DcaParams(eps=1e-6), keep_trace=True)
    data["er20"] = {
        "history": rep.history,
        "audits": _audit_run(problem, rep),
        "f1": lm.f1_score(
            lm.detected_edges(rep.w, problem.prior.edges), truth.edges
        ),
        "converged": rep.converged,
    }

    g2 = lm.EdgeGraph(2, [(0, 1)], weights=[1.0])
    prob2 = lm.ProblemData(
        lm.population_covariance(g2.laplacian()), lm.true_prior(g2),
        lm.PenaltyParams(0.1, 1.5),
    )
    rep2 = solve_mcp(prob2, lm.DcaParams(eps=1e-12), keep_trace=True)
    data["scalar"] = {
        "w": float(rep2.w[0]),
        "problem": prob2,
        "history": rep2.history,
        "audits": _audit_run(prob2, rep2),
    }

    t0 = time.perf_counter()
    cfg = SweepConfig(lambdas=FIG1_LAMBDAS, seeds=FIG1_SEEDS)
    data["fig1"] = [cell for seed in cfg.seeds for cell in _fig1_cells(cfg, seed)]
    data["fig1_time"] = time.perf_counter() - t0

    data["table2"] = [_table2_run(seed) for seed in TABLE2_SEEDS]

    return data


class TestCriterion1:
    def test_operator_identity(self):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 9))
            g = lm.gen_erdos_renyi(n, 0.6, trial) if n > 2 else lm.EdgeGraph(2, [(0, 1)])
            if g.m == 0:
                g = lm.EdgeGraph(n, [(0, 1)])
            G = edge_gram_matrix(incidence_matrix(g))
            for _ in range(3):
                w = rng.standard_normal(g.m)
                gap = np.abs(G @ w - lm.laplacian_adjoint(lm.weights_to_laplacian(w, g), g))
                worst = max(worst, float(gap.max()) / max(1.0, np.abs(w).max()))
        elapsed = time.perf_counter() - t0
        _report(
            1,
            "matrix and operator forms of the edge Gram map agree to 1e-12",
            worst <= 1e-12 and elapsed < 1.0,
            f"max gap {worst:.2e}, {elapsed:.2f}s",
        )


class TestCriterion2:
    def test_prox_correctness(self):
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        worst_res = 0.0
        worst_ratio = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 11))
            sigma = float(rng.choice([0.1, 1.0, 10.0]))
            X = random_symmetric(n, rng, scale=2.0)
            P, cache = lm.prox_logdet(X, sigma)
            res = np.linalg.norm(-np.linalg.inv(P) + sigma * (P - X))
            worst_res = max(worst_res, res / (1e-8 * sigma * max(1.0, np.linalg.norm(X))))
            if trial % 10 == 0:
                H = random_symmetric(n, rng)
                H /= np.linalg.norm(H)
                deriv = lm.prox_logdet_dderiv(cache, H)
                errs = []
                for t in (1e-4, 1e-5):
                    Pt, _ = lm.prox_logdet(X + t * H, sigma)
                    errs.append(np.linalg.norm((Pt - P) / t - deriv))
                worst_ratio = max(worst_ratio, errs[1] / max(errs[0], 1e-300))
        elapsed = time.perf_counter() - t0
        _report(
            2,
            "prox optimality to 1e-8 and directional derivative at O(t)",
            worst_res <= 1.0 and worst_ratio <= 0.3 and elapsed < 5.0,
            f"residual frac {worst_res:.2e}, fd ratio {worst_ratio:.2f}, {elapsed:.2f}s",
        )


class TestCriterion3:
    def test_dual_calculus(self):
        t0 = time.perf_counter()
        worst_fd = 0.0
        worst_adj = 0.0
        worst_quad = -np.inf
        rng = np.random.default_rng(2)
        for c in range(20):
            ctx, _ = random_context(n=10, seed=100 + c, sigma=float(rng.choice([0.3, 1.0, 3.0])))
            Y = random_symmetric(10, rng)
            grad = dual_gradient(Y, ctx)
            for _ in range(3):
                H = random_symmetric(10, rng)
                H /= np.linalg.norm(H)
                t = 1e-6
                fd = (dual_value(Y + t * H, ctx) - dual_value(Y - t * H, ctx)) / (2 * t)
                worst_fd = max(worst_fd, abs(fd - np.vdot(grad, H)) / max(1.0, abs(fd)))
            mask = lm.clarke_diag(ctx.projection_point(Y))
            _, cache = lm.prox_logdet(ctx.base_point(Y), ctx.sigma)
            for _ in range(2):
                H1 = random_symmetric(10, rng)
                H2 = random_symmetric(10, rng)
                V1 = dual_jacobian_apply(Y, H1, ctx, mask, cache)
                V2 = dual_jacobian_apply(Y, H2, ctx, mask, cache)
                asym = abs(np.vdot(V1, H2) - np.vdot(H1, V2))
                worst_adj = max(worst_adj, asym / max(1.0, abs(np.vdot(V1, H2))))
                worst_quad = max(worst_quad, float(np.vdot(H1, V1)))
        elapsed = time.perf_counter() - t0
        _report(
            3,
            "dual gradient matches finite differences (1e-5); Jacobian self-adjoint NSD",
            worst_fd <= 1e-5 and worst_adj <= 1e-10 and worst_quad <= 0.0 and elapsed < 10.0,
            f"fd {worst_fd:.1e}, adj {worst_adj:.1e}, quad {worst_quad:.1e}, {elapsed:.1f}s",
        )


class TestCriterion4:
    def test_admm_kkt(self):
        t0 = time.perf_counter()
        g = random_connected_graph(20, 0.3, 10)
        truth = lm.sample_weights(g, 0.1, 3.0, 11)
        S = lm.sample_covariance(truth.laplacian(), 5000 * 20, 12)
        problem = lm.ProblemData(S, lm.true_prior(truth), lm.PenaltyParams(0.01, 1.5))
        report = lm.solve_l1(problem, lm.AdmmParams(eps=1e-5, max_iter=20000))
        last = report.history[-1]
        kkt = max(last["eta_p"], last["eta_d"], last["eta_g"])
        elapsed = time.perf_counter() - t0
        _report(
            4,
            "solve_l1 (projected Newton) reaches relative KKT residual < 1e-5 "
            "within 20000 iterations",
            report.converged and kkt < 1e-5 and last["iteration"] <= 20000 and elapsed < 30.0,
            f"kkt {kkt:.2e} at iteration {last['iteration']}, {elapsed:.1f}s",
        )


class TestCriterion5:
    @pytest.mark.slow
    def test_descent_every_iteration(self, runs):
        checked = 0
        failed = 0
        groups = (
            [runs["er20"]["history"], runs["scalar"]["history"]]
            + [cell["history"] for cell in runs["fig1"]]
            + [row["history"] for row in runs["table2"]]
        )
        for history in groups:
            for h in history:
                checked += 1
                descent = descent_check(h["f_prev"], h["f"], h["sigma"], h["dw_norm"])
                # the polish never raises f: the same slack, no sigma term
                polished = descent_check(h["f"], h["polish_f"], 1.0, 0.0)
                if not (descent and polished):
                    failed += 1
        _report(
            5,
            "quantified descent holds, and the polish never raises f, at 100% of "
            "accepted iterations (slack 1e-9)",
            checked > 0 and failed == 0,
            f"{checked} iterations across {len(groups)} runs",
        )


class TestCriterion6:
    @pytest.mark.slow
    def test_scalar_oracle_equivalence(self, runs):
        problem = runs["scalar"]["problem"]
        oracle = scan_then_golden(
            lambda w: lm.objective_value(np.array([w]), problem), 1e-4, 10.0
        )
        gap = abs(runs["scalar"]["w"] - oracle)
        _report(
            6,
            "single-edge DCA matches golden-section minimization to 1e-6",
            gap < 1e-6,
            f"|w - oracle| = {gap:.2e}",
        )


class TestCriterion7:
    @pytest.mark.slow
    def test_fig1_reproduction(self, runs):
        by_lam = {}
        for cell in runs["fig1"]:
            by_lam.setdefault(cell["lam"], []).append(cell)
        best = None
        for lam, cells in by_lam.items():
            f1 = float(np.mean([c["f1"] for c in cells]))
            err = float(np.mean([c["err"] for c in cells]))
            if best is None or (f1, -err) > (best[1], -best[2]):
                best = (lam, f1, err)
        ok_lams = [
            lam
            for lam, cells in by_lam.items()
            if np.mean([c["f1"] for c in cells]) >= 0.99
            and np.mean([c["err"] for c in cells]) <= 2e-2
        ]
        all_converged = all(c["converged"] for c in runs["fig1"])
        _report(
            7,
            "ER n=100 sweep attains mean F1 >= 0.99 and error <= 2e-2 at some lambda",
            len(ok_lams) > 0 and all_converged and runs["fig1_time"] < 600.0,
            f"{len(ok_lams)}/10 grid points qualify; best lam={best[0]:.1e} "
            f"F1={best[1]:.4f} err={best[2]:.1e}; {runs['fig1_time']:.0f}s",
        )


class TestCriterion8:
    @pytest.mark.slow
    def test_table2_reproduction(self, runs):
        rows = runs["table2"]
        ok = all(
            r["f1"] >= 0.95 and r["err"] <= 2e-2 and r["solve_time"] < 300.0 and r["converged"]
            for r in rows
        )
        detail = "; ".join(
            f"seed {r['seed']}: F1={r['f1']:.4f} (default-threshold {r['f1_default']:.3f}) "
            f"err={r['err']:.1e} edges={r['edges']}/{r['true_edges']} {r['solve_time']:.0f}s"
            for r in rows
        )
        _report(
            8,
            "modular n=160 full-connectivity run attains F1 >= 0.95 and error <= 2e-2",
            ok,
            detail,
        )


class TestCriterion9:
    def test_trace_identity_exact(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(3, 9))
            g = lm.gen_erdos_renyi(n, 0.6, 500 + trial)
            if g.m == 0:
                g = lm.EdgeGraph(n, [(0, 1)])
            w = rng.uniform(0, 3, g.m)
            # exact rational arithmetic: build the Laplacian over Fractions
            theta = [[Fraction(0)] * n for _ in range(n)]
            for (i, j), we in zip(g.edges, w):
                q = Fraction(float(we))
                theta[i][j] -= q
                theta[j][i] -= q
                theta[i][i] += q
                theta[j][j] += q
            off = sum(abs(theta[i][j]) for i in range(n) for j in range(n) if i != j)
            tr = sum(theta[i][i] for i in range(n))
            assert off == tr  # exact equality of rationals
            # the floating implementation agrees to machine scale
            tf = lm.weights_to_laplacian(w, g)
            off_f = np.abs(tf).sum() - np.abs(np.diag(tf)).sum()
            assert abs(off_f - np.trace(tf)) <= 1e-12 * max(1.0, np.trace(tf))
        _report(
            9,
            "off-diagonal l1 mass equals the trace, exactly in rational arithmetic",
            True,
            "100 random weight vectors",
        )


class TestCriterion10:
    @pytest.mark.slow
    def test_certificate_soundness(self, runs):
        audits = []
        for cell in runs["fig1"]:
            audits.extend(cell["audits"])
        for row in runs["table2"]:
            audits.extend(row["audits"])
        bad = [a for a in audits if not a["ok"]]
        margin = min(
            (a["bound"] - a["delta"] for a in audits if np.isfinite(a["bound"])),
            default=float("nan"),
        )
        _report(
            10,
            "recomputed certificates (stop rule, r < 1, bound >= ||delta||) hold at "
            "every accepted step of the benchmark runs",
            len(audits) > 0 and not bad,
            f"{len(audits)} accepted steps audited, min bound margin {margin:.2e}",
        )
