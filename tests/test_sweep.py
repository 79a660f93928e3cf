import dataclasses

import pytest

import laplace_mcp as lm
from laplace_mcp.sweep import SweepConfig, make_instance, run_sweep, solve_cell

LAMBDAS = [1e-3, 1e-1, 1.0]


def small_config(model, lambdas=LAMBDAS):
    return SweepConfig(
        model=model, ensemble="er", n=12, prob=0.3, lambdas=list(lambdas), seeds=[0, 1],
        samples_per_node=2000, eps=1e-6,
    )


def values(record):
    """Every field of a record except its wall time."""
    d = dataclasses.asdict(record)
    del d["time_s"]
    return d


def cold_cell(cfg, lam, seed):
    """Independent solve of one cell."""
    inst = make_instance(cfg, seed)
    problem = lm.ProblemData(inst.S, inst.prior, lm.PenaltyParams(lam, cfg.gamma))
    if cfg.model == "cgl-mcp":
        report = lm.solve_mcp(problem, lm.DcaParams(eps=cfg.eps))
    else:
        report = lm.solve_l1(problem, lm.AdmmParams(eps=cfg.eps))
    est = lm.detected_edges(report.w, problem.prior.edges, cfg.threshold_rel)
    return {
        "edges": int(est.shape[0]),
        "f1": lm.f1_score(est, inst.truth.edges),
        "recovery_error": lm.recovery_error(report.theta(), inst.L_true),
        "objective": float(report.objective),
        "status": report.termination,
    }


@pytest.fixture(scope="module", params=["cgl-mcp", "cgl-l1"])
def swept(request):
    cfg = small_config(request.param)
    records, averages = run_sweep(cfg)
    return cfg, records, averages


class TestLambdaChain:
    def test_matches_cold_solves(self, swept):
        cfg, records, _ = swept
        assert len(records) == len(cfg.lambdas) * len(cfg.seeds)
        for rec in records:
            cold = cold_cell(cfg, rec.lam, rec.seed)
            assert rec.status == cold["status"] == "converged"
            assert rec.edges == cold["edges"]
            assert rec.f1 == cold["f1"]
            assert rec.objective == pytest.approx(cold["objective"], rel=1e-6)
            assert rec.recovery_error == pytest.approx(cold["recovery_error"], rel=1e-3)

    def test_lambda_major_grid_order(self, swept):
        cfg, records, averages = swept
        cells = [(r.lam, r.seed) for r in records]
        assert cells == [(lam, seed) for lam in cfg.lambdas for seed in cfg.seeds]
        assert [a.lam for a in averages] == cfg.lambdas

    def test_each_cell_solved_once_in_grid_order(self, swept, monkeypatch):
        # the solvers are looked up as module globals of sweep at call time,
        # so a wrapper patched there sees every cell
        cfg, _, _ = swept
        calls = []

        def spy(name):
            solver = getattr(lm.sweep, name)

            def wrapper(problem, *args, **kwargs):
                calls.append((name, problem.params.lam, args, kwargs))
                return solver(problem, *args, **kwargs)

            return wrapper

        def no_l1(*args, **kwargs):
            raise AssertionError("an MCP sweep made an l1 solve")

        monkeypatch.setattr(lm.sweep, "solve_l1", spy("solve_l1"))
        monkeypatch.setattr(lm.sweep, "solve_mcp", spy("solve_mcp"))
        if cfg.model == "cgl-mcp":
            # the MCP warm start is the solver's own
            monkeypatch.setattr(lm.dca, "solve_l1", no_l1)
        run_sweep(dataclasses.replace(cfg, seeds=[0]))
        name = "solve_mcp" if cfg.model == "cgl-mcp" else "solve_l1"
        assert [(n, lam) for n, lam, _, _ in calls] == [(name, lam) for lam in cfg.lambdas]
        # no cell gets a start: each begins from its own constant weights
        params = lm.DcaParams if cfg.model == "cgl-mcp" else lm.AdmmParams
        kwargs = {"keep_trace": False} if cfg.model == "cgl-mcp" else {}
        for _, _, a, kw in calls:
            assert [type(x) for x in a] == [params] and kw == kwargs

    def test_solve_cell_returns_run_sweep_records(self, swept):
        cfg, records, _ = swept
        by_cell = {(r.lam, r.seed): values(r) for r in records}
        for seed in cfg.seeds:
            inst = make_instance(cfg, seed)
            for lam in cfg.lambdas:
                record, problem, report = solve_cell(cfg, inst, seed, lam)
                assert values(record) == by_cell[(lam, seed)]
                assert problem.params.lam == record.lam
                assert report.termination == record.status

    def test_default_runs_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a default sweep started a thread pool")

        monkeypatch.setattr(lm.sweep, "ThreadPoolExecutor", no_pool)
        records, _ = run_sweep(small_config("cgl-l1", [1e-1]))
        assert len(records) == 2

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            run_sweep(SweepConfig(threads=threads))

    def test_two_threads_identical(self, swept):
        cfg, records, _ = swept
        threaded, _ = run_sweep(dataclasses.replace(cfg, threads=2))
        assert [values(r) for r in threaded] == [values(r) for r in records]

    @pytest.mark.parametrize("grid", ["ascending", "shuffled"])
    def test_grid_order_does_not_change_cells(self, swept, grid):
        # each cell is solved on its own, so any order of the same grid solves
        # the same cells
        cfg, records, _ = swept
        lambdas = sorted(cfg.lambdas)
        if grid == "shuffled":
            lambdas = [lambdas[i] for i in (1, 2, 0)]
        out, _ = run_sweep(dataclasses.replace(cfg, lambdas=lambdas))
        assert [(r.lam, r.seed) for r in out] == [(lam, s) for lam in lambdas for s in cfg.seeds]
        by_cell = {(r.lam, r.seed): values(r) for r in records}
        assert [values(r) for r in out] == [by_cell[(r.lam, r.seed)] for r in out]

    def test_repeated_lambda(self):
        lambdas = [1e-2, 1e-1, 1e-2]
        cfg = small_config("cgl-l1", lambdas)
        records, averages = run_sweep(cfg)
        assert [(r.lam, r.seed) for r in records] == [
            (lam, s) for lam in lambdas for s in cfg.seeds
        ]
        assert all(r.status == "converged" for r in records)
        assert len(averages) == len(lambdas)
        # the repeat solves the same cells again
        for first, again in zip(records[:2], records[4:]):
            assert again.edges == first.edges
            assert again.objective == pytest.approx(first.objective, rel=1e-6)


class TestHeadlineClaim:
    """The paper's headline on a full prior (ER n=30, p=0.15, 100 samples per
    node, seeds 0-1): as lambda grows the l1 (trace) model adds edges while
    the MCP removes them, and the MCP recovers the graph far better."""

    LAMBDAS = [1e-3, 1e-2, 0.1, 0.3]

    @pytest.fixture(scope="class")
    def sweeps(self):
        out = {}
        for model in ("cgl-l1", "cgl-mcp"):
            cfg = SweepConfig(
                model=model, ensemble="er", n=30, prob=0.15, scenario="full",
                lambdas=self.LAMBDAS, seeds=[0, 1], samples_per_node=100,
            )
            out[model] = run_sweep(cfg)
        return out

    def test_every_cell_converges(self, sweeps):
        for records, _ in sweeps.values():
            assert all(r.status == "converged" for r in records)

    def test_edge_counts_move_in_opposite_directions(self, sweeps):
        # mean edges 144/173/320/409 for l1 and 136/122/72/52 for the MCP
        l1 = [a.edges for a in sweeps["cgl-l1"][1]]
        mcp = [a.edges for a in sweeps["cgl-mcp"][1]]
        assert all(a < b for a, b in zip(l1, l1[1:])), l1
        assert all(a > b for a, b in zip(mcp, mcp[1:])), mcp

    def test_best_mcp_f1_beats_best_l1_f1(self, sweeps):
        # best mean F1 0.956 (MCP, lambda 0.1) against 0.662 (l1, lambda 1e-3)
        best_l1 = max(a.f1 for a in sweeps["cgl-l1"][1])
        best_mcp = max(a.f1 for a in sweeps["cgl-mcp"][1])
        assert best_mcp >= best_l1 + 0.2

    def test_largest_lambda_keeps_a_good_basin(self, sweeps):
        # F1 0.824/0.860 at lambda 0.3; polishing from the first step, at
        # residual 0.91, settles on worse critical points (F1 0.71 on seed 0,
        # 0.61 with every step polished)
        records = [r for r in sweeps["cgl-mcp"][0] if r.lam == 0.3]
        assert len(records) == 2
        assert min(r.f1 for r in records) >= 0.8


class TestBenchmarkSweepWork:
    """The benchmark's `er100-sweep` configuration at bench seed 0: ER n=100,
    p=0.1, true prior, 5000 samples per node, five lambdas over graph seeds
    0-1. A work count, not a timing: the projected-Newton polish takes over
    once the d.c. split is exact, so the ten cells take 23 outer steps (40
    with only the residual hand-over)."""

    def test_outer_steps_and_recovery(self, monkeypatch):
        steps = []
        solve_mcp = lm.sweep.solve_mcp

        def counted(*args, **kwargs):
            report = solve_mcp(*args, **kwargs)
            steps.append(len(report.history))
            return report

        monkeypatch.setattr(lm.sweep, "solve_mcp", counted)
        cfg = SweepConfig(
            model="cgl-mcp", ensemble="er", n=100, prob=0.1, scenario="true",
            lambdas=[1e-4, 1e-3, 1e-2, 0.1, 1.0], seeds=[0, 1], samples_per_node=5000,
        )
        records, averages = run_sweep(cfg)
        assert len(steps) == len(records) == 10
        assert all(r.status == "converged" for r in records)
        assert sum(steps) <= 25, steps
        # acceptance criterion 7 on these cells: best lambda by (mean F1,
        # -mean error)
        best = max(averages, key=lambda r: (r.f1, -r.recovery_error))
        assert best.f1 == 1.0
        assert best.recovery_error <= 2e-2
