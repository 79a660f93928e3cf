import dataclasses

import pytest

import laplace_mcp as lm
from laplace_mcp.sweep import SweepConfig, make_instance, run_sweep, solve_chain

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
    """Independent solve of one cell from the zero ADMM start."""
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
def chained(request):
    cfg = small_config(request.param)
    records, averages = run_sweep(cfg)
    return cfg, records, averages


class TestLambdaChain:
    def test_matches_cold_solves(self, chained):
        cfg, records, _ = chained
        assert len(records) == len(cfg.lambdas) * len(cfg.seeds)
        for rec in records:
            cold = cold_cell(cfg, rec.lam, rec.seed)
            assert rec.status == cold["status"] == "converged"
            assert rec.edges == cold["edges"]
            assert rec.f1 == cold["f1"]
            assert rec.objective == pytest.approx(cold["objective"], rel=1e-6)
            assert rec.recovery_error == pytest.approx(cold["recovery_error"], rel=1e-3)

    def test_lambda_major_grid_order(self, chained):
        cfg, records, averages = chained
        cells = [(r.lam, r.seed) for r in records]
        assert cells == [(lam, seed) for lam in cfg.lambdas for seed in cfg.seeds]
        assert [a.lam for a in averages] == cfg.lambdas

    def test_descending_chain_of_warm_starts(self, chained, monkeypatch):
        cfg, _, _ = chained
        calls = []
        solve_l1 = lm.sweep.solve_l1

        def spy(problem, params=None, start=None):
            report = solve_l1(problem, params, start=start)
            calls.append((problem.params.lam, start, report.admm_state))
            return report

        monkeypatch.setattr(lm.dca, "solve_l1", spy)
        monkeypatch.setattr(lm.sweep, "solve_l1", spy)
        run_sweep(dataclasses.replace(cfg, seeds=[0]))
        if cfg.model == "cgl-mcp":
            # the MCP warm start is projected Newton: an MCP sweep runs no ADMM
            assert calls == []
            return
        assert [lam for lam, _, _ in calls] == sorted(cfg.lambdas, reverse=True)
        assert calls[0][1] is None
        for (_, _, prev), (_, start, _) in zip(calls, calls[1:]):
            assert start is prev

    def test_chain_yields_run_sweep_cells_in_solve_order(self, chained):
        cfg, records, _ = chained
        by_cell = {(r.lam, r.seed): values(r) for r in records}
        for seed in cfg.seeds:
            cells = list(solve_chain(cfg, make_instance(cfg, seed), seed))
            lams = [record.lam for record, _, _ in cells]
            assert lams == sorted(cfg.lambdas, reverse=True)
            for record, problem, report in cells:
                assert values(record) == by_cell[(record.lam, seed)]
                assert problem.params.lam == record.lam
                assert report.termination == record.status

    def test_default_runs_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a default sweep started a thread pool")

        monkeypatch.setattr(lm.sweep, "ThreadPoolExecutor", no_pool)
        records, _ = run_sweep(small_config("cgl-l1", [1e-1]))
        assert len(records) == 2

    def test_two_threads_identical(self, chained):
        cfg, records, _ = chained
        threaded, _ = run_sweep(dataclasses.replace(cfg, threads=2))
        assert [values(r) for r in threaded] == [values(r) for r in records]

    @pytest.mark.parametrize("grid", ["ascending", "shuffled"])
    def test_grid_order_does_not_change_cells(self, chained, grid):
        # the chain always runs in descending lambda, so any order of the same
        # grid solves the same path
        cfg, records, _ = chained
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
        # the repeat restarts from the first solve of its lambda
        for first, again in zip(records[:2], records[4:]):
            assert again.edges == first.edges
            assert again.objective == pytest.approx(first.objective, rel=1e-6)
