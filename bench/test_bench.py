"""Self-tests of the benchmark's span tracer on a tiny ER instance.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import json

import numpy as np
import pytest

import run
from spans import NAME, PARENT, Tracer, layer_metrics, layer_targets, self_times

lm = run._import_library()


@pytest.fixture(scope="module")
def traced_tiny():
    truth = lm.generate_connected(lambda s: lm.gen_erdos_renyi(12, 0.4, s), 3)
    truth = lm.sample_weights(truth, 0.1, 3.0, 4)
    S = lm.sample_covariance(truth.laplacian(), 5000 * 12, 5)
    make = lambda: lm.ProblemData(S, lm.true_prior(truth), lm.PenaltyParams(0.05, 1.5))
    plain = lm.dca.solve_mcp(make(), lm.DcaParams(eps=1e-6))
    originals = {name: getattr(lm.dca, name) for name in ("ssn_solve", "solve_l1")}
    tracer = Tracer()
    tracer.install(layer_targets(lm))
    try:
        with tracer.span("bench.run"):
            report = lm.dca.solve_mcp(make(), lm.DcaParams(eps=1e-6))
    finally:
        tracer.remove()
    return plain, report, tracer.spans, originals


def test_tiny_instance_converges(traced_tiny):
    _, report, _, _ = traced_tiny
    assert report.converged
    assert len(report.history) > 1


def test_derived_counts_match_the_report(traced_tiny):
    _, report, spans, _ = traced_tiny
    m = layer_metrics(spans, 12)
    assert m["ssn.newton_iters"] == sum(h["ssn_iterations"] for h in report.history)
    assert m["dca.cert_retries"] == sum(h["cert_retries"] for h in report.history)
    assert m["dca.outer_iters"] == len(report.history)
    assert m["admm.iterations"] == report.warm_start["iterations"]
    assert m["ssn.backtracks"] >= 0
    assert m["ssn.cg_steps"] == m["linalg.prox_dderiv_calls"] > 0


def test_root_self_times_sum_to_root_duration(traced_tiny):
    _, _, spans, _ = traced_tiny
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    assert [spans[i][NAME] for i in roots] == ["bench.run"]
    root = spans[roots[0]]
    duration = root[3] - root[2]
    assert sum(self_times(spans)) == pytest.approx(duration, rel=0.01)
    assert min(self_times(spans)) > -1e-9


def test_tracing_leaves_weights_and_functions_unchanged(traced_tiny):
    plain, report, _, originals = traced_tiny
    assert np.array_equal(plain.w, report.w)
    for name, fn in originals.items():
        assert getattr(lm.dca, name) is fn


def test_metric_names_match_benchmark_json(traced_tiny):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _, _, spans, _ = traced_tiny
    layer = [*layer_metrics(spans, 12), "trace.overhead"]
    assert layer == [m["name"] for m in spec["per_layer"]]
    assert [run._layer_unit(name) for name in layer] == [m["unit"] for m in spec["per_layer"]]
    assert list(run.WORKLOADS) == [w["name"] for w in spec["workloads"]]
