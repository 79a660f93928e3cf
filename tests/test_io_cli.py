import ast
import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import laplace_mcp as lm
from laplace_mcp import cli, dca, ssn
from laplace_mcp import io as lio
from laplace_mcp.cli import main
from laplace_mcp.sweep import SweepConfig

from util import make_problem, random_connected_graph


class TestCovarianceIO:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        lio.write_covariance(path, np.eye(2))
        np.testing.assert_array_equal(lio.read_covariance(path), np.eye(2))

    def test_symmetrizes(self, tmp_path):
        path = tmp_path / "s.mtx"
        lio.write_covariance(path, np.array([[1.0, 0.3], [0.30000001, 1.0]]))
        S = lio.read_covariance(path)
        assert np.allclose(S, S.T)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.mtx"
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n2 2\n1\nnan\nnan\n1\n")
        with pytest.raises(ValueError):
            lio.read_covariance(path)

    def test_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "rect.mtx"
        lio.write_covariance(path, np.ones((2, 3)))
        with pytest.raises(ValueError):
            lio.read_covariance(path)

    # 3x3 Laplacian-like matrix with one structural zero, (0, 2)
    COORD_EXPECTED = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])

    def test_coordinate_symmetric(self, tmp_path):
        # lower triangle only; the reader fills in the upper one
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% hand-written\n"
            "3 3 5\n1 1 2.0\n2 1 -1.0\n2 2 3.0\n3 2 -2.0\n3 3 2.0\n"
        )
        S = lio.read_covariance(path)
        assert type(S) is np.ndarray
        np.testing.assert_array_equal(S, self.COORD_EXPECTED)

    def test_coordinate_general(self, tmp_path):
        path = tmp_path / "gen.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 7\n1 1 2.0\n1 2 -1.0\n2 1 -1.0\n2 2 3.0\n"
            "2 3 -2.0\n3 2 -2.0\n3 3 2.0\n"
        )
        S = lio.read_covariance(path)
        assert type(S) is np.ndarray
        np.testing.assert_array_equal(S, self.COORD_EXPECTED)


class TestDataMatrix:
    def test_two_pass_covariance_oracle(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 5))
        path = tmp_path / "x.csv"
        np.savetxt(path, X, delimiter=",")
        got = lio.covariance_from_data(lio.read_data_matrix(path))
        mu = X.mean(axis=0)
        oracle = np.zeros((5, 5))
        for row in X:
            d = row - mu
            oracle += np.outer(d, d)
        oracle /= X.shape[0]
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_constant_column_zero_variance(self, tmp_path):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        path = tmp_path / "c.csv"
        np.savetxt(path, X, delimiter=",")
        S = lio.covariance_from_data(lio.read_data_matrix(path))
        assert np.all(S[0, :] == 0.0) and np.all(S[:, 0] == 0.0)

    def test_header_detection(self, tmp_path):
        path = tmp_path / "h.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1.0,2.0\n3.0,4.0\n")
        X = lio.read_data_matrix(path)
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_nan_and_short(self, tmp_path):
        path = tmp_path / "nan.csv"
        with open(path, "w") as fh:
            fh.write("1.0,nan\n2.0,3.0\n")
        with pytest.raises(ValueError):
            lio.read_data_matrix(path)
        path2 = tmp_path / "one.csv"
        with open(path2, "w") as fh:
            fh.write("1.0,2.0\n")
        with pytest.raises(ValueError):
            lio.read_data_matrix(path2)


class TestGraphJson:
    def test_weighted_round_trip(self, tmp_path):
        g = lm.sample_weights(random_connected_graph(8, 0.5, 0), 0.1, 3.0, 1)
        path = tmp_path / "g.json"
        lio.save_graph(path, g)
        back = lio.load_graph(path)
        assert back.n == g.n
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_allclose(back.weights, g.weights, rtol=1e-15)

    def test_unweighted_round_trip(self, tmp_path):
        g = random_connected_graph(6, 0.5, 2)
        path = tmp_path / "g.json"
        lio.save_graph(path, g)
        back = lio.load_graph(path)
        assert back.weights is None
        np.testing.assert_array_equal(back.edges, g.edges)

    def test_rejects_mixed_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        with open(path, "w") as fh:
            json.dump({"n": 3, "edges": [[0, 1], [1, 2, 0.5]]}, fh)
        with pytest.raises(ValueError):
            lio.load_graph(path)


class TestReportJson:
    def test_round_trip(self, tmp_path):
        g = lm.EdgeGraph(2, [(0, 1)], weights=[1.0])
        S = lm.population_covariance(g.laplacian())
        problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(0.1, 1.5))
        report = lm.solve_mcp(problem, lm.DcaParams(eps=1e-8))
        path = tmp_path / "r.json"
        lio.save_report(path, report)
        back = lio.load_report(path)
        assert back.model == report.model
        assert back.termination == report.termination
        np.testing.assert_allclose(back.w, report.w, rtol=1e-15)
        assert back.config == report.config
        assert back.warm_start == report.warm_start
        assert back.warm_start["wall_time_s"] > 0
        assert back.warm_start["termination"] == "converged"
        steps, cg_steps = back.warm_start["steps"], back.warm_start["cg_steps"]
        assert isinstance(steps, int) and isinstance(cg_steps, int)
        assert 0 <= steps <= cg_steps
        assert back.warm_start["decrement"] < dca._WARM_DECREMENT
        l1 = lm.solve_l1(problem)
        lio.save_report(path, l1)
        config = lio.load_report(path).config
        assert config == l1.config

    @pytest.mark.parametrize("model", ["cgl-l1", "cgl-mcp"])
    def test_every_field_round_trips(self, model):
        # the JSON has one key per field and restores each field exactly
        problem, _, _ = make_problem(n=8, p=0.5, seed=12, lam=0.05, k=5000 * 8)
        report = (lm.solve_l1 if model == "cgl-l1" else lm.solve_mcp)(problem)
        fields = [f.name for f in dataclasses.fields(lm.SolveReport)]
        assert set(fields) == set(report.to_dict())
        back = lm.SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        for name in fields:
            want, got = getattr(report, name), getattr(back, name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), name
            else:
                assert got == want, name

    @pytest.fixture()
    def saved(self, tmp_path):
        """A solved 2-node report as a JSON dict, and the truth graph file."""
        g = lm.EdgeGraph(2, [(0, 1)], weights=[1.0])
        problem = lm.ProblemData(
            lm.population_covariance(g.laplacian()), lm.true_prior(g), lm.PenaltyParams(0.1, 1.5)
        )
        truth = tmp_path / "g.json"
        lio.save_graph(truth, g)
        return lm.solve_mcp(problem).to_dict(), truth

    def test_missing_key_exits_eval_1(self, tmp_path, capsys, saved):
        d, truth = saved
        del d["w"]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(d))
        assert main(["eval", "--report", str(path), "--truth", str(truth)]) == 1
        assert "'w'" in capsys.readouterr().err

    def test_unknown_key_ignored(self, saved):
        d, _ = saved
        back = lm.SolveReport.from_dict({**d, "profile": {"ssn_s": 0.1}})
        assert back.to_dict() == d

    @pytest.mark.parametrize("model", ["cgl-l1", "cgl-mcp"])
    def test_config_echo(self, model):
        # the echo holds every settable value and nothing else: the problem's
        # inputs and the fields of the parameter dataclasses
        g = lm.EdgeGraph(2, [(0, 1)], weights=[1.0])
        S = lm.population_covariance(g.laplacian())
        problem = lm.ProblemData(S, lm.true_prior(g), lm.PenaltyParams(0.1, 1.5))
        if model == "cgl-l1":
            config = lm.solve_l1(problem).config
            fields = {"eps", "max_iter"}
            other = {"model", "lam", "prior_tag"}
            params = lm.AdmmParams
        else:
            config = lm.solve_mcp(problem).config
            fields = {"eps", "max_outer"}
            other = {"model", "lam", "gamma", "prior_tag"}
            params = lm.DcaParams
        assert set(config) == fields | other
        assert {f.name for f in dataclasses.fields(params)} == fields


class TestPackageNamespace:
    # solver internals stay in their modules
    INTERNAL = (
        "SubproblemContext", "ssn_solve", "recover_primal", "dual_jacobian_apply",
        "subproblem_error_vector", "descent_check",
    )

    def test_exports_readme_names_only(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        used = set(re.findall(r"\blm\.(\w+)", example))
        assert used and all(hasattr(lm, name) for name in used), used
        assert not [name for name in self.INTERNAL if hasattr(lm, name)]


class TestCliGen:
    def test_er_edge_count(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(
            [
                "gen", "--ensemble", "er", "--nodes", "100", "--prob", "0.1",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert rc == 0
        g = lio.load_graph(out)
        assert 400 <= g.m <= 600
        assert g.weights is not None
        assert g.weights.min() >= 0.1 and g.weights.max() <= 3.0

    def test_same_graph_as_the_sweep(self, tmp_path):
        from laplace_mcp.sweep import SweepConfig, make_instance

        out = tmp_path / "g.json"
        rc = main(["gen", "--ensemble", "er", "--nodes", "30", "--seed", "3", "--out", str(out)])
        assert rc == 0
        g = lio.load_graph(out)
        truth = make_instance(SweepConfig(ensemble="er", n=30), 3).truth
        np.testing.assert_array_equal(g.edges, truth.edges)
        np.testing.assert_array_equal(g.weights, truth.weights)

    @pytest.mark.parametrize("samples", [None, 500])
    def test_covariance_is_the_sweep_covariance(self, tmp_path, samples):
        out, cov = tmp_path / "g.json", tmp_path / "g.mtx"
        given = [] if samples is None else ["--samples", str(samples)]
        rc = main(
            [
                "gen", "--ensemble", "er", "--nodes", "10", "--prob", "0.4", "--seed", "4",
                "--out", str(out), "--cov", str(cov), *given,
            ]
        )
        assert rc == 0
        L = lio.load_graph(out).laplacian()
        if samples is None:
            want = lm.population_covariance(L)
        else:
            want = lm.sample_covariance(L, samples, 4 + 104729)
        np.testing.assert_array_equal(lio.read_covariance(cov), want)

    def test_grid_edge_count(self, tmp_path):
        out = tmp_path / "grid.json"
        rc = main(["gen", "--ensemble", "grid", "--nodes", "100", "--out", str(out)])
        assert rc == 0
        assert lio.load_graph(out).m == 180

    def test_modular_with_covariance(self, tmp_path):
        out = tmp_path / "m.json"
        cov = tmp_path / "m.mtx"
        rc = main(
            [
                "gen", "--ensemble", "modular", "--nodes", "40", "--p1", "0.05",
                "--p2", "0.4", "--seed", "3", "--out", str(out), "--cov", str(cov),
            ]
        )
        assert rc == 0
        S = lio.read_covariance(cov)
        g = lio.load_graph(out)
        np.testing.assert_allclose(
            S, lm.population_covariance(g.laplacian()), atol=1e-10
        )

    def test_bad_args(self, tmp_path):
        rc = main(
            [
                "gen", "--ensemble", "er", "--nodes", "10", "--prob", "2.0",
                "--seed", "0", "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_rejected_before_writing(self, tmp_path, capsys, samples):
        out, cov = tmp_path / "g.json", tmp_path / "g.mtx"
        rc = main(
            [
                "gen", "--ensemble", "er", "--nodes", "10", "--prob", "0.4",
                "--out", str(out), "--cov", str(cov), "--samples", samples,
            ]
        )
        assert rc == 1
        assert "--samples" in capsys.readouterr().err
        assert not out.exists() and not cov.exists()

    def test_samples_write_a_sampled_covariance(self, tmp_path, capsys):
        out, cov = tmp_path / "g.json", tmp_path / "g.mtx"
        rc = main(
            [
                "gen", "--ensemble", "er", "--nodes", "10", "--prob", "0.4",
                "--out", str(out), "--cov", str(cov), "--samples", "3",
            ]
        )
        assert rc == 0
        assert "sampled k=3" in capsys.readouterr().out
        assert np.linalg.matrix_rank(lio.read_covariance(cov)) <= 3


class TestCliSolveEval:
    @pytest.fixture()
    def instance(self, tmp_path):
        graph = tmp_path / "g.json"
        cov = tmp_path / "S.mtx"
        main(
            [
                "gen", "--ensemble", "er", "--nodes", "10", "--prob", "0.4",
                "--seed", "5", "--out", str(graph), "--cov", str(cov),
                "--samples", "50000",
            ]
        )
        return graph, cov

    def test_solve_mcp_and_eval(self, tmp_path, instance):
        graph, cov = instance
        report = tmp_path / "report.json"
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05",
                "--gamma", "1.5", "--eps", "1e-6", "--out", str(report),
            ]
        )
        assert rc == 0
        rep = lio.load_report(report)
        assert rep.converged
        assert rep.config["prior_tag"] == "file"
        assert "connectivity_kind" not in rep.config
        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "eval", "--report", str(report), "--truth", str(graph),
                "--out", str(metrics),
            ]
        )
        assert rc == 0
        with open(metrics) as fh:
            m = json.load(fh)
        assert m["f1"] == 1.0
        assert m["recovery_error"] < 0.1

    @pytest.mark.parametrize("model", ["cgl-mcp", "cgl-l1"])
    def test_solve_prints_work_and_stationarity(self, tmp_path, instance, capsys, model):
        graph, cov = instance
        report = tmp_path / "report.json"
        rc = main(
            [
                "solve", "--model", model, "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05",
                "--out", str(report),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rep = lio.load_report(report)
        assert rep.stationarity > 0
        assert f"stationarity={rep.stationarity:.3e}" in out
        if model == "cgl-mcp":
            steps = rep.history
            newton = sum(h["ssn_iterations"] for h in steps)
            cg = sum(h["ssn_cg_steps"] for h in steps)
            assert f"work: {len(steps)} outer steps, {newton} Newton steps, {cg} CG steps" in out
            polish = sum(h["polish_steps"] for h in steps)
            refused = sum(h["polish_refused"] for h in steps)
            polished = [h for h in steps if h["polish_steps"] or h["polish_refused"]]
            exact = sum(h["split_exact"] for h in polished)
            assert (
                f"\npolish: {polish} steps, {refused} refused, {exact} of {len(polished)} "
                "started on the exact split\n"
            ) in out
            assert polish > 0
            assert rep.termination == "converged"
            assert rep.stationarity < rep.config["eps"]
            warm = rep.warm_start
            assert warm["steps"] > 0
            assert (
                f", warm start {warm['steps']} projected-Newton steps "
                f"({warm['cg_steps']} CG steps) in "
            ) in out
        else:
            last = rep.history[-1]
            assert last["cg_steps"] > 0
            assert (
                f"work: {last['iteration']} projected-Newton steps ({last['cg_steps']} CG steps)"
            ) in out

    @pytest.mark.parametrize(
        "model, flag, value, field",
        [
            ("cgl-l1", "--max-iter", "0", "max_iter"),
            ("cgl-mcp", "--max-iter", "0", "--max-iter"),
            ("cgl-mcp", "--max-outer", "-1", "max_outer"),
        ],
    )
    def test_iteration_cap_out_of_range_exits_1(self, instance, capsys, model, flag, value, field):
        graph, cov = instance
        rc = main(
            [
                "solve", "--model", model, "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05", flag, value,
            ]
        )
        assert rc == 1
        assert f"error: {field} must be" in capsys.readouterr().err

    def test_solve_l1_full_connectivity(self, tmp_path, instance):
        _, cov = instance
        report = tmp_path / "l1.json"
        rc = main(
            [
                "solve", "--model", "cgl-l1", "--cov", str(cov),
                "--connectivity", "full", "--lambda", "0.01",
                "--eps", "1e-5", "--out", str(report),
            ]
        )
        assert rc == 0
        rep = lio.load_report(report)
        assert rep.model == "cgl-l1"
        assert rep.config["prior_tag"] == "full"
        assert "connectivity_kind" not in rep.config

    def test_l1_zero_lambda_solves(self, tmp_path, instance):
        # the CLI adds no lambda rule of its own: check_solvable passes this S
        _, cov = instance
        report = tmp_path / "l1.json"
        rc = main(
            [
                "solve", "--model", "cgl-l1", "--cov", str(cov),
                "--connectivity", "full", "--lambda", "0", "--out", str(report),
            ]
        )
        assert rc == 0
        assert lio.load_report(report).termination == "converged"

    def test_l1_zero_lambda_degenerate_data_rejected(self, tmp_path, capsys):
        X = np.random.default_rng(0).standard_normal((400, 6))
        X[:, 5] = X[:, 4]
        path = tmp_path / "dup.csv"
        np.savetxt(path, X, delimiter=",")
        rc = main(
            [
                "solve", "--model", "cgl-l1", "--data", str(path),
                "--connectivity", "full", "--lambda", "0",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: degenerate covariance")
        assert "(4, 5)" in err

    def test_solve_from_raw_data(self, tmp_path):
        # generate data from a known 3-node chain and solve from the CSV
        rng = np.random.default_rng(0)
        g = lm.EdgeGraph(3, [(0, 1), (1, 2)], weights=[1.0, 2.0])
        pinv = lm.population_covariance(g.laplacian())
        lam_p, U = np.linalg.eigh(pinv)
        A = (U * np.sqrt(np.maximum(lam_p, 0))) @ U.T
        X = rng.standard_normal((20000, 3)) @ A
        path = tmp_path / "x.csv"
        np.savetxt(path, X, delimiter=",")
        report = tmp_path / "r.json"
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--data", str(path),
                "--connectivity", "full", "--lambda", "0.05", "--out", str(report),
            ]
        )
        assert rc == 0
        rep = lio.load_report(report)
        assert rep.config["data"] == str(path)
        est = lm.detected_edges(rep.w, rep.edges, 1e-2)
        assert lm.f1_score(est, g.edges) == 1.0

    def test_missing_file(self, tmp_path):
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--cov", str(tmp_path / "nope.mtx"),
                "--lambda", "0.1",
            ]
        )
        assert rc == 1

    def test_cap_hit_exit_code(self, tmp_path, instance):
        _, cov = instance
        rc = main(
            [
                "solve", "--model", "cgl-l1", "--cov", str(cov),
                "--connectivity", "full", "--lambda", "0.01",
                "--eps", "1e-9", "--max-iter", "3",
            ]
        )
        assert rc == 2

    def test_failed_line_search_exit_code(self, tmp_path, instance, monkeypatch):
        # no Newton step can meet an infinite Armijo increase, so no
        # subproblem step is certified
        graph, cov = instance
        monkeypatch.setattr(ssn, "_ARMIJO_MU", np.inf)
        report = tmp_path / "r.json"
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05", "--out", str(report),
            ]
        )
        assert rc == 2
        assert lio.load_report(report).termination == "certificate_failed"

    def test_max_iter_rejected_for_mcp(self, tmp_path, instance, capsys):
        # --max-iter caps the l1 solver alone, so with cgl-mcp it is a usage
        # error, not ignored
        graph, cov = instance
        report = tmp_path / "r.json"
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05",
                "--max-iter", "3", "--out", str(report),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: --max-iter must be left unset for --model cgl-mcp" in err
        assert "projected Newton" in err
        assert not report.exists()

    def test_max_outer_rejected_for_l1(self, tmp_path, instance, capsys):
        # --max-outer caps the d.c. loop alone, so with cgl-l1 it is a usage
        # error, not ignored
        graph, cov = instance
        report = tmp_path / "r.json"
        rc = main(
            [
                "solve", "--model", "cgl-l1", "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05",
                "--max-outer", "5", "--out", str(report),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: --max-outer must be left unset for --model cgl-l1" in err
        assert "outer d.c. steps" in err
        assert not report.exists()

    @pytest.mark.parametrize("model", ["cgl-mcp", "cgl-l1"])
    def test_unset_options_keep_parameter_defaults(self, instance, monkeypatch, model):
        graph, cov = instance
        name = "solve_mcp" if model == "cgl-mcp" else "solve_l1"
        real = getattr(cli, name)
        seen = []

        def spy(problem, params=None):
            seen.append(params)
            return real(problem, params)

        monkeypatch.setattr(cli, name, spy)
        rc = main(
            [
                "solve", "--model", model, "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05",
            ]
        )
        assert rc == 0
        assert seen == [lm.DcaParams() if model == "cgl-mcp" else lm.AdmmParams()]

    def test_negative_lambda_rejected(self, instance, capsys):
        graph, cov = instance
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "-0.1",
            ]
        )
        assert rc == 1
        assert "lam must be finite and non-negative" in capsys.readouterr().err

    def test_degenerate_data_rejected(self, tmp_path, capsys):
        X = np.random.default_rng(0).standard_normal((400, 6))
        X[:, 5] = X[:, 4]
        path = tmp_path / "dup.csv"
        np.savetxt(path, X, delimiter=",")
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--data", str(path),
                "--connectivity", "full", "--lambda", "0.05",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: degenerate covariance")
        assert "(4, 5)" in err

    @pytest.mark.parametrize("model", ["cgl-l1", "cgl-mcp"])
    def test_disconnected_prior_rejected(self, tmp_path, capsys, model):
        graph = tmp_path / "split.json"
        lio.save_graph(graph, lm.EdgeGraph(4, [(0, 1), (2, 3)], weights=[1.0, 1.0]))
        cov = tmp_path / "S.mtx"
        lio.write_covariance(cov, np.eye(4))
        rc = main(
            [
                "solve", "--model", model, "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.1",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: connectivity prior is disconnected")

    @pytest.mark.parametrize("model", ["cgl-l1", "cgl-mcp"])
    def test_lambda_beyond_pivot_floor_exits_1(self, tmp_path, instance, capsys, model):
        graph, cov = instance
        report = tmp_path / "report.json"
        rc = main(
            [
                "solve", "--model", model, "--cov", str(cov), "--connectivity",
                str(graph), "--lambda", "1e12", "--out", str(report),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lambda = 1e+12 is too large")
        assert "1e-12 pivot floor" in err
        assert not report.exists()

    def test_descent_error_exit_code(self, tmp_path, instance, monkeypatch, capsys):
        graph, cov = instance

        def broken(problem, params=None):
            raise lm.DescentError("descent property violated at outer step 3")

        monkeypatch.setattr("laplace_mcp.cli.solve_mcp", broken)
        rc = main(
            [
                "solve", "--model", "cgl-mcp", "--cov", str(cov),
                "--connectivity", str(graph), "--lambda", "0.05",
            ]
        )
        assert rc == 3
        assert "error: descent property violated" in capsys.readouterr().err


class TestDegenerateInputs:
    """Solves of the n=12 ER instance (p=0.3, seed 13) at lambda=0.05 from
    degenerate data: a constant column and k < n samples solve, and one
    sample on the full prior reaches a critical point."""

    @pytest.fixture()
    def instance(self, tmp_path):
        _, truth, L = make_problem(n=12, p=0.3, seed=13)
        graph = tmp_path / "g.json"
        lio.save_graph(graph, truth)
        return graph, L

    def solve(self, tmp_path, source, connectivity):
        out = tmp_path / "r.json"
        rc = main(
            [
                "solve", "--model", "cgl-mcp", *source, "--connectivity",
                str(connectivity), "--lambda", "0.05", "--out", str(out),
            ]
        )
        return rc, lio.load_report(out).termination

    def sampled(self, tmp_path, L, k):
        path = tmp_path / f"S{k}.mtx"
        lio.write_covariance(path, lm.sample_covariance(L, k, 15))
        return ["--cov", str(path)]

    @pytest.mark.parametrize("prior", ["true", "full"])
    def test_constant_column_converges(self, tmp_path, instance, prior):
        graph, L = instance
        X = np.random.default_rng(13).multivariate_normal(np.zeros(12), np.linalg.pinv(L), 500)
        X[:, 0] = 3.0
        data = tmp_path / "x.csv"
        np.savetxt(data, X, delimiter=",")
        connectivity = graph if prior == "true" else "full"
        assert self.solve(tmp_path, ["--data", str(data)], connectivity) == (0, "converged")

    @pytest.mark.parametrize("prior", ["true", "full"])
    @pytest.mark.parametrize("k", [3, 6])
    def test_fewer_samples_than_nodes_converge(self, tmp_path, instance, k, prior):
        graph, L = instance
        connectivity = graph if prior == "true" else "full"
        source = self.sampled(tmp_path, L, k)
        assert self.solve(tmp_path, source, connectivity) == (0, "converged")

    def test_one_sample_true_prior_converges(self, tmp_path, instance):
        graph, L = instance
        assert self.solve(tmp_path, self.sampled(tmp_path, L, 1), graph) == (0, "converged")

    def test_one_sample_full_prior_named_status(self, tmp_path, instance):
        # the weights grow to about 1e3 and the d.c. steps shrink slowly, so
        # the d.c. loop alone ran to the outer cap; the polish reaches a
        # critical point
        _, L = instance
        source = self.sampled(tmp_path, L, 1)
        assert self.solve(tmp_path, source, "full") == (0, "converged")
        report = lio.load_report(tmp_path / "r.json")
        assert report.stationarity < report.config["eps"]
        assert report.stationarity == report.history[-1]["polish_stationarity"]


def read_sweep_rows(path):
    """The rows of a sweep CSV as dicts, once its header is SWEEP_COLUMNS."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == lio.SWEEP_COLUMNS
        return list(reader)


class TestCliSweep:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--model", "cgl-mcp", "--ensemble", "grid",
                "--nodes", "16", "--lambdas", "1e-2:1e-1:3", "--seeds", "2",
                "--samples-per-node", "2000", "--eps", "1e-5",
                "--threads", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_sweep_rows(out)
        assert len(rows) == 6
        assert list(rows[0].keys()) == lio.SWEEP_COLUMNS
        avg = read_sweep_rows(tmp_path / "sweep_avg.csv")
        assert len(avg) == 3
        with open(tmp_path / "sweep_config.json") as fh:
            cfg = json.load(fh)
        assert cfg["seeds"] == [0, 1]
        assert len(cfg["lambdas"]) == 3
        # every value reloads as a float
        for row in rows:
            float(row["lambda"]), float(row["f1"]), float(row["recovery_error"])

    def test_empty_grid_rejected(self, tmp_path):
        rc = main(
            [
                "sweep", "--lambdas", "bad", "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--threads", threads, "--out", str(out)])
        assert rc == 1
        assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCliUsageErrors:
    """argparse's usage errors exit 1, as the CLI's own do; 2 means a solve
    that ended unconverged."""

    def test_missing_covariance_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", "cgl-mcp", "--lambda", "0.1"])
        assert exc.value.code == 1
        assert "one of the arguments --cov --data is required" in capsys.readouterr().err

    def test_bad_seed_count_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--seeds", "x", "--out", str(out)])
        assert exc.value.code == 1
        assert "argument --seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: laplace-mcp")


class TestCliDefaults:
    """Each CLI default is the parameter class's own."""

    def test_sweep_defaults_are_sweep_config(self):
        args = cli._build_parser().parse_args(["sweep", "--out", "x"])
        assert cli._sweep_config(args) == SweepConfig()

    def test_gen_takes_graph_options_from_sweep_config(self):
        args = cli._build_parser().parse_args(
            ["gen", "--ensemble", "er", "--nodes", "10", "--out", "x"]
        )
        assert cli._sweep_config(args) == dataclasses.replace(SweepConfig(), ensemble="er", n=10)

    def test_no_default_literal_repeats_a_parameter_class(self):
        # a literal default= in cli.py would be a second definition of a
        # value that a parameter dataclass already defines
        defined = {
            (type(f.default), f.default)
            for cls in (SweepConfig, lm.DcaParams, lm.AdmmParams)
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
        }
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        literals = [
            c.value
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "default"
            for c in (kw.value.elts if isinstance(kw.value, ast.Tuple) else [kw.value])
            if isinstance(c, ast.Constant)
        ]
        assert literals
        assert not [v for v in literals if (type(v), v) in defined]


class TestLambdaGrid:
    def test_parse(self):
        from laplace_mcp.cli import _parse_lambda_grid

        grid = _parse_lambda_grid("1e-4:1:10")
        assert len(grid) == 10
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1.0)
        assert _parse_lambda_grid("0.5:0.5:1") == [0.5]
        with pytest.raises(ValueError):
            _parse_lambda_grid("1:2")
        with pytest.raises(ValueError):
            _parse_lambda_grid("-1:1:3")
