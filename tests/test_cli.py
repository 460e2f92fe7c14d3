import functools
import json
import os

import numpy as np
import pytest

from hdvar import cli, estimators, var


def run(argv):
    return cli.main(argv)


class TestSimulate:
    def test_named_dgp_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run(
                ["simulate", "--experiment", "A", "--k", "10", "--T", "100", "--seed", "7", "--out", str(out)]
            )
            assert code == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "dataset.meta.json").read_bytes() == (b / "dataset.meta.json").read_bytes()

    def test_zero_sigma_all_zero_csv(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"phis": [[[0.5]]], "sigma": [[0.0]]}))
        code = run(["simulate", "--model", str(model_file), "--T", "20", "--out", str(tmp_path)])
        assert code == 0
        data = var.load_dataset(str(tmp_path))
        assert np.all(data.path == 0.0)

    def test_round_trip_matches_original(self, tmp_path):
        code = run(
            ["simulate", "--experiment", "B", "--k", "10", "--T", "60", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        loaded = var.load_dataset(str(tmp_path))
        from hdvar import mc

        model, _ = mc.make_dgp("B", 10)
        direct = var.simulate(model, 60, seed=3)
        assert np.abs(loaded.path - direct.path).max() <= 1e-12

    def test_nonstationary_exit_code(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"phis": [[[1.05]]], "sigma": [[1.0]]}))
        code = run(["simulate", "--model", str(model_file), "--T", "10", "--out", str(tmp_path)])
        assert code == 3

    def test_missing_model_is_config_error(self, tmp_path):
        code = run(["simulate", "--T", "10", "--out", str(tmp_path)])
        assert code == 2


class TestFit:
    @pytest.fixture()
    def dataset_dir(self, tmp_path):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "200", "--seed", "1", "--out", str(tmp_path)])
        return tmp_path

    def test_lambda_override_gives_zero_fit(self, dataset_dir):
        out = dataset_dir / "fits"
        code = run(
            [
                "fit",
                "--data",
                str(dataset_dir),
                "--estimators",
                "lasso",
                "--lambda",
                "1e9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        fit = estimators.load_system_fit(str(out / "fit_lasso.json"))
        assert np.all(fit.coefficients == 0.0)

    @pytest.mark.parametrize("tag", ["lasso", "adaptive_lasso_lasso"])
    def test_lambda_override_reports_nonconvergence(self, dataset_dir, monkeypatch, tag):
        data = var.load_dataset(str(dataset_dir))
        assert all(f.converged for f in cli._fit_with_override(data, tag, None, 1e-4).fits)
        monkeypatch.setattr(cli, "lasso_cd", functools.partial(cli.lasso_cd, max_iter=1))
        fit = cli._fit_with_override(data, tag, None, 1e-4)
        assert not all(f.converged for f in fit.fits)

    def test_oracle_without_truth_is_config_error(self, dataset_dir):
        code = run(["fit", "--data", str(dataset_dir), "--estimators", "oracle_ols", "--out", str(dataset_dir)])
        assert code == 2

    def test_fit_export_reload_identical_forecasts(self, dataset_dir):
        out = dataset_dir / "fits"
        code = run(["fit", "--data", str(dataset_dir), "--estimators", "lasso", "--out", str(out)])
        assert code == 0
        data = var.load_dataset(str(dataset_dir))
        loaded = estimators.load_system_fit(str(out / "fit_lasso.json"))
        direct = estimators.fit_system(data, "lasso")
        a = var.forecast_one_step(direct.coefficients, data)
        b = var.forecast_one_step(loaded.coefficients, data)
        assert np.array_equal(a, b)

    def test_unknown_estimator_tag(self, dataset_dir):
        code = run(["fit", "--data", str(dataset_dir), "--estimators", "magic", "--out", str(dataset_dir)])
        assert code == 2

    def test_infeasible_estimator_exit_4(self, tmp_path):
        # kp = 50 >= T = 30: full OLS cannot run
        run(["simulate", "--experiment", "A", "--k", "50", "--T", "30", "--out", str(tmp_path)])
        code = run(["fit", "--data", str(tmp_path), "--estimators", "full_ols", "--out", str(tmp_path)])
        assert code == 4


class TestMcCommand:
    def test_writes_named_report(self, tmp_path):
        code = run(
            [
                "mc",
                "--experiment",
                "A",
                "--k",
                "10",
                "--T",
                "100",
                "--reps",
                "2",
                "--estimators",
                "lasso",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "A_10_100.csv").exists()

    def test_rerun_determinism_bytes(self, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            code = run(
                [
                    "mc",
                    "--experiment",
                    "A",
                    "--k",
                    "10",
                    "--T",
                    "100",
                    "--reps",
                    "3",
                    "--estimators",
                    "lasso,oracle_ols",
                    "--seed",
                    "5",
                    "--format",
                    "json",
                    "--out",
                    str(d),
                ]
            )
            assert code == 0
        a = (dirs[0] / "A_10_100.json").read_bytes()
        b = (dirs[1] / "A_10_100.json").read_bytes()
        assert a == b

    def test_invalid_combination_is_config_error(self, tmp_path):
        code = run(
            ["mc", "--experiment", "B", "--k", "100", "--T", "100", "--reps", "1", "--out", str(tmp_path)]
        )
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "A", "k": 10, "T": 80, "reps": 2}))
        code = run(["mc", "--config", str(cfg), "--experiment", "A", "--k", "10", "--T", "80", "--out", str(tmp_path)])
        assert code == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        code = run(
            ["mc", "--config", str(cfg), "--experiment", "A", "--k", "10", "--T", "80", "--reps", "1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 1}))
        code = run(
            [
                "mc",
                "--config",
                str(cfg),
                "--experiment",
                "A",
                "--k",
                "10",
                "--T",
                "80",
                "--reps",
                "2",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "A_10_80.json").read_text())
        assert payload["n_reps"] == 2


class TestDiag:
    def test_simulated_diag_report(self, tmp_path):
        code = run(
            [
                "diag",
                "--experiment",
                "A",
                "--k",
                "10",
                "--T",
                "100",
                "--reps",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert len(payload["replications"]) == 2
        rep = payload["replications"][0]
        assert rep["events"]["b_t"] is True
        for check in rep["iq_checks"]:
            for name in ("iq1", "iq2", "iq3"):
                assert check[name]["slack"] >= -1e-6
        assert payload["bounds"]["lambda_t"] > 0
        assert len(rep["foc"]) == 10  # sign-recovery outcomes per equation
        # pi_q echoed by the CLI matches a direct library call
        from hdvar import mc, theory

        model, truth = mc.make_dgp("A", 10)
        fnorm = theory.f_norm_sum(model, T=100)
        ksq = payload["bounds"]["kappa_sbar_sq"]
        z = theory.zeta(0.5, ksq, fnorm)
        assert payload["bounds"]["pi_q_sbar"] == pytest.approx(
            theory.pi_q(1, 10, 1, 100, z), rel=1e-9
        )

    def test_restricted_eigenvalue_once_per_distinct_rank(self, tmp_path, monkeypatch):
        from hdvar import mc, theory

        argv = ["diag", "--experiment", "A", "--k", "10", "--T", "60", "--reps", "1", "--skip-foc"]
        original = theory.restricted_eigenvalue
        ranks = []

        def counting(gamma, r, **kw):
            ranks.append(r)
            return original(gamma, r, **kw)

        monkeypatch.setattr(theory, "restricted_eigenvalue", counting)
        assert run(argv + ["--out", str(tmp_path)]) == 0
        assert ranks == [1]  # s_bar and all ten s_i equal 1 in design A
        # the reused value is what a fresh evaluation for each equation gives
        model, _ = mc.make_dgp("A", 10)
        fresh = original(var.population_gamma(model), 1)
        bounds = json.loads((tmp_path / "diagnostics.json").read_text())["bounds"]
        assert bounds["kappa_sbar_sq"] == fresh
        pred, est = theory.thm3_bounds(1, bounds["lambda_t"], fresh, 0.5)
        assert bounds["thm3"] == [{"pred_bound": pred, "est_bound": est}] * 10

    def test_diag_without_innovations_exit_5(self, tmp_path):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "50", "--out", str(tmp_path)])
        os.remove(tmp_path / "dataset.innovations.csv")
        meta = json.loads((tmp_path / "dataset.meta.json").read_text())
        meta.pop("innovations_file")
        (tmp_path / "dataset.meta.json").write_text(json.dumps(meta))
        code = run(
            [
                "diag",
                "--data",
                str(tmp_path),
                "--experiment",
                "A",
                "--k",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 5


class TestPaperTables:
    def test_tiny_smoke(self, tmp_path):
        code = run(
            [
                "paper-tables",
                "--reps",
                "2",
                "--experiments",
                "A",
                "--k-list",
                "10",
                "--T-list",
                "50",
                "--estimators",
                "lasso,oracle_ols",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "A_10_50.csv").exists()
        assert (tmp_path / "table_A.csv").exists()
