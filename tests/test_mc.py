import dataclasses
import json
import os

import numpy as np
import pytest

from hdvar import cli, estimators, mc, solver, var
from hdvar.errors import UnknownCombination
from helpers import rmse, rmsfe, selection_metrics


class TestMakeDgp:
    def test_experiment_a(self):
        model, truth = mc.make_dgp("A", 10)
        assert model.p == 1
        assert np.allclose(model.phis[0], 0.5 * np.eye(10))
        assert np.allclose(model.sigma, 0.01 * np.eye(10))
        assert np.all(truth.s == 1)
        assert truth.beta_min_i.min() == pytest.approx(0.5)

    def test_experiment_b_structure(self):
        model, truth = mc.make_dgp("B", 10)
        assert model.p == 4
        assert np.allclose(model.phis[0][:5, :5], 0.15)
        assert np.allclose(model.phis[0][:5, 5:], 0.0)
        assert np.allclose(model.phis[3][:5, :5], -0.1)
        assert np.all(model.phis[1] == 0.0) and np.all(model.phis[2] == 0.0)
        assert np.all(truth.s == 10)

    def test_experiment_c_coefficients(self):
        model, _ = mc.make_dgp("C", 10)
        assert model.p == 5
        for j in range(1, 6):
            expected = ((-0.95) ** (j - 1)) * 0.95
            assert model.phis[j - 1][0, 0] == pytest.approx(expected)

    def test_experiment_d_entries(self):
        model, truth = mc.make_dgp("D", 10)
        P = model.phis[0]
        assert P[0, 0] == pytest.approx(0.4)
        assert P[0, 1] == pytest.approx(-0.16)
        assert P[0, 2] == pytest.approx(0.064)
        assert np.all(truth.s == 10)  # nothing is zero

    def test_unknown_combination(self):
        with pytest.raises(UnknownCombination):
            mc.make_dgp("A", 11)
        with pytest.raises(UnknownCombination):
            mc.make_dgp("B", 100)
        with pytest.raises(UnknownCombination):
            mc.make_dgp("E", 10)

    def test_all_designs_stationary(self):
        for exp, ks in mc.EXPERIMENT_GRID.items():
            for k in ks:
                model, _ = mc.make_dgp(exp, k)
                assert var.companion(model).rho < 1.0


class TestMetrics:
    def make_fit(self, coef):
        coef = np.asarray(coef, dtype=np.float64)
        fits = tuple(
            estimators.EquationFit(
                beta=row,
                active_set=np.flatnonzero(row),
                lambda_selected=0.0,
                estimator_tag="lasso",
                df=float(np.count_nonzero(row)),
            )
            for row in coef
        )
        return estimators.SystemFit(
            estimator_tag="lasso", fits=fits, coefficients=coef, k=coef.shape[0], p=1
        )

    def test_rmse_exact_fits(self):
        truth = estimators.SparsityInfo.from_coefficients(0.5 * np.eye(2))
        fit = self.make_fit(0.5 * np.eye(2))
        assert rmse([fit], truth) == 0.0

    def test_rmse_single_rep(self):
        truth = estimators.SparsityInfo.from_coefficients(np.zeros((1, 1)))
        fit = self.make_fit([[2.0]])
        assert rmse([fit], truth) == pytest.approx(2.0)

    def test_rmse_two_reps_hand_arithmetic(self):
        truth = estimators.SparsityInfo.from_coefficients(np.zeros((1, 1)))
        fits = [self.make_fit([[0.0]]), self.make_fit([[2.0]])]
        assert rmse(fits, truth) == pytest.approx(np.sqrt(2.0))

    def test_rmsfe_perfect(self):
        assert rmsfe([np.ones(3)], [np.ones(3)], 3) == 0.0

    def test_rmsfe_hand_case(self):
        # one replication, k=2, squared forecast error 0.25 + 0.25
        val = rmsfe([np.array([0.5, -0.5])], [np.array([0.0, 0.0])], 2)
        assert val == pytest.approx(0.5)

    def test_selection_metrics_truth(self):
        truth = estimators.SparsityInfo.from_coefficients(0.5 * np.eye(3))
        fit = self.make_fit(0.5 * np.eye(3))
        unc, inc, share, nsel = selection_metrics([fit], truth)
        assert (unc, inc, share, nsel) == (1.0, 1.0, 1.0, 3.0)

    def test_selection_metrics_empty_fits(self):
        truth = estimators.SparsityInfo.from_coefficients(0.5 * np.eye(3))
        fit = self.make_fit(np.zeros((3, 3)))
        unc, inc, share, nsel = selection_metrics([fit], truth)
        assert (unc, inc, share, nsel) == (0.0, 0.0, 0.0, 0.0)

    def test_uncovered_implies_included(self):
        truth = estimators.SparsityInfo.from_coefficients(0.5 * np.eye(2))
        rng = np.random.Generator(np.random.Philox(0))
        fits = [self.make_fit(rng.standard_normal((2, 2)) * (rng.random((2, 2)) > 0.4)) for _ in range(20)]
        unc, inc, share, _ = selection_metrics(fits, truth)
        assert unc <= inc
        # share is 1 whenever included is 1 (per-replication containment)
        if inc == 1.0:
            assert share == 1.0


class TestRunExperiment:
    def test_oracle_always_includes(self):
        spec = mc.ExperimentSpec("A", 10, 500, n_reps=1, estimators=("oracle_ols",))
        report = mc.run_experiment(spec)
        row = report.rows["oracle_ols"]
        assert row.true_model_included == 1.0
        assert row.true_model_uncovered == 1.0
        assert row.share_relevant == 1.0
        assert row.n_selected == 10.0

    def test_deterministic_reruns(self):
        spec = mc.ExperimentSpec("A", 10, 100, n_reps=4, estimators=("lasso", "oracle_ols"))
        a = mc.run_experiment(spec)
        b = mc.run_experiment(spec)
        for tag in spec.estimators:
            assert dataclasses.asdict(a.rows[tag]) == dataclasses.asdict(b.rows[tag])

    def test_thread_count_invariance(self):
        spec = mc.ExperimentSpec("A", 10, 100, n_reps=6, estimators=("lasso",))
        seq = mc.run_experiment(spec, threads=1)
        par = mc.run_experiment(spec, threads=3)
        assert dataclasses.asdict(seq.rows["lasso"]) == dataclasses.asdict(par.rows["lasso"])

    def test_workers_start_with_single_threaded_blas(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with mc._worker_pool(1) as pool:
            seen = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result(timeout=60)
            assert pool.submit(os.getenv, "OMP_NUM_THREADS").result(timeout=60) == "1"
        assert seen == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_full_ols_infeasible_at_small_t(self):
        spec = mc.ExperimentSpec("A", 50, 50, n_reps=1, estimators=("full_ols",))
        report = mc.run_experiment(spec)
        row = report.rows["full_ols"]
        assert row.infeasible
        assert np.isnan(row.rmse)

    def test_csv_and_json_outputs(self, tmp_path):
        spec = mc.ExperimentSpec("A", 10, 100, n_reps=2, estimators=("lasso", "full_ols"))
        report = mc.run_experiment(spec)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        mc.report_to_csv(report, str(csv_path))
        mc.report_to_json(report, str(json_path))
        text = csv_path.read_text()
        assert text.startswith("estimator,")
        assert "lasso" in text and "full_ols" in text

        payload = json.loads(json_path.read_text())
        assert sorted(payload) == [
            "T", "base_seed", "estimators", "experiment", "k", "lambda_ratio", "n_lambda", "n_reps", "seeds", "solver"
        ]
        assert payload["estimators"]["lasso"]["rmse"] > 0

    def test_nonconverged_selected_fits_counted(self, monkeypatch, tmp_path, capsys):
        # m = 50 > T = 40 and at most 2 sweeps per grid point: selected LASSO fits stop short
        monkeypatch.setattr(solver, "MAX_SWEEPS", 2)
        model, _ = mc.make_dgp("C", 10)
        expected = 0
        for seed in (5, 6):
            data = var.truncate_dataset(var.simulate(model, 41, seed=seed), 40)
            plan = estimators.FitPlan(data)
            expected += sum(not plan.lasso(i).converged for i in range(10))
        assert expected > 0
        argv = ["mc", "--experiment", "C", "--k", "10", "--T", "40", "--reps", "2", "--seed", "5"]
        assert cli.main(argv + ["--estimators", "lasso,full_ols", "--format", "json", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "C_10_40.json").read_text())
        # full_ols is infeasible at m >= T, and an infeasible fit is not counted
        assert payload["solver"] == {
            "lasso": {"nonconverged": expected, "fits": 20, "bic_at_grid_end": 12, "mean_df_over_T": 0.94625},
            "full_ols": {"nonconverged": 0, "fits": 20, "bic_at_grid_end": 0, "mean_df_over_T": None},
        }
        assert f"nonconverged: lasso {expected}/20 full_ols 0/20 bic_at_grid_end: lasso 12/20 full_ols 0/20\n" in (
            capsys.readouterr().err
        )

    def test_grid_end_and_selected_df_counted(self, monkeypatch):
        tags = estimators.ESTIMATOR_TAGS
        # m = 50 > T = 40: the LASSO BIC runs to the end of the grid, where the
        # path keeps up to T regressors; a budget of 50 sweeps keeps any
        # non-converging grid point cheap
        monkeypatch.setattr(solver, "MAX_SWEEPS", 50)
        report = mc.run_experiment(mc.ExperimentSpec("C", 10, 40, n_reps=1, base_seed=5, estimators=tags))
        assert {tag: (c["bic_at_grid_end"], c["mean_df_over_T"]) for tag, c in report.solver.items()} == {
            "lasso": (10, 0.9949999999999999),
            "post_lasso": (2, 0.975),  # too_many_selected in 8 of 10 equations
            "adaptive_lasso_lasso": (10, 0.9),
            "adaptive_lasso_ridge": (10, 0.96),
            "oracle_ols": (0, 0.125),
            "full_ols": (0, None),
        }
        monkeypatch.undo()
        report = mc.run_experiment(mc.ExperimentSpec("A", 10, 200, n_reps=2, base_seed=5, estimators=tags))
        # the LASSO and its refit stop inside the grid; the adaptive stage on a
        # LASSO first stage mostly ends with every finite-weight coordinate
        # active, where a smaller lambda only lowers RSS, so its BIC falls to
        # the grid end
        assert {tag: (c["bic_at_grid_end"], c["mean_df_over_T"]) for tag, c in report.solver.items()} == {
            "lasso": (0, 0.006),
            "post_lasso": (0, 0.006),
            "adaptive_lasso_lasso": (19, 0.00575),
            "adaptive_lasso_ridge": (0, 0.00525),
            "oracle_ols": (0, 0.005),
            "full_ols": (0, 0.05),
        }

    @pytest.mark.parametrize("experiment, k, T, threads", [("A", 10, 60, 1), ("A", 10, 60, 2), ("C", 10, 40, 1)])
    def test_rows_equal_the_list_of_fits_references(self, experiment, k, T, threads):
        # C/10/40 has m = 50 > T: its post-LASSO and full-OLS rows are infeasible
        tags = estimators.ESTIMATOR_TAGS
        spec = mc.ExperimentSpec(experiment, k, T, n_reps=3, base_seed=2, estimators=tags)
        report = mc.run_experiment(spec, threads=threads)
        model, truth = mc.make_dgp(experiment, k)
        fits, forecasts, realized = {tag: [] for tag in tags}, {tag: [] for tag in tags}, []
        for seed in report.seeds:
            full = var.simulate(model, T + 1, seed=seed)
            data = var.truncate_dataset(full, T)
            plan = estimators.FitPlan(data, truth)
            realized.append(full.path[T])
            for tag in tags:
                fits[tag].append(plan.fit(tag))
                forecasts[tag].append(var.forecast_one_step(fits[tag][-1].coefficients, data))
        infeasible = set()
        for tag in tags:
            row = dataclasses.asdict(report.rows[tag])
            n_failed = sum(not f.feasible for f in fits[tag])
            assert (row.pop("infeasible"), row.pop("n_failed")) == (n_failed > 0, n_failed)
            if n_failed:
                infeasible.add(tag)
                assert all(np.isnan(row[name]) for name in mc.METRICS)
            else:
                unc, inc, share, nsel = selection_metrics(fits[tag], truth)
                assert row == {
                    "estimator": tag,
                    "true_model_uncovered": unc,
                    "true_model_included": inc,
                    "share_relevant": share,
                    "n_selected": nsel,
                    "rmse": rmse(fits[tag], truth),
                    "rmsfe": rmsfe(forecasts[tag], realized, k),
                }
            selected = [eq for f in fits[tag] for eq in f.fits if eq.feasible]
            assert report.solver[tag] == {
                "nonconverged": sum(not eq.converged for eq in selected),
                "fits": 3 * k,
                "bic_at_grid_end": sum(eq.bic_at_grid_end for eq in selected),
                "mean_df_over_T": float(np.mean([eq.df for eq in selected])) / T if selected else None,
            }
        assert infeasible == ({"post_lasso", "full_ols"} if experiment == "C" else set())

    def test_a_replication_record_holds_numbers_only(self):
        spec = mc.ExperimentSpec("A", 10, 60, n_reps=1, estimators=estimators.ESTIMATOR_TAGS)
        model, truth = mc.make_dgp("A", 10)
        record = mc._replicate(spec, model, truth, 0)
        assert list(record) == list(spec.estimators)

        def leaves(value):
            if isinstance(value, dict):
                assert all(type(key) is str for key in value)
                value = list(value.values())
            if type(value) in (tuple, list):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        # exact types: no ndarray, NumPy scalar, EquationFit or SystemFit
        assert {type(leaf) for leaf in leaves(record)} <= {bool, int, float}

    def test_share_one_when_included_one(self):
        spec = mc.ExperimentSpec("A", 10, 500, n_reps=3, estimators=("lasso",))
        report = mc.run_experiment(spec)
        row = report.rows["lasso"]
        if row.true_model_included == 1.0:
            assert row.share_relevant == 1.0


@pytest.fixture(scope="module")
def exp_a_report():
    spec = mc.ExperimentSpec(
        "A", 10, 500, n_reps=30, estimators=("lasso", "post_lasso", "oracle_ols")
    )
    return mc.run_experiment(spec)


class TestReferenceBenchmarks:
    """Table-level regression checks at reduced replication counts."""

    def test_selected_count_near_twelve(self, exp_a_report):
        # reference value: 12 variables selected on average
        assert exp_a_report.rows["lasso"].n_selected == pytest.approx(12.0, abs=4.0)

    def test_post_lasso_beats_lasso_rmse(self, exp_a_report):
        # reference values 0.20 vs 0.28
        assert exp_a_report.rows["post_lasso"].rmse < exp_a_report.rows["lasso"].rmse

    def test_oracle_rmse_scale(self, exp_a_report):
        # reference value 0.12
        assert exp_a_report.rows["oracle_ols"].rmse == pytest.approx(0.12, abs=0.04)
