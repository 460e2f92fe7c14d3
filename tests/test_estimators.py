import numpy as np
import pytest

from hdvar import estimators, mc, var
from hdvar.estimators import (
    SparsityInfo,
    bic,
    fit_full_ols,
    fit_lasso_bic,
    fit_oracle_ols,
    fit_post_lasso,
    fit_system,
)
from hdvar.linalg import cholesky_solve, least_squares
from hdvar.solver import PenaltySpec, lambda_max, lasso_cd


def problem_from(X, y):
    X = np.asarray(X, dtype=np.float64)
    T = X.shape[0]
    return var.RegressionProblem(
        X=np.asfortranarray(X),
        ys=np.ascontiguousarray(np.atleast_2d(y)),
        psi=(X.T @ X) / T,
        k=1,
        p=X.shape[1],
    )


def simulated_problem(seed=0, k=5, T=300):
    model = var.VarModel(phis=(0.5 * np.eye(k),), sigma=0.01 * np.eye(k))
    truth = SparsityInfo.from_coefficients(var.coefficient_matrix(model))
    data = var.simulate(model, T, seed=seed)
    return var.stack(data), truth, data


class TestBic:
    def test_rss_e_df_zero(self):
        assert bic(np.e, 0.0, 100) == pytest.approx(1.0, abs=1e-12)

    def test_df_cancels_log_t(self):
        T = 77
        assert bic(1.0, T / np.log(T), T) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rss_sentinel(self):
        assert bic(0.0, 3.0, 50) == -np.inf

    def test_argmin_selection_matches_recomputation(self):
        prob, truth, _ = simulated_problem(seed=4)
        fit = fit_lasso_bic(prob, 0)
        from hdvar.solver import lasso_path

        path = lasso_path(prob.X, prob.ys[0])
        values = []
        for lam, res in path:
            rss = float(np.sum((prob.ys[0] - prob.X @ res.beta) ** 2))
            values.append(bic(rss, float(np.count_nonzero(res.beta)), prob.T))
        assert fit.bic_value == pytest.approx(min(values), abs=1e-12)


class TestLassoBic:
    def test_pure_noise_selects_empty(self):
        empty = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.Philox(seed))
            X = rng.standard_normal((500, 10))
            y = rng.standard_normal(500)
            fit = fit_lasso_bic(problem_from(X, y), 0)
            empty += len(fit.active_set) == 0
        assert empty >= 90

    def test_noiseless_zero_rss_rule(self):
        rng = np.random.Generator(np.random.Philox(3))
        X = rng.standard_normal((60, 4))
        beta = np.array([1.0, 0.0, -2.0, 0.0])
        fit = fit_lasso_bic(problem_from(X, X @ beta), 0, ratio=1e-8)
        assert fit.rss <= 1e-8
        assert np.isfinite(fit.lambda_selected)

    def test_bic_ties_resolve_to_larger_lambda(self):
        # exact interpolation makes every small-lambda fit hit the -inf
        # sentinel; the selection must take the largest such lambda
        rng = np.random.Generator(np.random.Philox(30))
        X = rng.standard_normal((40, 3))
        beta = np.array([2.0, -1.0, 0.5])
        prob = problem_from(X, X @ beta)
        fit = fit_lasso_bic(prob, 0, ratio=1e-10)
        from hdvar.solver import lasso_path

        path = lasso_path(prob.X, prob.ys[0], ratio=1e-10)
        tied = [
            lam
            for lam, res in path
            if bic(float(np.sum((prob.ys[0] - prob.X @ res.beta) ** 2)), 0.0, 40) == -np.inf
        ]
        if tied:
            assert fit.lambda_selected == pytest.approx(max(tied))

    def test_active_set_matches_nonzeros(self):
        prob, _, _ = simulated_problem(seed=5)
        fit = fit_lasso_bic(prob, 2)
        assert np.array_equal(fit.active_set, np.flatnonzero(fit.beta))


class TestPostLasso:
    def test_matches_oracle_when_support_found(self):
        prob, truth, _ = simulated_problem(seed=6, T=500)
        lasso_fit = fit_lasso_bic(prob, 0)
        post = fit_post_lasso(prob, 0, lasso_fit=lasso_fit)
        if np.array_equal(np.sort(lasso_fit.active_set), np.sort(truth.supports[0])):
            oracle = fit_oracle_ols(prob, 0, truth)
            assert np.abs(post.beta - oracle.beta).max() <= 1e-10

    def test_empty_active_set_gives_zero(self):
        rng = np.random.Generator(np.random.Philox(8))
        X = rng.standard_normal((200, 5))
        y = rng.standard_normal(200)
        lasso_fit = fit_lasso_bic(problem_from(X, y), 0)
        if len(lasso_fit.active_set) == 0:
            post = fit_post_lasso(problem_from(X, y), 0, lasso_fit=lasso_fit)
            assert np.all(post.beta == 0.0)

    def test_too_many_selected_is_infeasible(self):
        prob, _, _ = simulated_problem(seed=9, k=5, T=300)
        fake = estimators.EquationFit(
            beta=np.ones(prob.m),
            active_set=np.arange(prob.m),
            lambda_selected=0.1,
            estimator_tag="lasso",
            bic_value=0.0,
            df=float(prob.m),
            rss=1.0,
        )
        # shrink T below the active size by slicing the problem
        small = var.RegressionProblem(
            X=np.asfortranarray(prob.X[: prob.m - 1]),
            ys=np.ascontiguousarray(prob.ys[:, : prob.m - 1]),
            psi=prob.psi,
            k=prob.k,
            p=prob.p,
        )
        post = fit_post_lasso(small, 0, lasso_fit=fake)
        assert not post.feasible
        assert post.failure == "too_many_selected"


class TestAdaptiveLasso:
    def test_stage2_active_subset_of_stage1(self):
        prob, truth, _ = simulated_problem(seed=10, T=200)
        for i in range(3):
            stage1 = fit_lasso_bic(prob, i)
            ada = estimators.FitPlan(prob).equation("adaptive_lasso_lasso", i)
            assert set(ada.active_set.tolist()) <= set(stage1.active_set.tolist())

    def test_ridge_init_no_hard_exclusion(self):
        prob, truth, _ = simulated_problem(seed=11, T=200)
        beta1, _ = estimators.FitPlan(prob, n_lambda=50, ratio=1e-4).ridge_bic(0)
        assert np.all(beta1 != 0.0)  # ridge is dense

    def test_ridge_stage_matches_cholesky_loop(self):
        # reference: one Cholesky solve per grid point, df from the trace formula
        prob, _, _ = simulated_problem(seed=11, T=200)
        X, T = prob.X, prob.T
        G = X.T @ X
        for i in range(prob.k):
            y = prob.ys[i]
            best = None
            for lam in T * lambda_max(X, y) * np.logspace(0.0, -4.0, 100):
                A = G + lam * np.eye(prob.m)
                beta = cholesky_solve(A, X.T @ y)
                r = y - X @ beta
                value = bic(float(r @ r), float(np.trace(cholesky_solve(A, G))), T)
                if best is None or value < best[0]:
                    best = (value, lam, beta)
            beta1, lam1 = estimators.FitPlan(prob, n_lambda=100, ratio=1e-4).ridge_bic(i)
            assert lam1 == best[1]
            assert np.abs(beta1 - best[2]).max() <= 1e-12

    def test_truth_weights_recover_ols_on_support(self):
        # stage 1 equal to the truth with a grid reaching tiny lambda:
        # stage 2 approaches OLS on the true support
        prob, truth, _ = simulated_problem(seed=12, T=400)
        i = 0
        with np.errstate(divide="ignore"):
            w = np.where(truth.beta[i] != 0.0, 1.0 / np.abs(truth.beta[i]), np.inf)

        res = lasso_cd(prob.X, prob.ys[i], PenaltySpec(1e-10, weights=w), tol=1e-12)
        J = truth.supports[i]
        ols = np.zeros(prob.m)
        ols[J] = least_squares(prob.X[:, J], prob.ys[i])
        assert np.abs(res.beta - ols).max() <= 1e-6

    def test_empty_first_stage_returns_zero_fit(self):
        rng = np.random.Generator(np.random.Philox(13))
        X = rng.standard_normal((500, 6))
        y = rng.standard_normal(500)
        prob = problem_from(X, y)
        stage1 = fit_lasso_bic(prob, 0)
        ada = estimators.FitPlan(prob).equation("adaptive_lasso_lasso", 0)
        if len(stage1.active_set) == 0:
            assert np.all(ada.beta == 0.0)
            assert ada.feasible


class TestOracleAndFullOls:
    def test_oracle_all_columns_equals_full(self):
        prob, _, _ = simulated_problem(seed=14, k=5, T=300)
        truth_all = SparsityInfo.from_coefficients(np.ones((5, prob.m)))
        oracle = fit_oracle_ols(prob, 1, truth_all)
        full = fit_full_ols(prob, 1)
        assert np.abs(oracle.beta - full.beta).max() <= 1e-12

    def test_oracle_empty_support(self):
        prob, _, _ = simulated_problem(seed=15)
        truth_none = SparsityInfo.from_coefficients(np.zeros((5, prob.m)))
        fit = fit_oracle_ols(prob, 0, truth_none)
        assert np.all(fit.beta == 0.0)

    def test_noiseless_exact_recovery(self):
        rng = np.random.Generator(np.random.Philox(16))
        X = rng.standard_normal((50, 8))
        beta = np.zeros(8)
        beta[[1, 5]] = [0.7, -0.2]
        prob = problem_from(X, X @ beta)
        truth = SparsityInfo.from_coefficients(beta[None, :])
        fit = fit_oracle_ols(prob, 0, truth)
        assert np.abs(fit.beta - beta).max() <= 1e-10

    def test_full_ols_scalar_slope(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        fit = fit_full_ols(problem_from(x, y), 0)
        assert fit.beta[0] == pytest.approx(2.0)

    def test_full_ols_infeasible_when_wide(self):
        rng = np.random.Generator(np.random.Philox(17))
        X = rng.standard_normal((10, 20))
        fit = fit_full_ols(problem_from(X, rng.standard_normal(10)), 0)
        assert not fit.feasible

    def test_full_ols_matches_kernel(self):
        rng = np.random.Generator(np.random.Philox(18))
        X = rng.standard_normal((100, 10))
        y = rng.standard_normal(100)
        fit = fit_full_ols(problem_from(X, y), 0)
        assert np.abs(fit.beta - least_squares(X, y)).max() <= 1e-10

    def test_full_ols_equals_lasso_at_lambda_zero(self):
        rng = np.random.Generator(np.random.Philox(19))
        X = rng.standard_normal((80, 6))
        y = rng.standard_normal(80)
        prob = problem_from(X, y)
        full = fit_full_ols(prob, 0)

        res = lasso_cd(prob.X, prob.ys[0], PenaltySpec(0.0), tol=1e-10)
        assert np.abs(full.beta - res.beta).max() <= 1e-6


class TestFitSystem:
    def test_k1_reduces_to_single_equation(self):
        model = var.VarModel(phis=(np.array([[0.5]]),), sigma=np.array([[1.0]]))
        data = var.simulate(model, 200, seed=20)
        sf = fit_system(data, "lasso")
        prob = var.stack(data)
        single = fit_lasso_bic(prob, 0)
        assert np.abs(sf.coefficients[0] - single.beta).max() <= 1e-12

    def test_zero_data_zero_fits(self):
        model = var.VarModel(phis=(0.5 * np.eye(2),), sigma=np.zeros((2, 2)))
        data = var.simulate(model, 50, seed=0)
        sf = fit_system(data, "lasso")
        assert np.all(sf.coefficients == 0.0)

    def test_system_shape_and_tags(self):
        _, truth, data = simulated_problem(seed=21, k=5, T=150)
        sf = fit_system(data, "oracle_ols", truth=truth)
        assert sf.coefficients.shape == (5, 5)
        assert all(f.estimator_tag == "oracle_ols" for f in sf.fits)

    def test_json_round_trip_preserves_forecasts(self, tmp_path):
        _, truth, data = simulated_problem(seed=22, k=5, T=150)
        sf = fit_system(data, "lasso")
        path = str(tmp_path / "fit.json")
        estimators.save_system_fit(sf, path)
        loaded = estimators.load_system_fit(path)
        a = var.forecast_one_step(sf.coefficients, data)
        b = var.forecast_one_step(loaded.coefficients, data)
        assert np.array_equal(a, b)


def assert_same_system_fit(a, b):
    assert a.estimator_tag == b.estimator_tag
    assert np.array_equal(a.coefficients, b.coefficients)
    for fa, fb in zip(a.fits, b.fits, strict=True):
        assert np.array_equal(fa.active_set, fb.active_set)
        numbers = [fa.lambda_selected, fa.bic_value, fa.df, fa.rss]
        assert np.array_equal(numbers, [fb.lambda_selected, fb.bic_value, fb.df, fb.rss], equal_nan=True)
        assert (fa.converged, fa.feasible, fa.failure) == (fb.converged, fb.feasible, fb.failure)


class TestFitPlan:
    @pytest.mark.parametrize(
        "experiment, k, T, opts",
        # C/10/40 has m = 50 > T; a short max_iter keeps its non-converging grid points cheap
        [("A", 10, 200, {}), ("C", 10, 40, {"max_iter": 50})],
    )
    def test_menu_equals_per_tag_fits(self, experiment, k, T, opts):
        model, truth = mc.make_dgp(experiment, k)
        data = var.simulate(model, T, seed=0)
        menu = estimators.fit_menu(data, estimators.ESTIMATOR_TAGS, truth=truth, **opts)
        assert list(menu) == list(estimators.ESTIMATOR_TAGS)
        for tag in estimators.ESTIMATOR_TAGS:
            assert_same_system_fit(menu[tag], fit_system(data, tag, truth=truth, **opts))
        assert menu["full_ols"].feasible == (k * model.p < T)

    def test_each_shared_stage_runs_once(self, monkeypatch):
        _, truth, data = simulated_problem(seed=25, k=5, T=200)
        calls = dict.fromkeys(("stack", "lasso_path", "eigh"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(var, "stack", counting("stack", var.stack))
        monkeypatch.setattr(estimators, "lasso_path", counting("lasso_path", estimators.lasso_path))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        estimators.fit_menu(data, estimators.ESTIMATOR_TAGS, truth=truth)
        # one LASSO path per equation shared by three tags, plus two adaptive second stages
        assert calls == {"stack": 1, "lasso_path": 3 * 5, "eigh": 1}

    def test_fixed_lambda_replaces_bic_in_final_stage_only(self):
        prob, _, data = simulated_problem(seed=26, k=5, T=200)
        plan = estimators.FitPlan(data)
        fit = plan.fit("adaptive_lasso_lasso", lam=1e-3)
        for i, f in enumerate(fit.fits):
            stage1 = fit_lasso_bic(prob, i).beta
            with np.errstate(divide="ignore"):
                w = np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)
            assert np.array_equal(f.beta, lasso_cd(prob.X, prob.ys[i], PenaltySpec(1e-3, weights=w)).beta)
            assert f.lambda_selected == 1e-3
        with pytest.raises(ValueError):
            plan.fit("full_ols", lam=1e-3)


class TestInvariants:
    def test_active_set_definition_for_all_estimators(self):
        prob, truth, data = simulated_problem(seed=23, k=5, T=200)
        for tag in estimators.ESTIMATOR_TAGS:
            sf = fit_system(data, tag, truth=truth)
            for f in sf.fits:
                assert np.array_equal(f.active_set, np.flatnonzero(f.beta))

    def test_post_lasso_equals_oracle_when_sets_agree(self):
        prob, truth, data = simulated_problem(seed=24, k=5, T=500)
        post = fit_system(data, "post_lasso", truth=truth)
        oracle = fit_system(data, "oracle_ols", truth=truth)
        for i in range(5):
            if np.array_equal(np.sort(post.fits[i].active_set), np.sort(truth.supports[i])):
                assert np.abs(post.fits[i].beta - oracle.fits[i].beta).max() <= 1e-10


class TestSparsityInfo:
    def test_experiment_a_structure(self):
        _, truth = mc.make_dgp("A", 10)
        assert np.all(truth.s == 1)
        assert truth.s_bar == 1
        assert truth.beta_min == pytest.approx(0.5)
        for i, J in enumerate(truth.supports):
            assert J.tolist() == [i]

    def test_experiment_d_all_relevant(self):
        _, truth = mc.make_dgp("D", 10)
        assert np.all(truth.s == 10)
        assert truth.beta_min == pytest.approx(0.4**10)
