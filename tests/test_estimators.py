import json

import numpy as np
import pytest

from hdvar import estimators, mc, solver, var
from hdvar.estimators import FitPlan, SparsityInfo, bic
from hdvar.linalg import cholesky_solve
from hdvar.solver import lambda_max, lasso_path
from helpers import descend, kkt_check, least_squares, problem_from


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
        fit = FitPlan(prob).lasso(0)
        path = lasso_path(prob, 0)
        values = []
        for beta in path.beta:
            rss = float(np.sum((prob.ys[0] - prob.X @ beta) ** 2))
            values.append(bic(rss, float(np.count_nonzero(beta)), prob.T))
        assert fit.lambda_selected == path.lambdas[np.argmin(values)]


class TestLassoBic:
    def test_pure_noise_selects_empty(self):
        empty = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.Philox(seed))
            X = rng.standard_normal((500, 10))
            y = rng.standard_normal(500)
            fit = FitPlan(problem_from(X, y)).lasso(0)
            empty += len(fit.active_set) == 0
        assert empty >= 90

    def test_noiseless_zero_rss_rule(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(3))
        X = rng.standard_normal((60, 4))
        beta = np.array([1.0, 0.0, -2.0, 0.0])
        monkeypatch.setattr(solver, "LAMBDA_RATIO", 1e-8)
        fit = FitPlan(problem_from(X, X @ beta)).lasso(0)
        r = X @ beta - X @ fit.beta
        assert r @ r <= 1e-8
        assert np.isfinite(fit.lambda_selected)

    def test_bic_ties_resolve_to_larger_lambda(self, monkeypatch):
        # exact interpolation makes every small-lambda fit hit the -inf
        # sentinel; the selection must take the largest such lambda
        rng = np.random.Generator(np.random.Philox(30))
        X = rng.standard_normal((40, 3))
        beta = np.array([2.0, -1.0, 0.5])
        prob = problem_from(X, X @ beta)
        monkeypatch.setattr(solver, "LAMBDA_RATIO", 1e-10)
        fit = FitPlan(prob).lasso(0)
        path = lasso_path(prob, 0)
        tied = [
            lam
            for lam, beta in zip(path.lambdas, path.beta)
            if bic(float(np.sum((prob.ys[0] - prob.X @ beta) ** 2)), 0.0, 40) == -np.inf
        ]
        if tied:
            assert fit.lambda_selected == pytest.approx(max(tied))

    def test_selection_on_the_diag_design_is_the_coordinate_descent_iterate(self):
        # A/10/100, the cell of the theory diagnostics: every equation's BIC-selected
        # fit is the coordinate-descent kernel's iterate at its lambda, or the
        # homotopy's row where the kernel was slow, bit for bit, in a chain that
        # starts each lambda from the fit at the one before it
        model, _ = mc.make_dgp("A", 10)
        for seed in range(10):
            plan = FitPlan(var.simulate(model, 100, seed=seed))
            X = plan.problem.X
            for i, y in enumerate(plan.problem.ys):
                fit = plan.lasso(i)
                warm, warm_lam = None, None
                for lam in lasso_path(plan.problem, i).lambdas:
                    warm, warm_lam = descend(plan.problem, i, lam, warm, warm_lam)[0], lam
                    if lam == fit.lambda_selected:
                        break
                assert lam == fit.lambda_selected
                assert np.array_equal(fit.beta, warm)
                assert fit.converged
                assert kkt_check(X, y, fit.beta, lam) <= 1e-7

    def test_active_set_matches_nonzeros(self):
        prob, _, _ = simulated_problem(seed=5)
        fit = FitPlan(prob).lasso(2)
        assert np.array_equal(fit.active_set, np.flatnonzero(fit.beta))


class TestSufficientStatistics:
    """BIC scores paths from the RSS the solver carries; it selects what the residual form selects."""

    @pytest.mark.parametrize(
        "experiment, k, T, seeds", [("C", 10, 40, range(6)), ("B", 10, 30, range(3)), ("C", 20, 50, range(2))]
    )
    def test_selection_at_m_over_T_equals_residual_form(self, experiment, k, T, seeds):
        model, _ = mc.make_dgp(experiment, k)
        assert k * model.p >= T
        for seed in seeds:
            plan = FitPlan(var.simulate(model, T, seed=seed))
            X = plan.problem.X
            for i, y in enumerate(plan.problem.ys):
                path = lasso_path(plan.problem, i)
                R = y[:, None] - X @ path.beta.T
                values = bic(np.einsum("ij,ij->j", R, R), np.count_nonzero(path.beta, axis=1), T)
                fit = plan.lasso(i)
                best = np.argmin(values)
                assert fit.lambda_selected == path.lambdas[best]
                assert np.isfinite(values[best])

    @pytest.mark.parametrize("experiment, k, T", [("A", 10, 500), ("C", 10, 40)])
    def test_ridge_selection_equals_residual_form(self, experiment, k, T):
        model, _ = mc.make_dgp(experiment, k)
        plan = FitPlan(var.simulate(model, T, seed=0))
        X = plan.problem.X
        for i, y in enumerate(plan.problem.ys):
            coef, lam = plan.ridge_bic(i)
            grid = T * lambda_max(plan.problem, i) * np.logspace(0.0, np.log10(solver.LAMBDA_RATIO), solver.N_LAMBDA)
            B, df, _ = solver.ridge_path(plan.problem, i, grid, plan._gram_eig)
            R = y[:, None] - X @ B
            best = int(np.argmin(bic(np.einsum("ij,ij->j", R, R), df, T)))
            assert lam == grid[best]
            assert np.array_equal(coef, B[:, best])


class TestPostLasso:
    def test_matches_oracle_when_support_found(self):
        prob, truth, _ = simulated_problem(seed=6, T=500)
        plan = FitPlan(prob, truth)
        assert np.array_equal(np.sort(plan.lasso(0).active_set), np.sort(truth.supports[0]))
        post = plan.equation("post_lasso", 0)
        oracle = plan.equation("oracle_ols", 0)
        assert np.abs(post.beta - oracle.beta).max() <= 1e-10

    def test_empty_active_set_gives_zero(self):
        rng = np.random.Generator(np.random.Philox(8))
        X = rng.standard_normal((200, 5))
        y = rng.standard_normal(200)
        plan = FitPlan(problem_from(X, y))
        assert len(plan.lasso(0).active_set) == 0
        post = plan.equation("post_lasso", 0)
        assert np.all(post.beta == 0.0)

    def test_too_many_selected_is_infeasible(self):
        # C/10/40 has m = 50 > T = 40, and the BIC-tuned LASSO selects T or
        # more regressors in most equations
        model, _ = mc.make_dgp("C", 10)
        plan = FitPlan(var.simulate(model, 40, seed=0))
        wide = [i for i in range(10) if len(plan.lasso(i).active_set) >= 40]
        assert wide
        for i in range(10):
            post = plan.equation("post_lasso", i)
            assert post.feasible == (i not in wide)
            if i in wide:
                assert post.failure == "too_many_selected"


class TestAdaptiveLasso:
    def test_stage2_active_subset_of_stage1(self):
        prob, truth, _ = simulated_problem(seed=10, T=200)
        for i in range(3):
            stage1 = FitPlan(prob).lasso(i)
            ada = FitPlan(prob).equation("adaptive_lasso_lasso", i)
            assert set(ada.active_set.tolist()) <= set(stage1.active_set.tolist())

    def test_ridge_init_no_hard_exclusion(self, monkeypatch):
        prob, truth, _ = simulated_problem(seed=11, T=200)
        monkeypatch.setattr(solver, "N_LAMBDA", 50)
        beta1, _ = FitPlan(prob).ridge_bic(0)
        assert np.all(beta1 != 0.0)  # ridge is dense

    def test_ridge_stage_matches_cholesky_loop(self):
        # reference: one Cholesky solve per grid point, df from the trace formula
        prob, _, _ = simulated_problem(seed=11, T=200)
        X, T = prob.X, prob.T
        G = X.T @ X
        for i in range(prob.k):
            y = prob.ys[i]
            best = None
            for lam in T * lambda_max(prob, i) * np.logspace(0.0, -4.0, 100):
                A = G + lam * np.eye(prob.m)
                beta = cholesky_solve(A, X.T @ y)
                r = y - X @ beta
                value = bic(float(r @ r), float(np.trace(cholesky_solve(A, G))), T)
                if best is None or value < best[0]:
                    best = (value, lam, beta)
            beta1, lam1 = FitPlan(prob).ridge_bic(i)
            assert lam1 == best[1]
            assert np.abs(beta1 - best[2]).max() <= 1e-12

    def test_truth_weights_recover_ols_on_support(self, monkeypatch):
        # stage 1 equal to the truth with a grid reaching tiny lambda:
        # stage 2 approaches OLS on the true support
        prob, truth, _ = simulated_problem(seed=12, T=400)
        i = 0
        with np.errstate(divide="ignore"):
            w = np.where(truth.beta[i] != 0.0, 1.0 / np.abs(truth.beta[i]), np.inf)

        monkeypatch.setattr(solver, "KKT_TOL", 1e-12)
        beta = lasso_path(prob, i, weights=w, lam=1e-10).beta[0]
        J = truth.supports[i]
        ols = np.zeros(prob.m)
        ols[J] = least_squares(prob.X[:, J], prob.ys[i])
        assert np.abs(beta - ols).max() <= 1e-6

    def test_empty_first_stage_returns_zero_fit(self):
        rng = np.random.Generator(np.random.Philox(13))
        X = rng.standard_normal((500, 6))
        y = rng.standard_normal(500)
        prob = problem_from(X, y)
        plan = FitPlan(prob)
        assert len(plan.lasso(0).active_set) == 0
        ada = plan.equation("adaptive_lasso_lasso", 0)
        assert np.all(ada.beta == 0.0)
        assert ada.feasible and ada.converged
        assert ada.lambda_selected == 0.0


class TestOracleAndFullOls:
    @pytest.mark.parametrize("experiment, k, T", [("A", 10, 500), ("D", 20, 25)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refits_match_qr_reference(self, experiment, k, T, seed):
        # the Gram solve against QR on the design's columns; D/20/25 is a
        # near-saturated full OLS, m = 20 < T = 25 with cond(Psi) in the hundreds
        model, truth = mc.make_dgp(experiment, k)
        plan = FitPlan(var.stack(var.simulate(model, T, seed=seed)), truth)
        prob = plan.problem
        for i in range(k):
            supports = {
                "post_lasso": plan.lasso(i).active_set,
                "oracle_ols": truth.supports[i],
                "full_ols": np.arange(prob.m),
            }
            for tag, J in supports.items():
                fit = plan.equation(tag, i)
                ref = np.zeros(prob.m)
                ref[J] = least_squares(prob.X[:, J], prob.ys[i])
                assert fit.feasible
                assert np.abs(fit.beta - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1e-300), (tag, i)

    def test_oracle_all_columns_equals_full(self):
        prob, _, _ = simulated_problem(seed=14, k=5, T=300)
        truth_all = SparsityInfo.from_coefficients(np.ones((5, prob.m)))
        plan = FitPlan(prob, truth_all)
        oracle = plan.equation("oracle_ols", 1)
        full = plan.equation("full_ols", 1)
        assert np.abs(oracle.beta - full.beta).max() <= 1e-12

    def test_oracle_empty_support(self):
        prob, _, _ = simulated_problem(seed=15)
        truth_none = SparsityInfo.from_coefficients(np.zeros((5, prob.m)))
        fit = FitPlan(prob, truth_none).equation("oracle_ols", 0)
        assert np.all(fit.beta == 0.0)

    def test_noiseless_exact_recovery(self):
        rng = np.random.Generator(np.random.Philox(16))
        X = rng.standard_normal((50, 8))
        beta = np.zeros(8)
        beta[[1, 5]] = [0.7, -0.2]
        prob = problem_from(X, X @ beta)
        truth = SparsityInfo.from_coefficients(beta[None, :])
        fit = FitPlan(prob, truth).equation("oracle_ols", 0)
        assert np.abs(fit.beta - beta).max() <= 1e-10

    def test_full_ols_scalar_slope(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        fit = FitPlan(problem_from(x, y)).equation("full_ols", 0)
        assert fit.beta[0] == pytest.approx(2.0)

    def test_full_ols_infeasible_when_wide(self):
        rng = np.random.Generator(np.random.Philox(17))
        X = rng.standard_normal((10, 20))
        fit = FitPlan(problem_from(X, rng.standard_normal(10))).equation("full_ols", 0)
        assert not fit.feasible

    def test_full_ols_matches_kernel(self):
        rng = np.random.Generator(np.random.Philox(18))
        X = rng.standard_normal((100, 10))
        y = rng.standard_normal(100)
        fit = FitPlan(problem_from(X, y)).equation("full_ols", 0)
        assert np.abs(fit.beta - least_squares(X, y)).max() <= 1e-10

    def test_full_ols_equals_lasso_at_lambda_zero(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(19))
        X = rng.standard_normal((80, 6))
        y = rng.standard_normal(80)
        prob = problem_from(X, y)
        full = FitPlan(prob).equation("full_ols", 0)

        monkeypatch.setattr(solver, "KKT_TOL", 1e-10)
        beta = lasso_path(prob, 0, lam=0.0).beta[0]
        assert np.abs(full.beta - beta).max() <= 1e-6


class TestFitSystem:
    def test_k1_reduces_to_single_equation(self):
        model = var.VarModel(phis=(np.array([[0.5]]),), sigma=np.array([[1.0]]))
        data = var.simulate(model, 200, seed=20)
        sf = FitPlan(data).fit("lasso")
        prob = var.stack(data)
        single = FitPlan(prob).lasso(0)
        assert np.abs(sf.coefficients[0] - single.beta).max() <= 1e-12

    def test_zero_data_zero_fits(self):
        model = var.VarModel(phis=(0.5 * np.eye(2),), sigma=np.zeros((2, 2)))
        data = var.simulate(model, 50, seed=0)
        sf = FitPlan(data).fit("lasso")
        assert np.all(sf.coefficients == 0.0)

    def test_system_shape_and_tags(self):
        _, truth, data = simulated_problem(seed=21, k=5, T=150)
        sf = FitPlan(data, truth).fit("oracle_ols")
        assert sf.coefficients.shape == (5, 5)
        assert all(f.estimator_tag == "oracle_ols" for f in sf.fits)

    def test_json_round_trip_preserves_forecasts(self, tmp_path):
        _, truth, data = simulated_problem(seed=22, k=5, T=150)
        sf = FitPlan(data).fit("lasso")
        path = str(tmp_path / "fit.json")
        var.write_json(path, estimators.system_fit_to_dict(sf))
        with open(path) as fh:
            payload = json.load(fh)
        assert (payload["estimator"], payload["k"], payload["p"], payload["kp"]) == ("lasso", 5, 1, 5)
        assert payload["active_sets"] == [f.active_set.tolist() for f in sf.fits]
        loaded = np.asarray(payload["beta"]).reshape(payload["k"], payload["kp"])
        a = var.forecast_one_step(sf.coefficients, data)
        b = var.forecast_one_step(loaded, data)
        assert np.array_equal(a, b)


def assert_same_system_fit(a, b):
    assert a.estimator_tag == b.estimator_tag
    assert np.array_equal(a.coefficients, b.coefficients)
    for fa, fb in zip(a.fits, b.fits, strict=True):
        assert np.array_equal(fa.active_set, fb.active_set)
        assert np.array_equal([fa.lambda_selected, fa.df], [fb.lambda_selected, fb.df], equal_nan=True)
        assert np.array_equal(fa.beta, fb.beta)
        flags = ("converged", "feasible", "failure", "bic_at_grid_end")
        assert [getattr(fa, name) for name in flags] == [getattr(fb, name) for name in flags]


class TestFitPlan:
    @pytest.mark.parametrize(
        "experiment, k, T, opts",
        # C/10/40 has m = 50 > T; a short sweep budget keeps its non-converging grid points cheap
        [("A", 10, 200, {}), ("C", 10, 40, {"MAX_SWEEPS": 50})],
    )
    def test_menu_equals_per_tag_fits(self, experiment, k, T, opts, monkeypatch):
        model, truth = mc.make_dgp(experiment, k)
        data = var.simulate(model, T, seed=0)
        for name, value in opts.items():
            monkeypatch.setattr(solver, name, value)
        plan = FitPlan(data, truth)
        menu = {tag: plan.fit(tag) for tag in estimators.ESTIMATOR_TAGS}
        assert list(menu) == list(estimators.ESTIMATOR_TAGS)
        for tag in estimators.ESTIMATOR_TAGS:
            assert_same_system_fit(menu[tag], FitPlan(data, truth).fit(tag))
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
        plan = FitPlan(data, truth)
        for tag in estimators.ESTIMATOR_TAGS:
            plan.fit(tag)
        # one LASSO path per equation shared by three tags, plus two adaptive second stages
        assert calls == {"stack": 1, "lasso_path": 3 * 5, "eigh": 1}

    def test_gram_formed_once_per_dataset(self, monkeypatch):
        # the stacked problem forms X'X/T, X'y_i and y_i'y_i, and nothing else
        # does: every L1 fit, BIC path or fixed lambda, runs on the dataset's
        # Psi, X'y_i/T and y_i'y_i as they are, and the ridge eigh on its Psi
        _, truth, data = simulated_problem(seed=25, k=5, T=200)
        seen = {"stack": [], "_fit_grid": [], "eigh": []}

        def recording(module, name, keep):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[name].append(keep(args, out))
                return out

            monkeypatch.setattr(module, name, wrapper)

        recording(var, "stack", lambda args, out: out)
        recording(solver, "_fit_grid", lambda args, out: args[:3])
        recording(np.linalg, "eigh", lambda args, out: args[0])
        plan = FitPlan(data, truth)
        for tag in estimators.ESTIMATOR_TAGS:
            plan.fit(tag)
        for tag in estimators.PENALIZED_TAGS:
            plan.fit(tag, lam=1e-3)
        problem = plan.problem
        assert seen["stack"] == [problem]
        # per equation: the LASSO path, two adaptive paths, and the fixed-lambda
        # LASSO (shared with post_lasso) and two fixed-lambda adaptive stages;
        # each tag fits equations 0 to 4 in turn
        assert len(seen["_fit_grid"]) == 6 * 5
        for n, (psi, c, yy) in enumerate(seen["_fit_grid"]):
            i = n % 5
            assert psi is problem.psi
            assert np.array_equal(c, problem.xy[i] / problem.T)
            assert yy == problem.yy[i]
        assert len(seen["eigh"]) == 1 and seen["eigh"][0] is problem.psi

    def test_fixed_lambda_replaces_bic_in_final_stage_only(self):
        prob, _, data = simulated_problem(seed=26, k=5, T=200)
        plan = FitPlan(data)
        fit = plan.fit("adaptive_lasso_lasso", lam=1e-3)
        for i, f in enumerate(fit.fits):
            stage1 = FitPlan(prob).lasso(i).beta
            with np.errstate(divide="ignore"):
                w = np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)
            assert np.array_equal(f.beta, lasso_path(prob, i, weights=w, lam=1e-3).beta[0])
            assert f.lambda_selected == 1e-3
        with pytest.raises(ValueError):
            plan.fit("full_ols", lam=1e-3)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1e-3])
    def test_fixed_lambda_must_be_finite_and_nonnegative(self, lam):
        # a NaN penalty passes no threshold test, so unchecked it reads as a converged zero fit
        _, _, data = simulated_problem(seed=26, k=5, T=200)
        for tag in estimators.PENALIZED_TAGS:
            with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
                FitPlan(data).fit(tag, lam=lam)


class TestInvariants:
    def test_active_set_definition_for_all_estimators(self):
        prob, truth, data = simulated_problem(seed=23, k=5, T=200)
        for tag in estimators.ESTIMATOR_TAGS:
            sf = FitPlan(data, truth).fit(tag)
            for f in sf.fits:
                assert np.array_equal(f.active_set, np.flatnonzero(f.beta))

    def test_post_lasso_equals_oracle_when_sets_agree(self):
        prob, truth, data = simulated_problem(seed=24, k=5, T=500)
        post = FitPlan(data, truth).fit("post_lasso")
        oracle = FitPlan(data, truth).fit("oracle_ols")
        for i in range(5):
            if np.array_equal(np.sort(post.fits[i].active_set), np.sort(truth.supports[i])):
                assert np.abs(post.fits[i].beta - oracle.fits[i].beta).max() <= 1e-10


class TestSparsityInfo:
    def test_experiment_a_structure(self):
        _, truth = mc.make_dgp("A", 10)
        assert np.all(truth.s == 1)
        assert truth.s_bar == 1
        assert truth.beta_min_i.min() == pytest.approx(0.5)
        for i, J in enumerate(truth.supports):
            assert J.tolist() == [i]

    def test_experiment_d_all_relevant(self):
        _, truth = mc.make_dgp("D", 10)
        assert np.all(truth.s == 10)
        assert truth.beta_min_i.min() == pytest.approx(0.4**10)
