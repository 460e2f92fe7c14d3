import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdvar.linalg import cholesky_solve, least_squares
from hdvar import solver
from hdvar.solver import EXACT_EVERY, lambda_max, lasso_path, ridge_path
from helpers import descend, eig_of, gram, kkt_check, objective, penalty_thresholds


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_instance(seed, T=20, m=2, snr=1.0):
    rng = rng_for(seed)
    X = rng.standard_normal((T, m))
    beta = rng.standard_normal(m)
    y = X @ beta + snr * rng.standard_normal(T)
    return X, y


def grid_search_2d(X, y, lam, lo=-2.0, hi=2.0, step=1e-3):
    """Brute-force minimizer of the objective over a 2-d grid."""
    T = X.shape[0]
    lam_w = penalty_thresholds(lam, None, 2)
    b1 = np.arange(lo, hi + step / 2, step)
    b2 = b1
    G = X.T @ X / T
    c = X.T @ y / T
    const = float(y @ y) / T
    # f(b) = b'Gb - 2c'b + const + 2*sum lam_w|b|
    f1 = G[0, 0] * b1**2 - 2 * c[0] * b1 + 2 * lam_w[0] * np.abs(b1)
    f2 = G[1, 1] * b2**2 - 2 * c[1] * b2 + 2 * lam_w[1] * np.abs(b2)
    total = f1[:, None] + f2[None, :] + 2 * G[0, 1] * np.outer(b1, b2) + const
    idx = np.unravel_index(np.argmin(total), total.shape)
    return np.array([b1[idx[0]], b2[idx[1]]]), float(total[idx])


def fit_at(X, y, lam, weights=None, **opts):
    """The fit at one fixed penalty: the only row of the one-point path [lam]."""
    path = lasso_path(X, y, gram(X), weights=weights, lam=lam, **opts)
    assert len(path.lambdas) == 1 and path.lambdas[0] == lam
    return path.beta[0], path


class TestLassoCd:
    """Fits at one fixed penalty, the one-point paths of ``lasso_path``."""

    def test_zero_solution_at_large_lambda(self):
        X, y = random_instance(0, T=30, m=5)
        lam = 1.001 * lambda_max(X, y)
        beta, path = fit_at(X, y, lam)
        assert np.all(beta == 0.0)
        assert path.converged[0]

    def test_lambda_zero_matches_ols(self):
        X, y = random_instance(1, T=50, m=5)
        beta, path = fit_at(X, y, 0.0)
        assert path.converged[0]
        assert np.abs(beta - least_squares(X, y)).max() <= 1e-6

    def test_grid_search_oracle(self):
        for seed in range(5):
            X, y = random_instance(seed, T=20, m=2)
            lam = 0.3 * lambda_max(X, y)
            beta, _ = fit_at(X, y, lam, tol=1e-10)
            _, f_grid = grid_search_2d(X, y, lam)
            f_cd = objective(X, y, beta, lam)
            assert f_cd <= f_grid + 1e-5

    def test_objective_descent(self):
        X, y = random_instance(2, T=40, m=8)
        lam = 0.05 * lambda_max(X, y)
        _, path = fit_at(X, y, lam)
        # the objective after each sweep: a fit capped at n sweeps stops at the n-th iterate
        hist = [objective(X, y, fit_at(X, y, lam, max_iter=n)[0], lam) for n in range(1, path.iterations[0] + 1)]
        assert np.all(np.diff(hist) <= 1e-12)

    def test_solution_scaling(self):
        X, y = random_instance(3, T=30, m=4)
        lam0 = 0.2 * lambda_max(X, y)
        base, _ = fit_at(X, y, lam0, tol=1e-12)
        for c in (2.0, 7.5):
            scaled, _ = fit_at(X, c * y, c * lam0, tol=1e-12)
            denom = max(np.abs(c * base).max(), 1e-12)
            assert np.abs(scaled - c * base).max() <= 1e-8 * denom

    def test_infinite_weight_exclusion(self):
        X, y = random_instance(4, T=30, m=6)
        w = np.ones(6)
        w[[1, 4]] = np.inf
        lam = 0.1 * lambda_max(X, y)
        full, _ = fit_at(X, y, lam, weights=w, tol=1e-12)
        assert np.all(full[[1, 4]] == 0.0)
        keep = [0, 2, 3, 5]
        reduced, _ = fit_at(X[:, keep], y, lam, weights=np.ones(4), tol=1e-12)
        assert np.abs(full[keep] - reduced).max() <= 1e-8

    def test_zero_column_pinned(self):
        rng = rng_for(5)
        X = rng.standard_normal((20, 3))
        X[:, 1] = 0.0
        y = rng.standard_normal(20)
        beta, path = fit_at(X, y, 0.0)
        assert beta[1] == 0.0
        assert path.converged[0]

    def test_max_iter_reported(self):
        X, y = random_instance(7, T=40, m=10)
        _, path = fit_at(X, y, 1e-9 * lambda_max(X, y), tol=1e-14, max_iter=1)
        assert not path.converged[0]


class TestKktCheck:
    def test_ols_at_lambda_zero(self):
        X, y = random_instance(8, T=40, m=5)
        beta = least_squares(X, y)
        assert kkt_check(X, y, beta, 0.0) <= 1e-8

    def test_zero_beta_large_lambda(self):
        X, y = random_instance(9, T=25, m=4)
        lam = lambda_max(X, y)
        assert kkt_check(X, y, np.zeros(4), lam) <= 1e-12

    def test_solver_output_passes(self):
        X, y = random_instance(10, T=30, m=6)
        lam = 0.05 * lambda_max(X, y)
        beta, _ = fit_at(X, y, lam, tol=1e-9)
        assert kkt_check(X, y, beta, lam) <= 1e-9 + 1e-12

    def test_nonzero_excluded_coordinate_is_infinite_violation(self):
        # an infinite weight forces b_j = 0, so a nonzero b_j has no finite violation
        X, y = random_instance(19, T=30, m=3)
        assert kkt_check(X, y, np.array([0.5, 0.0, 0.0]), 0.01, weights=np.array([np.inf, 1.0, 1.0])) == np.inf


class TestLambdaMax:
    def test_orthogonal_response(self):
        X = np.eye(4)
        y = np.zeros(4)
        assert lambda_max(X, y) == 0.0

    def test_identity_design(self):
        T = 6
        X = np.eye(T)
        y = np.zeros(T)
        y[0] = 1.0
        assert lambda_max(X, y) == pytest.approx(1.0 / T)

    def test_definition(self):
        X, y = random_instance(11, T=30, m=5)
        lam = lambda_max(X, y)
        beta, _ = fit_at(X, y, 1.01 * lam)
        assert np.all(beta == 0.0)

    def test_all_weights_infinite(self):
        # no coordinate is free: lambda_max is 0 and the path is all zeros
        X, y = random_instance(12, T=10, m=3)
        weights = np.full(3, np.inf)
        assert lambda_max(X, y, weights) == 0.0
        path = lasso_path(X, y, gram(X), weights=weights)
        assert path.beta.shape == (solver.N_LAMBDA, 3)
        assert np.all(path.beta == 0.0)
        assert np.all(path.lambdas == 0.0)
        assert path.converged.all()


class TestLassoPath:
    def test_first_point_zero(self, monkeypatch):
        X, y = random_instance(13, T=40, m=6)
        monkeypatch.setattr(solver, "N_LAMBDA", 30)
        path = lasso_path(X, y, gram(X))
        assert np.all(path.beta[0] == 0.0)
        assert np.all(np.diff(path.lambdas) < 0.0)

    def test_two_point_path_matches_cold_fits(self, monkeypatch):
        X, y = random_instance(14, T=50, m=4)
        monkeypatch.setattr(solver, "N_LAMBDA", 2)
        monkeypatch.setattr(solver, "LAMBDA_RATIO", 0.01)
        path = lasso_path(X, y, gram(X), tol=1e-12)
        for lam, beta in zip(path.lambdas, path.beta):
            cold, _ = fit_at(X, y, lam, tol=1e-12)
            assert np.abs(beta - cold).max() <= 1e-8

    def test_active_set_mostly_monotone_on_experiment_a(self):
        from hdvar import mc, var

        model, _ = mc.make_dgp("A", 10)
        data = var.simulate(model, 200, seed=3)
        prob = var.stack(data)
        path = lasso_path(prob.X, prob.ys[0], prob.psi)
        sizes = np.count_nonzero(path.beta, axis=1).tolist()
        pairs = list(zip(sizes, sizes[1:]))
        frac = np.mean([b >= a for a, b in pairs])
        assert frac >= 0.95


def experiment_problem(experiment, k, T, seed=0):
    from hdvar import mc, var

    model, _ = mc.make_dgp(experiment, k)
    return var.stack(var.simulate(model, T, seed=seed))


def adaptive_instance():
    """A/10/500 equation 0 with column 3 zeroed, and adaptive weights from a path
    point: infinite off that point's support, finite on the zero column."""
    prob = experiment_problem("A", 10, 500)
    X = np.array(prob.X, order="F")
    X[:, 3] = 0.0
    y = prob.ys[0]
    stage1 = lasso_path(X, y, gram(X)).beta[40]
    with np.errstate(divide="ignore"):
        w = np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)
    w[3] = 1.0
    assert np.isinf(w).any() and np.isfinite(w).sum() > 1
    return X, y, w


class TestPathKernel:
    """lasso_path runs the coordinate-descent kernel once per grid point, carrying (beta, g)."""

    @pytest.mark.parametrize(
        "case",
        # C/10/40 has m = 50 > T = 40; at max_iter=4 no point reaches the restart
        # and the support never becomes full, so every point is swept and some
        # stay unconverged
        ["A/10/500", "C/10/1000", "adaptive", "C/10/40", "C/10/40/max_iter=4"],
    )
    def test_path_equals_warm_started_lasso_cd_chain(self, case):
        opts = {}
        if case == "adaptive":
            X, y, w = adaptive_instance()
        else:
            experiment, k, T = case.split("/")[:3]
            prob = experiment_problem(experiment, int(k), int(T))
            X, y, w = prob.X, prob.ys[0], None
            if case.startswith("C/10/40"):
                opts = {"max_iter": 4 if case.endswith("max_iter=4") else 50}
        path = lasso_path(X, y, gram(X), weights=w, **opts)
        assert path.converged.all() == (case != "C/10/40/max_iter=4")
        n_free = np.count_nonzero(X.any(axis=0) & (True if w is None else np.isfinite(w)))
        closed = 0
        for l, lam in enumerate(path.lambdas):
            start = (path.beta[l - 1], path.lambdas[l - 1]) if l else (None, None)
            ref, sweeps, viol = descend(X, y, gram(X), lam, *start, weights=w, **opts)
            assert path.converged[l] == (path.max_kkt_violation[l] <= 1e-7)
            if path.iterations[l]:
                # a swept point is the kernel started from the point before it, or the
                # homotopy's row from there where the kernel was slow
                assert np.array_equal(path.beta[l], ref)
                assert path.iterations[l] == sweeps
                assert path.converged[l] == (viol <= 1e-7)
                assert path.max_kkt_violation[l] == viol
            else:
                # a continuation point follows a converged point that restarted the
                # homotopy (after EXACT_EVERY sweeps), had full support, or is itself
                # a continuation point; it is an exact minimiser, no worse than the
                # kernel's iterate
                closed += 1
                assert path.converged[l - 1]
                assert path.iterations[l - 1] in (0, EXACT_EVERY) or np.count_nonzero(path.beta[l - 1]) == n_free
                assert path.converged[l]
                assert kkt_check(X, y, path.beta[l], lam, w) <= 1e-7
                assert objective(X, y, path.beta[l], lam, w) <= objective(X, y, ref, lam, w) + 1e-12
        assert closed == {"A/10/500": 25, "C/10/1000": 86, "adaptive": 10, "C/10/40": 95, "C/10/40/max_iter=4": 0}[case]

    def test_grid_thresholds_are_each_penalty_times_the_weights(self):
        # one outer product for the grid, the same IEEE multiply as lam * w per point
        w = np.array([0.5, np.inf, 2.0, 0.0, 1.0 / 3.0])
        grid = [3.0, 0.1, 1e-3, 0.0]
        rows = solver._thresholds(grid, w, 5)
        for lam, row in zip(grid, rows):
            with np.errstate(invalid="ignore"):
                assert np.array_equal(row, np.where(np.isinf(w), np.inf, lam * w))
        assert np.array_equal(solver._thresholds(grid, None, 2), np.column_stack([grid, grid]))

    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(
                # active coordinate
                st.tuples(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0),
                    st.floats(min_value=0.0, allow_nan=False),
                ),
                # idle coordinate, +0.0 or -0.0
                st.tuples(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0]),
                    st.floats(min_value=0.0, allow_nan=False),
                ),
            ),
            max_size=8,
        )
    )
    def test_float_residual_equals_kkt_residual(self, coords):
        g, b, thresholds = (list(col) for col in zip(*coords)) if coords else ([], [], [])
        with np.errstate(over="ignore"):
            expected = solver._kkt_residual(np.array(g, dtype=float), np.array(b, dtype=float), np.array(thresholds))
        every = list(range(len(g)))
        assert solver._free_residual(g, b, thresholds, every) == expected
        # leaving out pinned coordinates (zero and infinitely weighted) changes nothing
        free = [j for j in every if b[j] != 0.0 or thresholds[j] != np.inf]
        assert solver._free_residual(g, b, thresholds, free) == expected


class TestValidation:
    """Out-of-range inputs raise; lasso_path checks its own once per path."""

    def test_lasso_cd_negative_lambda(self):
        X, y = random_instance(20, T=20, m=3)
        with pytest.raises(ValueError):
            lasso_path(X, y, gram(X), lam=-0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_path_rejects_a_nonfinite_lambda(self, lam):
        # a NaN penalty would otherwise pass every threshold test and report a
        # converged zero fit
        X, y = random_instance(20, T=20, m=3)
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            lasso_path(X, y, gram(X), lam=lam)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_path_rejects_negative_or_nan_weight(self, bad):
        X, y = random_instance(21, T=20, m=3)
        with pytest.raises(ValueError, match="nonnegative"):
            lasso_path(X, y, gram(X), weights=np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize(
        "fit", [lasso_path, lambda X, y, psi: lasso_path(X, y, psi, lam=0.1)], ids=["lasso_path", "lasso_cd"]
    )
    @pytest.mark.parametrize("other", ["shape", "design"])
    def test_rejects_a_gram_of_another_design(self, fit, other):
        X, y = random_instance(23, T=20, m=3)
        psi = gram(X[:, :2]) if other == "shape" else gram(2.0 * X)
        with pytest.raises(ValueError, match="Gram"):
            fit(X, y, psi)

    def test_path_rejects_wrong_weight_length(self):
        X, y = random_instance(22, T=20, m=3)
        with pytest.raises(ValueError, match="length"):
            lasso_path(X, y, gram(X), weights=np.ones(4))

    @pytest.mark.parametrize(
        "fit",
        [
            lambda X, y, w: lambda_max(X, y, w),
            lambda X, y, w: lasso_path(X, y, gram(X), weights=w, lam=0.1),
        ],
        ids=["lambda_max", "lasso_cd"],
    )
    @pytest.mark.parametrize("length", [2, 4])
    def test_rejects_wrong_weight_length(self, fit, length):
        X, y = random_instance(22, T=20, m=3)
        with pytest.raises(ValueError, match="weight length does not match design"):
            fit(X, y, np.ones(length))


class TestGramForm:
    """The solver works on X'X/T and X'y/T; its reports must hold in terms of X."""

    @pytest.mark.parametrize("experiment,k,T", [("A", 10, 500), ("C", 10, 100), ("B", 10, 50)])
    def test_reported_kkt_matches_residual_form_on_paths(self, experiment, k, T):
        prob = experiment_problem(experiment, k, T)
        path = lasso_path(prob.X, prob.ys[0], prob.psi)
        for lam, beta, reported in zip(path.lambdas, path.beta, path.max_kkt_violation):
            direct = kkt_check(prob.X, prob.ys[0], beta, lam)
            assert abs(reported - direct) <= 1e-12

    @pytest.mark.parametrize("case", ["A/10/500", "C/10/1000", "adaptive", "C/10/40", "B/10/30"])
    def test_path_rss_matches_residual_form(self, case):
        if case == "adaptive":
            X, y, w = adaptive_instance()
        else:
            experiment, k, T = case.split("/")
            prob = experiment_problem(experiment, int(k), int(T))
            X, y, w = prob.X, prob.ys[0], None
        path = lasso_path(X, y, gram(X), weights=w)
        R = y[:, None] - X @ path.beta.T
        direct = np.einsum("ij,ij->j", R, R)
        yy = y @ y
        checked = direct >= 1e-6 * yy
        assert checked.sum() >= 90
        assert np.all(np.abs(path.rss - direct)[checked] <= 1e-12 * direct[checked])
        # at m >= T the path nears interpolation; there the RSS is recomputed from
        # the residual, so cancellation never drives it to the BIC's -inf sentinel
        assert (direct < solver.RSS_EXACT_BELOW * yy).any() == (case in ("C/10/40", "B/10/30"))
        assert np.all(path.rss > 0.0)

    def test_more_regressors_than_observations(self, monkeypatch):
        prob = experiment_problem("C", 10, 40)  # m = 50 > T = 40
        assert prob.m > prob.T
        monkeypatch.setattr(solver, "N_LAMBDA", 20)
        monkeypatch.setattr(solver, "LAMBDA_RATIO", 0.02)
        path = lasso_path(prob.X, prob.ys[0], prob.psi)
        assert np.count_nonzero(path.beta, axis=1).max() > 20
        assert path.converged.all()
        for lam, beta in zip(path.lambdas, path.beta):
            assert kkt_check(prob.X, prob.ys[0], beta, lam) <= 1e-7


class TestExactStep:
    """The kernel's one exact step: a point still above tol after EXACT_EVERY
    sweeps restarts the homotopy from the point before it."""

    @pytest.fixture
    def homotopy_rows(self, monkeypatch):
        """The number of rows of each ``_homotopy`` call, in call order."""
        rows = []
        follow = solver._homotopy

        def recorded(*args):
            result = follow(*args)
            rows.append(len(result))
            return result

        monkeypatch.setattr(solver, "_homotopy", recorded)
        return rows

    def test_near_unit_root_path_converges(self, homotopy_rows):
        prob = experiment_problem("C", 10, 1000)  # m = 50, seed 0
        path = lasso_path(prob.X, prob.ys[0], prob.psi)
        assert path.converged.all()
        for lam, beta in zip(path.lambdas, path.beta):
            assert kkt_check(prob.X, prob.ys[0], beta, lam) <= 1e-7
        # coordinate descent alone takes 1,965 sweeps on this path, and with the
        # restart 28
        assert path.iterations.sum() == 28
        # point 13 restarts the homotopy from point 12, which follows the rest of the grid
        assert homotopy_rows == [solver.N_LAMBDA - 13]
        assert path.iterations[13] == EXACT_EVERY and np.all(path.iterations[14:] == 0)

    def test_fast_paths_keep_the_coordinate_descent_iterate(self, homotopy_rows):
        prob = experiment_problem("A", 10, 500)
        X, y = prob.X, prob.ys[0]
        path = lasso_path(X, y, gram(X))
        warm = None
        for lam, beta, iterations in zip(path.lambdas[:75], path.beta, path.iterations):
            assert 0 < iterations < EXACT_EVERY
            capped, _, _ = descend(X, y, gram(X), lam, warm, max_iter=EXACT_EVERY - 1)
            assert np.array_equal(beta, capped)
            warm = beta
        assert np.count_nonzero(path.beta[74]) == prob.m
        # from the first point with full support on, the tail is closed form
        assert np.all(path.iterations[75:] == 0) and path.converged[75:].all()
        for lam, beta in zip(path.lambdas[75:], path.beta[75:]):
            assert kkt_check(X, y, beta, lam) <= 1e-7
        # the one homotopy is the handoff from that point, not a restart
        assert homotopy_rows == [25]

    @pytest.mark.parametrize("case", ["C/10/1000", "C/10/40"])
    def test_zero_sweep_rows_are_closed_form(self, case):
        experiment, k, T = case.split("/")
        prob = experiment_problem(experiment, int(k), int(T))
        X, y = prob.X, prob.ys[0]
        path = lasso_path(X, y, prob.psi)
        closed = np.flatnonzero(path.iterations == 0)
        assert len(closed) >= 86
        for l in closed:
            fresh = affine_oracle(X, y, path.beta[l], [path.lambdas[l]])[0]
            assert np.abs(path.beta[l] - fresh).max() <= 1e-10 * np.abs(fresh).max()

    def test_rejected_candidate_keeps_sweeping(self, monkeypatch):
        # strongly correlated columns: at sweep 5 the fit is still above tol
        rng = rng_for(1)
        X = rng.standard_normal((40, 4))
        X[:, 1:] = 0.95 * X[:, :1] + np.sqrt(1 - 0.95**2) * X[:, 1:]
        y = X @ rng.standard_normal(4) + rng.standard_normal(40)
        lam = 0.3 * lambda_max(X, y)
        # the restart from the zero fit at lambda_max ends the fit on the exact minimiser
        beta, path = fit_at(X, y, lam)
        assert path.iterations[0] == EXACT_EVERY
        np.testing.assert_allclose(beta, affine_oracle(X, y, beta, [lam])[0], rtol=1e-12, atol=0.0)
        # a restart that gives no row leaves the kernel sweeping for the rest of max_iter
        monkeypatch.setattr(solver, "_homotopy", lambda psi, c, *args: np.zeros((0, len(c))))
        beta, path = fit_at(X, y, lam)
        assert path.iterations[0] == 8 and path.converged[0]
        assert kkt_check(X, y, beta, lam) <= 1e-7
        capped = fit_at(X, y, lam, max_iter=EXACT_EVERY + 1)[1]
        assert capped.iterations[0] == EXACT_EVERY + 1 and not capped.converged[0]
        # a whole path without the homotopy is coordinate descent alone
        prob = experiment_problem("C", 10, 1000)
        path = lasso_path(prob.X, prob.ys[0], prob.psi)
        assert path.converged.all() and np.all(path.iterations > 0)
        assert path.iterations.sum() == 1965

    def test_homotopy_from_zero_enters_the_largest_weighted_gradient(self):
        rng = rng_for(3)
        X = rng.standard_normal((100, 5))
        y = X @ rng.standard_normal(5) + rng.standard_normal(100)
        psi, c = gram(X), X.T @ y / 100
        order = np.argsort(np.abs(c))
        # the largest |c_j| is excluded, and the smallest gets the largest |c_j| / w_j
        w = np.ones(5)
        w[order[-1]] = np.inf
        w[order[0]] = np.abs(c[order[0]]) / (2.0 * np.abs(c).max())
        lam = lambda_max(X, y, w)
        assert lam == np.abs(c[order[0]]) / w[order[0]]
        grid = lam * np.logspace(-1e-3, -2.0, 30)
        free = np.isfinite(w)
        rows = solver._homotopy(psi, c, np.where(free, w, 1.0), free, np.zeros(5), c, lam, grid, 100)
        assert len(rows) == len(grid)
        assert np.flatnonzero(rows[0]).tolist() == [order[0]]
        assert np.sign(rows[0, order[0]]) == np.sign(c[order[0]])
        assert np.all(rows[:, order[-1]] == 0.0) and np.count_nonzero(rows[-1]) == 4
        for lam, beta in zip(grid, rows):
            assert kkt_check(X, y, beta, lam, w) <= 1e-12

    def test_no_solve_on_a_support_larger_than_T(self, monkeypatch):
        # C/10/40: m = 50 > T = 40, and Psi = X'X/T has rank at most T, so every
        # Psi_AA with |A| > T is singular; the homotopy factors and solves on no
        # such support
        sizes = []
        for name in ("dpotrf", "dpotrs"):

            def recorded(a, b=None, solve=getattr(solver, name), **kwargs):
                sizes.append(len(a))
                return solve(a, **kwargs) if b is None else solve(a, b, **kwargs)

            monkeypatch.setattr(solver, name, recorded)
        prob = experiment_problem("C", 10, 40)
        path = lasso_path(prob.X, prob.ys[0], prob.psi)
        # the homotopy, restarted at point 4, carries its factor up to a support
        # of T and follows the path on to the end of the grid
        assert path.iterations[4] == EXACT_EVERY and np.all(path.iterations[5:] == 0)
        assert max(sizes) == prob.T
        assert path.iterations.sum() == 9
        assert path.converged.all()

    def test_accepted_step_descends(self):
        prob = experiment_problem("C", 10, 1000)
        X, y = prob.X, prob.ys[0]
        lam = 0.01 * lambda_max(X, y)
        beta, path = fit_at(X, y, lam)
        assert path.iterations[0] == EXACT_EVERY
        # a fit capped at n sweeps stops at the n-th iterate; at n = EXACT_EVERY,
        # at the homotopy's row
        hist = [objective(X, y, fit_at(X, y, lam, max_iter=n)[0], lam) for n in range(1, EXACT_EVERY + 1)]
        assert np.all(np.diff(hist) <= 1e-12)
        assert hist[-1] == objective(X, y, beta, lam)
        assert path.max_kkt_violation[0] <= 1e-7


def affine_oracle(X, y, beta, grid, w=None):
    """u - lam v for every lam in ``grid``, where u and v solve the normal equations
    X_A'X_A/T [u v] = [X_A'y/T, w_A s] on beta's support A with signs s, by Cholesky."""
    from scipy.linalg import cho_factor, cho_solve

    T, m = X.shape
    A = np.flatnonzero(beta)
    ws = (np.ones(m) if w is None else w)[A] * np.sign(beta[A])
    factor = cho_factor(X[:, A].T @ X[:, A] / T)
    u, v = cho_solve(factor, X[:, A].T @ y / T), cho_solve(factor, ws)
    B = np.zeros((len(grid), m))
    B[:, A] = u - np.outer(grid, v)
    return B


def crossing_instance():
    """m = 4 correlated columns whose path reaches full support at grid point 8 with
    every sign +1, after which coefficient 0 crosses zero and ends negative."""
    rng = rng_for(138)
    X = rng.standard_normal((100, 4))
    X[:, 1:] = 0.4 * X[:, :1] + np.sqrt(1 - 0.4**2) * X[:, 1:]
    y = X @ rng.uniform(-1, 1, 4) + 0.1 * rng.standard_normal(100)
    return X, y


class TestPathFollowing:
    """Continuation points of a path: the exact homotopy from the first exact point on."""

    @pytest.mark.parametrize("case", ["A/10/500", "adaptive"])
    def test_tail_points_are_affine_in_lambda(self, case):
        if case == "adaptive":
            X, y, w = adaptive_instance()
        else:
            prob = experiment_problem("A", 10, 500)
            X, y, w = prob.X, prob.ys[0], None
        path = lasso_path(X, y, gram(X), weights=w)
        start = {"A/10/500": 75, "adaptive": 90}[case]
        assert path.iterations[start - 1] > 0
        expected = affine_oracle(X, y, path.beta[start - 1], path.lambdas[start:], w)
        assert np.all(path.iterations[start:] == 0) and path.converged[start:].all()
        for lam, beta, oracle in zip(path.lambdas[start:], path.beta[start:], expected):
            np.testing.assert_allclose(beta, oracle, rtol=1e-9, atol=1e-13)
            assert kkt_check(X, y, beta, lam, w) <= 1e-7
        if case == "adaptive":
            # infinitely weighted coordinates and the zero column stay pinned on every point
            pinned = np.isinf(w) | ~X.any(axis=0)
            assert pinned.sum() > 1
            assert np.all(path.beta[:, pinned] == 0.0)

    @pytest.mark.parametrize("case", ["A/10/500", "C/10/1000", "B/10/500", "adaptive"])
    def test_continuation_points_are_exact(self, case):
        if case == "adaptive":
            X, y, w = adaptive_instance()
        else:
            experiment, k, T = case.split("/")
            prob = experiment_problem(experiment, int(k), int(T))
            X, y, w = prob.X, prob.ys[0], None
        path = lasso_path(X, y, gram(X), weights=w)
        # every point after the first exact one is a continuation point, exact
        # up to rounding: the factor the homotopy carries across kinks gives
        # the fresh solve on the point's own support and signs
        start = int(np.argmax(path.iterations == 0))
        assert start >= 2 and path.iterations[start - 1] > 0
        assert np.all(path.iterations[start:] == 0) and path.converged[start:].all()
        assert np.all(path.max_kkt_violation[start:] <= 1e-12)
        for lam, beta in zip(path.lambdas[start:], path.beta[start:]):
            assert kkt_check(X, y, beta, lam, w) <= 1e-12
            fresh = affine_oracle(X, y, beta, [lam], w)[0]
            assert np.abs(beta - fresh).max() <= 1e-10 * np.abs(fresh).max()

    @pytest.mark.parametrize("exact_every", [EXACT_EVERY, 10**9], ids=["exact-step", "sweeps-only"])
    def test_sign_crossing_drops_the_coordinate(self, monkeypatch, exact_every):
        X, y = crossing_instance()
        monkeypatch.setattr(solver, "EXACT_EVERY", exact_every)
        monkeypatch.setattr(solver, "N_LAMBDA", 30)
        monkeypatch.setattr(solver, "LAMBDA_RATIO", 1e-3)
        path = lasso_path(X, y, gram(X))
        first_full = int(np.argmax(np.count_nonzero(path.beta, axis=1) == 4))
        assert first_full == 8
        assert np.array_equal(np.sign(path.beta[first_full]), np.ones(4))
        # the homotopy fills point 4 on its restart from point 3, or, with no
        # restart, starts at the first full support
        start = 4 if exact_every == EXACT_EVERY else first_full
        assert path.iterations[start] > 0
        assert np.all(path.iterations[start + 1 :] == 0)
        # coefficient 0 enters at point 6, leaves between points 8 and 9, is
        # exactly 0 until it enters again with the other sign at point 19
        b0 = path.beta[:, 0]
        assert b0[5] == 0.0 and all(b > 0.0 for b in b0[6:9])
        assert all(b == 0.0 for b in b0[9:19]) and all(b < 0.0 for b in b0[19:])
        # each continuation point is the sign-fixed minimiser of its segment, also
        # after the drop deleted a row of the factor and the re-entry bordered it
        for lam, beta in zip(path.lambdas[start + 1 :], path.beta[start + 1 :]):
            fresh = affine_oracle(X, y, beta, [lam])[0]
            np.testing.assert_allclose(beta, fresh, rtol=1e-9, atol=1e-13)
            assert np.abs(beta - fresh).max() <= 1e-10 * np.abs(fresh).max()
        assert path.converged.all()
        for lam, beta in zip(path.lambdas, path.beta):
            assert kkt_check(X, y, beta, lam) <= 1e-7

    @pytest.mark.parametrize("case", ["C/50/500", "A/100/100"])
    def test_drops_from_large_supports_keep_the_rows_exact(self, monkeypatch, case):
        # a drop deletes the leaving coordinate's row of the carried Cholesky factor
        # by Givens rotations; the rows after drops from supports of more than 50
        # are the fresh solves on their own supports and signs
        drops = []
        delete = solver.qr_delete

        def recording(Q, R, i, **kw):
            drops.append(R.shape[0])
            return delete(Q, R, i, **kw)

        monkeypatch.setattr(solver, "qr_delete", recording)
        experiment, k, T = case.split("/")
        prob = experiment_problem(experiment, int(k), int(T))
        X, y = prob.X, prob.ys[0]
        path = lasso_path(X, y, prob.psi)
        assert sum(size > 50 for size in drops) > 10
        start = int(np.argmax(path.iterations == 0))
        assert np.all(path.iterations[start:] == 0) and path.converged[start:].all()
        for lam, beta in zip(path.lambdas[start:], path.beta[start:]):
            fresh = affine_oracle(X, y, beta, [lam])[0]
            assert np.abs(beta - fresh).max() <= 1e-10 * np.abs(fresh).max()

    def test_more_regressors_than_observations_converges(self):
        # C/10/40, m = 50 > T = 40: the homotopy follows each path to a support
        # of T, where the fit interpolates, and on to the end of the grid
        prob = experiment_problem("C", 10, 40)
        for y in prob.ys[:2]:
            path = lasso_path(prob.X, y, prob.psi)
            assert path.converged.all()
            assert np.count_nonzero(path.beta, axis=1).max() == prob.T


def homotopy_rows(X, y, beta, lam, grid, max_support):
    """``_homotopy``'s rows from ``beta`` at ``lam`` down ``grid``, unweighted, every coordinate free."""
    m = X.shape[1]
    psi, c = gram(X), X.T @ y / len(X)
    return solver._homotopy(psi, c, np.ones(m), np.ones(m, dtype=bool), beta, c - psi @ beta, lam, grid, max_support)


class TestHomotopyGuards:
    """Where ``_homotopy`` starts from a violated point and where it stops early."""

    def start_below_first_entry(self):
        # at lam0 between the two largest |c_j| only the largest violates at beta = 0
        X, y = crossing_instance()
        c = np.sort(np.abs(X.T @ y / len(X)))
        lam0 = (c[-1] + c[-2]) / 2.0
        return X, y, lam0, lam0 * np.logspace(-0.01, -2.0, 40)

    def test_largest_start_violator_enters_at_lambda(self):
        X, y, lam0, grid = self.start_below_first_entry()
        c = X.T @ y / len(X)
        j = int(np.argmax(np.abs(c)))
        rows = homotopy_rows(X, y, np.zeros(4), lam0, grid, len(X))
        assert len(rows) == len(grid)
        assert np.flatnonzero(rows[0]).tolist() == [j] and np.sign(rows[0, j]) == np.sign(c[j])
        for lam, beta in zip(grid, rows):
            assert kkt_check(X, y, beta, lam) <= 1e-12

    def test_support_cap(self):
        X, y, lam0, grid = self.start_below_first_entry()
        full = homotopy_rows(X, y, np.zeros(4), lam0, grid, len(X))
        sizes = np.count_nonzero(full, axis=1)
        # capped at one coordinate, the path stops where a second one would enter
        capped = homotopy_rows(X, y, np.zeros(4), lam0, grid, 1)
        n = int(np.argmax(sizes > 1))
        assert 0 < n == len(capped) and np.all(sizes[:n] == 1)
        np.testing.assert_allclose(capped, full[:n], rtol=1e-12, atol=0.0)
        # a start whose support already exceeds the cap gives no rows
        assert len(homotopy_rows(X, y, full[n], grid[n], grid[n + 1 :], 1)) == 0

    def test_entry_duplicating_an_active_column_stops(self):
        # Psi_11 = Psi_10 = Psi_00: coordinate 1 enters at lam = 1/4 with d^2 = Psi_11 - q'q,
        # exactly 0 in binary arithmetic, so the path ends at the entry
        psi = np.ones((2, 2))
        c = np.array([1.0, 0.5])
        grid = np.array([0.5, 0.375, 0.25, 0.125, 0.0625])
        rows = solver._homotopy(psi, c, np.ones(2), np.ones(2, dtype=bool), np.zeros(2), c, 0.75, grid, 2)
        # beta_0 = 1 - lam until g_1 = 1/2 - (1 - lam) reaches -lam
        assert rows.tolist() == [[0.5, 0.0], [0.625, 0.0], [0.75, 0.0]]

    def test_near_duplicate_columns_path_meets_tol_or_reports(self):
        # column 1 is column 0 plus 1e-9 times noise, so the homotopy's d^2 for the
        # later of the two to enter is at the rounding level of Psi's entries
        rng = rng_for(2)
        X = rng.standard_normal((40, 4))
        X[:, 1] = X[:, 0] + 1e-9 * X[:, 1]
        y = X @ rng.uniform(-1, 1, 4) + 0.3 * rng.standard_normal(40)
        path = lasso_path(X, y, gram(X))
        assert np.array_equal(path.converged, path.max_kkt_violation <= 1e-7)
        for lam, beta, ok in zip(path.lambdas, path.beta, path.converged):
            if ok:
                assert kkt_check(X, y, beta, lam) <= 1e-7


class TestRidge:
    def test_penalty_dominated_limit(self):
        X, y = random_instance(15, T=30, m=5)
        B, df, _ = ridge_path(X, y, [1e8], eig_of(X))
        assert np.linalg.norm(B[:, 0]) < 1e-6
        assert df[0] < 1e-5 * 5

    def test_identity_closed_form(self):
        T = 7
        X = np.eye(T)
        y = np.arange(1.0, T + 1)
        grid = np.array([0.1, 2.5, 40.0])
        B, df, _ = ridge_path(X, y, grid, eig_of(X))
        for l, lam in enumerate(grid):
            assert np.abs(B[:, l] - y / (1 + lam)).max() <= 1e-12
            assert df[l] == pytest.approx(T / (1 + lam), abs=1e-10)

    def test_normal_equations_oracle(self):
        rng = rng_for(16)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        grid = np.array([0.01, 0.7, 30.0])
        B, df, _ = ridge_path(X, y, grid, eig_of(X))
        G = X.T @ X
        for l, lam in enumerate(grid):
            A = G + lam * np.eye(5)
            assert np.abs(B[:, l] - cholesky_solve(A, X.T @ y)).max() <= 1e-8
            assert df[l] == pytest.approx(np.trace(cholesky_solve(A, G)), abs=1e-10)

    @pytest.mark.parametrize("T, m", [(40, 6), (30, 50)])
    def test_closed_form_rss_matches_residual_form(self, T, m):
        # with m > T the smallest penalties nearly interpolate, and their RSS is
        # recomputed from the residual
        rng = rng_for(18)
        X = rng.standard_normal((T, m))
        y = X[:, :3] @ np.ones(3) + 0.1 * rng.standard_normal(T)
        grid = T * np.logspace(1, -6, 50)
        B, _, rss = ridge_path(X, y, grid, eig_of(X))
        R = y[:, None] - X @ B
        direct = np.einsum("ij,ij->j", R, R)
        yy = y @ y
        assert (direct < solver.RSS_EXACT_BELOW * yy).any() == (m > T)
        checked = direct >= 1e-6 * yy
        assert np.all(np.abs(rss - direct)[checked] <= 1e-12 * direct[checked])
        # the residual itself carries rounding of order 1e-16 |y| near interpolation
        assert np.all(rss > 0.0)
        np.testing.assert_allclose(rss, direct, rtol=1e-9, atol=0.0)

    def test_df_approaches_rank_at_tiny_lambda(self):
        rng = rng_for(17)
        X = rng.standard_normal((40, 6))
        _, df, _ = ridge_path(X, rng.standard_normal(40), [1e-10], eig_of(X))
        assert abs(df[0] - 6) < 1e-4


class TestObjective:
    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_matches_direct_evaluation(self, seed):
        X, y = random_instance(seed, T=15, m=3)
        rng = rng_for(seed + 1)
        beta = rng.standard_normal(3)
        lam = 0.3
        direct = float(np.sum((y - X @ beta) ** 2) / 15 + 2 * lam * np.abs(beta).sum())
        assert objective(X, y, beta, lam) == pytest.approx(direct, rel=1e-12)
