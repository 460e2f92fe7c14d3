import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdvar.errors import AllWeightsInfinite
from hdvar.linalg import cholesky_solve, least_squares
from hdvar import solver
from hdvar.solver import (
    EXACT_EVERY,
    PenaltySpec,
    kkt_check,
    lambda_max,
    lasso_cd,
    lasso_path,
    objective,
    ridge_path,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_instance(seed, T=20, m=2, snr=1.0):
    rng = rng_for(seed)
    X = rng.standard_normal((T, m))
    beta = rng.standard_normal(m)
    y = X @ beta + snr * rng.standard_normal(T)
    return X, y


def grid_search_2d(X, y, pen, lo=-2.0, hi=2.0, step=1e-3):
    """Brute-force minimizer of the objective over a 2-d grid."""
    T = X.shape[0]
    lam_w = pen.lam_w(2)
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


class TestLassoCd:
    def test_zero_solution_at_large_lambda(self):
        X, y = random_instance(0, T=30, m=5)
        lam = 1.001 * lambda_max(X, y)
        res = lasso_cd(X, y, PenaltySpec(lam))
        assert np.all(res.beta == 0.0)
        assert res.converged

    def test_lambda_zero_matches_ols(self):
        X, y = random_instance(1, T=50, m=5)
        res = lasso_cd(X, y, PenaltySpec(0.0))
        assert res.converged
        assert np.abs(res.beta - least_squares(X, y)).max() <= 1e-6

    def test_grid_search_oracle(self):
        for seed in range(5):
            X, y = random_instance(seed, T=20, m=2)
            lam = 0.3 * lambda_max(X, y)
            pen = PenaltySpec(lam)
            res = lasso_cd(X, y, pen, tol=1e-10)
            _, f_grid = grid_search_2d(X, y, pen)
            f_cd = objective(X, y, res.beta, pen)
            assert f_cd <= f_grid + 1e-5

    def test_objective_descent(self):
        X, y = random_instance(2, T=40, m=8)
        pen = PenaltySpec(0.05 * lambda_max(X, y))
        res = lasso_cd(X, y, pen, track_objective=True)
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_solution_scaling(self):
        X, y = random_instance(3, T=30, m=4)
        lam0 = 0.2 * lambda_max(X, y)
        base = lasso_cd(X, y, PenaltySpec(lam0), tol=1e-12)
        for c in (2.0, 7.5):
            scaled = lasso_cd(X, c * y, PenaltySpec(c * lam0), tol=1e-12)
            denom = max(np.abs(c * base.beta).max(), 1e-12)
            assert np.abs(scaled.beta - c * base.beta).max() <= 1e-8 * denom

    def test_infinite_weight_exclusion(self):
        X, y = random_instance(4, T=30, m=6)
        w = np.ones(6)
        w[[1, 4]] = np.inf
        lam = 0.1 * lambda_max(X, y)
        full = lasso_cd(X, y, PenaltySpec(lam, weights=w), tol=1e-12)
        assert np.all(full.beta[[1, 4]] == 0.0)
        keep = [0, 2, 3, 5]
        reduced = lasso_cd(X[:, keep], y, PenaltySpec(lam, weights=np.ones(4)), tol=1e-12)
        assert np.abs(full.beta[keep] - reduced.beta).max() <= 1e-8

    def test_zero_column_pinned(self):
        rng = rng_for(5)
        X = rng.standard_normal((20, 3))
        X[:, 1] = 0.0
        y = rng.standard_normal(20)
        res = lasso_cd(X, y, PenaltySpec(0.0))
        assert res.beta[1] == 0.0
        assert res.converged

    def test_warm_start_converges_immediately(self):
        X, y = random_instance(6, T=30, m=4)
        pen = PenaltySpec(0.1 * lambda_max(X, y))
        first = lasso_cd(X, y, pen, tol=1e-10)
        again = lasso_cd(X, y, pen, tol=1e-10, warm_start=first.beta)
        assert again.iterations <= 2

    def test_max_iter_reported(self):
        X, y = random_instance(7, T=40, m=10)
        res = lasso_cd(X, y, PenaltySpec(1e-9 * lambda_max(X, y)), tol=1e-14, max_iter=1)
        assert not res.converged


class TestKktCheck:
    def test_ols_at_lambda_zero(self):
        X, y = random_instance(8, T=40, m=5)
        beta = least_squares(X, y)
        assert kkt_check(X, y, beta, PenaltySpec(0.0)) <= 1e-8

    def test_zero_beta_large_lambda(self):
        X, y = random_instance(9, T=25, m=4)
        lam = lambda_max(X, y)
        assert kkt_check(X, y, np.zeros(4), PenaltySpec(lam)) <= 1e-12

    def test_solver_output_passes(self):
        X, y = random_instance(10, T=30, m=6)
        pen = PenaltySpec(0.05 * lambda_max(X, y))
        res = lasso_cd(X, y, pen, tol=1e-9)
        assert kkt_check(X, y, res.beta, pen) <= 1e-9 + 1e-12

    def test_nonzero_excluded_coordinate_is_infinite_violation(self):
        # an infinite weight forces b_j = 0, so a nonzero b_j has no finite violation
        X, y = random_instance(19, T=30, m=3)
        pen = PenaltySpec(0.01, weights=np.array([np.inf, 1.0, 1.0]))
        assert kkt_check(X, y, np.array([0.5, 0.0, 0.0]), pen) == np.inf


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
        res = lasso_cd(X, y, PenaltySpec(1.01 * lam))
        assert np.all(res.beta == 0.0)

    def test_all_weights_infinite(self):
        X, y = random_instance(12, T=10, m=3)
        with pytest.raises(AllWeightsInfinite):
            lambda_max(X, y, np.full(3, np.inf))


class TestLassoPath:
    def test_first_point_zero(self):
        X, y = random_instance(13, T=40, m=6)
        path = lasso_path(X, y, n_lambda=30)
        assert np.all(path[0][1].beta == 0.0)
        lams = [lam for lam, _ in path]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_two_point_path_matches_cold_fits(self):
        X, y = random_instance(14, T=50, m=4)
        path = lasso_path(X, y, n_lambda=2, ratio=0.01, tol=1e-12)
        for lam, res in path:
            cold = lasso_cd(X, y, PenaltySpec(lam), tol=1e-12)
            assert np.abs(res.beta - cold.beta).max() <= 1e-8

    def test_active_set_mostly_monotone_on_experiment_a(self):
        from hdvar import mc, var

        model, _ = mc.make_dgp("A", 10)
        data = var.simulate(model, 200, seed=3)
        prob = var.stack(data)
        path = lasso_path(prob.X, prob.ys[0], n_lambda=100)
        sizes = [int(np.count_nonzero(res.beta)) for _, res in path]
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
    stage1 = lasso_path(X, y)[40][1].beta
    with np.errstate(divide="ignore"):
        w = np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)
    w[3] = 1.0
    assert np.isinf(w).any() and np.isfinite(w).sum() > 1
    return X, y, w


class TestPathKernel:
    """lasso_path runs the lasso_cd kernel once per grid point, carrying (beta, g)."""

    @pytest.mark.parametrize(
        "case",
        # C/10/40 has m = 50 > T = 40; max_iter=50 leaves some grid points unconverged
        ["A/10/500", "C/10/1000", "adaptive", "C/10/40"],
    )
    def test_path_equals_warm_started_lasso_cd_chain(self, case):
        opts = {}
        if case == "adaptive":
            X, y, w = adaptive_instance()
        else:
            experiment, k, T = case.split("/")
            prob = experiment_problem(experiment, int(k), int(T))
            X, y, w = prob.X, prob.ys[0], None
            if case == "C/10/40":
                opts = {"max_iter": 50}
        path = lasso_path(X, y, weights=w, **opts)
        if case == "C/10/40":
            assert not all(res.converged for _, res in path)
        warm = None
        for lam, res in path:
            ref = lasso_cd(X, y, PenaltySpec(lam, weights=w), warm_start=warm, **opts)
            assert np.array_equal(res.beta, ref.beta)
            assert res.iterations == ref.iterations
            assert res.converged == ref.converged
            assert res.max_kkt_violation == ref.max_kkt_violation
            warm = ref.beta

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
        with pytest.raises(ValueError):
            PenaltySpec(-0.1)

    def test_lasso_cd_warm_start_length(self):
        X, y = random_instance(20, T=20, m=3)
        with pytest.raises(ValueError):
            lasso_cd(X, y, PenaltySpec(0.1), warm_start=np.zeros(4))

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_path_rejects_negative_or_nan_weight(self, bad):
        X, y = random_instance(21, T=20, m=3)
        with pytest.raises(ValueError, match="nonnegative"):
            lasso_path(X, y, weights=np.array([1.0, bad, 1.0]))

    def test_path_rejects_wrong_weight_length(self):
        X, y = random_instance(22, T=20, m=3)
        with pytest.raises(ValueError, match="length"):
            lasso_path(X, y, weights=np.ones(4))

    @pytest.mark.parametrize("n_lambda", [1, 0])
    def test_path_rejects_short_grid(self, n_lambda):
        X, y = random_instance(23, T=20, m=3)
        with pytest.raises(ValueError, match="two grid points"):
            lasso_path(X, y, n_lambda=n_lambda)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, -0.5])
    def test_path_rejects_ratio_outside_unit_interval(self, ratio):
        X, y = random_instance(24, T=20, m=3)
        with pytest.raises(ValueError, match="ratio"):
            lasso_path(X, y, ratio=ratio)


class TestGramForm:
    """The solver works on X'X/T and X'y/T; its reports must hold in terms of X."""

    @pytest.mark.parametrize("experiment,k,T", [("A", 10, 500), ("C", 10, 100), ("B", 10, 50)])
    def test_reported_kkt_matches_residual_form_on_paths(self, experiment, k, T):
        prob = experiment_problem(experiment, k, T)
        for lam, res in lasso_path(prob.X, prob.ys[0]):
            direct = kkt_check(prob.X, prob.ys[0], res.beta, PenaltySpec(lam))
            assert abs(res.max_kkt_violation - direct) <= 1e-12

    def test_more_regressors_than_observations(self):
        prob = experiment_problem("C", 10, 40)  # m = 50 > T = 40
        assert prob.m > prob.T
        path = lasso_path(prob.X, prob.ys[0], n_lambda=20, ratio=0.02)
        assert max(np.count_nonzero(res.beta) for _, res in path) > 20
        for lam, res in path:
            assert res.converged
            assert kkt_check(prob.X, prob.ys[0], res.beta, PenaltySpec(lam)) <= 1e-7

    def test_warm_start_cannot_free_pinned_coordinates(self):
        rng = rng_for(2)
        X = rng.standard_normal((30, 4))
        X[:, 1] = 0.0
        y = rng.standard_normal(30)
        pen = PenaltySpec(0.01, weights=np.array([1.0, 1.0, np.inf, 1.0]))
        res = lasso_cd(X, y, pen, warm_start=np.full(4, 0.5), tol=1e-10)
        assert res.beta[1] == 0.0  # zero column
        assert res.beta[2] == 0.0  # infinite weight
        assert res.converged
        assert kkt_check(X, y, res.beta, pen) <= 1e-10 + 1e-12
        cold = lasso_cd(X, y, pen, tol=1e-10)
        assert np.abs(res.beta - cold.beta).max() <= 1e-8


class TestExactStep:
    """The sign-fixed step lasso_cd tries every EXACT_EVERY sweeps."""

    @pytest.fixture
    def step_outcomes(self, monkeypatch):
        """True for each accepted attempt of the step, False for each rejected one."""
        outcomes = []
        step = solver._sign_fixed_step

        def recorded(*args):
            result = step(*args)
            outcomes.append(result is not None)
            return result

        monkeypatch.setattr(solver, "_sign_fixed_step", recorded)
        return outcomes

    def test_near_unit_root_path_converges(self, step_outcomes):
        prob = experiment_problem("C", 10, 1000)  # m = 50, seed 0
        path = lasso_path(prob.X, prob.ys[0])
        for lam, res in path:
            assert res.converged
            assert kkt_check(prob.X, prob.ys[0], res.beta, PenaltySpec(lam)) <= 1e-7
        # coordinate descent alone takes 1,965 sweeps on this path
        assert sum(res.iterations for _, res in path) == 518
        assert step_outcomes.count(True) == 87
        # a rejected candidate leaves the sweeps to reach the tolerance
        assert step_outcomes.count(False) == 12

    def test_fast_paths_keep_the_coordinate_descent_iterate(self, step_outcomes):
        prob = experiment_problem("A", 10, 500)
        X, y = prob.X, prob.ys[0]
        warm = None
        for lam, res in lasso_path(X, y):
            assert res.iterations < EXACT_EVERY
            capped = lasso_cd(X, y, PenaltySpec(lam), max_iter=EXACT_EVERY - 1, warm_start=warm)
            assert np.array_equal(res.beta, capped.beta)
            warm = res.beta
        assert not step_outcomes

    def test_rejected_candidate_keeps_sweeping(self, step_outcomes):
        # strongly correlated columns: at sweep 5 the iterate's support is still wrong
        rng = rng_for(1)
        X = rng.standard_normal((40, 4))
        X[:, 1:] = 0.95 * X[:, :1] + np.sqrt(1 - 0.95**2) * X[:, 1:]
        y = X @ rng.standard_normal(4) + rng.standard_normal(40)
        pen = PenaltySpec(0.3 * lambda_max(X, y))
        res = lasso_cd(X, y, pen)
        assert step_outcomes == [False]
        assert res.iterations == 8
        assert res.converged
        assert kkt_check(X, y, res.beta, pen) <= 1e-7
        assert not lasso_cd(X, y, pen, max_iter=EXACT_EVERY + 1).converged

    def test_accepted_step_descends(self, step_outcomes):
        prob = experiment_problem("C", 10, 1000)
        X, y = prob.X, prob.ys[0]
        pen = PenaltySpec(0.01 * lambda_max(X, y))
        res = lasso_cd(X, y, pen, track_objective=True)
        assert step_outcomes[-1]
        # one value per sweep, then the accepted candidate's
        assert len(res.objective_history) == res.iterations + 1
        assert np.all(np.diff(res.objective_history) <= 1e-12)
        assert res.objective_history[-1] == objective(X, y, res.beta, pen)
        assert res.max_kkt_violation <= 1e-7


class TestRidge:
    def test_penalty_dominated_limit(self):
        X, y = random_instance(15, T=30, m=5)
        B, df = ridge_path(X, y, [1e8])
        assert np.linalg.norm(B[:, 0]) < 1e-6
        assert df[0] < 1e-5 * 5

    def test_identity_closed_form(self):
        T = 7
        X = np.eye(T)
        y = np.arange(1.0, T + 1)
        grid = np.array([0.1, 2.5, 40.0])
        B, df = ridge_path(X, y, grid)
        for l, lam in enumerate(grid):
            assert np.abs(B[:, l] - y / (1 + lam)).max() <= 1e-12
            assert df[l] == pytest.approx(T / (1 + lam), abs=1e-10)

    def test_normal_equations_oracle(self):
        rng = rng_for(16)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        grid = np.array([0.01, 0.7, 30.0])
        B, df = ridge_path(X, y, grid)
        G = X.T @ X
        for l, lam in enumerate(grid):
            A = G + lam * np.eye(5)
            assert np.abs(B[:, l] - cholesky_solve(A, X.T @ y)).max() <= 1e-8
            assert df[l] == pytest.approx(np.trace(cholesky_solve(A, G)), abs=1e-10)

    def test_df_approaches_rank_at_tiny_lambda(self):
        rng = rng_for(17)
        X = rng.standard_normal((40, 6))
        _, df = ridge_path(X, rng.standard_normal(40), [1e-10])
        assert abs(df[0] - 6) < 1e-4


class TestObjective:
    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_matches_direct_evaluation(self, seed):
        X, y = random_instance(seed, T=15, m=3)
        rng = rng_for(seed + 1)
        beta = rng.standard_normal(3)
        lam = 0.3
        pen = PenaltySpec(lam)
        direct = float(np.sum((y - X @ beta) ** 2) / 15 + 2 * lam * np.abs(beta).sum())
        assert objective(X, y, beta, pen) == pytest.approx(direct, rel=1e-12)
