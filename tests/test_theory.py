import math

import mpmath
import numpy as np
import pytest

from hdvar import estimators, mc, theory, var
from hdvar.errors import MissingInnovations, SingularSubGram, ZeroKappa
from hdvar.solver import PenaltySpec, lambda_max, lasso_cd
from helpers import random_spd, restricted_eigenvalue_bruteforce


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestPenaltyFormulas:
    def test_lambda_theorem1_degenerate(self):
        assert theory.lambda_theorem1(100, 1, 1, 0.5) == 0.0

    def test_lambda_theorem1_zero_sigma(self):
        assert theory.lambda_theorem1(100, 10, 2, 0.0) == 0.0

    def test_lambda_theorem1_high_precision(self):
        T, k, p, s = 500, 10, 1, 1.0
        with mpmath.workdps(50):
            expected = mpmath.sqrt(
                8
                * mpmath.log(1 + T) ** 5
                * mpmath.log(1 + k) ** 4
                * mpmath.log(1 + p) ** 2
                * mpmath.log(k**2 * p)
                * s**4
                / T
            )
        assert theory.lambda_theorem1(T, k, p, s) == pytest.approx(float(expected), rel=1e-14)

    def test_k_t_values(self):
        assert theory.k_t(100, 5, 2, 0.0) == 0.0
        assert theory.k_t(1, 5, 2, 1.0) == 0.0
        with mpmath.workdps(50):
            expected = mpmath.log(11) ** 2 * mpmath.log(2) ** 2 * mpmath.log(500)
        assert theory.k_t(500, 10, 1, 1.0) == pytest.approx(float(expected), rel=1e-14)

    def test_lambda_monotone_in_dimensions(self):
        base = theory.lambda_theorem1(200, 10, 2, 0.5)
        assert theory.lambda_theorem1(200, 20, 2, 0.5) > base
        assert theory.lambda_theorem1(200, 10, 4, 0.5) > base
        assert theory.lambda_theorem1(200, 10, 2, 0.9) > base

    def test_lambda_eventually_decreasing_in_t(self):
        values = [theory.lambda_theorem1(T, 10, 2, 0.5) for T in (100, 1_000, 10_000, 100_000)]
        assert values[1] > values[2] > values[3]


class TestPiQ:
    def test_large_zeta_limit(self):
        k, p, T = 10, 2, 500
        limit = 2.0 * (k**2 * p**2) ** (1.0 - math.log(T))
        assert theory.pi_q(3, k, p, T, 1e12) == pytest.approx(limit, rel=1e-10)

    def test_monotone_in_t_beyond_threshold(self):
        zeta_value = 0.05
        values = [theory.pi_q(2, 10, 1, T, zeta_value) for T in (200, 500, 2_000, 10_000)]
        assert values[0] > values[1] > values[2] > values[3]

    def test_experiment_a_value(self):
        s, k, p, T = 1, 10, 1, 500
        zeta_value = 0.01
        with mpmath.workdps(50):
            k2p2 = mpmath.mpf(k) ** 2 * p**2
            expected = 4 * k2p2 * mpmath.exp(
                -zeta_value * T / (s**2 * mpmath.log(T) * (mpmath.log(k2p2) + 1))
            ) + 2 * k2p2 ** (1 - mpmath.log(T))
        assert theory.pi_q(s, k, p, T, zeta_value) == pytest.approx(float(expected), rel=1e-12)

    def test_may_exceed_one(self):
        assert theory.pi_q(10, 50, 5, 10, 1e-8) > 1.0


class TestRestrictedEigenvalue:
    def test_identity(self):
        for r in (1, 2):
            assert theory.restricted_eigenvalue(np.eye(6), r) == pytest.approx(1.0, abs=1e-6)

    def test_scaling(self):
        psi = 3.7 * np.eye(5)
        assert theory.restricted_eigenvalue(psi, 2) == pytest.approx(3.7, rel=1e-8)

    def test_diagonal_grid_oracle(self):
        psi = np.diag([1.0, 2.0, 3.0, 4.0])
        est = theory.restricted_eigenvalue(psi, 1)
        oracle = restricted_eigenvalue_bruteforce(psi, 1)
        assert est == pytest.approx(oracle, rel=0.02)
        assert est == pytest.approx(1.0, rel=1e-6)

    def test_matches_bruteforce_random(self):
        rng = rng_for(100)
        for trial in range(5):
            m = int(rng.integers(3, 7))
            psi = random_spd(rng, m)
            r = int(rng.integers(1, 3))
            est = theory.restricted_eigenvalue(psi, r, seed=trial)
            oracle = restricted_eigenvalue_bruteforce(psi, r)
            assert est == pytest.approx(oracle, rel=0.02)

    def test_bracketed_by_min_eigenvalues(self):
        rng = rng_for(101)
        import itertools

        for trial in range(5):
            m = int(rng.integers(3, 9))
            psi = random_spd(rng, m)
            r = int(rng.integers(1, min(3, m)))
            est = theory.restricted_eigenvalue(psi, r, seed=trial)
            phi_min = np.linalg.eigvalsh(psi).min()
            sub_mins = [
                np.linalg.eigvalsh(psi[np.ix_(R, R)]).min()
                for size in range(1, r + 1)
                for R in map(list, itertools.combinations(range(m), size))
            ]
            assert phi_min - 1e-10 <= est <= min(sub_mins) + 1e-10

    def test_nonincreasing_in_r(self):
        rng = rng_for(102)
        psi = random_spd(rng, 6)
        vals = [theory.restricted_eigenvalue(psi, r, seed=7) for r in (1, 2, 3)]
        # the points searched for r are searched again, from the same seeds, for r + 1
        assert vals[0] >= vals[1] >= vals[2]

    @pytest.mark.parametrize(
        "experiment, k, r, value",
        [("A", 10, 1, 0.013333333333333334), ("D", 10, 10, 0.010314574493491727)],
    )
    def test_design_values_pinned(self, experiment, k, r, value):
        # values of the search that refined one start at a time, which the
        # batched search reproduces up to rounding
        gamma = var.population_gamma(mc.make_dgp(experiment, k)[0])
        assert theory.restricted_eigenvalue(gamma, r) == pytest.approx(value, rel=1e-12)

    def test_oracle_instances_pinned(self):
        # the 20 instances of acceptance criterion 7, against the one-start-at-a-time search
        pinned = [
            0.014904069907926734, 0.31267691601619196, 0.28465965797851744, 0.10228636072100081,
            0.12777250431962514, 0.20059605173273312, 0.17564379868906901, 0.04767768279078272,
            0.16906425967066932, 0.020875409692781902, 0.14488764108219984, 0.050390421919788805,
            0.13937373863221864, 0.0476964751628003, 0.06504547669193106, 0.025092796752401107,
            0.09696320134783858, 0.5856442241863101, 0.07456019509781459, 0.07764002905814174,
        ]
        rng = np.random.Generator(np.random.Philox(777))
        for trial, value in enumerate(pinned):
            m = int(rng.integers(3, 7))
            r = int(rng.integers(1, 3))
            psi = random_spd(rng, m)
            assert theory.restricted_eigenvalue(psi, r, seed=trial) == pytest.approx(value, rel=1e-12)


class TestEventFlags:
    def setup_method(self):
        self.model, self.truth = mc.make_dgp("A", 10)
        self.params = theory.TheoryParams()

    def test_zero_noise_b_t_true(self):
        model = var.VarModel(phis=(0.5 * np.eye(2),), sigma=np.zeros((2, 2)))
        truth = estimators.SparsityInfo.from_coefficients(var.coefficient_matrix(model))
        data = var.simulate(model, 50, seed=0)
        problem = var.stack(data)
        flags = theory.event_flags(
            data, model, truth, self.params, lambda_t=0.1, kappa_sbar_sq=1.0, problem=problem, gamma=problem.psi
        )
        assert flags.max_cross == 0.0
        assert flags.b_t

    def test_statistics_scale_quadratically_in_noise(self):
        base = var.VarModel(phis=(np.zeros((2, 2)),), sigma=np.eye(2))
        scaled = var.VarModel(phis=(np.zeros((2, 2)),), sigma=4.0 * np.eye(2))
        tb = estimators.SparsityInfo.from_coefficients(np.zeros((2, 2)))
        d1 = var.simulate(base, 100, seed=5)
        d2 = var.simulate(scaled, 100, seed=5)
        p1, p2 = var.stack(d1), var.stack(d2)
        f1 = theory.event_flags(d1, base, tb, self.params, lambda_t=1.0, kappa_sbar_sq=1.0, problem=p1, gamma=p1.psi)
        f2 = theory.event_flags(d2, scaled, tb, self.params, lambda_t=1.0, kappa_sbar_sq=1.0, problem=p2, gamma=p2.psi)
        # doubling the noise scale quadruples every quadratic statistic
        assert f2.max_cross == pytest.approx(4.0 * f1.max_cross, rel=1e-10)
        assert f2.max_yy == pytest.approx(4.0 * f1.max_yy, rel=1e-10)

    def test_requires_innovations(self):
        data = var.simulate(self.model, 50, seed=1)
        stripped = var.Dataset(k=data.k, p=data.p, T=data.T, initial=data.initial, path=data.path)
        problem = var.stack(data)
        with pytest.raises(MissingInnovations):
            theory.event_flags(
                stripped,
                self.model,
                self.truth,
                self.params,
                lambda_t=0.1,
                kappa_sbar_sq=1.0,
                problem=problem,
                gamma=problem.psi,
            )

    def test_empirical_b_t_beats_theorem_bound(self):
        T = 500
        st = var.sigma_t(self.model)
        lam = theory.lambda_theorem1(T, 10, 1, st)
        bound = theory.thm1_probability(T, 10, 1, self.params.a_const)
        gamma = var.population_gamma(self.model)
        hits = 0
        n = 200
        for seed in range(n):
            data = var.simulate(self.model, T, seed=seed)
            problem = var.stack(data)
            flags = theory.event_flags(
                data, self.model, self.truth, self.params, lambda_t=lam, kappa_sbar_sq=1.0, problem=problem, gamma=gamma
            )
            hits += flags.b_t
        if bound > 0:
            assert hits / n >= bound


class TestThm1Checks:
    def test_noiseless_exact_recovery_all_zero_sides(self):
        rng = rng_for(104)
        X = rng.standard_normal((50, 4))
        beta = np.array([1.0, 0.0, -0.5, 0.0])
        problem = var.RegressionProblem(
            X=np.asfortranarray(X),
            ys=np.ascontiguousarray((X @ beta)[None, :]),
            psi=(X.T @ X) / 50,
            k=1,
            p=4,
        )
        truth = estimators.SparsityInfo.from_coefficients(beta[None, :])
        checks = theory.thm1_rhs_check(problem, 0, beta, truth, lambda_t=0.3)
        assert checks["iq1"]["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert checks["iq3"]["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert checks["iq3"]["rhs"] == pytest.approx(0.0, abs=1e-12)

    def test_inequalities_hold_on_b_t(self):
        model, truth = mc.make_dgp("A", 10)
        st = var.sigma_t(model)
        lam = theory.lambda_theorem1(100, 10, 1, st)
        params = theory.TheoryParams()
        gamma = var.population_gamma(model)
        for seed in range(25):
            data = var.simulate(model, 100, seed=seed)
            problem = var.stack(data)
            flags = theory.event_flags(
                data, model, truth, params, lambda_t=lam, kappa_sbar_sq=1.0, problem=problem, gamma=gamma
            )
            if not flags.b_t:
                continue
            for i in range(10):
                res = lasso_cd(problem.X, problem.ys[i], problem.psi, PenaltySpec(lam))
                checks = theory.thm1_rhs_check(problem, i, res.beta, truth, lam)
                for c in checks.values():
                    assert c["slack"] >= -10 * 1e-7


class TestBounds:
    def test_thm3_zero_lambda(self):
        assert theory.thm3_bounds(3, 0.0, 0.5, 0.5) == (0.0, 0.0)

    def test_thm3_linearity_in_s(self):
        p1, e1 = theory.thm3_bounds(2, 0.3, 0.5, 0.5)
        p2, e2 = theory.thm3_bounds(4, 0.3, 0.5, 0.5)
        assert p2 == pytest.approx(2 * p1)
        assert e2 == pytest.approx(2 * e1)

    def test_thm3_zero_kappa(self):
        with pytest.raises(ZeroKappa):
            theory.thm3_bounds(2, 0.3, 0.0, 0.5)

    def test_thm3_experiment_a_evaluation(self):
        model, truth = mc.make_dgp("A", 10)
        st = var.sigma_t(model)
        lam = theory.lambda_theorem1(500, 10, 1, st)
        gamma = var.population_gamma(model)
        ksq = theory.restricted_eigenvalue(gamma, 1)
        pred, est = theory.thm3_bounds(1, lam, ksq, 0.5)
        assert pred == pytest.approx(16.0 / (0.5 * ksq) * lam**2, rel=1e-12)
        assert est == pytest.approx(16.0 / (0.5 * ksq) * lam, rel=1e-12)

    def test_system_bound_k1_and_sum(self):
        assert theory.system_bound([1.5]) == 1.5
        assert theory.system_bound([0.5] * 4) == pytest.approx(2.0)


class TestFNormSum:
    def test_white_noise(self):
        model = var.VarModel(phis=(np.zeros((2, 2)),), sigma=np.diag([2.0, 1.0]))
        # Gamma = Omega (norm 2), series is ||I|| alone
        assert theory.f_norm_sum(model) == pytest.approx(2.0, rel=1e-8)

    def test_ar1_geometric_series(self):
        model = var.VarModel(phis=(np.array([[0.5]]),), sigma=np.array([[1.0]]))
        expected = (4.0 / 3.0) * sum(0.5**i for i in range(60))
        assert theory.f_norm_sum(model) == pytest.approx(expected, rel=1e-9)

    def test_truncation_at_t(self):
        model = var.VarModel(phis=(np.array([[0.5]]),), sigma=np.array([[1.0]]))
        expected = (4.0 / 3.0) * sum(0.5**i for i in range(4))
        assert theory.f_norm_sum(model, T=3) == pytest.approx(expected, rel=1e-12)

    def test_experiment_b_evaluates(self):
        model, _ = mc.make_dgp("B", 10)
        value = theory.f_norm_sum(model, T=100)
        assert np.isfinite(value) and value > 0


class TestSignRecovery:
    def make_problem(self, seed, k=5, T=200):
        model = var.VarModel(phis=(0.5 * np.eye(k),), sigma=0.01 * np.eye(k))
        truth = estimators.SparsityInfo.from_coefficients(var.coefficient_matrix(model))
        data = var.simulate(model, T, seed=seed)
        return model, truth, var.stack(data)

    def test_noiseless_truth_stage1_small_lambda(self):
        # eps = 0 and stage1 = beta*: FOC2 reduces to a sign-preservation check
        rng = rng_for(105)
        X = rng.standard_normal((100, 4))
        beta = np.array([0.8, 0.0, -0.6, 0.0])
        problem = var.RegressionProblem(
            X=np.asfortranarray(X),
            ys=np.ascontiguousarray((X @ beta)[None, :]),
            psi=(X.T @ X) / 100,
            k=1,
            p=4,
        )
        truth = estimators.SparsityInfo.from_coefficients(beta[None, :])
        params = theory.TheoryParams()
        rep = theory.sign_recovery_conditions(
            problem, 0, beta, 1e-6, truth, params, gamma=problem.psi, sigma_t_value=1.0
        )
        assert rep["foc2_ok"]
        realized, _ = theory.realized_sign_recovery(problem, 0, beta, 1e-6, truth)
        assert rep["foc_ok"] == realized

    def test_orthogonal_design_foc1_trivial(self):
        T = 64
        X = np.eye(T) * np.sqrt(T)  # psi = I
        beta = np.zeros(T)
        beta[:2] = [1.0, -1.0]
        problem = var.RegressionProblem(
            X=np.asfortranarray(X),
            ys=np.ascontiguousarray((X @ beta)[None, :]),
            psi=np.eye(T),
            k=1,
            p=T,
        )
        truth = estimators.SparsityInfo.from_coefficients(beta[None, :])
        rep = theory.sign_recovery_conditions(
            problem, 0, beta, 1e-3, truth, theory.TheoryParams(), gamma=problem.psi, sigma_t_value=1.0
        )
        # psi_{j,J} = 0 off support, eps = 0: FOC1 left side vanishes
        assert rep["foc1_ok"]
        assert rep["foc1_margin"] >= 0

    def test_singular_support_gram_raises(self):
        # two identical support columns make Psi_JJ singular
        rng = rng_for(106)
        X = rng.standard_normal((50, 3))
        X[:, 1] = X[:, 0]
        beta = np.array([0.5, 0.5, 0.0])
        problem = var.RegressionProblem(
            X=np.asfortranarray(X),
            ys=np.ascontiguousarray((X @ beta)[None, :]),
            psi=(X.T @ X) / 50,
            k=1,
            p=3,
        )
        truth = estimators.SparsityInfo.from_coefficients(beta[None, :])
        with pytest.raises(SingularSubGram):
            theory.sign_recovery_conditions(
                problem, 0, beta, 1e-3, truth, theory.TheoryParams(), gamma=problem.psi, sigma_t_value=1.0
            )

    def test_iff_equivalence_against_realized_solve(self):
        params = theory.TheoryParams()
        total = mismatches = 0
        for seed in range(30):
            model, truth, problem = self.make_problem(seed)
            st = var.sigma_t(model)
            gamma = var.population_gamma(model)
            i = 0
            stage1 = estimators.FitPlan(problem).lasso(i).beta
            with np.errstate(divide="ignore"):
                w = np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)
            lams = [theory.lambda_theorem1(problem.T, 5, 1, st)]
            if np.isfinite(w).any():
                lmaxw = lambda_max(problem.X, problem.ys[i], w)
                lams += [0.5 * lmaxw, 0.05 * lmaxw]
            for lam in lams:
                rep = theory.sign_recovery_conditions(
                    problem, i, stage1, lam, truth, params, gamma=gamma, sigma_t_value=st
                )
                if rep["psi_jj_condition"] >= 1e8:
                    continue
                realized, _ = theory.realized_sign_recovery(problem, i, stage1, lam, truth)
                total += 1
                mismatches += rep["foc_ok"] != realized
        assert total > 50
        assert mismatches == 0


class TestProbabilityBounds:
    def test_thm1_probability_tends_to_one(self):
        vals = [theory.thm1_probability(T, 10, 1) for T in (50, 500, 5_000)]
        assert vals[0] < vals[1] < vals[2] < 1.0
