import numpy as np
import pytest
import scipy.linalg

from hdvar import var
from hdvar.errors import NotPositiveDefinite, NotStationary
from hdvar.estimators import _ols_on
from hdvar.linalg import cholesky_solve, spectral_radius
from helpers import lyapunov_doubling


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestCholeskySolve:
    def test_identity(self):
        assert np.allclose(cholesky_solve(np.eye(3), np.eye(3)), np.eye(3))

    def test_diagonal_inverse(self):
        x = cholesky_solve(np.diag([4.0, 9.0]), np.array([1.0, 1.0]))
        assert np.allclose(x, [0.25, 1.0 / 9.0])

    def test_residual_oracle_random_spd(self):
        rng = rng_for(0)
        for trial in range(5):
            G = rng.standard_normal((8, 8))
            A = G @ G.T + 8 * np.eye(8)
            b = rng.standard_normal(8)
            x = cholesky_solve(A, b)
            assert np.abs(A @ x - b).max() <= 1e-8 * (1 + np.abs(b).max())

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve(np.diag([1.0, -1.0]), np.ones(2))

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve(A, np.ones(2))

    def test_solve_then_multiply_is_identity(self):
        rng = rng_for(1)
        G = rng.standard_normal((6, 6))
        A = G @ G.T + 6 * np.eye(6)
        B = rng.standard_normal((6, 3))
        X = cholesky_solve(A, B)
        assert np.abs(A @ X - B).max() <= 1e-7 * max(1.0, np.abs(B).max())


def ols(X, y):
    """The fit ``_ols_on`` gives equation 0 of ``var.RegressionProblem(X, [y])``
    on every column: the package's least squares, solved by ``cholesky_solve``
    on the Gram matrix."""
    X = np.asarray(X, dtype=np.float64)
    problem = var.RegressionProblem(X, np.atleast_2d(y))
    return _ols_on(problem, 0, np.arange(X.shape[1]), "full_ols", "too_many")


class TestLeastSquares:
    def test_identity_design(self):
        assert np.allclose(ols(np.eye(3)[:, :2], np.array([3.0, 5.0, 0.0])).beta, [3.0, 5.0])

    def test_column_of_ones_gives_mean(self):
        beta = ols(np.ones((3, 1)), np.array([1.0, 2.0, 3.0])).beta
        assert np.allclose(beta, [2.0])

    def test_noiseless_recovery(self):
        rng = rng_for(2)
        X = rng.standard_normal((10, 3))
        beta = np.array([1.0, -0.5, 2.0])
        est = ols(X, X @ beta).beta
        assert np.abs(est - beta).max() <= 1e-8

    def test_gradient_orthogonality(self):
        rng = rng_for(3)
        X = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        beta = ols(X, y).beta
        grad = np.abs(X.T @ (y - X @ beta)).max()
        assert grad <= 1e-7 * np.abs(X.T @ y).max()

    def test_singular_design(self):
        fit = ols(np.ones((5, 2)), np.arange(5.0))  # duplicated column
        assert not fit.feasible and fit.failure == "singular_design"

    def test_underdetermined(self):
        fit = ols(np.ones((2, 5)), np.ones(2))
        assert not fit.feasible and fit.failure == "too_many"


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5, abs=1e-6)

    def test_triangular_exact(self):
        rng = rng_for(4)
        for trial in range(5):
            F = np.triu(rng.standard_normal((6, 6)))
            expected = np.abs(np.diag(F)).max()
            assert spectral_radius(F) == pytest.approx(expected, abs=1e-6)

    def test_matches_eigvals_oracle(self):
        rng = rng_for(5)
        for trial in range(5):
            F = 0.9 * rng.standard_normal((7, 7)) / np.sqrt(7)
            expected = np.abs(np.linalg.eigvals(F)).max()
            assert spectral_radius(F) == pytest.approx(expected, abs=1e-6)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_explosive(self):
        assert spectral_radius(np.array([[2.0]])) == pytest.approx(2.0, abs=1e-5)


def var1(F, Omega):
    """The VAR(1) model y_t = F y_{t-1} + e_t with Var(e_t) = Omega, whose
    companion form is (F, Omega)."""
    return var.VarModel(phis=(np.asarray(F, dtype=np.float64),), sigma=np.asarray(Omega, dtype=np.float64))


class TestLyapunovDoubling:
    """G = F G F' + Omega as ``var.population_gamma`` solves it on VAR(1)
    models, checked against closed forms, residuals, SciPy and the doubling
    iteration of ``helpers.lyapunov_doubling``."""

    def test_white_noise(self):
        G = var.population_gamma(var1([[0.0]], [[1.0]]))
        assert np.allclose(G, [[1.0]])

    def test_ar1_closed_form(self):
        G = var.population_gamma(var1([[0.5]], [[1.0]]))
        assert G[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_residual_oracle_random_stable(self):
        rng = rng_for(7)
        for trial in range(5):
            F = rng.standard_normal((4, 4))
            F *= 0.8 / np.abs(np.linalg.eigvals(F)).max()
            W = rng.standard_normal((4, 4))
            Omega = W @ W.T + np.eye(4)
            G = var.population_gamma(var1(F, Omega))
            assert np.abs(G - F @ G @ F.T - Omega).max() <= 1e-11

    def test_matches_scipy(self):
        rng = rng_for(8)
        F = rng.standard_normal((5, 5))
        F *= 0.7 / np.abs(np.linalg.eigvals(F)).max()
        W = rng.standard_normal((5, 5))
        Omega = W @ W.T
        ours = var.population_gamma(var1(F, Omega))
        ref = scipy.linalg.solve_discrete_lyapunov(F, Omega)
        assert np.array_equal(ours, (ref + ref.T) / 2.0)
        assert np.abs(ours - lyapunov_doubling(F, Omega)).max() <= 1e-9

    def test_symmetric_psd_output(self):
        rng = rng_for(9)
        F = rng.standard_normal((4, 4))
        F *= 0.9 / np.abs(np.linalg.eigvals(F)).max()
        G = var.population_gamma(var1(F, np.eye(4) * 0.3))
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_not_stationary(self):
        F = np.array([[0.5, 1.0], [0.0, 1.5]])
        with pytest.raises(NotStationary, match=r"rho = 1.500000 >= 1"):
            var.population_gamma(var1(F, np.eye(2)))
