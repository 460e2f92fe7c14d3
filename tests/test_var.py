import json
import os

import numpy as np
import pytest

from hdvar import mc, var
from hdvar.errors import NotStationary
from helpers import least_squares, simulate_per_lag


def ar1(phi=0.5, s2=1.0):
    return var.VarModel(phis=(np.array([[phi]]),), sigma=np.array([[s2]]))


class TestCompanion:
    def test_textbook_var2(self):
        model = var.VarModel(phis=(np.array([[0.5]]), np.array([[0.2]])), sigma=np.array([[1.0]]))
        form = var.companion(model)
        assert np.allclose(form.F, [[0.5, 0.2], [1.0, 0.0]])
        assert np.allclose(form.omega, [[1.0, 0.0], [0.0, 0.0]])

    def test_scalar(self):
        form = var.companion(ar1(0.9))
        assert np.allclose(form.F, [[0.9]])
        assert form.rho == pytest.approx(0.9, abs=1e-6)

    def test_design_radii_exact(self):
        # B's nonzero blocks give lambda^4 - 0.75 lambda^3 + 0.5; C's roots have modulus 0.95
        rho_b = var.companion(mc.make_dgp("B", 10)[0]).rho
        assert rho_b == pytest.approx(max(abs(np.roots([1, -0.75, 0, 0, 0.5]))), abs=1e-12)
        assert var.companion(mc.make_dgp("C", 10)[0]).rho == pytest.approx(0.95, abs=1e-12)

    def test_block_structure(self):
        rng = np.random.Generator(np.random.Philox(0))
        phis = tuple(0.2 * rng.standard_normal((3, 3)) for _ in range(2))
        form = var.companion(var.VarModel(phis=phis, sigma=np.eye(3)))
        assert np.allclose(form.F[:3, :3], phis[0])
        assert np.allclose(form.F[:3, 3:], phis[1])
        assert np.allclose(form.F[3:, :3], np.eye(3))


class TestSimulate:
    def test_zero_sigma_zero_path(self):
        model = var.VarModel(phis=(np.array([[0.5]]),), sigma=np.array([[0.0]]))
        data = var.simulate(model, 20, seed=3)
        assert np.all(data.path == 0.0)
        assert np.all(data.initial == 0.0)

    def test_ar1_sample_variance(self):
        data = var.simulate(ar1(0.5, 1.0), 100_000, seed=42)
        # population variance 4/3; tolerance is three standard errors
        se = np.sqrt(2 * (4 / 3) ** 2 * (1 + 2 / 3) / 100_000)
        assert abs(data.path.var() - 4.0 / 3.0) <= 3 * se

    def test_white_noise_autocorrelation(self):
        data = var.simulate(ar1(0.0, 1.0), 50_000, seed=7)
        x = data.path[:, 0]
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) <= 3 / np.sqrt(50_000)

    def test_deterministic_in_seed(self):
        a = var.simulate(ar1(), 50, seed=11)
        b = var.simulate(ar1(), 50, seed=11)
        assert np.array_equal(a.path, b.path)
        assert np.array_equal(a.initial, b.initial)
        c = var.simulate(ar1(), 50, seed=12)
        assert not np.array_equal(a.path, c.path)

    def test_innovations_recorded(self):
        data = var.simulate(ar1(0.5), 30, seed=1)
        _, innovations = simulate_per_lag(ar1(0.5), 30, seed=1)
        # path obeys the recursion given the innovations the reference recursion recorded
        combined = np.vstack([data.initial, data.path])
        recon = 0.5 * combined[:-1] + innovations
        assert np.allclose(recon, data.path, atol=1e-12)

    def test_not_stationary(self):
        with pytest.raises(NotStationary):
            var.simulate(ar1(1.01), 10, seed=0)

    @pytest.mark.parametrize("experiment, p", [("A", 1), ("B", 4), ("C", 5), ("D", 1)])
    def test_stacked_lag_product_matches_per_lag_recursion(self, experiment, p):
        model, _ = mc.make_dgp(experiment, 10)
        assert model.p == p
        data = var.simulate(model, 200, seed=4)
        got = np.vstack([data.initial, data.path])
        ref, _ = simulate_per_lag(model, 200, seed=4)
        if p == 1:
            # one lag: the same product and the same sum
            assert np.array_equal(got, ref)
        else:
            # the p products are summed in another order
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestPopulationMoments:
    def test_ar1_gamma(self):
        gamma = var.population_gamma(ar1(0.5, 1.0))
        assert gamma[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_experiment_a_diagonal(self):
        model = var.VarModel(phis=(0.5 * np.eye(10),), sigma=0.01 * np.eye(10))
        gamma = var.population_gamma(model)
        assert np.allclose(np.diag(gamma), 0.01 / 0.75, atol=1e-10)
        off = gamma - np.diag(np.diag(gamma))
        assert np.abs(off).max() <= 1e-10

    def test_phi_zero_gamma_is_sigma_blocks(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        model = var.VarModel(phis=(np.zeros((2, 2)), np.zeros((2, 2))), sigma=sigma)
        gamma = var.population_gamma(model)
        assert np.allclose(gamma[:2, :2], sigma, atol=1e-12)
        assert np.allclose(gamma[2:, 2:], sigma, atol=1e-12)
        assert np.allclose(gamma[:2, 2:], 0.0, atol=1e-12)

    def test_gamma_exact_at_any_scale(self):
        # a solve whose accuracy does not depend on the scale of Sigma: an
        # absolute stopping rule of 1e-12 left this Gamma 81% short
        model = var.VarModel(phis=(0.95 * np.eye(3),), sigma=1e-12 * np.eye(3))
        expected = 1e-12 / (1.0 - 0.95**2) * np.eye(3)
        assert np.abs(var.population_gamma(model) - expected).max() <= 1e-12 * expected.max()

    def test_gamma_just_below_a_unit_root(self):
        # rho = 1 - 1e-9 is stationary, so Gamma exists and solves its equation
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        model = var.VarModel(phis=(np.diag([1.0 - 1e-9, 0.5]),), sigma=sigma)
        form = var.companion(model)
        assert form.rho == 1.0 - 1e-9
        gamma = var.population_gamma(model)
        resid = np.abs(gamma - form.F @ gamma @ form.F.T - form.omega).max()
        assert resid <= 1e-12 * np.abs(gamma).max()
        assert gamma[0, 0] == pytest.approx(1.0 / (1.0 - (1.0 - 1e-9) ** 2), rel=1e-6)

    def test_unit_root_is_not_stationary_for_simulate_and_gamma(self):
        # one rule, rho >= 1, with one message, whichever computation asks
        model = var.VarModel(phis=(np.diag([1.0, 0.5]),), sigma=np.eye(2))
        for compute in (lambda: var.simulate(model, 10), lambda: var.population_gamma(model)):
            with pytest.raises(NotStationary, match=r"^model is not stationary \(rho = 1.000000 >= 1\)$"):
                compute()

    def test_sigma_t_experiment_a(self):
        model = var.VarModel(phis=(0.5 * np.eye(10),), sigma=0.01 * np.eye(10))
        assert var.sigma_t(model) == pytest.approx(np.sqrt(0.01 / 0.75), abs=1e-8)

    def test_sigma_t_white_noise(self):
        model = var.VarModel(phis=(np.zeros((2, 2)),), sigma=np.eye(2))
        assert var.sigma_t(model) == pytest.approx(1.0, abs=1e-10)

    def test_sigma_t_zero_noise(self):
        model = var.VarModel(phis=(np.array([[0.5]]),), sigma=np.array([[0.0]]))
        assert var.sigma_t(model) == 0.0


class TestStack:
    def test_definition_unrolled(self):
        data = var.Dataset(
            k=1, p=1, T=2, initial=np.array([[5.0]]), path=np.array([[7.0], [9.0]])
        )
        prob = var.stack(data)
        assert np.allclose(prob.X, [[5.0], [7.0]])
        assert np.allclose(prob.ys[0], [7.0, 9.0])

    def test_noiseless_exact_fit(self):
        phis = (np.array([[0.4, 0.1], [0.0, 0.3]]), np.array([[0.1, 0.0], [0.2, 0.1]]))
        model = var.VarModel(phis=phis, sigma=np.zeros((2, 2)))
        initial = np.array([[1.0, -1.0], [0.5, 2.0]])
        # roll the deterministic recursion forward by hand
        states = [initial[0], initial[1]]
        for _ in range(6):
            states.append(phis[0] @ states[-1] + phis[1] @ states[-2])
        data = var.Dataset(k=2, p=2, T=6, initial=initial, path=np.array(states[2:]))
        prob = var.stack(data)
        beta = var.coefficient_matrix(model)
        for i in range(2):
            assert np.abs(prob.ys[i] - prob.X @ beta[i]).max() <= 1e-12

    def test_psi_symmetric_psd(self):
        data = var.simulate(ar1(0.5), 40, seed=5)
        prob = var.stack(data)
        assert np.abs(prob.psi - prob.psi.T).max() <= 1e-12
        assert np.linalg.eigvalsh(prob.psi).min() >= -1e-12
        assert np.abs(prob.psi - prob.X.T @ prob.X / 40).max() <= 1e-10

    def test_statistics_are_their_defining_products(self):
        # Psi, X'y_i and y_i'y_i are formed once, here, by the products every fit reads
        prob = var.stack(var.simulate(mc.make_dgp("B", 10)[0], 60, seed=2))
        assert prob.X.flags.f_contiguous
        assert (prob.k, prob.p, prob.T, prob.m) == (10, 4, 60, 40)
        # Psi is a BLAS-free sum over rows, exactly symmetric
        assert np.array_equal(prob.psi, np.einsum("ti,tj->ij", prob.X, prob.X) / prob.T)
        assert np.array_equal(prob.psi, prob.psi.T)
        assert np.abs(prob.psi - prob.X.T @ prob.X / prob.T).max() <= 1e-14 * np.abs(prob.psi).max()
        for i, y in enumerate(prob.ys):
            assert np.array_equal(prob.xy[i], prob.X.T @ y)
            assert prob.yy[i] == y @ y
        for a in (prob.X, prob.ys, prob.psi, prob.xy, prob.yy):
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="at least one observation"):
            var.RegressionProblem(np.zeros((0, 3)), np.zeros((1, 0)))

    def test_stack_then_ols_recovers_noiseless(self):
        # sigma = 0 with a nonzero start: responses are exactly X beta*
        rng = np.random.Generator(np.random.Philox(21))
        phi = rng.standard_normal((3, 3))
        phi *= 0.95 / np.abs(np.linalg.eigvals(phi)).max()
        model = var.VarModel(phis=(phi,), sigma=np.zeros((3, 3)))
        states = [rng.standard_normal(3)]
        for _ in range(30):
            states.append(phi @ states[-1])
        data = var.Dataset(
            k=3, p=1, T=30, initial=np.array(states[:1]), path=np.array(states[1:])
        )
        prob = var.stack(data)
        for i in range(3):
            est = least_squares(prob.X, prob.ys[i])
            assert np.abs(est - var.coefficient_matrix(model)[i]).max() <= 1e-6


class TestForecast:
    def test_zero_coefficients(self):
        data = var.simulate(ar1(0.5), 10, seed=2)
        assert np.allclose(var.forecast_one_step(np.zeros((1, 1)), data), [0.0])

    def test_scalar_case(self):
        data = var.Dataset(k=1, p=1, T=1, initial=np.array([[1.0]]), path=np.array([[2.0]]))
        assert var.forecast_one_step(np.array([[0.5]]), data) == pytest.approx([1.0])

    def test_true_model_noiseless_forecast(self):
        model = var.VarModel(
            phis=(np.array([[0.5, 0.1], [0.05, 0.4]]),), sigma=np.zeros((2, 2))
        )
        initial = np.array([[1.0, 2.0]])
        steps = [initial[0]]
        for _ in range(5):
            steps.append(model.phis[0] @ steps[-1])
        data = var.Dataset(k=2, p=1, T=4, initial=initial, path=np.array(steps[1:5]))
        pred = var.forecast_one_step(var.coefficient_matrix(model), data)
        assert np.allclose(pred, steps[5], atol=1e-14)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        model = var.VarModel(phis=(0.5 * np.eye(3),), sigma=0.01 * np.eye(3))
        data = var.simulate(model, 17, seed=9)
        var.save_dataset(data, str(tmp_path), name="ds")
        loaded = var.load_dataset(str(tmp_path), name="ds")
        assert loaded.k == data.k and loaded.p == data.p and loaded.T == data.T
        assert np.abs(loaded.path - data.path).max() <= 1e-12
        assert np.abs(loaded.initial - data.initial).max() <= 1e-12
        # the data and its {k, p, T} metadata only: the model gives the innovations
        assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.meta.json"]
        assert json.loads((tmp_path / "ds.meta.json").read_text()) == {"T": 17, "k": 3, "p": 1}

    def test_round_trip_exact_repr(self, tmp_path):
        data = var.simulate(ar1(), 29, seed=13)
        var.save_dataset(data, str(tmp_path))
        loaded = var.load_dataset(str(tmp_path))
        assert np.array_equal(loaded.path, data.path)  # repr round-trips float64 exactly


class TestWriters:
    def test_write_json_encoding(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {
            "b": (np.float64(0.1), np.int64(3), np.bool_(True), (1, (2.5, float("nan")))),
            "a": {"nan": np.nan, "inf": np.inf, "-inf": np.float64(-np.inf)},
            "array": np.array([[1.0, np.nan], [np.inf, 2.0]]),
        }
        var.write_json(str(path), payload)
        # keys sorted at every level, two-space indent, a trailing newline
        expected = {
            "a": {"-inf": "-inf", "inf": "inf", "nan": None},
            "array": [[1.0, None], ["inf", 2.0]],
            "b": [0.1, 3, True, [1, [2.5, None]]],
        }
        assert path.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_write_csv_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [[np.float64(0.1), 1 / 3, np.nan, True, False, 7, np.int64(-2), "lasso"]]
        var.write_csv(str(path), ["a", "b", "c", "d", "e", "f", "g", "h"], rows)
        assert path.read_bytes() == b"a,b,c,d,e,f,g,h\r\n0.1,0.3333333333333333,,true,false,7,-2,lasso\r\n"


class TestPsiConvergence:
    def test_psi_close_to_gamma_over_seeds(self):
        # entrywise |Psi_T - Gamma| < 0.01 at T = 10^4 in at least 49 of 50 seeds
        model = var.VarModel(phis=(0.5 * np.eye(10),), sigma=0.01 * np.eye(10))
        gamma = var.population_gamma(model)
        hits = 0
        for seed in range(50):
            data = var.simulate(model, 10_000, seed=seed)
            psi = var.stack(data).psi
            hits += np.abs(psi - gamma).max() < 0.01
        assert hits >= 49

    def test_psi_matches_gamma_multilag(self):
        # p > 1 consistency of stacking, companion embedding and the
        # fixed-point solve: lag-block covariances line up entrywise
        from hdvar import mc

        model, _ = mc.make_dgp("B", 10)
        gamma = var.population_gamma(model)
        data = var.simulate(model, 20_000, seed=1)
        psi = var.stack(data).psi
        # rho = 0.98 gives an autocorrelation time near 25, so entries carry
        # a few percent of sampling noise at this T; indexing mistakes would
        # show up at the 100% level
        scale = np.abs(np.diag(gamma)).max()
        assert np.abs(psi - gamma).max() <= 0.15 * scale


class TestBurnIn:
    def test_burn_in_changes_path_not_moments(self):
        a = var.simulate(ar1(0.5), 20_000, burn_in=100, seed=3)
        b = var.simulate(ar1(0.5), 20_000, burn_in=300, seed=3)
        assert not np.array_equal(a.path, b.path)
        assert abs(a.path.var() - b.path.var()) <= 0.05
