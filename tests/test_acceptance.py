"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy Monte Carlo
fixtures are shared across criteria; every tolerance is pinned here, not
computed at run time.
"""

import itertools
import json
import time

import numpy as np
import pytest

from hdvar import cli, estimators, mc, theory, var
from hdvar.solver import lambda_max, lasso_path
from helpers import (
    kkt_check,
    least_squares,
    objective,
    phi_min_on,
    problem_from,
    random_spd,
    realized_sign_recovery,
    restricted_eigenvalue_bruteforce,
)
from test_solver import grid_search_2d

KKT_TOL = 1e-7
N_REPS = 100
THREADS = 4


def announce(num, ok, detail):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def exp_a_lasso_run():
    """Criterion 1's timed run: LASSO only, Experiment A, k=10, T=500."""
    spec = mc.ExperimentSpec("A", 10, 500, n_reps=N_REPS, base_seed=0, estimators=("lasso",))
    start = time.perf_counter()
    report = mc.run_experiment(spec, threads=THREADS)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def exp_a_full_run():
    """Shared Experiment A run with the full estimator menu (criteria 2-3)."""
    spec = mc.ExperimentSpec(
        "A",
        10,
        500,
        n_reps=N_REPS,
        base_seed=0,
        estimators=(
            "lasso",
            "post_lasso",
            "adaptive_lasso_lasso",
            "adaptive_lasso_ridge",
            "oracle_ols",
            "full_ols",
        ),
    )
    return mc.run_experiment(spec, threads=THREADS)


@pytest.fixture(scope="module")
def exp_d_run():
    spec = mc.ExperimentSpec(
        "D", 10, 500, n_reps=N_REPS, base_seed=0, estimators=("lasso", "oracle_ols")
    )
    return mc.run_experiment(spec, threads=THREADS)


def test_criterion_01_lasso_screening_and_runtime(exp_a_lasso_run):
    report, elapsed = exp_a_lasso_run
    row = report.rows["lasso"]
    ok = row.share_relevant >= 0.98 and row.true_model_included >= 0.90 and elapsed < 120.0
    announce(
        1,
        ok,
        f"ExpA lasso share={row.share_relevant:.3f} (>=0.98) "
        f"included={row.true_model_included:.2f} (>=0.90) runtime={elapsed:.1f}s (<120s)",
    )
    assert row.share_relevant >= 0.98
    assert row.true_model_included >= 0.90
    assert elapsed < 120.0


def test_criterion_02_adaptive_uncovered_frequencies(exp_a_full_run):
    ridge_row = exp_a_full_run.rows["adaptive_lasso_ridge"]
    lasso_row = exp_a_full_run.rows["adaptive_lasso_lasso"]
    ok = 0.30 <= ridge_row.true_model_uncovered <= 0.70 and 0.15 <= lasso_row.true_model_uncovered <= 0.55
    announce(
        2,
        ok,
        f"uncovered ridge-init={ridge_row.true_model_uncovered:.2f} (in [0.30,0.70]) "
        f"lasso-init={lasso_row.true_model_uncovered:.2f} (in [0.15,0.55])",
    )
    assert 0.30 <= ridge_row.true_model_uncovered <= 0.70
    assert 0.15 <= lasso_row.true_model_uncovered <= 0.55


def test_criterion_03_rmse_ordering(exp_a_full_run):
    r = {tag: exp_a_full_run.rows[tag].rmse for tag in exp_a_full_run.rows}
    ordered = (
        r["oracle_ols"] < r["adaptive_lasso_lasso"] < r["lasso"] < r["full_ols"]
        and r["oracle_ols"] < r["adaptive_lasso_ridge"] < r["lasso"]
    )
    in_band = 0.18 <= r["lasso"] <= 0.40
    announce(
        3,
        ordered and in_band,
        "rmse oracle=%.3f < adaptive=(%.3f, %.3f) < lasso=%.3f (in [0.18,0.40]) < full=%.3f"
        % (r["oracle_ols"], r["adaptive_lasso_lasso"], r["adaptive_lasso_ridge"], r["lasso"], r["full_ols"]),
    )
    assert ordered
    assert in_band


def test_criterion_04_experiment_d(exp_d_run):
    lasso_row = exp_d_run.rows["lasso"]
    oracle_row = exp_d_run.rows["oracle_ols"]
    ok = lasso_row.rmse < oracle_row.rmse and 0.095 <= lasso_row.rmsfe <= 0.11
    announce(
        4,
        ok,
        f"ExpD lasso rmse={lasso_row.rmse:.3f} < oracle rmse={oracle_row.rmse:.3f}; "
        f"rmsfe={lasso_row.rmsfe:.4f} (in [0.095,0.11])",
    )
    assert lasso_row.rmse < oracle_row.rmse
    assert 0.095 <= lasso_row.rmsfe <= 0.11


def test_criterion_05_companion_spectral_radii():
    # Targets 0.98 and 0.92 at 1e-3.  The exact radii implied by the block
    # coefficients are 0.978731 (B) and exactly 0.95 (C; its lag polynomial
    # telescopes to (1 - 0.95^6 L^6)/(1 + 0.95 L), all roots at modulus 0.95),
    # so the targets are not attainable as stated; the assertions record that.
    rho_b = var.companion(mc.make_dgp("B", 10)[0]).rho
    rho_c = var.companion(mc.make_dgp("C", 10)[0]).rho
    ok = abs(rho_b - 0.98) <= 1e-3 and abs(rho_c - 0.92) <= 1e-3
    announce(5, ok, f"rho(B)={rho_b:.6f} (target 0.98±1e-3), rho(C)={rho_c:.6f} (target 0.92±1e-3)")
    assert abs(rho_b - 0.98) <= 1e-3, f"B companion radius {rho_b:.6f} misses 0.98±1e-3"
    assert abs(rho_c - 0.92) <= 1e-3, f"C companion radius {rho_c:.6f} misses 0.92±1e-3"


def test_criterion_06_theorem1_deterministic_suite():
    model, truth = mc.make_dgp("A", 10)
    T = 100
    st = var.sigma_t(model)
    lam = theory.lambda_theorem1(T, 10, 1, st)
    kt = theory.k_t(T, 10, 1, st)
    gamma = var.population_gamma(model)
    start = time.perf_counter()
    n_bt = violations = 0
    worst = np.inf
    for seed in range(500):
        data = var.simulate(model, T, seed=seed)
        problem = var.stack(data)
        flags = theory.event_flags(
            problem,
            theory.cross_moments(problem, truth),
            gamma=gamma,
            lambda_t=lam,
            c_threshold=1.0,
            k_t_value=kt,
        )
        if not flags["b_t"]:
            continue
        n_bt += 1
        for i in range(10):
            beta = lasso_path(problem, i, lam=lam).beta[0]
            checks = theory.thm1_rhs_check(problem, i, beta, truth, lam)
            for c in checks.values():
                worst = min(worst, c["slack"])
                if c["slack"] < -10 * KKT_TOL:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    announce(
        6,
        ok,
        f"500 reps, b_t true in {n_bt}, violations={violations}, "
        f"min slack={worst:.3e}, runtime={elapsed:.1f}s (<300s)",
    )
    assert violations == 0
    assert elapsed < 300.0


def test_criterion_07_restricted_eigenvalue_oracle(monkeypatch):
    rng = np.random.Generator(np.random.Philox(777))
    worst_rel = 0.0
    for trial in range(20):
        m = int(rng.integers(3, 7))
        r = int(rng.integers(1, 3))
        psi = random_spd(rng, m)
        monkeypatch.setattr(theory, "RE_SEED", trial)
        est = theory.restricted_eigenvalue(psi, r)
        oracle = restricted_eigenvalue_bruteforce(psi, r)
        rel = abs(est - oracle) / max(abs(oracle), 1e-12)
        worst_rel = max(worst_rel, rel)
    monkeypatch.undo()
    ident = theory.restricted_eigenvalue(np.eye(6), 2)
    ok = worst_rel <= 0.02 and abs(ident - 1.0) <= 1e-6
    announce(7, ok, f"20 instances, worst rel err={worst_rel:.4f} (<=0.02); RE(I)={ident:.8f}")
    assert worst_rel <= 0.02
    assert abs(ident - 1.0) <= 1e-6


def test_criterion_08_perturbation_inequality():
    rng = np.random.Generator(np.random.Philox(888))
    violations = 0
    for pair in range(50):
        m = int(rng.integers(4, 10))
        A = random_spd(rng, m)
        E = rng.uniform(-1.0, 1.0, (m, m)) * 10.0 ** rng.uniform(-4, -1)
        E = (E + E.T) / 2.0
        B = A + E
        delta = float(np.abs(E).max())
        s = int(rng.integers(1, m))
        J = rng.choice(m, size=s, replace=False)
        mask = np.zeros(m, bool)
        mask[J] = True
        V = rng.standard_normal((10_000, m))
        on = np.abs(V[:, mask]).sum(axis=1)
        off = np.abs(V[:, ~mask]).sum(axis=1)
        scale = np.where(off > 3 * on, np.divide(3 * on, off, out=np.ones_like(off), where=off > 0), 1.0)
        V[:, ~mask] *= scale[:, None]
        lhs = np.einsum("ni,ij,nj->n", V, B, V)
        rhs = np.einsum("ni,ij,nj->n", V, A, V) - 16.0 * s * delta * np.sum(V[:, mask] ** 2, axis=1)
        violations += int(np.sum(lhs < rhs - 1e-12 * np.maximum(1.0, np.abs(lhs))))
    ok = violations == 0
    announce(8, ok, f"50 pairs x 10^4 cone vectors, violations={violations}")
    assert violations == 0


def test_criterion_09_foc_equivalence():
    model = var.VarModel(phis=(0.5 * np.eye(5),), sigma=0.01 * np.eye(5))
    truth = estimators.SparsityInfo.from_coefficients(var.coefficient_matrix(model))
    params = theory.TheoryParams()
    st = var.sigma_t(model)
    kt = theory.k_t(200, 5, 1, st)
    phi_min = phi_min_on(var.population_gamma(model), truth.supports[0])
    lam_thm = theory.lambda_theorem1(200, 5, 1, st)
    checked = mismatches = 0
    for seed in range(100):
        data = var.simulate(model, 200, seed=seed)
        problem = var.stack(data)
        i = 0
        stage1 = estimators.FitPlan(problem).lasso(i).beta
        with np.errstate(divide="ignore"):
            w = np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)
        lams = [lam_thm]
        if np.isfinite(w).any():
            lmaxw = lambda_max(problem, i, w)
            lams += [0.5 * lmaxw, 0.1 * lmaxw, 0.01 * lmaxw]
        for lam in lams:
            report = theory.sign_recovery_conditions(
                problem,
                i,
                stage1,
                lam,
                truth,
                params,
                phi_min=phi_min,
                k_t_value=kt,
                cross=theory.cross_moments(problem, truth),
            )
            if report["psi_jj_condition"] >= 1e8:
                continue
            realized = realized_sign_recovery(problem, i, stage1, lam, truth)
            checked += 1
            mismatches += report["foc_ok"] != realized
    ok = mismatches == 0 and checked >= 100
    announce(9, ok, f"{checked} well-conditioned cases, verdict mismatches={mismatches}")
    assert checked >= 100
    assert mismatches == 0


def test_criterion_10_solver_oracle():
    rng = np.random.Generator(np.random.Philox(999))
    worst_gap = 0.0
    worst_kkt = 0.0
    for trial in range(25):
        T = 20
        X = rng.standard_normal((T, 2))
        beta = rng.uniform(-1.5, 1.5, 2)
        y = X @ beta + 0.5 * rng.standard_normal(T)
        problem = problem_from(X, y)
        lam = float(rng.uniform(0.05, 0.6)) * lambda_max(problem, 0)
        path = lasso_path(problem, 0, lam=lam)
        assert path.converged[0]
        worst_kkt = max(worst_kkt, kkt_check(X, y, path.beta[0], lam))
        _, f_grid = grid_search_2d(X, y, lam)
        gap = objective(X, y, path.beta[0], lam) - f_grid
        worst_gap = max(worst_gap, gap)
    # unpenalized fits against the QR least-squares reference
    worst_ols = 0.0
    for trial in range(5):
        X = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        beta = lasso_path(problem_from(X, y), 0, lam=0.0).beta[0]
        worst_ols = max(worst_ols, float(np.abs(beta - least_squares(X, y)).max()))
    ok = worst_gap <= 1e-5 and worst_kkt <= KKT_TOL and worst_ols <= 1e-6
    announce(
        10,
        ok,
        f"grid gap={worst_gap:.2e} (<=1e-5), kkt={worst_kkt:.2e} (<=1e-7), ols diff={worst_ols:.2e} (<=1e-6)",
    )
    assert worst_gap <= 1e-5
    assert worst_kkt <= KKT_TOL
    assert worst_ols <= 1e-6


def test_criterion_11_lyapunov_residuals():
    worst = 0.0
    details = []
    for exp, ks in mc.EXPERIMENT_GRID.items():
        model, _ = mc.make_dgp(exp, max(ks))
        form = var.companion(model)
        gamma = var.population_gamma(model)
        resid = float(np.abs(gamma - form.F @ gamma @ form.F.T - form.omega).max())
        details.append(f"{exp}:k={max(ks)}:{resid:.1e}")
        worst = max(worst, resid)
    ok = worst <= 1e-8
    announce(11, ok, "residuals " + " ".join(details) + f" (max {worst:.1e} <= 1e-8)")
    assert worst <= 1e-8


def test_criterion_12_cmd_mc_thread_determinism(tmp_path):
    outputs = {}
    for threads in (1, 4):
        for attempt in ("a", "b"):
            out = tmp_path / f"t{threads}{attempt}"
            code = cli.main(
                [
                    "mc",
                    "--experiment",
                    "A",
                    "--k",
                    "10",
                    "--T",
                    "100",
                    "--reps",
                    "20",
                    "--estimators",
                    "lasso,oracle_ols",
                    "--seed",
                    "11",
                    "--threads",
                    str(threads),
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs[(threads, attempt)] = (out / "A_10_100.json").read_bytes()
    reference = outputs[(1, "a")]
    ok = all(blob == reference for blob in outputs.values())
    announce(12, ok, f"4 runs (threads 1/4, repeated), byte-identical={ok}")
    assert ok
