import functools
import json
import os

import numpy as np
import pytest

from hdvar import cli, estimators, var
from hdvar.solver import lambda_max
from helpers import kkt_check


def run(argv):
    return cli.main(argv)


def sign_fixed_solution(X, y, lam, weights, support):
    """Minimiser of the weighted L1 objective with the given support, all signs positive:
    beta_A = Psi_AA^{-1} (c_A - lam w_A) with Psi = X'X/T and c = X'y/T."""
    T = X.shape[0]
    XA = X[:, support]
    beta = np.zeros(X.shape[1])
    beta[support] = np.linalg.solve(XA.T @ XA / T, XA.T @ y / T - lam * weights[support])
    return beta


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

    def test_nonstationary_exit_code(self, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"phis": [[[1.05]]], "sigma": [[1.0]]}))
        out = tmp_path / "out"
        code = run(["simulate", "--model", str(model_file), "--T", "10", "--out", str(out)])
        assert code == 3
        assert "model is not stationary (rho = 1.050000 >= 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_is_config_error(self, tmp_path):
        code = run(["simulate", "--T", "10", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--T", "-2"], "--T must be at least one"),
            (["--T", "0"], "--T must be at least one"),
            (["--T", "5", "--burn-in", "-3"], "--burn-in must be nonnegative"),
        ],
    )
    def test_bad_length_is_config_error(self, tmp_path, extra, message, capsys):
        out = tmp_path / "out"
        assert run(["simulate", "--experiment", "A", "--k", "10", *extra, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMalformedJson:
    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("config", '{"reps": ', "is not valid JSON"),
            ("model", '{"phis": [[[0.5]]], "sigma": ', "is not valid JSON"),
            ("model", "[[[0.5]]]", "must hold a JSON object with keys phis and sigma"),
            ("model", json.dumps({"sigma": [[1.0]]}), "must hold a JSON object with keys phis and sigma"),
            ("model", json.dumps({"phis": [[[0.5, 0.1]]], "sigma": [[1.0]]}), "each Phi_l must be k x k"),
            ("model", json.dumps({"phis": [[[0.5, 0.0], [0.0, 0.5]]], "sigma": [[1.0, 0.5], [0.1, 1.0]]}), "symmetric"),
            ("model", json.dumps({"phis": [], "sigma": [[1.0]]}), "at least one lag matrix required"),
        ],
    )
    def test_is_config_error_and_writes_nothing(self, tmp_path, command, text, message, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        if command == "config":
            argv = ["mc", "--config", str(bad), "--experiment", "A", "--k", "10", "--T", "20", "--reps", "1"]
        else:
            argv = ["simulate", "--model", str(bad), "--T", "20"]
        assert run(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _rewrite_meta(directory, **changes):
    meta = json.loads((directory / "dataset.meta.json").read_text())
    (directory / "dataset.meta.json").write_text(json.dumps({**meta, **changes}))


class TestMalformedDataset:
    CASES = {
        "meta_not_json": lambda d: (d / "dataset.meta.json").write_text('{"k": 10, "p": '),
        "meta_without_T": lambda d: (d / "dataset.meta.json").write_text(json.dumps({"k": 10, "p": 1})),
        "non_integer_T": lambda d: _rewrite_meta(d, T="twenty"),
        "row_count_differs": lambda d: _rewrite_meta(d, T=21),
        "empty_csv": lambda d: (d / "dataset.csv").write_text(""),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["fit", "diag"])
    def test_is_config_error_and_writes_nothing(self, tmp_path, command, case, capsys):
        data = tmp_path / "data"
        assert run(["simulate", "--experiment", "A", "--k", "10", "--T", "20", "--out", str(data)]) == 0
        self.CASES[case](data)
        out = tmp_path / "out"
        argv = [command, "--data", str(data), "--out", str(out)]
        if command == "diag":
            argv += ["--experiment", "A", "--k", "10"]
        assert run(argv) == 2
        assert "is malformed" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    @pytest.fixture()
    def dataset_dir(self, tmp_path):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "200", "--seed", "1", "--out", str(tmp_path)])
        return tmp_path

    def test_lambda_override_gives_zero_fit(self, dataset_dir, capsys):
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
        payload = json.loads((out / "fit_lasso.json").read_text())
        assert payload["beta"] == [0.0] * 100
        assert "nonconverged 0/10" in capsys.readouterr().out

    @pytest.mark.parametrize("tag", estimators.PENALIZED_TAGS)
    def test_lambda_override_reports_nonconvergence(self, dataset_dir, tag, monkeypatch):
        data = var.load_dataset(str(dataset_dir))
        assert all(f.converged for f in estimators.FitPlan(data).fit(tag, lam=1e-4).fits)
        monkeypatch.setattr(estimators, "lasso_path", functools.partial(estimators.lasso_path, max_iter=1))
        fit = estimators.FitPlan(data).fit(tag, lam=1e-4)
        converged = [f.converged for f in fit.fits]
        assert not all(converged)
        payload = json.loads(json.dumps(estimators.system_fit_to_dict(fit)))
        assert payload["converged"] == converged

    def test_lambda_override_fits_pinned(self, tmp_path):
        model = {"phis": [[[0.5, 0.2, 0.0], [0.0, 0.4, 0.0], [0.1, 0.0, 0.3]]], "sigma": np.eye(3).tolist()}
        (tmp_path / "model.json").write_text(json.dumps(model))
        run(["simulate", "--model", str(tmp_path / "model.json"), "--T", "60", "--seed", "3", "--out", str(tmp_path)])
        tags = "lasso,post_lasso,adaptive_lasso_lasso"
        out = tmp_path / "fits"
        lam = 0.05
        assert run(["fit", "--data", str(tmp_path), "--estimators", tags, "--lambda", str(lam), "--out", str(out)]) == 0
        # the optimum in closed form on the stacked data, every coefficient on these supports positive
        prob = var.stack(var.load_dataset(str(tmp_path)))
        supports = {
            "lasso": [[0, 1, 2], [1, 2], [2]],
            "post_lasso": [[0, 1, 2], [1, 2], [2]],
            "adaptive_lasso_lasso": [[0, 1], [1], [2]],
        }
        # BIC-selected first stage of adaptive_lasso_lasso: (index on the default
        # 100-point grid lambda_max (1 + 1e-10) 10^(-4 l / 99), support)
        first_stage = [(30, [0, 1]), (13, [1]), (23, [2])]
        ones = np.ones(prob.m)
        expected = {tag: [] for tag in supports}
        penalty_weights = {tag: [] for tag in supports}
        for i, (grid_index, first_support) in enumerate(first_stage):
            X, y = prob.X, prob.ys[i]
            expected["lasso"].append(sign_fixed_solution(X, y, lam, ones, supports["lasso"][i]))
            penalty_weights["lasso"].append(None)
            post = np.zeros(prob.m)
            post[supports["post_lasso"][i]] = np.linalg.lstsq(X[:, supports["post_lasso"][i]], y, rcond=None)[0]
            expected["post_lasso"].append(post)
            grid_lam = lambda_max(X, y) * (1.0 + 1e-10) * np.logspace(0.0, -4.0, 100)[grid_index]
            first = sign_fixed_solution(X, y, grid_lam, ones, first_support)
            with np.errstate(divide="ignore"):
                weights = np.where(first != 0.0, 1.0 / np.abs(first), np.inf)
            expected["adaptive_lasso_lasso"].append(
                sign_fixed_solution(X, y, lam, weights, supports["adaptive_lasso_lasso"][i])
            )
            penalty_weights["adaptive_lasso_lasso"].append(weights)
        for tag, active_sets in supports.items():
            payload = json.loads((out / f"fit_{tag}.json").read_text())
            assert payload["beta"] == pytest.approx(np.concatenate(expected[tag]), rel=1e-12, abs=0.0)
            assert payload["active_sets"] == active_sets
            assert payload["lambda_per_equation"] == [lam] * 3
            assert payload["feasible"] == [True] * 3
            assert payload["converged"] == [True] * 3
            beta = np.reshape(payload["beta"], (3, prob.m))
            for i, weights in enumerate(penalty_weights[tag]):
                assert kkt_check(prob.X, prob.ys[i], beta[i], lam, weights) <= 1e-7

    @pytest.mark.parametrize(
        "tags, lam", [("lasso,full_ols", "0.1"), ("oracle_ols", "0.1"), ("lasso", "-1"), ("lasso", "nan")]
    )
    def test_lambda_override_config_errors(self, dataset_dir, tags, lam):
        argv = ["fit", "--data", str(dataset_dir), "--estimators", tags, "--lambda", lam, "--experiment", "A"]
        assert run(argv + ["--k", "10", "--out", str(dataset_dir / "fits")]) == 2

    @pytest.mark.parametrize("lam", ["inf", "-inf", "Infinity"])
    def test_nonfinite_lambda_writes_nothing(self, dataset_dir, lam, capsys):
        # an infinite penalty would reach lambda_per_equation as a bare Infinity token, which is not JSON
        out = dataset_dir / "fits"
        assert run(["fit", "--data", str(dataset_dir), f"--lambda={lam}", "--out", str(out)]) == 2
        assert "--lambda must be a finite nonnegative number" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_fit_strict_json(self, tmp_path, capsys):
        # m = kp = 50 >= T = 40: full OLS is infeasible in every equation and its lambda undefined
        run(["simulate", "--experiment", "C", "--k", "10", "--T", "40", "--out", str(tmp_path)])
        out = tmp_path / "fits"
        assert run(["fit", "--data", str(tmp_path), "--estimators", "full_ols", "--out", str(out)]) == 4

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads((out / "fit_full_ols.json").read_text(), parse_constant=reject)
        assert payload["lambda_per_equation"] == [None] * 10
        assert payload["feasible"] == payload["converged"] == [False] * 10
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("full_ols:"))
        assert "nonconverged 0/10" in line  # infeasible equations never iterated

    def test_collinear_series_make_full_ols_infeasible(self, tmp_path):
        # perfectly correlated innovations of equal scale give two identical series,
        # so the lagged design has two equal columns
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"phis": [[[0.5, 0.0], [0.0, 0.5]]], "sigma": [[0.01, 0.01], [0.01, 0.01]]}))
        assert run(["simulate", "--model", str(model), "--T", "60", "--out", str(tmp_path)]) == 0
        data = var.load_dataset(str(tmp_path))
        assert np.array_equal(data.path[:, 0], data.path[:, 1])
        out = tmp_path / "fits"
        assert run(["fit", "--data", str(tmp_path), "--estimators", "full_ols", "--out", str(out)]) == 4
        assert json.loads((out / "fit_full_ols.json").read_text())["feasible"] == [False, False]
        assert estimators.FitPlan(data).equation("full_ols", 0).failure == "singular_design"

    def test_oracle_without_truth_is_config_error(self, dataset_dir):
        code = run(["fit", "--data", str(dataset_dir), "--estimators", "oracle_ols", "--out", str(dataset_dir)])
        assert code == 2

    def test_fit_export_reload_identical_forecasts(self, dataset_dir):
        out = dataset_dir / "fits"
        code = run(["fit", "--data", str(dataset_dir), "--estimators", "lasso", "--out", str(out)])
        assert code == 0
        data = var.load_dataset(str(dataset_dir))
        payload = json.loads((out / "fit_lasso.json").read_text())
        direct = estimators.FitPlan(data).fit("lasso")
        assert payload["active_sets"] == [f.active_set.tolist() for f in direct.fits]
        a = var.forecast_one_step(direct.coefficients, data)
        b = var.forecast_one_step(np.reshape(payload["beta"], (payload["k"], payload["kp"])), data)
        assert np.array_equal(a, b)

    def test_format_is_not_a_fit_option(self, dataset_dir):
        argv = ["fit", "--data", str(dataset_dir), "--out", str(dataset_dir / "fits")]
        assert run(argv + ["--format", "json"]) == 2
        cfg = dataset_dir / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        assert run(argv + ["--config", str(cfg)]) == 2
        assert not (dataset_dir / "fits").exists()
        assert run(argv) == 0

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

    def test_summary_line_counts_grid_end(self, tmp_path, capsys):
        argv = ["mc", "--experiment", "A", "--k", "10", "--T", "200", "--reps", "2", "--seed", "5"]
        assert run(argv + ["--estimators", "lasso,adaptive_lasso_lasso", "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().err.strip()
        assert line.startswith(f"wrote {tmp_path / 'A_10_200.csv'} (")
        # the adaptive stage ends with every finite-weight coordinate active in 19 of 20 equations
        assert line.endswith(
            "nonconverged: lasso 0/20 adaptive_lasso_lasso 0/20 bic_at_grid_end: lasso 0/20 adaptive_lasso_lasso 19/20"
        )

    def test_invalid_combination_is_config_error(self, tmp_path):
        code = run(
            ["mc", "--experiment", "B", "--k", "100", "--T", "100", "--reps", "1", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "T, reps, message",
        [("50", "0", "at least one replication"), ("50", "-2", "at least one replication"), ("-3", "1", "T must")],
    )
    def test_nonpositive_T_or_reps_is_config_error(self, tmp_path, T, reps, message, capsys):
        out = tmp_path / "out"
        assert run(["mc", "--experiment", "A", "--k", "10", "--T", T, "--reps", reps, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCommandValidation:
    """Configuration errors of fit, mc, diag and paper-tables exit 2 before any file is written."""

    @pytest.fixture
    def dataset_dir(self, tmp_path):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "50", "--out", str(tmp_path)])
        return tmp_path

    def command(self, name, dataset_dir):
        return {
            "fit": ["fit", "--data", str(dataset_dir)],
            "mc": ["mc", "--experiment", "A", "--k", "10", "--T", "50", "--reps", "1"],
            "diag": ["diag", "--experiment", "A", "--k", "10", "--T", "50", "--reps", "1", "--skip-foc"],
            "paper-tables": ["paper-tables", "--reps", "1", "--experiments", "A", "--k-list", "10", "--T-list", "50"],
        }[name]

    @pytest.mark.parametrize("name", ["fit", "mc", "paper-tables"])
    @pytest.mark.parametrize("tags", ["lasso,lasso", "lasso,oracle_ols, lasso"])
    def test_repeated_estimator_tag(self, dataset_dir, name, tags, capsys):
        out = dataset_dir / "out"
        assert run(self.command(name, dataset_dir) + ["--estimators", tags, "--out", str(out)]) == 2
        assert "estimator tags repeat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["mc", "diag", "paper-tables"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one(self, dataset_dir, name, threads, capsys):
        out = dataset_dir / "out"
        assert run(self.command(name, dataset_dir) + ["--threads", threads, "--out", str(out)]) == 2
        assert "--threads must be an integer of at least one" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_below_one_from_config(self, dataset_dir):
        # argparse converts flags and string defaults only, so a config file can carry other JSON values
        cfg = dataset_dir / "cfg.json"
        out = dataset_dir / "out"
        for command in ("mc", "diag"):
            for value in (0, None, "0", 1.5, True):
                cfg.write_text(json.dumps({"threads": value}))
                assert run(self.command(command, dataset_dir) + ["--config", str(cfg), "--out", str(out)]) == 2
                assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            ("mc --experiment A --k 10 --T 30 --reps 1", {"seed": 1.5}),
            ("mc --experiment A --k 10 --T 30 --reps 1", {"estimators": 5}),
            ("mc --experiment A --k 10 --T 30", {"reps": 2.5}),
            ("mc --experiment A --k 10 --T 30 --reps 1", {"seed": None}),
            ("mc --experiment A --k 10 --T 30 --reps 1", {"reps": True}),
            ("mc --experiment A --k 10 --T 30 --reps 1", {"format": "xml"}),
            ("diag --skip-foc", {"experiment": "A", "k": 10, "T": 30.5, "reps": 1}),
            ("diag --skip-foc", {"experiment": "A", "k": 10, "T": 30, "reps": 1, "q": [1]}),
            ("diag --experiment A --k 10 --T 30 --reps 1", {"skip_foc": 1}),
            ("diag --experiment A --k 10 --T 30 --reps 1", {"experiment": {"A": 1}}),
            ("paper-tables --reps 1 --experiments A --k-list 10 --T-list 50", {"seed": 2.5}),
        ],
    )
    def test_config_value_of_the_wrong_kind(self, tmp_path, argv, config, capsys):
        # argparse converts only string defaults; each config value goes through its flag's type and choices
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(argv.split() + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "is not a valid --" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--q", "0"], "q must lie strictly between 0 and 1"),
            (["--q", "1"], "q must lie strictly between 0 and 1"),
            (["--q", "-0.5"], "q must lie strictly between 0 and 1"),
            (["--q", "nan"], "q must lie strictly between 0 and 1"),
            (["--a-const", "0"], "a_const must be positive"),
            (["--a-const", "-1"], "a_const must be positive"),
            (["--a-const", "nan"], "a_const must be positive"),
        ],
    )
    def test_diag_theory_constants(self, dataset_dir, flags, message, capsys):
        out = dataset_dir / "out"
        assert run(self.command("diag", dataset_dir) + [*flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["simulate", "diag", "diag --data", "fit"])
    def test_k_zero_reaches_the_design_check(self, dataset_dir, name, capsys):
        # --k 0 is a value, not a missing flag
        out = dataset_dir / "out"
        argv = {
            "simulate": ["simulate", "--T", "5"],
            "diag": ["diag", "--T", "5"],
            "diag --data": ["diag", "--data", str(dataset_dir)],
            "fit": ["fit", "--data", str(dataset_dir), "--estimators", "oracle_ols"],
        }[name]
        assert run(argv + ["--experiment", "A", "--k", "0", "--out", str(out)]) == 2
        assert "experiment 'A' with k=0 is not in the design" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_shared_flags_only_where_read(self):
        shared = {"seed", "threads", "format"}
        registered = {
            name: shared & {action.dest for action in p._actions}
            for name, p in cli.build_parser()._command_parsers.items()
        }
        assert registered == {
            "simulate": {"seed"},
            "fit": set(),
            "mc": {"seed", "threads", "format"},
            "diag": {"seed", "threads"},
            "paper-tables": {"seed", "threads"},
        }

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
        assert (payload["config"]["T"], payload["config"]["reps"], payload["config"]["seed"]) == (100, 2, 0)
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
        thm3 = theory.thm3_bounds(1, bounds["lambda_t"], fresh, 0.5)
        assert bounds["thm3"] == [thm3] * 10
        assert bounds["system_bound"] == pytest.approx(10 * thm3["est_bound"], rel=1e-12)

    def test_data_mode_records_the_dataset_it_ran(self, tmp_path):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "60", "--out", str(tmp_path)])
        argv = ["diag", "--data", str(tmp_path), "--experiment", "A", "--k", "10", "--skip-foc"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert len(payload["replications"]) == 1
        assert (payload["config"]["T"], payload["config"]["reps"]) == (60, 1)
        # the dataset's meta.json records no seed, so the config holds none
        assert payload["config"]["seed"] is None

    @pytest.mark.parametrize(
        "extra", [["--reps", "7"], ["--T", "999"], ["--seed", "4"], ["--seed", "0"], {"reps": 20}, {"seed": 0}]
    )
    def test_data_mode_rejects_simulation_flags(self, tmp_path, extra, capsys):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "60", "--seed", "4", "--out", str(tmp_path)])
        argv = ["diag", "--data", str(tmp_path), "--experiment", "A", "--k", "10", "--skip-foc", "--out", str(tmp_path)]
        flag = f"--{next(iter(extra))}" if isinstance(extra, dict) else extra[0]
        if isinstance(extra, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(extra))
            extra = ["--config", str(cfg)]
        assert run(argv + extra) == 2
        assert f"so {flag} cannot be set" in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.json").exists()

    def test_diag_without_innovations_exit_5(self, tmp_path, capsys):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "50", "--out", str(tmp_path)])
        os.remove(tmp_path / "dataset.innovations.csv")
        meta = json.loads((tmp_path / "dataset.meta.json").read_text())
        meta.pop("innovations_file")
        (tmp_path / "dataset.meta.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        code = run(["diag", "--data", str(tmp_path), "--experiment", "A", "--k", "10", "--out", str(out)])
        assert code == 5
        assert "the dataset has no innovation record" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("T, reps", [("50", "0"), ("50", "-1"), ("-5", "2"), ("0", "2")])
    def test_nonpositive_T_or_reps_is_config_error(self, tmp_path, T, reps, capsys):
        out = tmp_path / "out"
        argv = ["diag", "--experiment", "A", "--k", "10", "--T", T, "--reps", reps, "--skip-foc"]
        assert run(argv + ["--out", str(out)]) == 2
        assert "--T and --reps must be at least one" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["simulate", "data"])
    def test_a_single_observation_is_config_error(self, tmp_path, mode, capsys):
        out = tmp_path / "out"
        argv = ["diag", "--experiment", "A", "--k", "10", "--skip-foc", "--out", str(out)]
        if mode == "simulate":
            argv += ["--T", "1", "--reps", "1"]
        else:
            assert run(["simulate", "--experiment", "A", "--k", "10", "--T", "1", "--out", str(tmp_path)]) == 0
            argv += ["--data", str(tmp_path)]
        assert run(argv) == 2
        assert "diagnostics need at least two observations, and T = 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, k", [("A", "20"), ("B", "10")])
    def test_data_mode_rejects_a_model_of_another_shape(self, tmp_path, experiment, k, capsys):
        run(["simulate", "--experiment", "A", "--k", "10", "--T", "50", "--out", str(tmp_path)])
        out = tmp_path / "out"
        argv = ["diag", "--data", str(tmp_path), "--experiment", experiment, "--k", k, "--out", str(out)]
        assert run(argv) == 2
        assert "truth dimensions do not match the dataset" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "bad",
        [
            ["--T-list", "50,abc"],
            ["--T-list", "50,0"],
            ["--k-list", "x"],
            ["--k-list", "7"],
            ["--experiments", "D,E"],
            ["--reps", "0"],
            ["--reps", "-3"],
        ],
    )
    def test_bad_values_write_nothing(self, tmp_path, bad):
        # every value is checked before the first cell runs: no cell report, no table
        out = tmp_path / "out"
        argv = ["paper-tables", "--reps", "1", "--experiments", "D", "--k-list", "10", "--T-list", "50"]
        assert run(argv + ["--estimators", "lasso", *bad, "--out", str(out)]) == 2
        assert not out.exists()
