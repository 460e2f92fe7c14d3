"""Command-line interface: simulate, fit, mc, diag, paper-tables.

Exit codes: 0 success, 2 configuration error, 3 non-stationary model,
4 infeasible estimator; 5 is retired and not reused.  Flags override
values from an optional JSON --config file; unknown config keys are rejected.
Given identical configuration and seed, every command writes byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import estimators, mc, theory, var
from .errors import ConfigError, HdvarError, NotStationary, UnknownCombination

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_ESTIMATOR = 4


# flags several commands share; each command registers only those it reads
_SHARED_FLAGS = {
    "seed": lambda p: p.add_argument("--seed", type=int, default=0),
    "threads": lambda p: p.add_argument("--threads", type=int, default=1),
    "format": lambda p: p.add_argument("--format", choices=("csv", "json"), default="csv"),
    "model": lambda p: p.add_argument("--model", help="JSON file with {phis: [[..]..], sigma: [[..]..]}"),
}


# defaults of the diag flags that only the simulate mode reads
_DIAG_SIMULATE = {"seed": 0, "reps": 20}


def _add_common(parser: argparse.ArgumentParser, *shared: str) -> None:
    parser.add_argument("--config", help="JSON file with defaults for this command")
    parser.add_argument("--out", default=".", help="output directory")
    for name in shared:
        _SHARED_FLAGS[name](parser)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The hdvar parser: every command is registered, so --help lists them all,
    but only ``command`` gets its flags, the only ones a run parses."""
    parser = argparse.ArgumentParser(prog="hdvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's help line is its function's docstring
    parsers = {name: sub.add_parser(name, help=run.__doc__) for name, run in _COMMANDS.items()}
    p = parsers.get(command)
    if command == "simulate":
        _add_common(p, "seed", "model")
        p.add_argument("--experiment", choices=tuple(mc.EXPERIMENT_GRID))
        p.add_argument("--k", type=int)
        p.add_argument("--T", type=int, required=True)
        p.add_argument("--burn-in", type=int, dest="burn_in")
        p.add_argument("--name", default="dataset")
    elif command == "fit":
        _add_common(p)
        p.add_argument("--data", required=True, help="directory containing <name>.csv/.meta.json")
        p.add_argument("--name", default="dataset")
        p.add_argument("--estimators", default="lasso", help="comma-separated tags")
        p.add_argument("--lambda", dest="lam", type=float, help="fixed penalty override")
        p.add_argument("--experiment", choices=tuple(mc.EXPERIMENT_GRID), help="DGP for oracle truth")
        p.add_argument("--k", type=int)
    elif command == "mc":
        _add_common(p, "seed", "threads", "format")
        p.add_argument("--experiment", required=True, choices=tuple(mc.EXPERIMENT_GRID))
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--T", type=int, required=True)
        p.add_argument("--reps", type=int, default=100)
        p.add_argument("--estimators", default="lasso", help="comma-separated tags")
    elif command == "diag":
        # diag runs serially; it accepts --threads because perfbench passes it to every command
        _add_common(p, "seed", "threads", "model")
        p.add_argument("--experiment", choices=tuple(mc.EXPERIMENT_GRID))
        p.add_argument("--k", type=int)
        p.add_argument("--T", type=int)
        p.add_argument("--reps", type=int, help=f"default {_DIAG_SIMULATE['reps']}")
        # --seed, --T and --reps apply to simulated replications only; None marks them unset
        p.set_defaults(seed=None)
        p.add_argument("--data", help="load this dataset instead of simulating")
        p.add_argument("--name", default="dataset")
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--a-const", type=float, default=1.0, dest="a_const")
        p.add_argument("--skip-foc", action="store_true", help="omit sign-recovery FOC outcomes")
    elif command == "paper-tables":
        _add_common(p, "seed", "threads")
        p.add_argument("--reps", type=int, default=100)
        p.add_argument("--experiments", default="A,B,C,D")
        p.add_argument("--k-list", default="", help="restrict k values (comma-separated)")
        p.add_argument("--T-list", default="50,100,500", dest="t_list")
        p.add_argument("--estimators", default=",".join(estimators.ESTIMATOR_TAGS), help="comma-separated tags")
    return parser


def _read_json(path: str, what: str):
    """The JSON value held in ``path``; a file that is not JSON is a configuration error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_config(path: str, command_parser) -> dict:
    """The defaults a JSON config file sets, each checked against the command's
    flag of that name as its command-line string would be: a string or number
    through the flag's ``type`` and ``choices``, a boolean for a store_true flag."""
    cfg = _read_json(path, "config file")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {action.dest: action for action in command_parser._actions if action.dest not in ("help", "config")}
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        action = known[key]
        if isinstance(action, argparse._StoreTrueAction):
            valid = isinstance(value, bool)
        else:
            valid = isinstance(value, str) or (action.type is not None and type(value) in (int, float))
            try:
                cfg[key] = (action.type or str)(str(value))
            except ValueError:
                valid = False
            valid = valid and (action.choices is None or cfg[key] in action.choices)
        if not valid:
            raise ConfigError(f"config value {value!r} is not a valid {action.option_strings[0]}")
    return cfg


def _estimator_list(raw: str) -> tuple:
    tags = tuple(t.strip() for t in raw.split(",") if t.strip())
    for tag in tags:
        if tag not in estimators.ESTIMATOR_TAGS:
            raise ConfigError(f"unknown estimator tag {tag!r}")
    if not tags:
        raise ConfigError("no estimators requested")
    if len(set(tags)) < len(tags):
        raise ConfigError(f"estimator tags repeat in {raw!r}")
    return tags


def _load_model(args, data: var.Dataset | None = None) -> tuple:
    """Model plus truth from --experiment/--k or an inline model JSON; the model
    must have the shape of ``data`` when that is given."""
    if args.experiment and args.k is not None:
        try:
            model, truth = mc.make_dgp(args.experiment, args.k)
        except UnknownCombination as exc:
            raise ConfigError(str(exc)) from exc
    elif getattr(args, "model", None):
        payload = _read_json(args.model, "model file")
        if not (isinstance(payload, dict) and {"phis", "sigma"} <= payload.keys()):
            raise ConfigError("model file must hold a JSON object with keys phis and sigma")
        try:
            phis = tuple(np.asarray(P, dtype=np.float64) for P in payload["phis"])
            model = var.VarModel(phis=phis, sigma=np.asarray(payload["sigma"], dtype=np.float64))
        except (TypeError, ValueError) as exc:  # not numbers, or not k x k matrices
            raise ConfigError(f"model file {args.model}: {exc}") from exc
        truth = estimators.SparsityInfo.from_coefficients(var.coefficient_matrix(model))
    else:
        raise ConfigError("specify --experiment with --k, or --model")
    if data is not None and truth.beta.shape != (data.k, data.k * data.p):
        raise ConfigError("truth dimensions do not match the dataset")
    return model, truth


def cmd_simulate(args) -> int:
    """simulate a VAR path to CSV + metadata"""
    if args.T < 1:
        raise ConfigError("--T must be at least one")
    if args.burn_in is not None and args.burn_in < 0:
        raise ConfigError("--burn-in must be nonnegative")
    model, _ = _load_model(args)
    data = var.simulate(model, args.T, burn_in=args.burn_in, seed=args.seed)
    files = var.save_dataset(data, args.out, name=args.name)
    print(f"wrote {files['data']} (k={data.k}, p={data.p}, T={data.T}, rho={var.companion(model).rho:.4f})")
    return EXIT_OK


def _load_dataset(args) -> var.Dataset:
    """The dataset named by --data and --name; a malformed one is a configuration error."""
    try:
        return var.load_dataset(args.data, name=args.name)
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"dataset {args.name} in {args.data} is malformed: {exc!r}") from exc


def cmd_fit(args) -> int:
    """fit estimators to a stored dataset"""
    tags = _estimator_list(args.estimators)
    data = _load_dataset(args)
    truth = None
    if any(t == "oracle_ols" for t in tags):
        if not (args.experiment and args.k is not None):
            raise ConfigError("oracle_ols needs --experiment and --k to reconstruct the truth")
        _, truth = _load_model(args, data)
    if args.lam is not None:
        if not 0 <= args.lam < math.inf:
            raise ConfigError("--lambda must be a finite nonnegative number")
        for tag in tags:
            if tag not in estimators.PENALIZED_TAGS:
                raise ConfigError(f"--lambda does not apply to {tag}")
    plan = estimators.FitPlan(data, truth)
    fits = {tag: plan.fit(tag, args.lam) for tag in tags}
    os.makedirs(args.out, exist_ok=True)
    for tag, fit in fits.items():
        path = os.path.join(args.out, f"fit_{tag}.json")
        var.write_json(path, estimators.system_fit_to_dict(fit))
        sizes = ",".join(str(len(f.active_set)) for f in fit.fits)
        lams = ",".join(f"{f.lambda_selected:.6g}" for f in fit.fits)
        nonconverged = sum(f.feasible and not f.converged for f in fit.fits)
        print(f"{tag}: active sizes [{sizes}] lambda [{lams}] nonconverged {nonconverged}/{fit.k} -> {path}")
    return EXIT_OK if all(fit.feasible for fit in fits.values()) else EXIT_ESTIMATOR


def cmd_mc(args) -> int:
    """run one Monte Carlo experiment"""
    tags = _estimator_list(args.estimators)
    try:
        spec = mc.ExperimentSpec(
            experiment=args.experiment,
            k=args.k,
            T=args.T,
            n_reps=args.reps,
            base_seed=args.seed,
            estimators=tags,
        )
    except (UnknownCombination, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    report = mc.run_experiment(spec, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    stem = f"{spec.experiment}_{spec.k}_{spec.T}"
    if args.format == "csv":
        path = os.path.join(args.out, f"{stem}.csv")
        mc.report_to_csv(report, path)
    else:
        path = os.path.join(args.out, f"{stem}.json")
        mc.report_to_json(report, path)
    counts = " ".join(
        f"{name}: " + " ".join(f"{tag} {c[name]}/{c['fits']}" for tag, c in report.solver.items())
        for name in ("nonconverged", "bic_at_grid_end")
    )
    print(f"wrote {path} ({report.runtime_seconds:.1f}s) {counts}", file=sys.stderr)
    return EXIT_OK


def cmd_diag(args) -> int:
    """finite-sample diagnostics on simulated replications or a stored dataset"""
    try:
        params = theory.TheoryParams(q=args.q, a_const=args.a_const)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.data:
        simulate_only = [f"--{name}" for name in ("seed", "T", "reps") if getattr(args, name) is not None]
        if simulate_only:
            raise ConfigError(f"--data runs on the loaded dataset, so {', '.join(simulate_only)} cannot be set")
        datasets = [_load_dataset(args)]
        model, truth = _load_model(args, datasets[0])
        seed = None
    else:
        model, truth = _load_model(args)
        if args.T is None:
            raise ConfigError("specify --T (or --data)")
        seed = _DIAG_SIMULATE["seed"] if args.seed is None else args.seed
        reps = _DIAG_SIMULATE["reps"] if args.reps is None else args.reps
        if min(args.T, reps) < 1:
            raise ConfigError("--T and --reps must be at least one")
        datasets = [var.simulate(model, args.T, seed=seed + r) for r in range(reps)]
    report = theory.diagnose(model, truth, datasets, params, foc=not args.skip_foc)
    # k, T and reps as run; the seed is None for a loaded dataset, the experiment for a model file
    config = {
        "experiment": args.experiment,
        "k": model.k,
        "T": datasets[0].T,
        "reps": len(datasets),
        "seed": seed,
        "q": args.q,
        "a_const": args.a_const,
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "diagnostics.json")
    var.write_json(path, {"config": config, **report})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_paper_tables(args) -> int:
    """run the full experiment grid and assemble tables"""
    tags = _estimator_list(args.estimators)
    exps = list(dict.fromkeys(e.strip().upper() for e in args.experiments.split(",") if e.strip()))
    for exp in exps:
        if exp not in mc.EXPERIMENT_GRID:
            raise ConfigError(f"unknown experiment {exp!r}")
    # every value is parsed and every cell specified, and so validated, before the first cell runs
    try:
        t_values = list(dict.fromkeys(int(t) for t in args.t_list.split(",") if t.strip()))
        k_filter = {int(v) for v in args.k_list.split(",") if v.strip()}
        specs = [
            mc.ExperimentSpec(exp, k, T, n_reps=args.reps, base_seed=args.seed, estimators=tags)
            for exp in exps
            for k in mc.EXPERIMENT_GRID[exp]
            if not k_filter or k in k_filter
            for T in t_values
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not specs:
        raise ConfigError("no cell of the grid matches --experiments, --k-list and --T-list")
    os.makedirs(args.out, exist_ok=True)
    for exp in exps:
        rows = []
        for spec in (s for s in specs if s.experiment == exp):
            report = mc.run_experiment(spec, threads=args.threads)
            stem = f"{exp}_{spec.k}_{spec.T}"
            mc.report_to_csv(report, os.path.join(args.out, f"{stem}.csv"))
            for tag in tags:
                rows.append([spec.k, spec.T, tag, *(getattr(report.rows[tag], name) for name in mc.METRICS)])
            print(f"{stem} done ({report.runtime_seconds:.1f}s)", file=sys.stderr)
        table_path = os.path.join(args.out, f"table_{exp}.csv")
        header = ["k", "T", "estimator", "uncovered", "included", "share", "n_selected", "rmse", "rmsfe"]
        var.write_csv(table_path, header, rows)
        print(f"wrote {table_path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "mc": cmd_mc,
    "diag": cmd_diag,
    "paper-tables": cmd_paper_tables,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no values, so the first bare word names the command
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = build_parser(command)
    try:
        if command in _COMMANDS:
            # the config is read before the one parse: its values become the
            # command's defaults, so explicit flags win and a required flag the
            # config supplies is satisfied; the subparsers action maps each
            # command name to its parser
            pre = argparse.ArgumentParser(prog=f"hdvar {command}", add_help=False)
            pre.add_argument("--config")
            config = pre.parse_known_args(argv)[0].config
            if config:
                command_parser = next(a.choices for a in parser._actions if a.dest == "command")[command]
                values = _load_config(config, command_parser)
                for action in command_parser._actions:
                    action.required = action.required and action.dest not in values
                command_parser.set_defaults(**values)
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ConfigError("--threads must be an integer of at least one")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse's exit after --help or a usage error
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotStationary as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HdvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
