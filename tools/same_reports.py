"""Check that two source trees write byte-identical hdvar reports.

    python3 tools/same_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  The
commands are windows 0-9 of every gated workload in perfbench/workloads.py
(``WORKLOADS[name].argv``), then the commands of ``UNGATED``, then the ``fit``
and ``diag --data`` commands of ``LOADED`` on the datasets of ``DATASETS``,
which `hdvar simulate` writes once under the parent tree.  Each command runs
once under each tree, in a subprocess with PYTHONPATH set to that tree and
OPENBLAS_NUM_THREADS=1, and the two trees' report files are compared byte for
byte: one report for ``mc`` and ``diag``, one ``fit_{tag}.json`` per estimator
tag for ``fit``, the data and metadata files for ``simulate``, and every table
and cell report for ``paper-tables``.
One line per report says identical or differs.  A report that only one tree
writes, or neither, differs.  For a report that both trees write and that differs
it also gives the largest relative difference of a float field, and the
first field that differs otherwise: an integer, boolean, string or null, or a
field only one report has.  A JSON report's fields are its leaves, a CSV
report's its cells, each an integer, a float or a string as it parses.  The
exit code is 1 if any report differs or any command fails, else 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import FULL_MENU, WINDOWS, WORKLOADS  # noqa: E402

# (label, hdvar arguments without --out, report files) of commands that reach what
# no gated workload does: the sampled restricted-eigenvalue search and supports
# of more than one coordinate (diag on B, C and D), the mc JSON report, the
# replications a pool of worker processes runs (--threads 2), more
# regressors than observations (C/10/40 has m = 50 > T = 40), a near-saturated
# OLS cell (D/20/25 has m = 20 < T = 25 and all 20 coordinates in every true
# support, so its Gram solves are the worst conditioned), the dataset files of
# `simulate`, and the cell reports and tables of `paper-tables`, whose C/10/40
# post-LASSO and full OLS rows are infeasible and so blank
UNGATED = (
    ("diag B/10/60", ("diag", "--experiment", "B", "--k", "10", "--T", "60", "--reps", "2"), ("diagnostics.json",)),
    ("diag C/10/80", ("diag", "--experiment", "C", "--k", "10", "--T", "80", "--reps", "2"), ("diagnostics.json",)),
    ("diag D/10/60", ("diag", "--experiment", "D", "--k", "10", "--T", "60", "--reps", "2"), ("diagnostics.json",)),
    (
        "mc A/10/60 json",
        ("mc", "--experiment", "A", "--k", "10", "--T", "60", "--reps", "2", "--format", "json")
        + ("--estimators", FULL_MENU),
        ("A_10_60.json",),
    ),
    (
        "mc A/10/60 json threads 2",
        ("mc", "--experiment", "A", "--k", "10", "--T", "60", "--reps", "3", "--threads", "2", "--format", "json")
        + ("--estimators", FULL_MENU),
        ("A_10_60.json",),
    ),
    (
        "mc C/10/40 json",
        ("mc", "--experiment", "C", "--k", "10", "--T", "40", "--reps", "3", "--format", "json"),
        ("C_10_40.json",),
    ),
    (
        "mc D/20/25 json",
        ("mc", "--experiment", "D", "--k", "20", "--T", "25", "--reps", "2", "--format", "json")
        + ("--estimators", "lasso,post_lasso,oracle_ols,full_ols"),
        ("D_20_25.json",),
    ),
    (
        "simulate C/10/40",
        ("simulate", "--experiment", "C", "--k", "10", "--T", "40", "--seed", "3"),
        ("dataset.csv", "dataset.meta.json"),
    ),
    (
        "paper-tables A,C/10/40,60",
        ("paper-tables", "--reps", "2", "--experiments", "A,C", "--k-list", "10", "--T-list", "40,60")
        + ("--estimators", FULL_MENU),
        ("table_A.csv", "table_C.csv", "A_10_40.csv", "A_10_60.csv", "C_10_40.csv", "C_10_60.csv"),
    ),
)


# (directory, hdvar simulate arguments without --out) of the datasets the fit
# commands load: A/10/60, and C/10/40 with m = 50 > T = 40
DATASETS = (
    ("A_10_60", ("--experiment", "A", "--k", "10", "--T", "60", "--seed", "0")),
    ("C_10_40", ("--experiment", "C", "--k", "10", "--T", "40", "--seed", "0")),
)


def _fit(label: str, dataset: str, args: tuple, tags: list) -> tuple:
    """The ``LOADED`` entry of a fit command with estimator tags ``tags``."""
    return label, dataset, ("fit", *args, "--estimators", ",".join(tags)), tuple(f"fit_{tag}.json" for tag in tags)


# (label, dataset, hdvar arguments without --data and --out, report files) of
# the commands that load a dataset.  The fit commands reach what no mc or diag
# report does: fixed-lambda adaptive fits and the fit JSON; at --lambda 1e-4
# every tag selects a nonzero fit.  diag --data reaches the loaded-data path of
# the diagnostics.
LOADED = (
    _fit("fit A/10/60", "A_10_60", ("--experiment", "A", "--k", "10"), FULL_MENU.split(",")),
    _fit("fit A/10/60 lambda 1e-4", "A_10_60", ("--lambda", "1e-4"), FULL_MENU.split(",")[:4]),
    _fit("fit C/10/40", "C_10_40", (), ["lasso", "adaptive_lasso_lasso", "adaptive_lasso_ridge"]),
    ("diag A/10/60 --data", "A_10_60", ("diag", "--experiment", "A", "--k", "10"), ("diagnostics.json",)),
)


def commands(data_root: str):
    """(label, argv builder taking the output directory, report files) of every
    compared command; the ``LOADED`` commands load their datasets from ``data_root``."""
    for workload in (w for w in WORKLOADS.values() if w.gated):
        for window in range(WINDOWS):
            yield f"{workload.name} window {window}", functools.partial(workload.argv, window), [workload.report_name]
    for label, args, report_names in UNGATED:
        yield label, lambda out_dir, args=args: [*args, "--out", out_dir], list(report_names)
    for label, dataset, args, report_names in LOADED:
        args = (*args, "--data", os.path.join(data_root, dataset))
        yield label, lambda out_dir, args=args: [*args, "--out", out_dir], list(report_names)


def hdvar(src: str, argv: list) -> bool:
    """Runs the `hdvar` command ``argv`` under the tree ``src``; whether it exited 0."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "hdvar.cli", *argv]
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr, end="")
    return done.returncode == 0


def reports(src: str, build, report_names: list, out_dir: str) -> list | None:
    """The report files ``report_names`` that the `hdvar` command ``build(out_dir)``
    writes to ``out_dir`` under the tree ``src``, each None when the command does
    not write it; None when the command fails."""
    if not hdvar(src, build(out_dir)):
        return None
    out = []
    for name in report_names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out.append(fh.read())
        else:
            out.append(None)
    return out


def _cell(text: str):
    """A CSV cell as an integer, a float or the string itself, whichever parses first."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(value, path: str = ""):
    """(path, value) of every leaf of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, value


def fields(data: bytes, report_name: str) -> dict:
    """Path -> value of every field of a report: JSON leaves, or CSV cells keyed
    by their row's number (the header is row 0) and their column."""
    if report_name.endswith(".json"):
        return dict(_leaves(json.loads(data)))
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return {f"{n}/{column}": _cell(text) for n, row in enumerate(rows, 1) for column, text in zip(header, row)}


def difference(parent: bytes, change: bytes, report_name: str) -> str:
    """How two differing reports differ: the largest relative difference of a
    float field, and the first field that differs otherwise."""
    a, b = fields(parent, report_name), fields(change, report_name)
    worst, worst_at, first = 0.0, None, None
    for path in [*a, *(p for p in b if p not in a)]:
        x, y = a.get(path, "<absent>"), b.get(path, "<absent>")
        if type(x) is float and type(y) is float:
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            finite = math.isfinite(x) and math.isfinite(y)
            rel = abs(x - y) / max(abs(x), abs(y)) if finite else math.inf
            if rel > worst:
                worst, worst_at = rel, path
        elif x != y and first is None:
            first = path
    floats = f"largest relative float difference {worst:.2g} at {worst_at}" if worst_at else "floats equal"
    return f"{floats}; " + (f"first other difference at {first}" if first else "all other fields equal")


def compare(report_name: str, parent: bytes | None, change: bytes | None) -> str:
    """The verdict on one report of the two trees, each None where that tree did not write it."""
    missing = [side for side, report in (("parent", parent), ("changed", change)) if report is None]
    if missing:
        return f"differs (not written by the {' or the '.join(missing)} tree)"
    return "identical" if parent == change else f"differs ({difference(parent, change, report_name)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_src), "change": os.path.abspath(args.change_src)}
    for src in trees.values():
        if not os.path.isfile(os.path.join(src, "hdvar", "cli.py")):
            parser.error(f"{src} holds no hdvar package")
    same = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        data_root = os.path.join(tmp, "data")
        for name, args in DATASETS:
            if not hdvar(trees["parent"], ["simulate", *args, "--out", os.path.join(data_root, name)]):
                parser.error(f"the parent tree could not simulate {name}")
        for n, (label, build, report_names) in enumerate(commands(data_root)):
            parent, change = (
                reports(src, build, report_names, os.path.join(tmp, side, str(n))) for side, src in trees.items()
            )
            for n_report, name in enumerate(report_names):
                if parent is None or change is None:
                    verdict = "failed"
                else:
                    verdict = compare(name, parent[n_report], change[n_report])
                same += verdict == "identical"
                total += 1
                print(f"{label}{'' if len(report_names) == 1 else ' ' + name}: {verdict}", flush=True)
    print(f"{same} of {total} reports identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
