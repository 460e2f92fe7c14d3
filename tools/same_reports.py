"""Check that two source trees write byte-identical hdvar reports.

    python3 tools/same_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  The
commands are windows 0-9 of every gated workload in perfbench/workloads.py
(``WORKLOADS[name].argv``), then the commands of ``UNGATED``.  Each runs once
under each tree, in a subprocess with PYTHONPATH set to that tree and
OPENBLAS_NUM_THREADS=1, and the two report files are compared byte for byte.
One line per command says identical or differs; the exit code is 1 if any
report differs or any command fails, else 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import FULL_MENU, WINDOWS, WORKLOADS  # noqa: E402

# (label, hdvar arguments without --out, report file) of commands that reach what
# no gated workload does: the sampled restricted-eigenvalue search and supports
# of more than one coordinate (diag on B, C and D), and the mc JSON report
UNGATED = (
    ("diag B/10/60", ("diag", "--experiment", "B", "--k", "10", "--T", "60", "--reps", "2"), "diagnostics.json"),
    ("diag C/10/80", ("diag", "--experiment", "C", "--k", "10", "--T", "80", "--reps", "2"), "diagnostics.json"),
    ("diag D/10/60", ("diag", "--experiment", "D", "--k", "10", "--T", "60", "--reps", "2"), "diagnostics.json"),
    (
        "mc A/10/60 json",
        ("mc", "--experiment", "A", "--k", "10", "--T", "60", "--reps", "2", "--format", "json")
        + ("--estimators", FULL_MENU),
        "A_10_60.json",
    ),
)


def commands():
    """(label, argv builder taking the output directory, report file) of every compared command."""
    for workload in (w for w in WORKLOADS.values() if w.gated):
        for window in range(WINDOWS):
            yield f"{workload.name} window {window}", functools.partial(workload.argv, window), workload.report_name
    for label, args, report_name in UNGATED:
        yield label, lambda out_dir, args=args: [*args, "--out", out_dir], report_name


def report(src: str, build, report_name: str, out_dir: str) -> bytes | None:
    """The report file ``report_name`` that the `hdvar` command ``build(out_dir)``
    writes to ``out_dir`` under the tree ``src``, or None when the command fails."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "hdvar.cli", *build(out_dir)]
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr, end="")
        return None
    with open(os.path.join(out_dir, report_name), "rb") as fh:
        return fh.read()


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
        for n, (label, build, report_name) in enumerate(commands()):
            parent, change = (
                report(src, build, report_name, os.path.join(tmp, side, str(n))) for side, src in trees.items()
            )
            if parent is None or change is None:
                verdict = "failed"
            else:
                verdict = "identical" if parent == change else "differs"
            same += verdict == "identical"
            total += 1
            print(f"{label}: {verdict}", flush=True)
    print(f"{same} of {total} reports identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
