"""Check that two source trees write byte-identical reports on the gated benchmark workloads.

    python3 tools/same_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  For
windows 0-9 of every gated workload in perfbench/workloads.py, the workload's
`hdvar` command (``WORKLOADS[name].argv``) runs once under each tree, in a
subprocess with PYTHONPATH set to that tree and OPENBLAS_NUM_THREADS=1, and
the two report files are compared byte for byte.  One line per window says
identical or differs; the exit code is 1 if any report differs or any command
fails, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WINDOWS, WORKLOADS  # noqa: E402


def report(src: str, workload, window: int, out_dir: str) -> bytes | None:
    """The report ``workload``'s command writes for ``window`` under the tree ``src``,
    or None when the command fails."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "hdvar.cli", *workload.argv(window, out_dir)]
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr, end="")
        return None
    with open(os.path.join(out_dir, workload.report_name), "rb") as fh:
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
        for workload in (w for w in WORKLOADS.values() if w.gated):
            for window in range(WINDOWS):
                parent, change = (
                    report(src, workload, window, os.path.join(tmp, side, workload.name, str(window)))
                    for side, src in trees.items()
                )
                if parent is None or change is None:
                    verdict = "failed"
                else:
                    verdict = "identical" if parent == change else "differs"
                same += verdict == "identical"
                total += 1
                print(f"{workload.name} window {window}: {verdict}", flush=True)
    print(f"{same} of {total} reports identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
