"""Record the reference reports every benchmark run is checked against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_refs.py [--workload NAME] [--windows 0,1,...]

For each gated workload and each replication window in 0..WINDOWS-1
it runs the workload's command once and stores the written report, gzipped,
under perfbench/references/<workload>/.  Recording all of them takes about 6
minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import gzip
import os
import shutil
import sys
import time

import run
from workloads import WINDOWS, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every gated workload")
    parser.add_argument("--windows", default=",".join(str(s) for s in range(WINDOWS)))
    args = parser.parse_args(argv)
    cli = run.import_hdvar()
    names = args.workload or [w.name for w in WORKLOADS.values() if w.gated and w.reference == w.name]
    windows = [int(s) for s in args.windows.split(",") if s.strip()]
    for name in names:
        wl = WORKLOADS[name]
        for window in windows:
            out_dir = os.path.join(run.OUT_DIR, "record", name)
            shutil.rmtree(out_dir, ignore_errors=True)
            start = time.perf_counter()
            code = cli.main(wl.argv(window, out_dir))
            if code != 0:
                print(f"{name} window {window}: exit code {code}", file=sys.stderr)
                return 1
            ref = wl.reference_path(window)
            os.makedirs(os.path.dirname(ref), exist_ok=True)
            with open(os.path.join(out_dir, wl.report_name), "rb") as fh:
                data = fh.read()
            with open(ref, "wb") as fh:
                fh.write(gzip.compress(data, mtime=0))
            print(f"{name} window {window}: {time.perf_counter() - start:.2f}s -> {ref}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
