"""Workload table: the hdvar command each workload runs and where its reference lives.

A workload is one `hdvar` command line, run in-process through
`hdvar.cli.main`.  Its inputs come from a pool of WINDOWS
replication windows: window i is the command with `--seed i*reps`, so the
windows hold disjoint replications, and each has a reference report recorded
by `record_refs.py`.  Benchmark seed n runs windows n, n+1, n+2, ... (mod
WINDOWS), one per command, so every run, whatever its seed, is
checked against references, and a run averages over several windows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

WINDOWS = 10

FULL_MENU = "lasso,post_lasso,adaptive_lasso_lasso,adaptive_lasso_ridge,oracle_ols,full_ols"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "mc" or "diag"
    args: tuple  # flags after the command, without --seed/--out/--threads
    reps: int  # replications per command
    threads: int
    reference: str  # workload whose recorded report this one must reproduce
    gated: bool  # listed in BENCHMARK.json

    def flag(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]

    @property
    def experiment(self) -> str:
        return self.flag("--experiment")

    @property
    def k(self) -> int:
        return int(self.flag("--k"))

    @property
    def n_estimators(self) -> int:
        return len(self.flag("--estimators").split(",")) if self.command == "mc" else 1

    @property
    def ops_per_command(self) -> int:
        """Operations one command attempts: (rep x estimator) for mc, rep for diag."""
        return self.reps * self.n_estimators

    @property
    def report_name(self) -> str:
        if self.command == "diag":
            return "diagnostics.json"
        return f"{self.experiment}_{self.k}_{self.flag('--T')}.csv"

    def argv(self, window: int, out_dir: str, threads: int | None = None) -> list:
        return [
            self.command,
            *self.args,
            "--reps", str(self.reps),
            "--threads", str(self.threads if threads is None else threads),
            "--seed", str(window * self.reps),
            "--out", out_dir,
        ]

    def reference_path(self, window: int) -> str:
        return os.path.join(REFERENCE_DIR, self.reference, f"window{window}_{self.report_name}.gz")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-menu-A",
            command="mc",
            args=("--experiment", "A", "--k", "10", "--T", "500", "--estimators", FULL_MENU),
            reps=4,
            threads=1,
            reference="mc-menu-A",
            gated=True,
        ),
        # T=1000 rather than 100: at T=100 one replication's sweep count varies
        # up to 2x with the seed, which no run that fits the time budget averages out.
        Workload(
            name="mc-lasso-C",
            command="mc",
            args=("--experiment", "C", "--k", "10", "--T", "1000", "--estimators", "lasso"),
            reps=1,
            threads=1,
            reference="mc-lasso-C",
            gated=True,
        ),
        Workload(
            name="diag-A",
            command="diag",
            args=("--experiment", "A", "--k", "10", "--T", "100"),
            # 10 reps, not diag's default 20: the 11 restricted-eigenvalue calls cost
            # ~10 s per command whatever the reps, and a run needs two commands
            reps=10,
            threads=1,
            reference="diag-A",
            gated=True,
        ),
        # Same cell as mc-menu-A through the process pool.  Its wall time swings
        # several-fold from run to run (BLAS threads of the workers contend for
        # the cores), so it is not in BENCHMARK.json; run it by name.
        Workload(
            name="mc-menu-A-pool",
            command="mc",
            args=("--experiment", "A", "--k", "10", "--T", "500", "--estimators", FULL_MENU),
            reps=4,
            threads=2,
            reference="mc-menu-A",
            gated=False,
        ),
    )
}


def window(seed: int, command: int) -> int:
    """Replication window of a run's ``command``-th command under benchmark ``seed``."""
    return (seed + command) % WINDOWS
