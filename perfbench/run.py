"""hdvar benchmark: run one workload, check its report, print its metrics.

    python3 perfbench/run.py --workload mc-menu-A --seed 1 --seconds 30 --trace 0

Run from a checkout's root; hdvar is imported from ./src.  Each workload is
one `hdvar` command line (see workloads.py) run in-process through
`hdvar.cli.main`, exactly as `hdvar mc` / `hdvar diag` would run it.

--trace 0: runs the command repeatedly, untraced, for about --seconds
  seconds (at least MIN_COMMANDS times) and reports the end-to-end metrics: reps_per_s (replications per
  wall second over all commands), setup_s (median of SETUP_SAMPLES fresh
  interpreters that import hdvar and build the workload's DGP) and
  peak_rss_mb (ru_maxrss of this process plus its waited-for children).
--trace 1: the same untraced commands, then one serial traced command
  (tracing.py) whose spans go to perfbench/out/spans/; reports the
  per-layer metrics.

Every report a command writes is compared with the recorded reference
(check.py).  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the machine context
and a readable table.  Nothing here sets BLAS thread variables or CPU
affinity: the environment is used as found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import check  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, window  # noqa: E402

SETUP_SAMPLES = 5
# The machine's speed drifts by up to ±20% between commands tens of seconds
# apart; averaging at least two commands per run halves that in the result.
MIN_COMMANDS = 2
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "reps_per_s": "rep/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics read off one function's spans: <layer>.<function>.<self_s|calls>
_FUNCTION_METRICS = [
    ("var.simulate.self_s", "s"),
    ("var.stack.self_s", "s"),
    ("var.stack.calls", "count"),
    ("linalg.cholesky_solve.self_s", "s"),
    ("linalg.cholesky_solve.calls", "count"),
    ("linalg.least_squares.self_s", "s"),
    ("solver.lasso_cd.self_s", "s"),
    ("solver.lasso_cd.calls", "count"),
    ("solver.lasso_path.self_s", "s"),
    ("solver.lasso_path.calls", "count"),
    ("solver.ridge.self_s", "s"),
    ("solver.ridge.calls", "count"),
    ("estimators.fit_system.self_s", "s"),
    ("estimators.fit_lasso_bic.self_s", "s"),
    ("estimators.fit_adaptive_lasso.self_s", "s"),
    ("estimators.fit_ridge_bic.self_s", "s"),
    ("theory.restricted_eigenvalue.self_s", "s"),
    ("theory.restricted_eigenvalue.calls", "count"),
    ("theory.event_flags.self_s", "s"),
    ("theory.sign_recovery_conditions.self_s", "s"),
    ("mc.run_experiment.self_s", "s"),
    ("cli.main.self_s", "s"),
]
PER_LAYER = {
    **dict(_FUNCTION_METRICS),
    "solver.sweeps": "count",
    "solver.coord_updates": "count",
    "solver.ns_per_coord_update": "ns",
    "solver.nonconverged_share": "share",
    "estimators.paths_per_equation": "paths/eq",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "mc.cpu_s": "s",
    "mc.cpu_per_wall": "cores",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_share": "share",
}


def import_hdvar():
    """Import hdvar from this checkout's src/ and return hdvar.cli."""
    if not os.path.isfile(os.path.join(SRC, "hdvar", "__init__.py")):
        raise FileNotFoundError(f"no hdvar package under {SRC}")
    sys.path.insert(0, SRC)
    from hdvar import cli

    return cli


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_command(cli, wl, win: int, out_dir: str, threads=None) -> dict:
    """One in-process hdvar command on replication window ``win``: exit code,
    wall and CPU seconds, report bytes."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = wl.argv(win, out_dir, threads=threads)
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    try:
        with open(os.path.join(out_dir, wl.report_name), "rb") as fh:
            report = fh.read()
    except OSError:
        report = None
    return {"window": win, "code": code, "wall_s": wall, "cpu_s": cpu, "report": report}


def judge(wl, cmd: dict) -> tuple:
    """(failed operations, messages) for one command, against its window's reference."""
    if cmd["code"] != 0 or cmd["report"] is None:
        return wl.ops_per_command, [f"window {cmd['window']}: command exited with {cmd['code']}"]
    try:
        reference = check.load_reference(wl.reference_path(cmd["window"]))
    except FileNotFoundError:
        return wl.ops_per_command, [f"window {cmd['window']}: no recorded reference"]
    failed, messages = check.check_report(wl.command, cmd["report"], reference, wl.reps)
    return failed, [f"window {cmd['window']}: {m}" for m in messages]


def untraced(cli, wl, seed: int, seconds: float) -> list:
    """Run the command on windows seed, seed+1, ... until the next one would end
    past ``seconds``, but at least MIN_COMMANDS times."""
    out_dir = os.path.join(OUT_DIR, "work", wl.name)
    cmds = []
    start = time.perf_counter()
    while True:
        cmds.append(run_command(cli, wl, window(seed, len(cmds)), out_dir))
        elapsed = time.perf_counter() - start
        if len(cmds) >= MIN_COMMANDS and elapsed + statistics.median(c["wall_s"] for c in cmds) > seconds:
            return cmds


def traced(cli, wl, win: int, spans_path: str) -> tuple:
    """One serial traced command on window ``win``; returns (command record, tracer)."""
    modules = {layer: sys.modules.get(f"hdvar.{layer}") for layer in LAYERS}
    tracer = Tracer()
    tracer.install(modules)
    try:
        # cli.main is looked up at call time, so the call goes through its wrapper
        cmd = run_command(cli, wl, win, os.path.join(OUT_DIR, "traced", wl.name), threads=1)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    return cmd, tracer


def layer_metrics(wl, tracer: Tracer, cmd: dict, untraced_cmds: list) -> tuple:
    """(metrics, names of metrics whose function is absent)."""
    selfs = tracer.self_times()
    values, absent = {}, []
    for name, _unit in _FUNCTION_METRICS:
        span, _, stat = name.rpartition(".")
        if span not in tracer.functions:
            absent.append(name)
            values[name] = 0.0
            continue
        calls, self_s = selfs.get(span, (0, 0.0))
        values[name] = float(calls) if stat == "calls" else self_s
    lasso_calls, lasso_self = selfs.get("solver.lasso_cd", (0, 0.0))
    cd = tracer.cd
    if "solver.lasso_cd" in tracer.functions and cd["results"] == lasso_calls:
        values["solver.sweeps"] = float(cd["sweeps"])
        values["solver.coord_updates"] = float(cd["coord_updates"])
        values["solver.ns_per_coord_update"] = 1e9 * lasso_self / cd["coord_updates"] if cd["coord_updates"] else 0.0
        values["solver.nonconverged_share"] = cd["nonconverged"] / lasso_calls if lasso_calls else 0.0
    else:
        for name in ("solver.sweeps", "solver.coord_updates", "solver.ns_per_coord_update", "solver.nonconverged_share"):
            absent.append(name)
            values[name] = 0.0
    if "solver.lasso_path" in tracer.functions:
        values["estimators.paths_per_equation"] = selfs.get("solver.lasso_path", (0, 0.0))[0] / (wl.reps * wl.k)
    else:
        absent.append("estimators.paths_per_equation")
        values["estimators.paths_per_equation"] = 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum((s for span, (_, s) in selfs.items() if span.startswith(layer + ".")), 0.0)
    untraced_wall = untraced_cmds[0]["wall_s"]  # the same window as the traced command
    values["mc.cpu_s"] = statistics.median(c["cpu_s"] for c in untraced_cmds)
    values["mc.cpu_per_wall"] = statistics.median(c["cpu_s"] / c["wall_s"] for c in untraced_cmds)
    values["trace.wall_s"] = cmd["wall_s"]
    values["trace.remainder_s"] = cmd["wall_s"] - tracer.root_seconds()
    values["trace.overhead_share"] = (cmd["wall_s"] - untraced_wall) / untraced_wall
    return values, absent


def setup_times(wl, n: int) -> list:
    """Seconds a fresh interpreter takes to import hdvar and build the workload's DGP."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import hdvar\n"
        "from hdvar import mc\n"
        f"mc.make_dgp({wl.experiment!r}, {wl.k})\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def machine_context(load_at_start) -> dict:
    import numpy as np

    import hdvar

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    backend = getattr(hdvar, "cd_backend", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "cd_backend": backend() if backend else "absent",
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": load_at_start,
    }


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    load_at_start = list(os.getloadavg())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_hdvar()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot import hdvar from this checkout: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    cmds = untraced(cli, wl, args.seed, args.seconds)
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0
    for c in cmds:  # kept for summary.py's --threads comparison
        if c["report"] is not None:
            kept = os.path.join(OUT_DIR, "reports", wl.name, f"window{c['window']}_{wl.report_name}")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            with open(kept, "wb") as fh:
                fh.write(c["report"])
    judged = [judge(wl, c) for c in cmds]
    messages = [m for _, msgs in judged for m in msgs]
    attempted = wl.ops_per_command * len(cmds)
    failed = sum(f for f, _ in judged)
    label = f"{wl.name}-seed{args.seed}"
    absent = []
    if args.trace:
        spans_path = os.path.join(OUT_DIR, "spans", f"{label}.csv")
        tcmd, tracer = traced(cli, wl, cmds[0]["window"], spans_path)
        t_failed, t_msgs = judge(wl, tcmd)
        if wl.threads > 1 and tcmd["report"] != cmds[0]["report"]:
            t_failed = wl.ops_per_command
            t_msgs.append(f"report with --threads {wl.threads} differs from the --threads 1 report")
        attempted += wl.ops_per_command
        failed += t_failed
        messages += t_msgs
        values, absent = layer_metrics(wl, tracer, tcmd, cmds)
        metrics = _metric_block(values, PER_LAYER)
    else:
        values = {
            "reps_per_s": wl.reps * len(cmds) / sum(c["wall_s"] for c in cmds),
            "setup_s": statistics.median(setup_times(wl, SETUP_SAMPLES)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = _metric_block(values, END_TO_END)

    context = machine_context(load_at_start)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "context": context,
        "commands": [{k: v for k, v in c.items() if k != "report"} for c in cmds],
        "fail_share": failed / attempted,
        "absent": absent,
        "messages": messages,
        "result": result,
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{label}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
    for msg in messages:
        print(f"check: {msg}")
    print("context: " + json.dumps(context, sort_keys=True))
    print(f"{wl.name} seed {args.seed}: {len(cmds)} untraced commands of {wl.reps} reps on windows "
          f"{[c['window'] for c in cmds]}, "
          f"fail_share {failed}/{attempted}")
    for name, m in metrics.items():
        note = "  (absent)" if name in absent else "  (computed)" if name == "solver.coord_updates" else ""
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
