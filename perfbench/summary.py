"""Print every end-to-end and per-layer metric of every workload, with spread.

    python3 perfbench/summary.py [--workloads mc-menu-A,diag-A] [--seeds 1,2,3] [--seconds 30]

For each workload it runs `run.py --trace 0` once per seed and
`run.py --trace 1` once per traced seed (--traced-seeds, default the first
seed), each in a fresh interpreter, and prints each metric's median, first
and third quartile, spread ((q3 - q1) / median) and sample count, the
fail share, and the machine context.  Where both mc-menu-A and
mc-menu-A-pool ran, it also checks that their reports of each replication
window both ran are byte-identical.  Everything is also written to perfbench/out/summary.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT_DIR, ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result object, context) of one benchmark run in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    context = next((json.loads(line[len("context: "):]) for line in lines if line.startswith("context: ")), None)
    return json.loads(lines[-1]), context


def describe(values: list) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(n for n, w in WORKLOADS.items() if w.gated))
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--traced-seeds", default=None, help="default: the first of --seeds")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    traced_seeds = [int(s) for s in (args.traced_seeds or str(seeds[0])).split(",") if s.strip()]

    summary, context = {}, None
    reports_dir = os.path.join(OUT_DIR, "reports")
    shutil.rmtree(reports_dir, ignore_errors=True)
    for name in names:
        runs = {0: [], 1: []}
        for trace, trace_seeds in ((0, seeds), (1, traced_seeds)):
            for seed in trace_seeds:
                result, context = run_once(name, seed, args.seconds, trace)
                runs[trace].append(result)
                print(f"[{name} seed {seed} trace {trace}] correct={result['correct']}", file=sys.stderr, flush=True)
        all_runs = runs[0] + runs[1]
        attempted = sum(r["attempted"] for r in all_runs)
        failed = sum(r["failed"] for r in all_runs)
        metrics = {}
        for trace in (0, 1):
            for metric in runs[trace][0]["metrics"] if runs[trace] else ():
                values = [r["metrics"][metric]["value"] for r in runs[trace]]
                metrics[metric] = {"unit": runs[trace][0]["metrics"][metric]["unit"], **describe(values)}
        summary[name] = {
            "correct": all(r["correct"] for r in all_runs),
            "fail_share": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }

    identical = {}
    if {"mc-menu-A", "mc-menu-A-pool"} <= set(names):
        serial, pooled = (os.path.join(reports_dir, name) for name in ("mc-menu-A", "mc-menu-A-pool"))
        for fname in sorted(set(os.listdir(serial)) & set(os.listdir(pooled))):
            with open(os.path.join(serial, fname), "rb") as a, open(os.path.join(pooled, fname), "rb") as b:
                identical[fname] = a.read() == b.read()

    print("context: " + json.dumps(context, sort_keys=True))
    for name, entry in summary.items():
        print(f"\n{name}: correct={entry['correct']} fail_share={entry['fail_share']:.4g} "
              f"({entry['failed']}/{entry['attempted']} operations)")
        print(f"  {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'n':>3}  unit")
        for metric, m in entry["metrics"].items():
            print(f"  {metric:<42} {m['median']:>12.6g} {m['q1']:>12.6g} {m['q3']:>12.6g} "
                  f"{m['spread']:>8.3f} {m['n']:>3}  {m['unit']}")
    for fname, same in identical.items():
        print(f"\nmc-menu-A vs mc-menu-A-pool report {fname}: {'identical' if same else 'DIFFERENT'}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "summary.json"), "w") as fh:
        json.dump({"context": context, "workloads": summary, "threads_identical": identical}, fh, indent=2)
    ok = all(e["correct"] for e in summary.values()) and all(identical.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
