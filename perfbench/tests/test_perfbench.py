"""The benchmark's own tests: exact counters, a second seed, the correctness gate.

    python3 -m pytest perfbench/tests -q

The run-based tests start the benchmark in fresh interpreters and take about
five minutes on a 2-vCPU machine; the gate tests take a second.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GATED = [name for name, wl in WORKLOADS.items() if wl.gated]
COUNTERS = ("solver.sweeps", "solver.coord_updates", "estimators.paths_per_equation")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """Last stdout line of one run; ``repeat`` distinguishes identical runs."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == GATED


@pytest.mark.parametrize("workload", GATED)
def test_traced_counters_repeat_exactly(workload):
    first, second = bench(workload, 0, 1, 0), bench(workload, 0, 1, 1)
    assert first["correct"] and second["correct"]
    names = [n for n in first["metrics"] if n.endswith(".calls") or n in COUNTERS]
    assert names
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", GATED)
def test_traced_run_accounts_for_its_wall_time(workload):
    m = {k: v["value"] for k, v in bench(workload, 0, 1, 0)["metrics"].items()}
    accounted = sum(m[f"{layer}.self_s"] for layer in run.LAYERS) + m["trace.remainder_s"]
    assert accounted == pytest.approx(m["trace.wall_s"], rel=1e-6)


@pytest.mark.parametrize("workload", GATED)
def test_second_seed_same_metrics_and_correct(workload):
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = bench(workload, 7, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == list(names)
        assert list(result["metrics"]) == list(bench(workload, 0, trace)["metrics"])


def _reference(name: str, seed: int = 0) -> bytes:
    return check.load_reference(WORKLOADS[name].reference_path(seed))


def test_mc_gate_exact_selection_and_relative_rmse():
    ref = _reference("mc-menu-A")
    assert check.check_mc(ref, ref, 4) == (0, [])
    header, *rows = ref.decode().splitlines()
    cols = header.split(",")
    lasso = rows[0].split(",")

    nudged = list(lasso)
    nudged[cols.index("rmse")] = repr(float(lasso[cols.index("rmse")]) * (1 + check.RTOL / 10))
    assert check.check_mc("\n".join([header, ",".join(nudged), *rows[1:]]).encode(), ref, 4)[0] == 0

    moved = list(lasso)
    moved[cols.index("rmse")] = repr(float(lasso[cols.index("rmse")]) * (1 + 10 * check.RTOL))
    assert check.check_mc("\n".join([header, ",".join(moved), *rows[1:]]).encode(), ref, 4)[0] == 4

    reselected = list(lasso)
    reselected[cols.index("n_selected")] = repr(float(lasso[cols.index("n_selected")]) + 0.25)
    assert check.check_mc("\n".join([header, ",".join(reselected), *rows[1:]]).encode(), ref, 4)[0] == 4

    assert check.check_mc("\n".join([header, *rows[1:]]).encode(), ref, 4)[0] == 4
    extra = rows[0].replace("lasso", "ridge", 1)
    assert check.check_mc("\n".join([header, *rows, extra]).encode(), ref, 4)[0] == 4 * len(rows)


def test_diag_gate_fails_the_replication_that_differs():
    ref = _reference("diag-A")
    reps = WORKLOADS["diag-A"].reps
    report = json.loads(ref)
    assert check.check_diag(ref, ref, reps) == (0, [])
    report["replications"][3]["events"]["b_t"] = not report["replications"][3]["events"]["b_t"]
    assert check.check_diag(json.dumps(report).encode(), ref, reps)[0] == 1
    report = json.loads(ref)
    report["bounds"]["lambda_t"] *= 1 + 10 * check.RTOL
    assert check.check_diag(json.dumps(report).encode(), ref, reps)[0] == reps

