"""Correctness gate: compare a written report with the recorded reference.

mc CSV: the estimator column and the selection metrics (true_model_uncovered,
true_model_included, share_relevant, n_selected) and the feasibility columns
must match exactly; rmse and rmsfe must agree within RTOL relative (ATOL near
zero).  A row that differs fails all of its (replication x estimator)
operations.

diag JSON: config must match exactly; every boolean, string and integer must
match exactly and every float must agree within RTOL/ATOL.  A difference in
`bounds` fails every replication, a difference in one replication entry
fails that replication.

RTOL admits a solver that reaches the same KKT tolerance (1e-7) along a
different path; it rejects any change in what is estimated.
"""

from __future__ import annotations

import csv
import gzip
import io
import json

RTOL = 1e-4
ATOL = 1e-10
_MC_FLOAT_COLUMNS = ("rmse", "rmsfe")


def load_reference(path: str) -> bytes:
    with open(path, "rb") as fh:
        return gzip.decompress(fh.read())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _same(a, b) -> bool:
    """Structural equality with float tolerance; bool/int/str/None compare exactly."""
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _csv_cell_same(column: str, a: str, b: str) -> bool:
    if column not in _MC_FLOAT_COLUMNS or a == b:
        return a == b
    try:
        return _close(float(a), float(b))
    except ValueError:
        return False


def check_mc(report: bytes, reference: bytes, reps: int) -> tuple:
    """(failed operations, messages) for an mc CSV report."""
    ref_rows = list(csv.reader(io.StringIO(reference.decode())))
    try:
        rows = list(csv.reader(io.StringIO(report.decode())))
    except UnicodeDecodeError:
        rows = []
    header = ref_rows[0]
    n_ops = reps * (len(ref_rows) - 1)
    if not rows or rows[0] != header:
        return n_ops, ["report header differs from the reference"]
    got = {row[0]: row for row in rows[1:] if row}
    failed, messages = 0, []
    for ref in ref_rows[1:]:
        row = got.get(ref[0])
        bad = [] if row is not None and len(row) == len(header) else ["missing row"]
        if not bad:
            bad = [
                f"{col}: {b!r} != reference {a!r}"
                for col, a, b in zip(header, ref, row)
                if not _csv_cell_same(col, a, b)
            ]
        if bad:
            failed += reps
            messages.append(f"{ref[0]}: " + "; ".join(bad))
        elif row[header.index("infeasible")] != "false":
            failed += int(row[header.index("n_failed")])
            messages.append(f"{ref[0]}: infeasible in {row[header.index('n_failed')]} replications")
    extra = set(got) - {ref[0] for ref in ref_rows[1:]}
    if extra:
        return n_ops, messages + [f"rows the reference does not have: {sorted(extra)}"]
    return failed, messages


def check_diag(report: bytes, reference: bytes, reps: int) -> tuple:
    """(failed operations, messages) for a diagnostics.json report."""
    ref = json.loads(reference)
    try:
        got = json.loads(report)
    except ValueError:
        return reps, ["report is not valid JSON"]
    if not isinstance(got, dict) or got.keys() != ref.keys():
        return reps, ["report sections differ from the reference"]
    if got["config"] != ref["config"] or not _same(got["bounds"], ref["bounds"]):
        return reps, ["config or bounds differ from the reference"]
    reps_got, reps_ref = got["replications"], ref["replications"]
    if len(reps_got) != len(reps_ref):
        return reps, [f"{len(reps_got)} replications, reference has {len(reps_ref)}"]
    bad = [i for i, (a, b) in enumerate(zip(reps_got, reps_ref)) if not _same(a, b)]
    return len(bad), [f"replication {i} differs from the reference" for i in bad]


def check_report(command: str, report: bytes, reference: bytes, reps: int) -> tuple:
    if command == "mc":
        return check_mc(report, reference, reps)
    if report == reference:
        return 0, []
    return check_diag(report, reference, reps)
