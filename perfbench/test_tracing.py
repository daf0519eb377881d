"""Tracing must not change what derham computes, and its counts must repeat.

    python3 -m pytest perfbench/test_tracing.py

Each workload's worker runs twice with ``--trace 1`` and a tiny time budget,
so each run makes one untraced pass and then one traced pass in the same
process.  About two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import LAYER_COUNTS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign", "ladder", "hodge")


def traced_run(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.001", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def two_runs(request):
    return request.param, traced_run(request.param), traced_run(request.param)


def test_traced_reports_match_untraced(two_runs):
    workload, *runs = two_runs
    for out in runs:
        assert len(out["pass_s"]) == 1 and len(out["traced_pass_s"]) == 1
        assert out["failed"] == 0, out["failures"]
        assert set(out["reports"]) == set(out["traced_reports"])
        for job_id, untraced in out["reports"].items():
            assert out["traced_reports"][job_id] == untraced, f"{workload}: {job_id}"


def test_counts_repeat_exactly(two_runs):
    workload, first, second = two_runs
    for metric in LAYER_COUNTS:
        assert first["layers"][metric] == second["layers"][metric], f"{workload}: {metric}"
    assert first["layers"]["exactla.rank_nullspace.calls"] > 0
    assert first["layers"]["operators.nnz"] > 0
