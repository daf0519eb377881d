"""The benchmark's reports still match its golden file.

``perfbench/run.py`` checks every report of a run against
``perfbench/golden.json`` and counts a mismatch as a failed operation.  This
test runs the ``campaign`` and ``hodge`` workloads once at seed 0, the
golden file's seed, so a change in any report's checks, witnesses, notes or
pass flag fails here first.  ``workloads.py`` is loaded by file path, as the
benchmark loads it; the slower ``ladder`` workload is left to the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["campaign", "hodge"])
def test_reports_match_golden(workload):
    wl = load_workloads()
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    jobs = wl.jobs_for(workload, 0)
    assert jobs
    drifted = [job.id for job in jobs
               if wl.comparable(wl.render(wl.run_job(job, 0))) != golden[job.id]]
    assert drifted == []
