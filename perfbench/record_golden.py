"""Record the golden file: every report's seed-independent output.

    python3 perfbench/record_golden.py

Runs one pass of every workload (seed 0) and writes ``golden.json`` with
each report's title, params without the seed, checks, witnesses, notes and
pass flag.  It refuses to write if any report fails, since a golden file is
only a reference when every claim in it holds.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads


def main() -> int:
    golden: dict = {}
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name, 0):
            out = workloads.render(workloads.run_job(job, 0))
            if not out["passed"]:
                print(f"error: {job.id} fails; not recording", file=sys.stderr)
                return 1
            golden[job.id] = workloads.comparable(out)
    with open(worker.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} reports in {worker.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
