"""The derham benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload campaign|ladder|hodge --seed N --seconds S --trace 0|1

Run from the root of a source checkout; derham is imported from ``src/``.
With ``--trace 0`` the run starts three fresh worker processes one after
another, never at once; each imports derham, warms up and runs passes for
its share of what is left of ``--seconds``.  ``setup_s`` is the median of
the three set-ups; the other metrics pool the three workers' samples.
Every time is scaled to the reference host speed (see ``calibrate.py``).
With ``--trace 1`` one worker measures untraced and then traced passes and
writes its spans to ``perfbench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The exit code is 1 when any report
fails, raises or differs from ``golden.json``, 2 when the checkout has no
derham sources.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS; this process never imports derham
WORKLOADS = ("campaign", "ladder", "hodge")
WORKERS = 3
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(Exception):
    pass


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    # one thread: numpy's BLAS pool would otherwise share the cores with the loop
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(outs: list[dict]) -> dict:
    # percentiles over each report's median time: the reports, not how many
    # passes a run made, decide where p50 and p90 fall
    samples: dict[str, list[float]] = {}
    for o in outs:
        for job_id, ms in o["report_ms"].items():
            samples.setdefault(job_id, []).extend(ms)
    medians = [statistics.median(ms) for ms in samples.values()]
    return {
        "setup_s": {"value": statistics.median(o["setup_s"] for o in outs), "unit": "s"},
        "pass_s": {"value": statistics.median(p for o in outs for p in o["pass_s"]), "unit": "s"},
        "report_p50_ms": {"value": statistics.median(medians), "unit": "ms"},
        "report_p90_ms": {"value": statistics.quantiles(medians, n=10, method="inclusive")[8],
                          "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(o["peak_rss_mb"] for o in outs), "unit": "MB"},
    }


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_share") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="derham benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "derham" / "__init__.py").is_file():
        print(f"error: no derham sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    outs = []
    try:
        if args.trace:
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
            outs.append(run_worker(common + ["--seconds", str(args.seconds), "--trace", "1",
                                             "--spans", str(spans)], DEADLINE_S))
        else:
            for i in range(WORKERS):
                elapsed = time.monotonic() - start
                share = max(args.seconds - elapsed, 0.001) / (WORKERS - i)
                outs.append(run_worker(common + ["--seconds", str(share)], DEADLINE_S - elapsed))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = outs[0]
    if args.trace:
        metrics = {name: {"value": v, "unit": unit(name)} for name, v in out["layers"].items()}
    else:
        metrics = end_to_end(outs)
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    for note in [n for o in outs for n in o["failures"]]:
        print(f"failed: {note}", file=sys.stderr)
    facts = out["facts"]
    walls = " ".join(f"{p:.3f}" for o in outs for p in o["pass_wall_s"])
    setups = " ".join(f"{o['setup_wall_s']:.3f}" for o in outs)
    samples = sum(len(ms) for o in outs for ms in o["report_ms"].values())
    print(f"workload={args.workload} seed={args.seed} pass_wall_s=[{walls}] "
          f"setup_wall_s=[{setups}] report_samples={samples} "
          f"nproc={facts['nproc']} python={facts['python']} numpy={facts['numpy']} "
          f"exact_width_cap={facts['exact_width_cap']} failed_share={failed / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
