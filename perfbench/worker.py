"""One fresh benchmark process: import derham, warm up, run passes, report.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--spans PATH]

After the warm-up the worker runs whole passes over the workload while
half of the last pass's length still fits in ``--seconds``, counted from its
start (always at least one pass).  With ``--trace 1`` the first half of
that time runs untraced passes and the second half traced ones, so the
trace overhead is measured in one process.  Every report is timed from
outside, around the call and its JSON rendering, and compared with the
golden file.  Between reports, at most every ``CALIBRATE_EVERY_S``, the
worker times the reference kernel of ``calibrate.py``; each report's time
is scaled by the kernel times taken just before and after it, and the
set-up's by three taken before and three after it.  The last line of
stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate  # stdlib only, so it runs before derham is imported

SETUP_KERNEL_S = calibrate.sample(3)
T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from derham import exactla  # noqa: E402

import workloads  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer  # noqa: E402

GOLDEN = HERE / "golden.json"
MAX_FAILURE_NOTES = 20
CALIBRATE_EVERY_S = 0.1


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "exact_width_cap": exactla.exact_width_limit(),
    }


class Pass:
    """Runs the workload's jobs once per call and checks every report."""

    def __init__(self, jobs, seed: int, golden: dict):
        self.jobs = jobs
        self.seed = seed
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # per job: raw wall ms, and the same scaled to the reference speed
        self.report_ms: dict[str, list[float]] = {job.id: [] for job in jobs}
        self.scaled_ms: dict[str, list[float]] = {job.id: [] for job in jobs}

    def _fail(self, job_id: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"{job_id}: {why}")

    def run(self, tracer: Tracer | None = None) -> tuple[float, float, dict]:
        """One pass; returns its wall seconds (the sum of its reports'
        times), the same scaled to the reference speed, and the reports'
        comparable dicts.  Each report is scaled by the mean of the last
        kernel time before it and the first after it."""
        render = workloads.render
        if tracer is not None:
            render = tracer.span("report.render", render)
        seen: dict = {}
        # (job id, wall seconds, index of the kernel time taken before it)
        times: list[tuple[str, float, int]] = []
        kernel_s = calibrate.sample()
        last_kernel = time.perf_counter()
        for job in self.jobs:
            if time.perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
                kernel_s += calibrate.sample()
                last_kernel = time.perf_counter()
            self.attempted += 1

            def call(job=job):
                return render(workloads.run_job(job, self.seed))

            if tracer is not None:
                tracer.report = job.id
                call = tracer.span(ROOT_SPAN, call)
            t = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a raising report counts as failed, the loop goes on
                times.append((job.id, time.perf_counter() - t, len(kernel_s) - 1))
                self._fail(job.id, f"raised {type(exc).__name__}: {exc}")
                continue
            times.append((job.id, time.perf_counter() - t, len(kernel_s) - 1))
            got = workloads.comparable(out)
            seen[job.id] = got
            if not out["passed"]:
                failing = [c["name"] for c in out["checks"] if not c["passed"]]
                self._fail(job.id, f"FAIL {failing}")
            elif got != self.golden.get(job.id):
                self._fail(job.id, "differs from the golden file")
        kernel_s += calibrate.sample()
        wall = scaled = 0.0
        for job_id, seconds, k in times:
            at_ref = seconds * calibrate.scale(kernel_s[k:k + 2])
            self.report_ms[job_id].append(seconds * 1000.0)
            self.scaled_ms[job_id].append(at_ref * 1000.0)
            wall += seconds
            scaled += at_ref
        return wall, scaled, seen


def run_for(runner: Pass, start: float, seconds: float, tracer: Tracer | None = None):
    """Whole passes until another one of the last one's length would end
    more than half a pass after ``start + seconds``, so the passes fill
    ``seconds`` on average; returns the raw and the scaled pass times and
    the first pass's report dicts."""
    walls: list[float] = []
    scaled: list[float] = []
    first = None
    last = 0.0
    while not walls or time.perf_counter() - start + last / 2 <= seconds:
        t = time.perf_counter()
        wall, at_ref, seen = runner.run(tracer)
        last = time.perf_counter() - t
        walls.append(wall)
        scaled.append(at_ref)
        first = seen if first is None else first
    return walls, scaled, first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = ap.parse_args(argv)

    jobs = workloads.jobs_for(args.workload, args.seed)
    for job in jobs:
        workloads.prime(job)
    setup_s = time.perf_counter() - T0
    setup_kernel_s = SETUP_KERNEL_S + calibrate.sample(3)
    result = {"setup_wall_s": setup_s, "setup_s": setup_s * calibrate.scale(setup_kernel_s),
              "facts": machine_facts()}
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    runner = Pass(jobs, args.seed, golden)
    walls, passes, reports = run_for(runner, T0, args.seconds / 2 if args.trace else args.seconds)
    result["pass_wall_s"] = walls
    result["pass_s"] = passes
    result["report_wall_ms"] = runner.report_ms
    result["report_ms"] = runner.scaled_ms
    result["reports"] = reports

    if args.trace:
        tracer = Tracer()
        undo = tracer.install()
        try:
            traced_walls, traced, traced_reports = run_for(runner, T0, args.seconds, tracer)
        finally:
            undo()
        result["traced_pass_s"] = traced
        result["traced_reports"] = traced_reports
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(passes)
        layers["trace.top_span_share"] = tracer.top_level_seconds() / sum(traced_walls)
        result["layers"] = layers
        if args.spans:
            doc = {"workload": args.workload, "seed": args.seed, "facts": result["facts"],
                   "traced_passes": len(traced), "layers": result["layers"],
                   "spans": tracer.spans}
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
