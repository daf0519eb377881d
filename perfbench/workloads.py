"""The benchmark's workloads: fixed lists of public report calls.

Each workload is a closed loop with one client: a pass runs its jobs one
after another, each starting when the previous report has returned and been
rendered.  The reason for each workload sits next to its definition; the
README's table maps per-layer metrics to the workloads they should move.

Report functions are looked up on their module at call time, so the traced
run's rebound names (see ``tracing.py``) are the ones that run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from derham import complexcheck, hodge, refcheck
from derham.mesh import MeshKind, build_mesh
from derham.fespace import DGVectorSpace, audit_dimensions
from derham.poly import RefCell

_KINDS = {"tri": MeshKind.TRIANGULAR, "quad": MeshKind.CARTESIAN}
_CELLS = {"tri": RefCell.TRIANGLE, "quad": RefCell.SQUARE}
_REF_FAMILY = {"tri": "vec_p", "quad": "vec_qdiv"}


@dataclass(frozen=True)
class Job:
    """One report call: ``kind`` names the public function, ``args`` its inputs."""

    id: str
    kind: str
    args: tuple


def _verify(name: str, nx: int, ny: int, k: int, lx=1, ly=1) -> Job:
    aspect = "" if (lx, ly) == (1, 1) else f" l={lx}x{ly}"
    return Job(f"verify {name} {nx}x{ny} k{k}{aspect}", "verify", (name, nx, ny, k, lx, ly))


def _hodge(name: str, nx: int, ny: int, k: int, backend: str = "exact") -> Job:
    return Job(f"hodge {name} {nx}x{ny} k{k} {backend}", "hodge", (name, nx, ny, k, backend))


def campaign() -> list[Job]:
    """What users run as the quick check: ``derham verify --all`` plus the
    reference-cell, appendix, audit and dof reports.

    Matrices stay under about 300 columns, so the fixed cost of each report
    (spaces, local bases, assembly, densifying, ``poly``) weighs heavily and
    exact linear algebra is only about half the time.  Many distinct
    (family, k, chart) keys stress the local-basis caches.  A per-call
    overhead in an ``exactla`` kernel, or a gain in assembly or ``fespace``,
    shows mainly here.
    """
    jobs: list[Job] = []
    # the 35 jobs of `derham verify --all`, copied so a CLI change cannot move them
    for name in ("tri-dp", "tri-dp-curl", "quad-enriched", "quad-enriched-curl"):
        for nx, ny in ((2, 2), (3, 2)):
            for k in range(3):
                jobs.append(_verify(name, nx, ny, k))
    for name in ("tri-drt", "tri-dn", "quad-drt", "quad-dn"):
        for k in range(2):
            jobs.append(_verify(name, 2, 2, k))
    for nx, ny in ((2, 2), (3, 4), (4, 3)):
        jobs.append(Job(f"naive {nx}x{ny}", "naive", (nx, ny)))
    for cell in ("tri", "quad"):
        for k in range(4):
            jobs.append(Job(f"refcheck {cell} k{k}", "refcheck", (cell, k)))
    jobs.append(Job("appendix 3x3", "appendix", (3, 3)))
    for kind in ("tri", "quad"):
        jobs.append(Job(f"audit {kind} 2x2 kmax3", "audit", (kind, 2, 2, 3)))
    jobs.append(Job("dof kmax3", "dof", (3,)))
    return jobs


def ladder() -> list[Job]:
    """Mesh-size rungs where rank, nullspace and span dominate.

    Their cost grows like n^2.5 in the number of dofs while assembly stays
    a small share, so a faster certificate or elimination kernel (ROADMAP
    items 1-2) shows here first.  The tri-dp rungs 4x4, 5x5 and 6x6 show
    the growth.  The rational-aspect rung makes integer entries larger after
    row scaling, so coefficient growth shows.  A few cache keys are reused
    across hundreds of cells.  No rung runs longer than about 2 s, so every
    run pools several whole passes; 8x8 (8-11 s per report) and larger wait
    for a later benchmark change.
    """
    return [
        _verify("tri-dp", 4, 4, 1),
        _verify("tri-dp", 5, 5, 1),
        _verify("tri-dp", 6, 6, 1),
        _verify("tri-dp-curl", 3, 3, 2),
        _verify("quad-enriched", 5, 5, 1, Fraction(7, 3), Fraction(5, 11)),
        Job("naive 16x16", "naive", (16, 16)),
    ]


def hodge_set() -> list[Job]:
    """Exact linear algebra as solves, not ranks.

    The twelve configurations of acceptance criterion 10 plus a 3x3 tri-dp
    split on both backends.  A change to rank certification alone should not
    move this workload; a Hodge splitter without the adjoint (ROADMAP item
    3) shows only here.  The float backend shares assembly with the exact
    route, so a change to shared assembly shows in both.
    """
    configs = [("tri-dp", 1), ("tri-dp-curl", 1), ("quad-enriched", 1), ("quad-enriched-curl", 1)]
    configs += [(name, k) for name in ("tri-drt", "tri-dn", "quad-drt", "quad-dn") for k in range(2)]
    jobs = [_hodge(name, 2, 2, k) for name, k in configs]
    jobs.append(_hodge("tri-dp", 3, 3, 1))
    jobs.append(_hodge("tri-dp", 3, 3, 1, "float"))
    return jobs


WORKLOADS = {"campaign": campaign, "ladder": ladder, "hodge": hodge_set}

HODGE_FIELDS = 20


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in a seeded order: the seed also feeds the seeded
    reports, so it fixes every input a run sees."""
    jobs = WORKLOADS[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs


def run_job(job: Job, seed: int):
    """Call the public report function behind ``job`` and return its Report."""
    a = job.args
    if job.kind == "verify":
        name, nx, ny, k, lx, ly = a
        return complexcheck.verify_diagram(name, nx, ny, k, float_check=True, lx=lx, ly=ly)
    if job.kind == "naive":
        return complexcheck.naive_quad_report(a[0], a[1], float_check=True)
    if job.kind == "refcheck":
        return refcheck.refcheck_report(a[0], a[1], seed=seed)
    if job.kind == "appendix":
        return complexcheck.appendix_report(*a)
    if job.kind == "audit":
        kind, nx, ny, k_max = a
        return complexcheck.audit_report(_KINDS[kind], nx, ny, k_max)
    if job.kind == "dof":
        return complexcheck.dof_comparison(*a)
    if job.kind == "hodge":
        name, nx, ny, k, backend = a
        return hodge.hodge_report(name, nx, ny, k, fields=HODGE_FIELDS, seed=seed, backend=backend)
    raise ValueError(f"unknown job kind {job.kind!r}")


def render(rep) -> dict:
    """Render a report as ``derham ... --format json`` does; return its dict."""
    doc = {"schema": 1, "passed": rep.passed, "reports": [rep.to_dict()]}
    json.dumps(doc, indent=2)
    return doc["reports"][0]


def prime(job: Job) -> None:
    """Fill the caches ``job`` reads (local bases, Lagrange bases and the
    reference-cell ``lru_cache`` tables) without running the report."""
    a = job.args
    if job.kind == "verify":
        name, nx, ny, k, lx, ly = a
        complexcheck.build_diagram(name, nx, ny, k, lx, ly)
    elif job.kind == "hodge":
        complexcheck.build_diagram(*a[:4])
    elif job.kind == "naive":
        mesh = build_mesh(MeshKind.CARTESIAN, a[0], a[1])
        DGVectorSpace(mesh, "vec_q", 0).constant_vector(1, 0)
    elif job.kind == "refcheck":
        cell, k = a
        family = _REF_FAMILY[cell]
        refcheck.boundary_curl_map(_CELLS[cell], k).analysis
        refcheck.divfree_coefficients(family, k)
        refcheck.edge_modes(family, k)
    elif job.kind == "audit":
        kind, nx, ny, k_max = a
        audit_dimensions(build_mesh(_KINDS[kind], nx, ny), k_max)


def comparable(report_dict: dict) -> dict:
    """The parts of a report that must not change between runs or seeds:
    everything but the wall time and the seed parameter."""
    out = {key: v for key, v in report_dict.items() if key != "wall_ms"}
    out["params"] = {key: v for key, v in out["params"].items() if key != "seed"}
    return out
