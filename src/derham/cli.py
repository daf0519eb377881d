"""Command-line front end for verification campaigns.

Exit codes: 0 when every claim is verified (including the documented deficit
of the naive quad diagram, which counts as verified when reproduced exactly),
1 when a claim fails or assembly breaks, 2 for invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from typing import Iterable

from .complexcheck import (
    DIAGRAMS,
    NAIVE_DIAGRAM,
    appendix_report,
    audit_report,
    dof_comparison,
    naive_quad_report,
    verify_diagram,
)
from .exactla import ExactSolveError, ExactWidthExceeded
from .fespace import SpanError
from .hodge import hodge_report
from .mesh import MeshKind, build_mesh, entity_counts
from .operators import MembershipError
from .refcheck import refcheck_report
from .report import Report

__all__ = ["main", "build_parser"]

_KINDS = {"tri": MeshKind.TRIANGULAR, "quad": MeshKind.CARTESIAN}


def k_range(text: str) -> range:
    """Parse a level argument: '2' or a range '0..2', of levels >= 0, as a
    lazy ``range``."""
    try:
        parts = [int(part) for part in text.split("..", 1)]
    except ValueError:
        parts = []
    if not parts or parts[-1] < parts[0]:
        raise argparse.ArgumentTypeError(f"expected K or LO..HI, got {text!r}")
    lo, hi = parts[0], parts[-1]
    if lo < 0:
        raise argparse.ArgumentTypeError(f"levels must be >= 0, got {text!r}")
    return range(lo, hi + 1)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report rendering (default text)")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="also write the rendered report to PATH")

    ap = argparse.ArgumentParser(
        prog="derham",
        description="Construct discrete complexes on periodic meshes and "
                    "machine-check their rank, kernel and decomposition claims "
                    "in exact rational arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-info", parents=[common],
                       help="entity counts and Euler characteristic")
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="verify the structural claims of a diagram on a mesh")
    p.add_argument("--diagram", choices=sorted(DIAGRAMS) + [NAIVE_DIAGRAM])
    p.add_argument("--all", action="store_true",
                   help="run the whole verification matrix (ignores --diagram/--nx/--ny/--k)")
    p.add_argument("--nx", type=int, default=2)
    p.add_argument("--ny", type=int, default=2)
    p.add_argument("--k", type=k_range, default=range(1), metavar="K|LO..HI")
    p.add_argument("--float-check", action="store_true",
                   help="cross-check exact ranks against float SVD ranks")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for campaigns (default 1)")

    p = sub.add_parser("refcheck", parents=[common],
                       help="reference-cell boundary map, bubbles and decomposition")
    p.add_argument("--cell", choices=("tri", "quad"), required=True)
    p.add_argument("--k", type=k_range, default=range(1), metavar="K|LO..HI")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("appendix", parents=[common],
                       help="jump-constraint nullity of the per-cell three-field family")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)

    p = sub.add_parser("hodge", parents=[common],
                       help="orthogonal three-way splitting of seeded random fields")
    p.add_argument("--diagram", choices=sorted(DIAGRAMS), required=True)
    p.add_argument("--nx", type=int, default=2)
    p.add_argument("--ny", type=int, default=2)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--fields", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative tolerance for the float backend (default 1e-10)")

    p = sub.add_parser("audit", parents=[common],
                       help="space dimensions against closed forms, plus dof comparison")
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--nx", type=int, default=2)
    p.add_argument("--ny", type=int, default=2)
    p.add_argument("--k-max", type=int, default=3)
    return ap


def _run_job(job: tuple) -> Report:
    """Verification worker; top level so process pools can pickle it."""
    if job[0] == "naive":
        _, nx, ny, fc = job
        return naive_quad_report(nx, ny, float_check=fc)
    _, name, nx, ny, k, fc = job
    return verify_diagram(name, nx, ny, k, float_check=fc)


def _verify_jobs(args) -> tuple[int, Iterable[tuple]]:
    """The number of verify jobs and the jobs, lazily one per level of
    ``--k`` for one diagram."""
    if args.all:
        jobs: list[tuple] = []
        for name in ("tri-dp", "tri-dp-curl", "quad-enriched", "quad-enriched-curl"):
            for nx, ny in ((2, 2), (3, 2)):
                for k in range(3):
                    jobs.append(("diagram", name, nx, ny, k, True))
        for name in ("tri-drt", "tri-dn", "quad-drt", "quad-dn"):
            for k in range(2):
                jobs.append(("diagram", name, 2, 2, k, True))
        for nx, ny in ((2, 2), (3, 4), (4, 3)):
            jobs.append(("naive", nx, ny, True))
        return len(jobs), jobs
    if not args.diagram:
        raise ValueError("verify needs --diagram or --all")
    if args.diagram == NAIVE_DIAGRAM:
        if args.k != range(1):
            k = args.k
            levels = f"{k[0]}" if k[0] == k[-1] else f"{k[0]}..{k[-1]}"
            raise ValueError(f"{NAIVE_DIAGRAM} is defined at k = 0 only, got --k {levels}")
        return 1, [("naive", args.nx, args.ny, args.float_check)]
    count = args.k.stop - args.k.start  # len() of a range past sys.maxsize raises
    return count, (("diagram", args.diagram, args.nx, args.ny, k, args.float_check)
                   for k in args.k)


def _run_reports(count: int, jobs: Iterable[tuple], n_jobs: int) -> list[Report]:
    """Run the ``count`` jobs in order, drawn as they are needed: inline one
    at a time, into a pool a few per worker at a time."""
    if n_jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {n_jobs}")
    # the fork start method starts every worker up front, so never ask for
    # more workers than there are jobs or cores
    workers = min(n_jobs, count, os.cpu_count() or 1)
    if workers < 2:
        return [_run_job(job) for job in jobs]
    jobs = iter(jobs)
    batches = iter(lambda: list(islice(jobs, 4 * workers)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:  # map keeps submission order
        return [report for batch in batches for report in pool.map(_run_job, batch)]


def _check_output(path: str) -> None:
    """Raise OSError now, before any report runs, when ``path`` cannot be
    written; leaves no file behind that was not there."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _write(text: str, output: str | None) -> None:
    print(text)
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _emit(reports: list[Report], fmt: str, output: str | None = None) -> int:
    ok = all(r.passed for r in reports)
    if fmt == "json":
        doc = {"schema": 1, "passed": ok, "reports": [r.to_dict() for r in reports]}
        text = json.dumps(doc, indent=2)
    else:
        lines = [r.format_text() for r in reports]
        if len(reports) > 1:
            n = sum(1 for r in reports if r.passed)
            lines.append(f"== summary: {n}/{len(reports)} reports passed")
        text = "\n".join(lines)
    _write(text, output)
    return 0 if ok else 1


def _dispatch(args) -> int:
    if args.command == "mesh-info":
        mesh = build_mesh(_KINDS[args.kind], args.nx, args.ny)
        info = mesh.summary()
        expected = entity_counts(mesh.kind, args.nx, args.ny)
        counts = (info["cells"], info["faces"], info["points"])
        ok = counts == expected and info["euler_characteristic"] == 0
        if args.format == "json":
            info["counts_match_formulas"] = ok
            text = json.dumps(info, indent=2)
        else:
            line = (f"kind={args.kind} nx={args.nx} ny={args.ny}: "
                    f"cells={info['cells']} faces={info['faces']} "
                    f"points={info['points']} euler={info['euler_characteristic']}")
            text = line if ok else line + "  [MISMATCH]"
        _write(text, args.output)
        return 0 if ok else 1
    if args.command == "verify":
        return _emit(_run_reports(*_verify_jobs(args), args.jobs), args.format, args.output)
    if args.command == "refcheck":
        cell = {"tri": "triangle", "quad": "square"}[args.cell]
        reports = [refcheck_report(cell, k, samples=args.samples, seed=args.seed)
                   for k in args.k]
        return _emit(reports, args.format, args.output)
    if args.command == "appendix":
        return _emit([appendix_report(args.nx, args.ny)], args.format, args.output)
    if args.command == "hodge":
        rep = hodge_report(args.diagram, args.nx, args.ny, args.k,
                           fields=args.fields, seed=args.seed,
                           backend=args.backend, tol=args.tol)
        return _emit([rep], args.format, args.output)
    if args.command == "audit":
        reports = [audit_report(_KINDS[args.kind], args.nx, args.ny, args.k_max),
                   dof_comparison(args.k_max)]
        return _emit(reports, args.format, args.output)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.output is not None:
        try:
            _check_output(args.output)
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    try:
        return _dispatch(args)
    except (MembershipError, SpanError, ExactSolveError, AssertionError) as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    except ExactWidthExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        if getattr(args, "float_check", False):
            advice = " or drop --float-check"
        elif getattr(args, "backend", "exact") != "exact":
            advice = " or use --backend exact"
        else:
            advice = ""
        what = f": {exc}" if str(exc) else " ran out of memory"
        print(f"error: {args.command}{what}; try a smaller mesh{advice}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
