"""Spans around derham's public calls, installed from outside ``src/``.

``Tracer.install`` rebinds each traced public name in every derham module
that imported it, and wraps the traced methods on their classes; the
returned ``undo`` restores every original.  Nothing here runs unless the
benchmark is started with ``--trace 1``.

A span is ``[name, start, end, parent, report]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``report`` the job id of the pass
that caused it.  Spans stay in memory until the run writes them out.
Aggregates are kept as spans close: a span's busy time counts only when no
span of the same name encloses it, and its self time is its duration minus
its direct children's.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (derham module, attribute or Class.method, span name)
_PATCHES = [
    ("complexcheck", "rank_nullspace", "exactla.rank_nullspace"),
    ("hodge", "rank_nullspace", "exactla.rank_nullspace"),
    ("refcheck", "rank_nullspace", "exactla.rank_nullspace"),
    ("complexcheck", "span_compare", "exactla.span_compare"),
    ("refcheck", "span_compare", "exactla.span_compare"),
    ("complexcheck", "float_rank", "exactla.float_rank"),
    ("hodge", "float_rank", "exactla.float_rank"),
    ("hodge", "solve_square", "exactla.solve_square"),
    ("operators", "solve_square", "exactla.solve_square"),
    ("fespace", "solve_square", "exactla.solve_square"),
    ("refcheck", "solve_square", "exactla.solve_square"),
    ("refcheck", "rank_of_columns", "exactla.rank_of_columns"),
    ("refcheck", "solve_any", "exactla.solve_any"),
    ("refcheck", "mat_vec", "exactla.mat_vec"),
    ("refcheck", "transpose", "exactla.transpose"),
    ("exactla", "LinearExpander.__init__", "exactla.expander"),
    ("exactla", "LinearExpander.expand", "exactla.expander"),
    ("complexcheck", "assemble_grad_perp", "operators.assemble"),
    ("complexcheck", "assemble_grad", "operators.assemble"),
    ("complexcheck", "assemble_div_distributional", "operators.assemble"),
    ("complexcheck", "assemble_curl_distributional", "operators.assemble"),
    ("complexcheck", "assemble_gram", "operators.assemble"),
    ("operators", "OpMatrix.dense_rows", "operators.densify"),
    ("operators", "OpMatrix.columns", "operators.densify"),
    ("operators", "OpMatrix.column", "operators.densify"),
    ("operators", "GramMatrix.dense_rows", "operators.densify"),
    ("operators", "OpMatrix.matvec", "operators.sparse_apply"),
    ("operators", "OpMatrix.rmatvec", "operators.sparse_apply"),
    ("operators", "OpMatrix.compose", "operators.sparse_apply"),
    ("operators", "GramMatrix.matvec", "operators.gram_apply"),
    ("operators", "GramMatrix.inner", "operators.gram_apply"),
    ("operators", "GramMatrix.solve_columns", "operators.gram_solve"),
    ("hodge", "adjoint", "operators.adjoint"),
    ("fespace", "ContinuousScalarSpace.__init__", "fespace.spaces"),
    ("fespace", "DGVectorSpace.__init__", "fespace.spaces"),
    ("fespace", "CodomainSpace.__init__", "fespace.spaces"),
    ("complexcheck", "build_mesh", "mesh.build_mesh"),
    ("complexcheck", "build_diagram", "complexcheck.build_diagram"),
    ("hodge", "build_diagram", "complexcheck.build_diagram"),
    ("complexcheck", "verify_diagram", "complexcheck.reports"),
    ("complexcheck", "naive_quad_report", "complexcheck.reports"),
    ("complexcheck", "appendix_report", "complexcheck.reports"),
    ("complexcheck", "audit_report", "complexcheck.reports"),
    ("complexcheck", "dof_comparison", "complexcheck.reports"),
    ("refcheck", "refcheck_report", "refcheck.refcheck_report"),
    ("hodge", "hodge_report", "hodge.hodge_report"),
    ("hodge", "HodgeSplitter.__init__", "hodge.HodgeSplitter.init"),
    ("hodge", "HodgeSplitter.split_batch", "hodge.split_batch"),
    ("hodge", "FloatHodgeSplitter.__init__", "hodge.FloatHodgeSplitter"),
    ("hodge", "FloatHodgeSplitter.split", "hodge.FloatHodgeSplitter"),
]


def _ncols(result, args, kwargs) -> int:
    return result.ncols


def _rhs_cols(result, args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["rhs"])


# span name -> (count name, tally); every span also counts its calls
_TALLIES = {
    "exactla.rank_nullspace": ("exactla.rank_nullspace.cols", _ncols),
    "exactla.solve_square": ("exactla.solve_square.rhs_cols", _rhs_cols),
}
# only the first and second operators carry nnz; the Gram assembly does not
_NNZ_SOURCES = {"assemble_grad_perp", "assemble_grad",
                "assemble_div_distributional", "assemble_curl_distributional"}

# per-layer metric -> (aggregate, span name); busy and self are seconds per pass
LAYER_TIMES = {
    "exactla.rank_nullspace.busy_s": ("busy", "exactla.rank_nullspace"),
    "exactla.span_compare.busy_s": ("busy", "exactla.span_compare"),
    "exactla.solve_square.busy_s": ("busy", "exactla.solve_square"),
    "exactla.expander.busy_s": ("busy", "exactla.expander"),
    "exactla.float_rank.busy_s": ("busy", "exactla.float_rank"),
    "operators.assemble.busy_s": ("busy", "operators.assemble"),
    "operators.densify.busy_s": ("busy", "operators.densify"),
    "operators.sparse_apply.busy_s": ("busy", "operators.sparse_apply"),
    "operators.gram_apply.busy_s": ("busy", "operators.gram_apply"),
    "operators.adjoint.busy_s": ("busy", "operators.adjoint"),
    "fespace.spaces.busy_s": ("busy", "fespace.spaces"),
    "mesh.build_mesh.busy_s": ("busy", "mesh.build_mesh"),
    "complexcheck.build_diagram.busy_s": ("busy", "complexcheck.build_diagram"),
    "complexcheck.reports.self_s": ("self", "complexcheck.reports"),
    "refcheck.refcheck_report.busy_s": ("busy", "refcheck.refcheck_report"),
    "hodge.HodgeSplitter.init_s": ("busy", "hodge.HodgeSplitter.init"),
    "hodge.split_batch.busy_s": ("busy", "hodge.split_batch"),
    "hodge.FloatHodgeSplitter.busy_s": ("busy", "hodge.FloatHodgeSplitter"),
    "hodge.hodge_report.self_s": ("self", "hodge.hodge_report"),
    "report.render_s": ("busy", "report.render"),
}
# per-layer count metric -> count name; counts are per pass and repeat exactly
LAYER_COUNTS = {
    "exactla.rank_nullspace.calls": "exactla.rank_nullspace",
    "exactla.rank_nullspace.cols": "exactla.rank_nullspace.cols",
    "exactla.span_compare.calls": "exactla.span_compare",
    "exactla.solve_square.rhs_cols": "exactla.solve_square.rhs_cols",
    "operators.nnz": "operators.nnz",
}

ROOT = "report"


class Tracer:
    """In-memory span recorder with per-name busy, self and count totals."""

    def __init__(self):
        self.spans: list[list] = []
        self.report: str | None = None
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._child: list[float] = []   # child time of each open span
        self._open: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, nnz: bool = False):
        """Wrap ``fn`` so each call records a span called ``name``."""
        tally = _TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self.report]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self._child.append(0.0)
            self._open[name] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                dur = end - rec[1]
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dur
                if not self._open[name]:
                    self.busy[name] += dur
                self.self_time[name] += dur - child
                self.counts[name] += 1
            if tally is not None:
                self.counts[tally[0]] += tally[1](result, args, kwargs)
            if nnz:
                self.counts["operators.nnz"] += result.nnz
            return result

        return traced

    def install(self):
        """Rebind every traced name; returns a function that undoes it."""
        saved = []
        for mod_name, attr, name in _PATCHES:
            owner = importlib.import_module(f"derham.{mod_name}")
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, nnz=attr in _NNZ_SOURCES))

        def undo():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return undo

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent == -1)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass busy/self seconds and counts over ``passes`` traced passes."""
        out: dict[str, float] = {}
        for metric, (agg, name) in LAYER_TIMES.items():
            table = self.busy if agg == "busy" else self.self_time
            out[metric] = table.get(name, 0.0) / passes
        for metric, name in LAYER_COUNTS.items():
            total = self.counts.get(name, 0)
            out[metric] = total // passes if total % passes == 0 else total / passes
        return out
