"""Verification of the two-step discrete complexes on periodic meshes.

Every registered diagram has the shape

    continuous scalars, degree k+1  --first-->  vector cells  --second-->  cell/face factors

where ``first`` is the rotated gradient or the gradient and ``second`` is the
matching distributional divergence or curl.  ``verify_diagram`` machine-checks
the full claim set on an actual mesh: the composition vanishes, kernel and
rank of both operators match their closed forms, the kernel of the second
operator splits as range(first) plus the two constant fields with exact
orthogonality, the codomain splits as range(second) plus the uniform element,
and the harmonic space is exactly the span of the constant fields.  The
resulting cohomology dimensions are the torus Betti numbers 1, 2, 1.

Every claim is certified from exact witnesses plus exact ranks from
``exactla.prefix_ranks``, which reads the integer operators themselves,
combined by counting dimensions.  The witnesses take few kernels: first 1
= 0 is one sum of first's numerators per row, and second first, (G_b C)^T
first, second C and the constants' 2x2 Gram matrix are two products of one
stack [second; (G_b C)^T], each zero test read from the row pointers of a
row range.  On a healthy diagram the ranks are local: each cell's block of
first and of second^T (read from second's columns, no transpose formed)
has a one-dimensional kernel, the cells glue into one component through
shared dofs, and G_b is positive definite.  Every distinct block of both
operators is ranked in one elimination, placed block-diagonally, so no row
meets more than one cell's block.  Every definiteness verdict, of each Gram
block and of the constants' 2x2 Gram matrix, is
``exactla.positive_definite``.  Otherwise the ranks are those of two global
stacks.  No report here computes a nullspace or compares spans.

Also here: the rank-deficient naive quad diagram (a diagnostic whose report
passes when the predicted failure is reproduced exactly), the jump-constraint
nullity count for the per-cell three-field family, and the per-cell dof
comparison against the jump-relaxed classical elements.  The appendix reads
its jumps from ``operators.assemble_jumps`` on the local family ``flat_quad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactla import _components, float_rank, positive_definite, prefix_ranks
from .exactla import rank_nullspace  # unused; perfbench/tracing.py rebinds it here
from .exactla import span_compare  # unused; perfbench/tracing.py rebinds it here
from .fespace import (
    CodomainSpace,
    ContinuousScalarSpace,
    DGVectorSpace,
    audit_dimensions,
    dimension_formula,
    local_dim,
)
from .mesh import Mesh, MeshKind, build_mesh
from .operators import (
    GramMatrix,
    assemble_curl_distributional,
    assemble_div_distributional,
    assemble_grad,
    assemble_grad_perp,
    assemble_gram,
    assemble_jumps,
)
from .report import Report
from .sparse import OpMatrix, _runs

__all__ = [
    "DiagramSpec",
    "DIAGRAMS",
    "NAIVE_DIAGRAM",
    "DiagramInstance",
    "build_diagram",
    "ComplexCertificate",
    "certify_complex",
    "verify_diagram",
    "naive_quad_report",
    "appendix_report",
    "dof_comparison",
    "audit_report",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DiagramSpec:
    """Recipe for one diagram: family, route, and codomain cell factor."""

    name: str
    kind: MeshKind
    family: str
    first: str            # "grad_perp" or "grad"
    second: str           # "div" or "curl"
    cell_family: str | None
    cell_shift: int       # codomain cell factor parameter is k + cell_shift
    formula_c: str        # closed-form name for the codomain dimension
    note: str = ""


DIAGRAMS: dict[str, DiagramSpec] = {
    s.name: s
    for s in [
        DiagramSpec("tri-dp", MeshKind.TRIANGULAR, "vec_p", "grad_perp", "div",
                    "p", -1, "codomain_low",
                    "discontinuous P_k triangles, distributional divergence"),
        DiagramSpec("tri-dp-curl", MeshKind.TRIANGULAR, "vec_p", "grad", "curl",
                    "p", -1, "codomain_low",
                    "rotated twin: gradient in, distributional curl out"),
        DiagramSpec("quad-enriched", MeshKind.CARTESIAN, "vec_qdiv", "grad_perp", "div",
                    "qhat", 0, "codomain_low",
                    "enriched quads holding rotated gradients of Q_{k+1}"),
        DiagramSpec("quad-enriched-curl", MeshKind.CARTESIAN, "vec_qcurl", "grad", "curl",
                    "qhat", 0, "codomain_low",
                    "enriched quads holding gradients of Q_{k+1}"),
        DiagramSpec("tri-drt", MeshKind.TRIANGULAR, "rt_tri", "grad_perp", "div",
                    "p", 0, "codomain_full",
                    "jump-relaxed Raviart-Thomas triangles"),
        DiagramSpec("tri-dn", MeshKind.TRIANGULAR, "ned_tri", "grad", "curl",
                    "p", 0, "codomain_full",
                    "jump-relaxed Nedelec triangles"),
        DiagramSpec("quad-drt", MeshKind.CARTESIAN, "rt_quad", "grad_perp", "div",
                    "q", 0, "codomain_full",
                    "jump-relaxed Raviart-Thomas quads"),
        DiagramSpec("quad-dn", MeshKind.CARTESIAN, "ned_quad", "grad", "curl",
                    "q", 0, "codomain_full",
                    "jump-relaxed Nedelec quads"),
    ]
}

# rank-deficient by design; handled by naive_quad_report, not verify_diagram
NAIVE_DIAGRAM = "quad-naive-k0"


@dataclass
class DiagramInstance:
    """One diagram assembled on one mesh at one level."""

    spec: DiagramSpec
    mesh: Mesh
    k: int
    a_space: ContinuousScalarSpace
    b_space: DGVectorSpace
    c_space: CodomainSpace
    first: OpMatrix
    second: OpMatrix
    gram_b: GramMatrix
    gram_c: GramMatrix
    _constants: tuple[OpMatrix, OpMatrix] | None = field(default=None, init=False, repr=False,
                                                         compare=False)

    def constant_fields(self) -> list[list[Fraction]]:
        """Coefficient vectors of the fields (1,0) and (0,1)."""
        return [self.b_space.constant_vector(1, 0), self.b_space.constant_vector(0, 1)]

    def constant_operators(self) -> tuple[OpMatrix, OpMatrix]:
        """C, the two constant fields as columns, and (G_b C)^T, formed once
        per instance and shared by every caller; read only.  C places each
        chart's cached integer stamp of the constants at the chart's cells
        (``DGVectorSpace.constant_columns``), with no ``Fraction`` per dof."""
        if self._constants is None:
            consts = self.b_space.constant_columns((1, 0), (0, 1))
            self._constants = consts, self.gram_b.compose(consts).transpose()
        return self._constants


def build_diagram(name: str, nx: int, ny: int, k: int, lx=1, ly=1) -> DiagramInstance:
    spec = DIAGRAMS.get(name)
    if spec is None:
        raise ValueError(f"unknown diagram {name!r}; choose from {sorted(DIAGRAMS)}")
    if k < 0:
        raise ValueError("level k must be >= 0")
    mesh = build_mesh(spec.kind, nx, ny, lx, ly)
    a_space = ContinuousScalarSpace(mesh, k + 1)
    b_space = DGVectorSpace(mesh, spec.family, k)
    c_space = CodomainSpace(mesh, k, spec.cell_family, k + spec.cell_shift)
    if spec.first == "grad_perp":
        first = assemble_grad_perp(a_space, b_space)
    else:
        first = assemble_grad(a_space, b_space)
    if spec.second == "div":
        second = assemble_div_distributional(b_space, c_space)
    else:
        second = assemble_curl_distributional(b_space, c_space)
    return DiagramInstance(spec, mesh, k, a_space, b_space, c_space,
                           first, second, assemble_gram(b_space), assemble_gram(c_space))


@dataclass
class ComplexCertificate:
    """Exact witnesses and rank facts of one diagram, for verify and Hodge."""

    composes_to_zero: bool        # second first = 0
    kills_constants: bool         # first 1 = 0
    constants_orthogonal: bool    # (G_b first)^T const = 0
    uniform_orthogonal: bool      # second^T G_c u = 0, u the uniform element
    rank_first: int
    rank_second: int
    kernel_is_range_plus_constants: bool
    harmonic_dim: int
    harmonic_is_constants: bool


def _mixers(n: int) -> np.ndarray:
    """n fixed pseudo-random int64 weights (a splitmix64-style hash of the
    position), so a weighted sum of small integers rarely collides; products
    wrap, which only mixes them more."""
    w = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    w ^= w >> np.uint64(31)
    w *= np.uint64(0xBF58476D1CE4E5B9)
    return w.view(np.int64)


def _cell_blocks(op: OpMatrix, cell_size: int, weight,
                 by_columns: bool = False) -> list[np.ndarray] | None:
    """The distinct cell blocks of ``op``, or of op^T when ``by_columns``
    (op's columns read as the rows of op^T, with no transpose formed), as
    (m, cell_size, n) stacks of the m distinct blocks of n columns; None when
    a check that needs no rank fails.  Only the support of ``weight`` is
    read, so it may be any sequence that is true exactly where weight is
    nonzero.

    The rows come in cells of ``cell_size``.  A cell's block is its rows
    restricted to the dofs they touch, read as integer numerators: each row
    of op over its denominator, which scales a row of the block, or a
    column of it when ``by_columns``, by a positive integer and keeps its
    rank.  The checks: the rows fill whole cells, every dof is touched,
    every cell touches a dof where weight is nonzero, and the cells join
    into one component through shared dofs where weight is nonzero.

    Every step is a kernel over whole arrays.  The nonzeros are gathered
    into one column per (cell, dof), and each cell's columns are sorted by
    content (the rank does not depend on their order, nor on the dof
    numbers).  Cells with the same number of columns are sorted by a
    fingerprint of their blocks and compared with their neighbours, so each
    distinct block is kept once.  The joins are the connected components
    (``exactla._components``) of the cell-dof incidence where weight is
    nonzero.
    """
    nrows, ncols = op.shape[::-1] if by_columns else op.shape
    ncells = nrows // cell_size
    if not ncells or ncells * cell_size != nrows or not op.nnz:
        return None
    ptr, dofs, num, _ = op.integer_rows()
    rows = np.arange(op.nrows).repeat(np.diff(ptr))
    if by_columns:
        rows, dofs = dofs, rows
    touched = np.zeros(ncols, dtype=bool)
    touched[dofs] = True
    if not touched.all():
        return None
    support = np.asarray(weight, dtype=bool)
    # one block column per (cell, dof), in (cell, dof) order
    keys = rows // cell_size * ncols + dofs
    order = keys.argsort()
    keys = keys[order]
    starts, lengths = _runs(keys)
    blocks = np.zeros((starts.size, cell_size), dtype=num.dtype)
    blocks[np.arange(starts.size).repeat(lengths), rows[order] % cell_size] = num[order]
    column_cell, column_dof = np.divmod(keys[starts], ncols)
    weighted = support[column_dof]
    joins = np.bincount(column_cell[weighted], minlength=ncells)
    if not joins.all():  # a cell without a dof where weight is nonzero
        return None
    labels = _components(np.concatenate(([0], joins.cumsum())), column_dof[weighted], ncells)
    if labels.any():
        return None
    # each cell's columns sorted by content, cells one after another
    blocks = blocks[np.lexsort((*blocks.T[::-1], column_cell))]
    counts = np.bincount(column_cell, minlength=ncells)
    firsts = counts.cumsum() - counts
    stacks = []
    for n in np.bincount(counts).nonzero()[0].tolist():
        cells = (counts == n).nonzero()[0]
        same = blocks[firsts[cells, None] + np.arange(n)].reshape(cells.size, n * cell_size)
        # equal blocks have equal fingerprints, so sorted by fingerprint every
        # block equals its predecessor or is kept itself; a collision only
        # keeps a block twice
        same = same[(same @ _mixers(same.shape[1])).argsort(kind="stable")]
        new = np.ones(cells.size, dtype=bool)
        new[1:] = (same[1:] != same[:-1]).any(axis=1)
        stacks.append(same[new].reshape(-1, n, cell_size).transpose(0, 2, 1))
    return stacks


def _corank_one(stacks: list[np.ndarray]) -> bool:
    """Whether every block of n columns in the (m, cell_size, n) stacks has
    rank n - 1, from one elimination: the blocks placed block-diagonally
    (``OpMatrix.from_integer_blocks``) and handed to one ``prefix_ranks``,
    a block per prefix, so each block's rank is the step between two
    prefix ranks.  A block that kills a nonzero vector has rank at most
    n - 1, so when every block does the bounds Σ(n - 1) over each prefix
    hold and a rank mod p can close them; when no prime closes them all,
    ``prefix_ranks`` eliminates the blocks over Q."""
    diag = OpMatrix.from_integer_blocks(stacks)
    cell_size = stacks[0].shape[1]
    bounds = np.concatenate([np.full(s.shape[0], s.shape[2] - 1) for s in stacks]).cumsum()
    blocks = [diag.row_block(top, top + cell_size) for top in range(0, diag.nrows, cell_size)]
    return prefix_ranks(blocks, bounds.tolist()) == bounds.tolist()


def _rows_over_lcm(m: OpMatrix, start: int, stop: int) -> list[list[int]]:
    """Rows start..stop-1 of m, dense, as Python ints: L times the rows, L
    the lcm of their denominators, which keeps symmetry and definiteness."""
    ptr, cols, num, den = m.integer_rows()
    total = math.lcm(*den[start:stop].tolist())
    out = [[0] * m.ncols for _ in range(start, stop)]
    for row, r in zip(out, range(start, stop)):
        scale = total // int(den[r])
        for c, v in zip(cols[ptr[r]:ptr[r + 1]].tolist(), num[ptr[r]:ptr[r + 1]].tolist()):
            row[c] = v * scale
    return out


def _local_route(inst: DiagramInstance, weight_c, gram_consts: list[list[int]]) -> bool:
    """Whether the per-cell certificate closes every rank fact, given every
    witness and G_b positive definite: ker(first) = span(1) and
    ker(second^T) = span(G_c u), from first's rows and second's columns
    (``_cell_blocks``), with ``weight_c`` the support of G_c u and 1 nonzero
    at every dof, all their distinct blocks ranked in one elimination
    (``_corank_one``); the constants independent (their 2x2 Gram matrix
    ``gram_consts``, rows of exact values, positive definite) and dim A -
    dim B + dim C = 0.

    Each operator kills its weight (the witnesses), so the weight
    restricted to a cell's block lies in the block's kernel, and rank =
    ncols - 1 makes that kernel span(weight) when weight is nonzero on the
    block.  A kernel vector is then a multiple of weight on each cell, the
    same multiple on cells that share a dof where weight is nonzero; if
    those joins leave one component and every dof is touched, it is a
    multiple of weight."""
    size = inst.b_space.local_dim
    if not (inst.a_space.dim - inst.b_space.dim + inst.c_space.dim == 0
            and positive_definite(gram_consts)):
        return False
    first = _cell_blocks(inst.first, size, np.ones(inst.a_space.dim, dtype=bool))
    second = None if first is None else _cell_blocks(inst.second, size, weight_c,
                                                     by_columns=True)
    return second is not None and _corank_one(first + second)


def certify_complex(inst: DiagramInstance) -> ComplexCertificate:
    """Exact witnesses of one diagram plus every rank fact, healthy or not.

    The witnesses: first 1 = 0, read from first's row sums; second first,
    (G_b C)^T first, second C and the constants' 2x2 Gram matrix C^T G_b C,
    read from two products of one stack, [second; (G_b C)^T] first and
    [second; (G_b C)^T] C, each zero test on the row pointers of a row
    range; and (G_c u)^T second.  C is the two constant fields (independent,
    as expansions of two independent fields in a basis of B) and u the
    uniform element of C.

    Local route, tried first when every witness holds and G_c u is nonzero:
    each cell's block of first and of second^T, read from second's
    columns, has a one-dimensional kernel, and the cells glue into one
    component (``_cell_blocks``); every distinct block of both is ranked in
    one elimination (``_corank_one``), so rank(first) = dim A - 1 and
    rank(second) = dim C - 1.  G_b is positive definite, so range(first)
    meets the G_b-orthogonal constants only in 0; with dim A - dim B + dim C
    = 0, range(first) + constants fills dim ker(second) = dim A + 1, and
    the harmonic space, the G_b-complement of range(first) in ker(second),
    has dimension 2 and holds the constants.

    Otherwise four exact prefix ranks carry the rank claims: rank(first) and
    rank([range(first) | constants]) from [first^T; constants], rank(second)
    and rank([second; (G_b first)^T]) from the second stack.  Witnesses that
    hold give upper bounds, so a rank mod p can close them; otherwise
    ``prefix_ranks`` eliminates over Q.  The kernel and harmonic facts then
    follow by counting dimensions:

    - range(first) and the constants lie in ker(second) when second first = 0
      and second const = 0, and then span it exactly when
      rank([range(first) | constants]) = dim B - rank(second);
    - the harmonic space is the kernel of [second; (G_b first)^T]; it holds
      the constants when second const = 0 and (G_b first)^T const = 0, and
      is their span exactly when its dimension is 2.
    """
    first, second = inst.first, inst.second
    dim_a, dim_b, dim_c = inst.a_space.dim, inst.b_space.dim, inst.c_space.dim
    consts, gram_consts_t = inst.constant_operators()
    gram_spd = inst.gram_b.positive_definite()
    # rows 0..dim_c - 1 of each product come from second, the last two
    # from (G_b C)^T
    on_first, on_consts = map(OpMatrix.stack([second, gram_consts_t]).compose, (first, consts))
    ptr = on_first.integer_rows()[0]
    composes_to_zero = bool(ptr[dim_c] == 0)
    # (G_b C)^T first is the transpose of (G_b first)^T C when G_b is
    # symmetric, as gram_spd certifies
    constants_orthogonal = bool(ptr[dim_c] == ptr[-1])
    second_kills_constants = bool(on_consts.integer_rows()[0][dim_c] == 0)
    kills_constants = first.rows_sum_to_zero()
    # (G_c u)^T, one row
    gram_uniform = inst.gram_c.compose(inst.c_space.uniform_column()).transpose()
    uniform_orthogonal = gram_uniform.compose(second).is_zero
    stack_witnesses = (gram_spd and uniform_orthogonal and not gram_uniform.is_zero
                       and second_kills_constants and constants_orthogonal)
    if (stack_witnesses and composes_to_zero and kills_constants
            and _local_route(inst, ~gram_uniform.zero_columns(),
                             _rows_over_lcm(on_consts, dim_c, dim_c + 2))):
        return ComplexCertificate(composes_to_zero, kills_constants, constants_orthogonal,
                                  uniform_orthogonal, dim_a - 1, dim_c - 1, True, 2, True)
    # first 1 = 0 caps rank(first) at dim A - 1; the constants add at most 2
    rank_first, rank_union = prefix_ranks(
        [first.transpose(), consts.transpose()],
        [dim_a - 1, dim_a + 1] if kills_constants else None)
    # a nonzero G_c u caps rank(second) at dim C - 1, and the constants in the
    # kernel of the stack cap it at dim B - 2
    rank_second, rank_stack = prefix_ranks(
        [second, inst.gram_b.compose(first).transpose()],
        [dim_c - 1, dim_b - 2] if stack_witnesses else None)
    harmonic_dim = dim_b - rank_stack
    return ComplexCertificate(
        composes_to_zero, kills_constants, constants_orthogonal, uniform_orthogonal,
        rank_first, rank_second,
        composes_to_zero and second_kills_constants and rank_union == dim_b - rank_second,
        harmonic_dim,
        second_kills_constants and constants_orthogonal and harmonic_dim == 2)


def verify_diagram(name: str, nx: int, ny: int, k: int,
                   float_check: bool = False, lx=1, ly=1) -> Report:
    """Machine-check every structural claim of one diagram on one mesh.

    Ranks come from ``certify_complex``: per-cell blocks on a healthy
    diagram, else exact prefix ranks of two global stacks.
    """
    rep = Report("diagram verification")  # the clock counts the build
    inst = build_diagram(name, nx, ny, k, lx, ly)
    spec = inst.spec
    n = inst.mesh.num_cells
    rep.params = {"diagram": name, "nx": nx, "ny": ny, "k": k,
                  "family": spec.family, "note": spec.note}

    dim_a = inst.a_space.dim
    dim_b = inst.b_space.dim
    dim_c = inst.c_space.dim
    rep.check("dim_A", dimension_formula(spec.kind, "scalar_continuous", k, n), dim_a)
    rep.check("dim_B", n * local_dim(spec.family, k), dim_b)
    rep.check("dim_C", dimension_formula(spec.kind, spec.formula_c, k, n), dim_c)

    cert = certify_complex(inst)
    rank_a, rank_b = cert.rank_first, cert.rank_second

    rep.check("second_after_first_is_zero", True, cert.composes_to_zero)
    rep.check("first_rank", dim_a - 1, rank_a)
    rep.check("first_kernel_dim", 1, dim_a - rank_a)
    rep.check("first_kernel_is_constants", True, dim_a - rank_a == 1 and cert.kills_constants)
    rep.check("second_rank", dim_c - 1, rank_b)
    rep.check("second_kernel_dim", dim_a + 1, dim_b - rank_b)
    rep.check("second_kernel_is_range_plus_constants", True,
              cert.kernel_is_range_plus_constants)
    rep.check("constants_orthogonal_to_first_range", True, cert.constants_orthogonal)
    rep.check("uniform_orthogonal_to_second_range", True, cert.uniform_orthogonal)
    rep.check("second_range_plus_uniform_fills_codomain", dim_c, rank_b + 1)
    rep.check("harmonic_dim", 2, cert.harmonic_dim)
    rep.check("harmonic_fields_are_constants", True, cert.harmonic_is_constants)

    rep.check("betti_numbers", [1, 2, 1],
              [dim_a - rank_a, dim_b - rank_b - rank_a, dim_c - rank_b])

    if float_check:
        rep.check("first_rank_float", rank_a,
                  float_rank(inst.first, spaces=(inst.b_space, inst.a_space)), backend="float")
        rep.check("second_rank_float", rank_b,
                  float_rank(inst.second, spaces=(inst.c_space, inst.b_space)), backend="float")

    rep.witnesses = {"rank_first": rank_a, "rank_second": rank_b,
                     "dims": [dim_a, dim_b, dim_c]}
    return rep.finish()


def _strip_fields(b_space: DGVectorSpace) -> OpMatrix:
    """Kernel witnesses of the naive diagram as columns: column j is the
    x-field constant on row j of cells, column ny + i the y-field constant
    on column i of cells."""
    nx, ny = b_space.mesh.nx, b_space.mesh.ny
    placed = []
    for stamp, cells in zip(b_space.constant_stamps((1, 0), (0, 1)), b_space.mesh.chart_cells):
        j, i = np.divmod(cells, nx)  # the cell is (i, j) on the grid
        placed.append((stamp, b_space.offset(cells), np.stack((j, ny + i), axis=1)))
    return OpMatrix.from_stamps(b_space.dim, ny + nx, placed)


def naive_quad_report(nx: int, ny: int, lx=1, ly=1, float_check: bool = False) -> Report:
    """Reproduce the rank deficit of the naive constant-per-cell quad diagram.

    The report PASSES when the failure matches its closed forms: rank
    2N - Nx - Ny instead of 2N - 1, a kernel spanned by fields constant on a
    single row (x-component) or column (y-component) of cells, and a harmonic
    excess of Nx + Ny - 1 uniform-element directions beyond the expected one.
    """
    rep = Report("naive quad diagnostic",
                 params={"diagram": NAIVE_DIAGRAM, "nx": nx, "ny": ny, "k": 0})
    mesh = build_mesh(MeshKind.CARTESIAN, nx, ny, lx, ly)
    b_space = DGVectorSpace(mesh, "vec_q", 0)
    c_space = CodomainSpace(mesh, 0, None, 0)
    op = assemble_div_distributional(b_space, c_space)
    n = mesh.num_cells
    strips = _strip_fields(b_space)
    strips_in_kernel = op.compose(strips).is_zero
    [strips_rank] = prefix_ranks([strips.transpose()], [strips.ncols])
    # strips in the kernel cap the rank at dim B - rank(strips), and span it
    # exactly when the two meet
    [rank] = prefix_ranks([op],
                          [b_space.dim - strips_rank] if strips_in_kernel else None)
    strips_span = strips_in_kernel and strips_rank == b_space.dim - rank
    rep.check("rank", 2 * n - nx - ny, rank)
    rep.check("kernel_dim", nx + ny, b_space.dim - rank)
    rep.check("harmonic_excess", nx + ny - 1, (c_space.dim - rank) - 1)
    rep.check("strip_fields_in_kernel", True, strips_in_kernel)
    rep.check("strips_span_kernel", True, strips_span)
    if float_check:
        rep.check("rank_float", rank, float_rank(op, spaces=(c_space, b_space)),
                  backend="float")
    rep.notes.append("deficient by design; PASS means the deficit matches the prediction")
    rep.witnesses = {"deficit_from_healthy": (2 * n - 1) - rank}
    return rep.finish()


def appendix_report(nx: int, ny: int, lx=1, ly=1) -> Report:
    """Nullity of the pure jump constraints on the per-cell three-field family.

    Each cell carries span{(1,0), (0,1), (1-2x, 2y-1)} (``flat_quad``); the
    constraints are only the normal-trace jumps across faces.  The kernel
    has dimension N+1, and on every kernel vector the third (checkerboard)
    coefficients have vanishing row and column sums.
    """
    rep = Report("jump-constraint nullity", params={"nx": nx, "ny": ny, "cells": nx * ny})
    mesh = build_mesh(MeshKind.CARTESIAN, nx, ny, lx, ly)
    b_space = DGVectorSpace(mesh, "flat_quad", 0)
    jumps = assemble_jumps(b_space, CodomainSpace(mesh, 0, None, 0))
    n = mesh.num_cells
    # checkerboard sums over each row and each column of cells; they vanish
    # on ker J exactly when they lie in the row space of J
    sums = {(c // nx, b_space.offset(c) + 2): 1 for c in range(n)}
    sums.update({(ny + c % nx, b_space.offset(c) + 2): 1 for c in range(n)})
    rank_jumps, rank_with_sums = prefix_ranks(
        [jumps, OpMatrix.from_entries(ny + nx, b_space.dim, sums)])
    rep.check("nullity", n + 1, b_space.dim - rank_jumps)
    rep.check("gamma_row_and_column_sums_zero", True, rank_with_sums == rank_jumps)
    return rep.finish()


def dof_comparison(k_max: int) -> Report:
    """Per-cell dof gap between the enriched families and the jump-relaxed
    classical elements of matching trace degree."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    rep = Report("per-cell dof comparison", params={"k_max": k_max})
    for k in range(k_max + 1):
        rep.check(f"rt_quad_minus_enriched_k{k}", 1,
                  local_dim("rt_quad", k) - local_dim("vec_qdiv", k))
        rep.check(f"rt_tri_minus_p_k{k}", k + 1,
                  local_dim("rt_tri", k) - local_dim("vec_p", k))
    return rep.finish()


def audit_report(kind: MeshKind, nx: int, ny: int, k_max: int) -> Report:
    """Constructed space dimensions versus their closed forms."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    rep = Report("dimension audit",
                 params={"kind": kind.value, "nx": nx, "ny": ny, "k_max": k_max})
    mesh = build_mesh(kind, nx, ny)
    for row in audit_dimensions(mesh, k_max):
        rep.check(f"{row['family']}_k{row['k']}", row["expected"], row["computed"])
    return rep.finish()
