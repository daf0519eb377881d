"""Assembly of the discrete differential operators as exact matrices.

First operators (cell-local): rotated gradient and gradient of a continuous
scalar space, expanded in a discontinuous vector space.  Second operators
(distributional): cellwise divergence/curl into the codomain's cell factor
plus inter-cell jumps of normal/tangential traces into the face factor, by
one placement that also gives ``assemble_jumps``, the normal jumps alone.

Face rows hold shifted-Legendre expansion coefficients of the jump of
``u . n_f`` (respectively ``u . t_f``) taken against the *unnormalized*
normal ``n_f = rot90(Q - P)`` (tangent ``t_f = rot90(n_f)``), as functions of
the chord parameter t.  Because ``|n_f|`` equals the face length, pairing
these rows against face polynomials with the plain ``dt`` measure reproduces
the arc-length pairing exactly; no irrational lengths ever appear.

Every operator is assembled from stamps: the nonzeros (local row, local
col, value) of one local element matrix, with a face side's sign folded in,
as read-only integer arrays (``sparse.Stamp``).  A stamp is a cached pure
function of what fixes it: the local bases (themselves cached per chart),
the chart's linear part and the operator function for cell parts; for
traces also the reference edge, the face's orientation on it, normal or
tangential, the face degree and the side.  So each stamp, and each
membership check, is made once per process, whatever the mesh or the call.
Assembly groups cells and face sides by the mesh's integer chart ids and
places each stamp at all of them through integer offsets and the
continuous space's dof map (``OpMatrix.from_stamps``); no rational
arithmetic runs per cell or face.  Gram blocks are cached the same way, per
(local basis, jac) and per face degree, as ``GramBlock``s; each computes its
own ``exactla.positive_definite`` verdict once.  A ``GramMatrix`` is fixed
at construction: its blocks run down the diagonal in dof order, and its one
sparse form is placed from their stamps then.  Operators are stored as
integers; see ``sparse``.

Any polynomial that fails to lie in the target space stops the assembly with
``MembershipError`` naming the offending entity of the call at hand; a
failing stamp is never cached, and nothing is projected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .exactla import LiftedSolver, positive_definite
from .exactla import solve_square  # unused; perfbench/tracing.py rebinds it here
from .fespace import (
    CodomainSpace,
    ContinuousScalarSpace,
    DGVectorSpace,
    LocalBasis,
    SpanError,
)
from .mesh import edge_segment
from .poly import TraceDegreeError, curl2d, divergence, grad, grad_perp, trace_legendre
from .sparse import OpMatrix, Stamp

__all__ = [
    "MembershipError",
    "GramBlock",
    "GramMatrix",
    "assemble_grad_perp",
    "assemble_grad",
    "assemble_div_distributional",
    "assemble_curl_distributional",
    "assemble_jumps",
    "assemble_gram",
    "adjoint",
]

_ZERO = Fraction(0)


class MembershipError(ValueError):
    """A function left the space the diagram claims it lies in."""


class GramBlock(tuple):
    """A local Gram block: immutable rows of exact values.  ``stamp`` holds
    its nonzeros as integers, in row-major order; ``definite``, computed
    once on first read, is the block's own ``exactla.positive_definite``
    verdict."""

    def __new__(cls, rows: Sequence[Sequence[Fraction]]):
        block = super().__new__(cls, (tuple(row) for row in rows))
        block.stamp = Stamp.of((i, j, v) for i, row in enumerate(block) for j, v in enumerate(row))
        return block

    @cached_property
    def definite(self) -> bool:
        return positive_definite(self)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Block-diagonal Gram matrix with exact block solves, fixed at
    construction.

    ``blocks`` are ``GramBlock``s placed one after another down the
    diagonal, and must fill it.  The one sparse form of the whole matrix is
    placed from their stamps at construction (``OpMatrix.block_diagonal``):
    one ``map(id, ...)`` pass and ``np.unique`` number the distinct blocks,
    and every block's entries are gathered from its stamp already in
    row-major order; every product reads it.
    """

    dim: int
    blocks: tuple[GramBlock, ...] = field(repr=False)
    _op: OpMatrix = field(init=False, repr=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        # one slot per distinct block (by identity), and each block's slot
        ids = np.fromiter(map(id, blocks), dtype=np.uint64, count=len(blocks))
        _, firsts, which = np.unique(ids, return_index=True, return_inverse=True)
        distinct = [blocks[f] for f in firsts.tolist()]
        op = OpMatrix.block_diagonal([block.stamp for block in distinct],
                                     [len(block) for block in distinct], which)
        if op.nrows != self.dim:
            raise ValueError(f"blocks of total size {op.nrows} do not fill dimension {self.dim}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_op", op)

    def matvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        return self._op.matvec(v)

    def compose(self, op: OpMatrix) -> OpMatrix:
        """Matrix product G @ op, exact and sparse."""
        return self._op.compose(op)

    def inner(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(u, self.matvec(v)) if a and b), _ZERO)

    def solve_columns(self, cols: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
        """Solve G X = cols exactly: one lifted solve of the whole matrix."""
        return LiftedSolver(self._op).solve(OpMatrix.from_columns(self.dim, cols)).columns()

    def positive_definite(self) -> bool:
        """Every block is symmetric positive definite, so the whole matrix
        is; each block's verdict is its own, computed once."""
        return all(block.definite for block in self.blocks)

    def float_array(self) -> np.ndarray:
        """Float copy for the numerical cross-checks, filled from the nonzeros."""
        return self._op.float_array()

    def dense_rows(self) -> list[list[Fraction]]:
        return self._op.dense_rows()


@lru_cache(maxsize=None)
def _scaled_block(local: LocalBasis, jac: Fraction) -> GramBlock:
    """The local Gram block of ``local`` times ``jac``, one per process."""
    return GramBlock([[v * jac for v in row] for row in local.gram_ref()])


@lru_cache(maxsize=None)
def _face_block(degree: int) -> GramBlock:
    """The Gram block of one face's shifted-Legendre modes L_0..L_degree on
    [0, 1], orthogonal with integral L_i^2 = 1 / (2i + 1); one per process."""
    return GramBlock([[Fraction(1, 2 * i + 1) if i == j else _ZERO for j in range(degree + 1)]
                      for i in range(degree + 1)])


def _cell_blocks(mesh, local_of) -> list[GramBlock]:
    """Each cell's local Gram block times jac, in cell order; the cells of a
    chart share one block."""
    firsts = [mesh.cell(cells[0]) for cells in mesh.chart_cells]
    charts = [_scaled_block(local_of(cell), cell.jac) for cell in firsts]
    return [charts[chart] for chart in mesh.cell_chart.tolist()]


def assemble_gram(space) -> GramMatrix:
    """Exact Gram matrix of a space under its L2-style inner product; the
    blocks follow the space's dofs, cells first, then faces."""
    if isinstance(space, DGVectorSpace):
        return GramMatrix(space.dim, _cell_blocks(space.mesh, space.local))
    if isinstance(space, CodomainSpace):
        cells = _cell_blocks(space.mesh, lambda cell: space.cell_local) if space.cell_dim else []
        faces = [_face_block(space.face_degree)] * space.mesh.num_faces
        return GramMatrix(space.dim, cells + faces)
    raise TypeError(f"no Gram assembly for {type(space).__name__}")


@lru_cache(maxsize=None)
def _cell_stamp(source: LocalBasis, target: LocalBasis | None, m_inv, op: Callable) -> Stamp:
    """The stamp of ``op`` on one chart: entry (i, j) is coefficient i in
    ``target`` of ``op(source element j, m_inv)``, with ``m_inv`` the
    inverse of the chart's linear part.  No target holds only zero.  A
    result outside the target raises ``SpanError``, so only a stamp that
    lies in its space is ever cached."""
    triplets = []
    for j, f in enumerate(source.elements):
        p = op(f, m_inv)
        if target is not None:
            triplets.extend((i, j, c) for i, c in enumerate(target.expand(p)) if c)
        elif not p.is_zero:
            raise SpanError("nonzero result but empty cell factor")
    return Stamp.of(triplets)


def _assemble_first(a_space: ContinuousScalarSpace, b_space: DGVectorSpace,
                    op: Callable, name: str) -> OpMatrix:
    mesh = a_space.mesh
    if mesh is not b_space.mesh:
        raise ValueError("spaces live on different meshes")
    placed = []
    for cells in mesh.chart_cells:
        cell = mesh.cell(cells[0])
        try:
            stamp = _cell_stamp(a_space.local, b_space.local(cell), cell.m_inv, op)
        except SpanError as exc:
            raise MembershipError(f"{name} on cell {cell.index}: {exc}") from exc
        placed.append((stamp, b_space.offset(cells), a_space.dofs[cells]))
    return OpMatrix.from_stamps(b_space.dim, a_space.dim, placed)


def assemble_grad_perp(a_space: ContinuousScalarSpace, b_space: DGVectorSpace) -> OpMatrix:
    """Matrix of the rotated gradient (-d/dy, d/dx): scalar -> vector."""
    return _assemble_first(a_space, b_space, grad_perp, "grad_perp")


def assemble_grad(a_space: ContinuousScalarSpace, b_space: DGVectorSpace) -> OpMatrix:
    return _assemble_first(a_space, b_space, grad, "grad")


@lru_cache(maxsize=None)
def _trace_stamp(source: LocalBasis, m, edge: int, along: bool, tangential: bool,
                 degree: int, sign: int) -> Stamp:
    """The stamp of ``sign`` times the normal (or tangential) trace of each
    element of ``source`` on reference edge ``edge``, traversed as a face
    whose P->Q runs along it or not, on a chart with linear part ``m``:
    entry (ell, i) is Legendre coefficient ell of element i's trace.  A
    trace of degree above ``degree`` raises ``TraceDegreeError`` and is
    never cached."""
    _, _, chord = edge_segment(source.ref, m, edge, along)
    vec = (-chord[1], chord[0])  # the face normal, rot90 of the chord
    if tangential:
        vec = (-vec[1], vec[0])  # rot90 of the normal: reversed chord
    return Stamp.of((ell, i, sign * v) for i, u in enumerate(source.elements) for ell, v
                    in enumerate(trace_legendre(u, source.ref, edge, along, vec, degree)))


def _place_jumps(b_space: DGVectorSpace, c_space: CodomainSpace, tangential: bool,
                 name: str) -> list:
    """The normal (or tangential) trace jumps as (stamp, face rows, cell
    columns) placements.  A chart, a reference edge and the face's
    orientation on it fix the segment, the face normal and the side: the
    face's P->Q runs along the edge of its right cell, whose trace counts
    +1, and against the edge of its left cell, -1."""
    mesh = b_space.mesh
    kdeg = c_space.face_degree
    span = np.arange(b_space.local_dim)
    placed = []
    failed = []  # (first face, side, exception) of every key whose trace leaves the space
    for chart, cells in enumerate(mesh.chart_cells):
        source = b_space.local(mesh.cell(cells[0]))
        for edge in range(mesh.cell_faces.shape[1]):
            faces, alongs = mesh.cell_faces[cells, edge], mesh.cell_along[cells, edge]
            for along in (False, True):
                at = alongs == along
                if not at.any():
                    continue
                try:
                    stamp = _trace_stamp(source, mesh.charts[chart], edge, along, tangential,
                                         kdeg, 1 if along else -1)
                except TraceDegreeError as exc:
                    failed.append((int(faces[at].min()), along, exc))
                    continue
                placed.append((stamp, c_space.face_offset(faces[at]),
                               b_space.offset(cells[at])[:, None] + span))
    if failed:  # name the first face side in mesh order, left before right
        f, along, exc = min(failed, key=lambda fail: fail[:2])
        raise MembershipError(
            f"{name} trace on face {f} ({mesh.face(f).kind}, {'right' if along else 'left'}): "
            f"degree {exc.degree} exceeds face degree {kdeg}") from exc
    return placed


def _assemble_second(b_space: DGVectorSpace, c_space: CodomainSpace,
                     cell_op: Callable | None, tangential: bool, name: str) -> OpMatrix:
    mesh = b_space.mesh
    if mesh is not c_space.mesh:
        raise ValueError("spaces live on different meshes")
    span = np.arange(b_space.local_dim)
    placed = []
    for cells in mesh.chart_cells if cell_op else ():  # no cell part in assemble_jumps
        cell = mesh.cell(cells[0])
        try:
            stamp = _cell_stamp(b_space.local(cell), c_space.cell_local, cell.m_inv, cell_op)
        except SpanError as exc:
            raise MembershipError(f"{name} cell part, cell {cell.index}: {exc}") from exc
        placed.append((stamp, c_space.cell_offset(cells), b_space.offset(cells)[:, None] + span))
    placed += _place_jumps(b_space, c_space, tangential, name)
    return OpMatrix.from_stamps(c_space.dim, b_space.dim, placed)


def assemble_jumps(b_space: DGVectorSpace, c_space: CodomainSpace) -> OpMatrix:
    """The normal-trace jumps alone: the distributional divergence without its cell part."""
    return _assemble_second(b_space, c_space, None, tangential=False, name="jump")


def assemble_div_distributional(b_space: DGVectorSpace, c_space: CodomainSpace) -> OpMatrix:
    """Distributional divergence: cellwise div plus normal-trace jumps."""
    return _assemble_second(b_space, c_space, divergence, tangential=False, name="div")


def assemble_curl_distributional(b_space: DGVectorSpace, c_space: CodomainSpace) -> OpMatrix:
    """Distributional scalar curl: cellwise curl plus tangential-trace jumps."""
    return _assemble_second(b_space, c_space, curl2d, tangential=True, name="curl")


def adjoint(op: OpMatrix, gram_domain: GramMatrix, gram_codomain: GramMatrix) -> OpMatrix:
    """Exact adjoint G_dom^-1 op^T G_cod of op: dom -> cod."""
    if op.ncols != gram_domain.dim or op.nrows != gram_codomain.dim:
        raise ValueError("gram dimensions do not match the operator")
    # column j of op^T G_cod is row j of G_cod op
    sols = gram_domain.solve_columns(gram_codomain.compose(op).dense_rows())
    return OpMatrix.from_columns(op.ncols, sols)
