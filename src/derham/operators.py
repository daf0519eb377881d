"""Assembly of the discrete differential operators as exact matrices.

First operators (cell-local): rotated gradient and gradient of a continuous
scalar space, expanded in a discontinuous vector space.  Second operators
(distributional): cellwise divergence/curl into the codomain's cell factor
plus inter-cell jumps of normal/tangential traces into the face factor.

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
(local basis, jac), as ``GramBlock``s.  Operators are stored as integers;
see ``sparse``.

Any polynomial that fails to lie in the target space stops the assembly with
``MembershipError`` naming the offending entity of the call at hand; a
failing stamp is never cached, and nothing is projected.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .exactla import solve_square
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
    "assemble_gram",
    "adjoint",
]

_ZERO = Fraction(0)


class MembershipError(ValueError):
    """A function left the space the diagram claims it lies in."""


class GramBlock(tuple):
    """A local Gram block scaled by a chart's jac: immutable rows of exact
    values, formed once per process for each (local basis, jac).  ``stamp``
    holds its nonzeros as integers; ``definite`` is None until an exact
    definiteness check of these rows has run, and then its verdict."""

    def __new__(cls, rows: Sequence[Sequence[Fraction]]):
        block = super().__new__(cls, (tuple(row) for row in rows))
        block.stamp = Stamp.of((i, j, v) for i, row in enumerate(block) for j, v in enumerate(row))
        block.definite = None
        return block


class GramMatrix:
    """Block-diagonal SPD Gram matrix with exact block solves.

    Blocks are added with ``add_block``; the sparse form of the whole
    matrix is built once, on first use, and dropped when a block is added.
    """

    def __init__(self, dim: int, space_tag: str = ""):
        self.dim = dim
        self.space_tag = space_tag
        self.blocks: list[tuple[int, Sequence[Sequence[Fraction]]]] = []
        self._op: OpMatrix | None = None

    def add_block(self, offset: int, rows: Sequence[Sequence[Fraction]]) -> None:
        self.blocks.append((offset, rows))
        self._op = None

    def matvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        out = [_ZERO] * self.dim
        for off, rows in self.blocks:
            n = len(rows)
            seg = v[off:off + n]
            for i, row in enumerate(rows):
                s = _ZERO
                for a, x in zip(row, seg):
                    if a and x:
                        s += a * x
                out[off + i] = s
        return out

    def compose(self, op: OpMatrix) -> OpMatrix:
        """Matrix product G @ op, exact and sparse."""
        out = self._as_op().compose(op)
        out.codomain = op.codomain
        return out

    def inner(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(u, self.matvec(v)) if a and b), _ZERO)

    def solve_columns(self, cols: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
        """Solve G X = cols exactly, block by block."""
        outs = [[_ZERO] * self.dim for _ in cols]
        for off, rows in self.blocks:
            n = len(rows)
            rhs = [[col[off + i] for i in range(n)] for col in cols]
            sols = solve_square(rows, rhs)
            for j, sol in enumerate(sols):
                for i, v in enumerate(sol):
                    outs[j][off + i] = v
        return outs

    def _as_op(self) -> OpMatrix:
        """The blocks as one sparse matrix, shared by every caller; read only.
        Each distinct block (by identity) is read once, a ``GramBlock``
        through its integer stamp, and placed at all of its offsets."""
        if self._op is None:
            placed: dict[int, tuple[Stamp, list[int], int]] = {}
            for off, block in self.blocks:
                if id(block) not in placed:
                    kit = block if isinstance(block, GramBlock) else GramBlock(block)
                    placed[id(block)] = (kit.stamp, [], len(block))
                placed[id(block)][1].append(off)
            self._op = OpMatrix.from_stamps(
                self.dim, self.dim,
                ((stamp, offs, np.array(offs)[:, None] + np.arange(n))
                 for stamp, offs, n in placed.values()),
                self.space_tag, self.space_tag)
        return self._op

    def float_array(self) -> np.ndarray:
        """Float copy for the numerical cross-checks, filled from the nonzeros."""
        return self._as_op().float_array()

    def dense_rows(self) -> list[list[Fraction]]:
        return self._as_op().dense_rows()


@lru_cache(maxsize=None)
def _scaled_block(local: LocalBasis, jac: Fraction) -> GramBlock:
    """The local Gram block of ``local`` times ``jac``, one per process."""
    return GramBlock([[v * jac for v in row] for row in local.gram_ref()])


def _add_cell_blocks(g: GramMatrix, mesh, local_of, offset_of) -> None:
    """Add each cell's local Gram block times jac at its offset; each chart
    reads its shared block once."""
    blocks = []
    for cells in mesh.chart_cells:
        cell = mesh.cells[cells[0]]
        blocks.append(_scaled_block(local_of(cell), abs(cell.fmap.det())))
    for cell in mesh.cells:
        g.add_block(offset_of(cell.index), blocks[cell.chart])


def assemble_gram(space) -> GramMatrix:
    """Exact Gram matrix of a space under its L2-style inner product."""
    if isinstance(space, DGVectorSpace):
        g = GramMatrix(space.dim, space.family)
        _add_cell_blocks(g, space.mesh, space.local, space.offset)
        return g
    if isinstance(space, CodomainSpace):
        g = GramMatrix(space.dim, "codomain")
        if space.cell_dim:
            _add_cell_blocks(g, space.mesh, lambda cell: space.cell_local, space.cell_offset)
        leg = space.legendre
        fg = [[_ZERO] * space.face_dim for _ in range(space.face_dim)]
        for i in range(space.face_dim):
            fg[i][i] = (leg[i] * leg[i]).integrate01()
        for face in space.mesh.faces:
            g.add_block(space.face_offset(face.index), fg)
        return g
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
    dofs = np.array(a_space.cell_dofs, dtype=np.int64)
    placed = []
    for cells in mesh.chart_cells:
        cell = mesh.cells[cells[0]]
        try:
            stamp = _cell_stamp(a_space.local, b_space.local(cell), cell.m_inv, op)
        except SpanError as exc:
            raise MembershipError(f"{name} on cell {cell.index}: {exc}") from exc
        placed.append((stamp, b_space.offset(cells), dofs[cells]))
    return OpMatrix.from_stamps(b_space.dim, a_space.dim, placed,
                                domain=f"scalar_deg{a_space.degree}",
                                codomain=f"{b_space.family}_k{b_space.k}")


def assemble_grad_perp(a_space: ContinuousScalarSpace, b_space: DGVectorSpace) -> OpMatrix:
    """Matrix of the rotated gradient (-d/dy, d/dx): scalar -> vector."""
    return _assemble_first(a_space, b_space, grad_perp, "grad_perp")


def assemble_grad(a_space: ContinuousScalarSpace, b_space: DGVectorSpace) -> OpMatrix:
    return _assemble_first(a_space, b_space, grad, "grad")


def _face_vector(chord: tuple[Fraction, Fraction], tangential: bool) -> tuple[Fraction, Fraction]:
    n = (-chord[1], chord[0])  # the face normal, rot90 of the chord
    if tangential:
        return (-n[1], n[0])  # rot90 of the normal: reversed chord
    return n


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
    vec = _face_vector(chord, tangential)
    return Stamp.of((ell, i, sign * v) for i, u in enumerate(source.elements) for ell, v
                    in enumerate(trace_legendre(u, source.ref, edge, along, vec, degree)))


def _assemble_second(b_space: DGVectorSpace, c_space: CodomainSpace,
                     cell_op: Callable, tangential: bool, name: str) -> OpMatrix:
    mesh = b_space.mesh
    if mesh is not c_space.mesh:
        raise ValueError("spaces live on different meshes")
    kdeg = c_space.face_degree
    span = np.arange(b_space.local_dim)
    placed = []
    for cells in mesh.chart_cells:
        cell = mesh.cells[cells[0]]
        try:
            stamp = _cell_stamp(b_space.local(cell), c_space.cell_local, cell.m_inv, cell_op)
        except SpanError as exc:
            raise MembershipError(f"{name} cell part, cell {cell.index}: {exc}") from exc
        placed.append((stamp, c_space.cell_offset(cells), b_space.offset(cells)[:, None] + span))

    # a chart, a reference edge and the face's orientation on it fix the
    # segment, the face normal and the side: the face's P->Q runs along the
    # edge of its right cell, whose trace counts +1, and against the edge of
    # its left cell, -1
    sides: dict = {}  # (chart, edge, along) -> (faces, cells)
    for cell in mesh.cells:
        for edge, (f, along) in enumerate(cell.edge_faces):
            at = sides.get((cell.chart, edge, along))
            if at is None:
                at = sides[cell.chart, edge, along] = ([], [])
            at[0].append(f)
            at[1].append(cell.index)
    failed = []  # (first face, side, exception) of every key whose trace leaves the space
    for (chart, edge, along), (faces, cells) in sides.items():
        source = b_space.local(mesh.cells[cells[0]])
        try:
            stamp = _trace_stamp(source, mesh.charts[chart], edge, along, tangential, kdeg,
                                 1 if along else -1)
        except TraceDegreeError as exc:
            failed.append((min(faces), along, exc))
            continue
        placed.append((stamp, c_space.face_offset(np.array(faces)),
                       b_space.offset(np.array(cells))[:, None] + span))
    if failed:  # name the first face side in mesh order, left before right
        f, along, exc = min(failed, key=lambda fail: fail[:2])
        raise MembershipError(
            f"{name} trace on face {f} ({mesh.faces[f].kind}, {'right' if along else 'left'}): "
            f"degree {exc.degree} exceeds face degree {kdeg}") from exc
    return OpMatrix.from_stamps(c_space.dim, b_space.dim, placed,
                                domain=f"{b_space.family}_k{b_space.k}",
                                codomain=f"codomain_f{c_space.face_degree}")


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
    out = OpMatrix.from_columns(op.ncols, sols)
    out.domain, out.codomain = op.codomain, op.domain
    return out
