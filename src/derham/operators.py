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

Every operator is assembled from stamps: the nonzeros ``(local row, local
col, value)`` of one local element matrix, with a face side's sign folded
in.  A stamp is formed once per key within one call (the chart for cell
parts; the chart, reference edge, face orientation and side for traces,
read from the mesh incidence) and placed at every cell or face side through
integer offsets and the continuous space's dof map, with no rational
arithmetic per cell (``OpMatrix.from_stamps``).  Operators are stored as
integers; see ``sparse``.

Any polynomial that fails to lie in the target space stops the assembly with
``MembershipError`` naming the offending entity; nothing is projected.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .exactla import solve_square
from .fespace import (
    CodomainSpace,
    ContinuousScalarSpace,
    DGVectorSpace,
    SpanError,
)
from .poly import TraceDegreeError, curl2d, divergence, grad, grad_perp, trace_legendre
from .sparse import OpMatrix

__all__ = [
    "MembershipError",
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


class GramMatrix:
    """Block-diagonal SPD Gram matrix with exact block solves.

    Blocks are added with ``add_block``; the sparse form of the whole
    matrix is built once, on first use, and dropped when a block is added.
    """

    def __init__(self, dim: int, space_tag: str = ""):
        self.dim = dim
        self.space_tag = space_tag
        self.blocks: list[tuple[int, list[list[Fraction]]]] = []
        self._op: OpMatrix | None = None

    def add_block(self, offset: int, rows: list[list[Fraction]]) -> None:
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
        Each distinct block (by identity) is read once and placed at all of
        its offsets."""
        if self._op is None:
            placed: dict[int, tuple[list, list[int], list[range]]] = {}
            for off, block in self.blocks:
                if id(block) not in placed:
                    placed[id(block)] = ([(i, j, v) for i, row in enumerate(block)
                                          for j, v in enumerate(row) if v], [], [])
                _, bases, cols = placed[id(block)]
                bases.append(off)
                cols.append(range(off, off + len(block)))
            self._op = OpMatrix.from_stamps(self.dim, self.dim, placed.values(),
                                            self.space_tag, self.space_tag)
        return self._op

    def float_array(self) -> np.ndarray:
        """Float copy for the numerical cross-checks, filled from the nonzeros."""
        return self._as_op().float_array()

    def dense_rows(self) -> list[list[Fraction]]:
        return self._as_op().dense_rows()


def _add_cell_blocks(g: GramMatrix, cells, local_of, offset_of) -> None:
    """Add each cell's local Gram block times jac at its offset.  jac and the
    scaled block are formed once per chart, and charts with the same local
    basis and jac share one block list."""
    shared: dict = {}  # (local basis, jac) -> scaled block
    per_chart: dict = {}  # chart -> scaled block
    for cell in cells:
        m = cell.fmap.m
        block = per_chart.get(m)
        if block is None:
            local, jac = local_of(cell), abs(cell.fmap.det())
            if (local, jac) not in shared:
                shared[local, jac] = [[v * jac for v in row] for row in local.gram_ref()]
            block = per_chart[m] = shared[local, jac]
        g.add_block(offset_of(cell.index), block)


def assemble_gram(space) -> GramMatrix:
    """Exact Gram matrix of a space under its L2-style inner product."""
    if isinstance(space, DGVectorSpace):
        g = GramMatrix(space.dim, space.family)
        _add_cell_blocks(g, space.mesh.cells, space.local, space.offset)
        return g
    if isinstance(space, CodomainSpace):
        g = GramMatrix(space.dim, "codomain")
        if space.cell_dim:
            _add_cell_blocks(g, space.mesh.cells, lambda cell: space.cell_local, space.cell_offset)
        leg = space.legendre
        fg = [[_ZERO] * space.face_dim for _ in range(space.face_dim)]
        for i in range(space.face_dim):
            fg[i][i] = (leg[i] * leg[i]).integrate01()
        for face in space.mesh.faces:
            g.add_block(space.face_offset(face.index), fg)
        return g
    raise TypeError(f"no Gram assembly for {type(space).__name__}")


def _assemble_first(a_space: ContinuousScalarSpace, b_space: DGVectorSpace,
                    op: Callable, name: str) -> OpMatrix:
    if a_space.mesh is not b_space.mesh:
        raise ValueError("spaces live on different meshes")
    # chart -> (stamp (vector row, shape function, value), row offsets, dof maps)
    placed: dict = {}
    for cell in a_space.mesh.cells:
        key = cell.fmap.m
        if key not in placed:
            local = b_space.local(cell)
            stamp = []
            for j, shape in enumerate(a_space.local.elements):
                v = op(shape, cell.m_inv)
                try:
                    coeffs = local.expand(v)
                except SpanError as exc:
                    raise MembershipError(f"{name} on cell {cell.index}: {exc}") from exc
                stamp.extend((i, j, c) for i, c in enumerate(coeffs) if c)
            placed[key] = (stamp, [], [])
        _, bases, dofs = placed[key]
        bases.append(b_space.offset(cell.index))
        dofs.append(a_space.cell_dofs[cell.index])
    return OpMatrix.from_stamps(b_space.dim, a_space.dim, placed.values(),
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


def _assemble_second(b_space: DGVectorSpace, c_space: CodomainSpace,
                     cell_op: Callable, tangential: bool, name: str) -> OpMatrix:
    mesh = b_space.mesh
    if mesh is not c_space.mesh:
        raise ValueError("spaces live on different meshes")
    kdeg = c_space.face_degree
    nb = b_space.local_dim

    # chart -> (stamp (cell factor row, vector basis, value), row offsets, column maps)
    cell_placed: dict = {}
    for cell in mesh.cells:
        key = cell.fmap.m
        if key not in cell_placed:
            stamp = []
            for i, u in enumerate(b_space.local(cell).elements):
                p = cell_op(u, cell.m_inv)
                if c_space.cell_dim:
                    try:
                        coeffs = c_space.cell_local.expand(p)
                    except SpanError as exc:
                        raise MembershipError(f"{name} cell part, cell {cell.index}: {exc}") from exc
                    stamp.extend((m, i, v) for m, v in enumerate(coeffs) if v)
                elif not p.is_zero:
                    raise MembershipError(
                        f"{name} cell part, cell {cell.index}: nonzero result but empty cell factor")
            cell_placed[key] = (stamp, [], [])
        _, bases, col_maps = cell_placed[key]
        bbase = b_space.offset(cell.index)
        bases.append(c_space.cell_offset(cell.index))
        col_maps.append(range(bbase, bbase + nb))

    # a chart, a reference edge and the face's orientation on it fix the
    # segment and the face normal; the side's sign is folded into the stamp
    # (chart, edge, along, sign) -> (stamp (Legendre row, vector basis, value), ...)
    trace_placed: dict = {}
    for face in mesh.faces:
        frow = c_space.face_offset(face.index)
        for side, sign in (("left", -1), ("right", 1)):
            cell = mesh.cells[face.cell_on(side)]
            edge, along = cell.edge_of(face.index)
            key = (cell.fmap.m, edge, along, sign)
            if key not in trace_placed:
                _, _, chord = cell.face_segment(edge, along)
                vec = _face_vector(chord, tangential)
                stamp = []
                for i, u in enumerate(b_space.local(cell).elements):
                    try:
                        coeffs = trace_legendre(u, cell.ref, edge, along, vec, kdeg)
                    except TraceDegreeError as exc:
                        raise MembershipError(
                            f"{name} trace on face {face.index} ({face.kind}, {side}): "
                            f"degree {exc.degree} exceeds face degree {kdeg}") from exc
                    stamp.extend((ell, i, sign * v) for ell, v in enumerate(coeffs) if v)
                trace_placed[key] = (stamp, [], [])
            _, bases, col_maps = trace_placed[key]
            bbase = b_space.offset(cell.index)
            bases.append(frow)
            col_maps.append(range(bbase, bbase + nb))
    return OpMatrix.from_stamps(c_space.dim, b_space.dim,
                                itertools.chain(cell_placed.values(), trace_placed.values()),
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
