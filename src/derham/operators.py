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
arithmetic per cell.

Any polynomial that fails to lie in the target space stops the assembly with
``MembershipError`` naming the offending entity; nothing is projected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

import numpy as np

from .exactla import solve_square
from .fespace import (
    CodomainSpace,
    ContinuousScalarSpace,
    DGVectorSpace,
    SpanError,
)
from .poly import curl2d, divergence, grad, grad_perp, legendre_coefficients, segment_trace

__all__ = [
    "MembershipError",
    "OpMatrix",
    "GramMatrix",
    "assemble_grad_perp",
    "assemble_grad",
    "assemble_div_distributional",
    "assemble_curl_distributional",
    "assemble_gram",
    "adjoint",
    "load_matrix",
]

_ZERO = Fraction(0)


class MembershipError(ValueError):
    """A function left the space the diagram claims it lies in."""


class OpMatrix:
    """Sparse exact matrix with domain/codomain tags."""

    def __init__(self, nrows: int, ncols: int, domain: str = "", codomain: str = ""):
        self.nrows = nrows
        self.ncols = ncols
        self.domain = domain
        self.codomain = codomain
        self.entries: dict[tuple[int, int], Fraction] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def add(self, r: int, c: int, v: Fraction) -> None:
        if not v:
            return
        key = (r, c)
        w = self.entries.get(key, _ZERO) + v
        if w:
            self.entries[key] = w
        else:
            del self.entries[key]

    def dense_rows(self) -> list[list[Fraction]]:
        rows = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def float_array(self) -> np.ndarray:
        """Float copy for the numerical cross-checks, filled from the nonzeros."""
        out = np.zeros((self.nrows, self.ncols))
        for (r, c), v in self.entries.items():
            out[r, c] = v
        return out

    def columns(self) -> list[list[Fraction]]:
        cols = [[_ZERO] * self.nrows for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def column(self, j: int) -> list[Fraction]:
        col = [_ZERO] * self.nrows
        for (r, c), v in self.entries.items():
            if c == j:
                col[r] = v
        return col

    def sparse_rows(self) -> list[dict[int, Fraction]]:
        """Rows as column -> value dicts, straight from the entries."""
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def sparse_columns(self) -> list[dict[int, Fraction]]:
        """Columns as row -> value dicts, straight from the entries."""
        cols: list[dict[int, Fraction]] = [{} for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    @classmethod
    def from_columns(cls, nrows: int, vectors: Sequence[Sequence[Fraction]]) -> "OpMatrix":
        """The dense vectors as the columns of one sparse matrix."""
        out = cls(nrows, len(vectors))
        out.entries = {(i, j): v for j, vec in enumerate(vectors) for i, v in enumerate(vec) if v}
        return out

    def transpose(self) -> "OpMatrix":
        out = OpMatrix(self.ncols, self.nrows, self.codomain, self.domain)
        out.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return out

    def matvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        out = [_ZERO] * self.nrows
        for (r, c), a in self.entries.items():
            x = v[c]
            if x:
                out[r] += a * x
        return out

    def rmatvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Transpose times vector."""
        out = [_ZERO] * self.ncols
        for (r, c), a in self.entries.items():
            x = v[r]
            if x:
                out[c] += a * x
        return out

    def compose(self, other: "OpMatrix") -> "OpMatrix":
        """Matrix product self @ other, exact and sparse.  Each row of self and
        each column of other is put over one denominator, so the products are
        summed as integers; cancelled sums are dropped."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in compose")
        row_den: dict[int, int] = {}
        for (r, _), a in self.entries.items():
            row_den[r] = lcm(row_den.get(r, 1), a.denominator)
        col_den: dict[int, int] = {}
        for (_, c), b in other.entries.items():
            col_den[c] = lcm(col_den.get(c, 1), b.denominator)
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (k, c), b in other.entries.items():
            by_row.setdefault(k, []).append((c, b.numerator * (col_den[c] // b.denominator)))
        acc: dict[tuple[int, int], int] = {}
        for (r, k), a in self.entries.items():
            ai = a.numerator * (row_den[r] // a.denominator)
            for c, bi in by_row.get(k, ()):
                acc[r, c] = acc.get((r, c), 0) + ai * bi
        out = OpMatrix(self.nrows, other.ncols, other.domain, self.codomain)
        out.entries = {(r, c): Fraction(s, row_den[r] * col_den[c])
                       for (r, c), s in acc.items() if s}
        return out

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def export(self, path: str, meta: dict | None = None) -> None:
        """Write a MatrixMarket-style file with exact ``p/q`` entries."""
        header = {
            "schema": 1,
            "domain": self.domain,
            "codomain": self.codomain,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "nnz": self.nnz,
        }
        if meta:
            header.update(meta)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%%MatrixMarket matrix coordinate rational general\n")
            fh.write("%json " + json.dumps(header, sort_keys=True) + "\n")
            fh.write(f"{self.nrows} {self.ncols} {self.nnz}\n")
            for (r, c) in sorted(self.entries):
                v = self.entries[(r, c)]
                fh.write(f"{r + 1} {c + 1} {v.numerator}/{v.denominator}\n")

    def __repr__(self) -> str:
        return f"OpMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def load_matrix(path: str) -> OpMatrix:
    """Read a file written by ``OpMatrix.export``.  An entry outside the
    shape, with a zero denominator or that does not parse raises
    ``ValueError`` naming the path and the line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = {}
    body = []
    for lineno, line in enumerate(lines, 1):
        if line.startswith("%json "):
            meta = json.loads(line[len("%json "):])
        elif line.startswith("%"):
            continue
        elif line.strip():
            body.append((lineno, line))
    nrows, ncols, nnz = (int(tok) for tok in body[0][1].split())
    out = OpMatrix(nrows, ncols, meta.get("domain", ""), meta.get("codomain", ""))
    for lineno, line in body[1:]:
        try:
            r, c, val = line.split()
            num, den = val.split("/")
            r, c, num, den = int(r), int(c), int(num), int(den)
            if not (1 <= r <= nrows and 1 <= c <= ncols):
                raise ValueError(f"entry ({r}, {c}) outside the {nrows}x{ncols} shape")
            if not den:
                raise ValueError(f"zero denominator in {val!r}")
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from exc
        out.add(r - 1, c - 1, Fraction(num, den))
    if out.nnz != nnz:
        raise ValueError(f"nnz mismatch reading {path}")
    return out


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
        """The blocks as one sparse matrix, shared by every caller; read only."""
        if self._op is None:
            out = OpMatrix(self.dim, self.dim, self.space_tag, self.space_tag)
            for off, block in self.blocks:
                for i, brow in enumerate(block):
                    for j, v in enumerate(brow):
                        if v:
                            out.entries[off + i, off + j] = v
            self._op = out
        return self._op

    def float_array(self) -> np.ndarray:
        """Float copy for the numerical cross-checks, filled from the nonzeros."""
        return self._as_op().float_array()

    def dense_rows(self) -> list[list[Fraction]]:
        return self._as_op().dense_rows()


def _scaled_block(shared: dict, local, jac: Fraction) -> list[list[Fraction]]:
    """The local Gram block times jac, one list per (local basis, jac), so
    equal blocks are one object."""
    key = (local, jac)
    if key not in shared:
        shared[key] = [[v * jac for v in row] for row in local.gram_ref()]
    return shared[key]


def assemble_gram(space) -> GramMatrix:
    """Exact Gram matrix of a space under its L2-style inner product.  Cells
    with the same local basis and jac share one block list."""
    shared: dict = {}
    if isinstance(space, DGVectorSpace):
        g = GramMatrix(space.dim, space.family)
        for cell in space.mesh.cells:
            g.add_block(space.offset(cell.index), _scaled_block(shared, space.local(cell), cell.jac))
        return g
    if isinstance(space, CodomainSpace):
        g = GramMatrix(space.dim, "codomain")
        if space.cell_dim:
            for cell in space.mesh.cells:
                g.add_block(space.cell_offset(cell.index),
                            _scaled_block(shared, space.cell_local, cell.jac))
        leg = space.legendre
        fg = [[_ZERO] * space.face_dim for _ in range(space.face_dim)]
        for i in range(space.face_dim):
            fg[i][i] = (leg[i] * leg[i]).integrate01()
        for face in space.mesh.faces:
            g.add_block(space.face_offset(face.index), fg)
        return g
    raise TypeError(f"no Gram assembly for {type(space).__name__}")


def _scatter(out: OpMatrix, stamp: Sequence[tuple[int, int, Fraction]],
             row_base: int, cols: Sequence[int]) -> None:
    """Place a stamp's nonzeros ``(i, j, v)`` at ``(row_base + i, cols[j])``.

    On a mesh of at least 2x2 cells every position is stamped once, so the
    value is set directly; a position stamped again gets the exact sum, and
    a sum that cancels leaves no entry.
    """
    entries = out.entries
    for i, j, v in stamp:
        key = (row_base + i, cols[j])
        if key in entries:
            w = entries[key] + v
            if w:
                entries[key] = w
            else:
                del entries[key]
        else:
            entries[key] = v


def _assemble_first(a_space: ContinuousScalarSpace, b_space: DGVectorSpace,
                    op: Callable, name: str) -> OpMatrix:
    if a_space.mesh is not b_space.mesh:
        raise ValueError("spaces live on different meshes")
    out = OpMatrix(b_space.dim, a_space.dim, domain=f"scalar_deg{a_space.degree}",
                   codomain=f"{b_space.family}_k{b_space.k}")
    stamps: dict = {}  # chart -> (vector row, shape function, value)
    for cell in a_space.mesh.cells:
        key = cell.fmap.m
        if key not in stamps:
            local = b_space.local(cell)
            stamp = []
            for j, shape in enumerate(a_space.local.elements):
                v = op(shape, cell.m_inv)
                try:
                    coeffs = local.expand(v)
                except SpanError as exc:
                    raise MembershipError(f"{name} on cell {cell.index}: {exc}") from exc
                stamp.extend((i, j, c) for i, c in enumerate(coeffs) if c)
            stamps[key] = stamp
        _scatter(out, stamps[key], b_space.offset(cell.index), a_space.cell_dofs[cell.index])
    return out


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
    out = OpMatrix(c_space.dim, b_space.dim, domain=f"{b_space.family}_k{b_space.k}",
                   codomain=f"codomain_f{c_space.face_degree}")
    kdeg = c_space.face_degree
    nb = b_space.local_dim

    cell_stamps: dict = {}  # chart -> (cell factor row, vector basis, value)
    for cell in mesh.cells:
        key = cell.fmap.m
        if key not in cell_stamps:
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
            cell_stamps[key] = stamp
        bbase = b_space.offset(cell.index)
        _scatter(out, cell_stamps[key], c_space.cell_offset(cell.index), range(bbase, bbase + nb))

    # a chart, a reference edge and the face's orientation on it fix the
    # segment and the face normal; the side's sign is folded into the stamp
    trace_stamps: dict = {}  # (chart, edge, along, sign) -> (Legendre row, vector basis, value)
    for face in mesh.faces:
        frow = c_space.face_offset(face.index)
        for side, sign in (("left", -1), ("right", 1)):
            cell = mesh.cells[face.cell_on(side)]
            edge, along = cell.edge_of(face.index)
            key = (cell.fmap.m, edge, along, sign)
            if key not in trace_stamps:
                start, direction, chord = cell.face_segment(edge, along)
                vec = _face_vector(chord, tangential)
                stamp = []
                for i, u in enumerate(b_space.local(cell).elements):
                    tr = segment_trace(u, start, direction, vec)
                    coeffs = legendre_coefficients(tr, kdeg)
                    if coeffs is None:
                        raise MembershipError(
                            f"{name} trace on face {face.index} ({face.kind}, {side}): "
                            f"degree {tr.degree()} exceeds face degree {kdeg}")
                    stamp.extend((ell, i, sign * v) for ell, v in enumerate(coeffs) if v)
                trace_stamps[key] = stamp
            bbase = b_space.offset(cell.index)
            _scatter(out, trace_stamps[key], frow, range(bbase, bbase + nb))
    return out


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
    out = OpMatrix(op.ncols, op.nrows, domain=op.codomain, codomain=op.domain)
    for j, col in enumerate(sols):
        for i, v in enumerate(col):
            if v:
                out.add(i, j, v)
    return out
