"""Reference loops that tests compare the array kernels against.

Each function here is the per-entity Python version of a routine that now
runs on whole integer arrays: the cell-by-cell kernel test of
``complexcheck._cell_blocks`` and ``_corank_one`` on an operator's rows or
its columns, the mesh built cell by cell with its lattice face lookup, and
the continuous space's node numbering by tuple keys, and the seeded draw of
``refcheck._draw`` word by word.  They share no code with the routines they
check beyond the record types and the cached reference data.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from derham.exactla import prefix_ranks
from derham.fespace import _node_places
from derham.mesh import Cell, Face, MeshKind
from derham.poly import AffineMap, RefCell
from derham.sparse import OpMatrix


def kernel_is_weight_loop(op: OpMatrix, cell_size: int, weight, by_columns: bool = False) -> bool:
    """The local route's kernel test cell by cell: a dict of block columns per cell,
    one rank per distinct sorted block, and a union-find over the cells that
    share a dof where weight is nonzero.  With ``by_columns`` the cells are
    groups of op's columns, each nonzero (r, c) read as entry (c, r) of
    op^T, as it is stored: over the denominator of row r of op."""
    ptr, cols, num, _ = op.integer_rows()
    ptr, cols, num = ptr.tolist(), cols.tolist(), num.tolist()
    nrows, ncols = (op.ncols, op.nrows) if by_columns else (op.nrows, op.ncols)
    ncells = nrows // cell_size
    if ncells * cell_size != nrows:
        return False
    support = np.asarray(weight, dtype=bool).tolist()
    # cell -> {dof: its column of the block}
    cells: list[dict[int, list[int]]] = [{} for _ in range(ncells)]
    for r in range(op.nrows):
        for at in range(ptr[r], ptr[r + 1]):
            row, dof = (cols[at], r) if by_columns else (r, cols[at])
            cells[row // cell_size].setdefault(dof, [0] * cell_size)[row % cell_size] = num[at]
    parent = list(range(ncells))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    ranks: dict = {}
    owner: dict[int, int] = {}
    touched = bytearray(ncols)
    for cell, local in enumerate(cells):
        if not any(support[d] for d in local):
            return False
        key = tuple(sorted(map(tuple, local.values())))
        if key not in ranks:
            block = OpMatrix.from_integer_columns(cell_size, key, [1] * len(key))
            ranks[key] = prefix_ranks([block], [len(local) - 1])[0]
        if ranks[key] != len(local) - 1:
            return False
        for d in local:
            touched[d] = 1
            if support[d]:
                other = find(owner.setdefault(d, cell))
                parent[other] = find(cell)
    return all(touched) and len({find(c) for c in range(ncells)}) == 1


def build_mesh_loop(kind: MeshKind, nx: int, ny: int, lx=1, ly=1):
    """The cells, faces and points of ``build_mesh``, made cell by cell:
    each cell edge looks its face up by (wrapped lattice start, step)."""
    lx, ly = Fraction(lx), Fraction(ly)
    hx, hy = lx / nx, ly / ny
    xs = {a: a * hx for a in range(-nx, nx + 1)}
    ys = {b: b * hy for b in range(-ny, ny + 1)}
    points = [(xs[i], ys[j]) for j in range(ny) for i in range(nx)]
    if kind is MeshKind.CARTESIAN:
        ref = RefCell.SQUARE
        shapes = [(((hx, 0), (0, hy)), ((0, 0), (1, 0), (1, 1), (0, 1)))]
    else:
        ref = RefCell.TRIANGLE
        shapes = [(((hx, hx), (0, hy)), ((0, 0), (1, 0), (1, 1))),
                  (((hx, 0), (hy, hy)), ((0, 0), (1, 1), (0, 1)))]
    charts = [(AffineMap.make(m, (0, 0)).m, corners) for m, corners in shapes]
    segments = [("x", (i + 1, j + 1), (0, -1)) for j in range(ny) for i in range(nx)]
    segments += [("y", (i, j + 1), (1, 0)) for j in range(ny) for i in range(nx)]
    if kind is MeshKind.TRIANGULAR:
        segments += [("diag", (i, j), (1, 1)) for j in range(ny) for i in range(nx)]
    face_at = {((s[0] % nx, s[1] % ny), step): f for f, (_, s, step) in enumerate(segments)}
    sides: list[list] = [[None, None] for _ in segments]
    cells: list[Cell] = []
    for j in range(ny):
        for i in range(nx):
            for chart, (m, corners) in enumerate(charts):
                verts = [(i + a, j + b) for a, b in corners]
                edge_faces = []
                for e, a in enumerate(verts):
                    b = verts[(e + 1) % len(verts)]
                    step = (b[0] - a[0], b[1] - a[1])
                    f = face_at.get(((a[0] % nx, a[1] % ny), step))
                    along = f is not None
                    if not along:
                        f = face_at[((b[0] % nx, b[1] % ny), (-step[0], -step[1]))]
                    sides[f][along] = (len(cells), a if along else b)
                    edge_faces.append((f, along))
                cells.append(Cell(len(cells), ref, chart, AffineMap(m, (xs[i], ys[j])),
                                  tuple(a % nx + (b % ny) * nx for a, b in verts),
                                  tuple(edge_faces)))
    faces = []
    for f, (fkind, s, step) in enumerate(segments):
        (left, at_left), (right, at_right) = sides[f]
        faces.append(Face(f, fkind, (xs[s[0]], ys[s[1]]),
                          (xs[s[0] + step[0]], ys[s[1] + step[1]]), left, right,
                          (xs[at_left[0] - s[0]], ys[at_left[1] - s[1]]),
                          (xs[at_right[0] - s[0]], ys[at_right[1] - s[1]])))
    return cells, faces, points


def scalar_dofs_loop(cells, degree: int):
    """The continuous space's dof numbering by tuple keys (vertex point; face
    and position along its P->Q; cell and node), in first-seen order over
    the cells and their nodes: (cell dofs, dim)."""
    table: dict = {}
    cell_dofs = []
    for cell in cells:
        dofs = []
        for n, (where, e, a) in enumerate(_node_places(cell.ref, degree)):
            if where == "vertex":
                key = ("vertex", cell.vertices[e])
            elif where == "edge":
                face, along = cell.edge_faces[e]
                key = ("face", face, a if along else degree - a)
            else:
                key = ("cell", cell.index, n)
            dofs.append(table.setdefault(key, len(table)))
        cell_dofs.append(dofs)
    return cell_dofs, len(table)


def word_draws(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """n (numerator, denominator) pairs, one ``getrandbits(32)`` word at a
    time: the top 5 bits minus 9 and the next 4 bits plus 1, skipping a word
    whose numerator is past 9 or whose denominator is past 9."""
    out = []
    while len(out) < n:
        word = rng.getrandbits(32)
        num, den = (word >> 27) - 9, (word >> 23 & 15) + 1
        if num <= 9 and den <= 9:
            out.append((num, den))
    return out
