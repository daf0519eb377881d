"""Reference loops that tests compare the array kernels against.

Each function here is the per-entity Python version of a routine that now
runs on whole integer arrays: the cell-by-cell kernel test of
``complexcheck._kernel_is_weight``, the mesh built cell by cell with its
lattice face lookup, and the continuous space's node numbering by tuple
keys.  They share no code with the routines they check beyond the record
types and the cached reference data.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from derham.exactla import prefix_ranks
from derham.fespace import _node_places
from derham.mesh import Cell, Face, MeshKind
from derham.poly import AffineMap, RefCell
from derham.sparse import OpMatrix


def kernel_is_weight_loop(op: OpMatrix, cell_size: int, weight) -> bool:
    """``_kernel_is_weight`` cell by cell: a dict of block columns per cell,
    one rank per distinct sorted block, and a union-find over the cells that
    share a dof where weight is nonzero."""
    ncells = op.nrows // cell_size
    if ncells * cell_size != op.nrows:
        return False
    support = np.asarray(weight, dtype=bool).tolist()
    ptr, dofs, num, _ = op.integer_rows()
    ptr, dofs, num = ptr.tolist(), dofs.tolist(), num.tolist()
    parent = list(range(ncells))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    ranks: dict = {}
    owner: dict[int, int] = {}
    touched = bytearray(op.ncols)
    for cell in range(ncells):
        local: dict[int, list[int]] = {}  # dof -> its column of the block
        for i in range(cell_size):
            row = cell * cell_size + i
            for at in range(ptr[row], ptr[row + 1]):
                local.setdefault(dofs[at], [0] * cell_size)[i] = num[at]
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
