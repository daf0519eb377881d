"""Periodic structured meshes of the 2-torus [0,Lx) x [0,Ly).

Two kinds: a Cartesian grid of axis-aligned rectangles, and its triangulation
where every grid cell is split along the low-left -> up-right diagonal.  All
geometry is exact rational.  Entity numbering is a pure function of
(kind, nx, ny): cells row-major (triangles: lower then upper within a grid
cell), faces x-normal block, then y-normal block, then diagonals, points
row-major on the grid lattice.

Incidence is recorded as the mesh is built, from integer lattice
coordinates: each cell knows its vertex point indices in reference-vertex
order and, for each reference edge, its face and whether the face's P->Q
runs along that edge.  Code that needs to know where a face sits in a cell
reads it from this record (``edge_segment`` gives the segment), not from
rational geometry.  Besides this incidence a ``Cell`` records only its
chart map and chart id; its inverse map is derived on first read.  Cells of
one chart share one linear part; each adds only its offset.  Charts are
numbered: ``cell.chart`` is an int index into ``mesh.charts``, the distinct
linear parts, so code that groups cells by chart keys on small integers and
reads a chart's rational entries once.

Face orientation: the stored unnormalized normal is the +90 degree rotation
of P->Q and has the same length as the face, so line integrals of normal
components reduce to exact integrals in the chord parameter t.  The right
cell of a face is the one the normal points into.  Faces on the periodic seam
carry per-side chart offsets so each incident cell sees the face inside its
own coordinate chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .poly import AffineMap, RefCell

__all__ = ["MeshKind", "Cell", "Face", "Mesh", "build_mesh", "edge_segment", "entity_counts"]


class MeshKind(Enum):
    TRIANGULAR = "triangular"
    CARTESIAN = "cartesian"


def entity_counts(kind: MeshKind, nx: int, ny: int) -> tuple[int, int, int]:
    """Closed-form (cells, faces, points) for a periodic mesh."""
    if kind is MeshKind.TRIANGULAR:
        n = 2 * nx * ny
        return n, 3 * n // 2, n // 2
    n = nx * ny
    return n, 2 * n, n


@dataclass(frozen=True)
class Cell:
    """Mesh cell: reference kind plus the affine chart map F(ref) = physical.

    ``chart`` indexes the mesh's distinct linear parts: two cells share it
    exactly when their maps share ``fmap.m``.  ``vertices`` are the point
    indices of the reference vertices, in order; ``edge_faces[e]`` is
    ``(face index, along)`` for reference edge ``e`` (``ref.edges[e]``),
    where ``along`` says whether the face's p->q runs from the edge's start
    to its end.
    """

    index: int
    ref: RefCell
    chart: int
    fmap: AffineMap
    vertices: tuple[int, ...] = field(repr=False)
    edge_faces: tuple[tuple[int, bool], ...] = field(repr=False)

    @property
    def jac(self) -> Fraction:
        return abs(self.fmap.det())

    @property
    def measure(self) -> Fraction:
        area = Fraction(1, 2) if self.ref is RefCell.TRIANGLE else Fraction(1)
        return self.jac * area

    @cached_property
    def inv(self) -> AffineMap:
        """The inverse chart map, derived from ``fmap`` on first read."""
        return self.fmap.inverse()

    @property
    def m_inv(self):
        return self.inv.m

    def to_ref_point(self, pt):
        return self.inv.apply(pt)

    def to_ref_vector(self, vec):
        return self.inv.apply_vector(vec)


def edge_segment(ref: RefCell, m, edge: int, along: bool):
    """Reference edge ``edge`` of ``ref`` traversed start -> end when
    ``along`` and end -> start otherwise: its start and direction in
    reference coordinates, and its image under the linear part ``m``."""
    ref_edge = ref.edges[edge]
    start, end = (ref_edge.start, ref_edge.end) if along else (ref_edge.end, ref_edge.start)
    direction = (end[0] - start[0], end[1] - start[1])
    return start, direction, AffineMap(m, (0, 0)).apply_vector(direction)


@dataclass(frozen=True)
class Face:
    """Oriented mesh face between a left and a right cell.

    ``p`` and ``q`` are the canonical endpoints (in the left cell's chart);
    ``normal`` is the +90 degree rotation of q - p, unnormalized.  The
    ``offset_*`` vectors translate p, q into each incident cell's chart
    (nonzero only across the periodic seam).
    """

    index: int
    kind: str  # "x", "y" or "diag"
    p: tuple[Fraction, Fraction]
    q: tuple[Fraction, Fraction]
    left: int
    right: int
    offset_left: tuple[Fraction, Fraction]
    offset_right: tuple[Fraction, Fraction]

    @property
    def chord(self) -> tuple[Fraction, Fraction]:
        return (self.q[0] - self.p[0], self.q[1] - self.p[1])

    @property
    def normal(self) -> tuple[Fraction, Fraction]:
        d = self.chord
        return (-d[1], d[0])

    @property
    def length_sq(self) -> Fraction:
        d = self.chord
        return d[0] * d[0] + d[1] * d[1]

    def start_in_chart(self, side: str) -> tuple[Fraction, Fraction]:
        off = self.offset_left if side == "left" else self.offset_right
        return (self.p[0] + off[0], self.p[1] + off[1])

    def cell_on(self, side: str) -> int:
        return self.left if side == "left" else self.right


class Mesh:
    """Periodic mesh with exact rational geometry; ``charts[i]`` is the
    linear part of every cell with ``chart == i``."""

    def __init__(self, kind: MeshKind, nx: int, ny: int, lx: Fraction, ly: Fraction,
                 cells: list[Cell], faces: list[Face], points: list[tuple[Fraction, Fraction]],
                 charts: tuple):
        self.kind = kind
        self.nx = nx
        self.ny = ny
        self.lx = lx
        self.ly = ly
        self.cells = cells
        self.faces = faces
        self.points = points
        self.charts = charts

    @cached_property
    def chart_cells(self) -> tuple[np.ndarray, ...]:
        """Per chart id, the indices of its cells in mesh order; read only."""
        ids = np.array([cell.chart for cell in self.cells], dtype=np.int64)
        out = tuple((ids == chart).nonzero()[0] for chart in range(len(self.charts)))
        for cells in out:
            cells.flags.writeable = False
        return out

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def euler_characteristic(self) -> int:
        return self.num_points - self.num_faces + self.num_cells

    def summary(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind.value,
            "nx": self.nx,
            "ny": self.ny,
            "lx": str(self.lx),
            "ly": str(self.ly),
            "cells": self.num_cells,
            "faces": self.num_faces,
            "points": self.num_points,
            "euler_characteristic": self.euler_characteristic,
        }

    def __repr__(self) -> str:
        return f"Mesh({self.kind.value}, {self.nx}x{self.ny}, cells={self.num_cells})"


def build_mesh(kind: MeshKind, nx: int, ny: int, lx=1, ly=1) -> Mesh:
    """Build a periodic mesh; requires nx, ny >= 2 so no face is self-adjacent."""
    if not isinstance(nx, int) or not isinstance(ny, int):
        raise TypeError("nx and ny must be integers")
    if nx < 2 or ny < 2:
        raise ValueError("periodic meshes need nx >= 2 and ny >= 2")
    lx = Fraction(lx)
    ly = Fraction(ly)
    if lx <= 0 or ly <= 0:
        raise ValueError("periods must be positive")
    hx = lx / nx
    hy = ly / ny
    # lattice coordinates, including one period back for seam offsets
    xs = {a: a * hx for a in range(-nx, nx + 1)}
    ys = {b: b * hy for b in range(-ny, ny + 1)}

    points = [(xs[i], ys[j]) for j in range(ny) for i in range(nx)]

    # the cells of one grid square: chart linear part and the lattice offsets
    # of the cell's vertices in reference-vertex order
    if kind is MeshKind.CARTESIAN:
        ref = RefCell.SQUARE
        shapes = [(((hx, 0), (0, hy)), ((0, 0), (1, 0), (1, 1), (0, 1)))]
    elif kind is MeshKind.TRIANGULAR:
        ref = RefCell.TRIANGLE
        # lower: (i,j) -> (i+1,j) -> (i+1,j+1); upper: (i,j) -> (i+1,j+1) -> (i,j+1)
        shapes = [(((hx, hx), (0, hy)), ((0, 0), (1, 0), (1, 1))),
                  (((hx, 0), (hy, hy)), ((0, 0), (1, 1), (0, 1)))]
    else:
        raise ValueError(f"unknown mesh kind: {kind!r}")
    charts = [(AffineMap.make(m, (0, 0)).m, corners) for m, corners in shapes]

    # faces as lattice segments start -> start + step: x-normal faces are the
    # east sides of grid cell (i,j), pointing down so the +90 degree rotation
    # gives normal (+hy, 0); y-normal faces the north sides, pointing in +x;
    # diagonals (triangulation only) run low-left -> up-right, normal (-hy, hx)
    segments = [("x", (i + 1, j + 1), (0, -1)) for j in range(ny) for i in range(nx)]
    segments += [("y", (i, j + 1), (1, 0)) for j in range(ny) for i in range(nx)]
    if kind is MeshKind.TRIANGULAR:
        segments += [("diag", (i, j), (1, 1)) for j in range(ny) for i in range(nx)]
    face_at = {((s[0] % nx, s[1] % ny), step): f for f, (_, s, step) in enumerate(segments)}

    # each cell edge finds its face by (wrapped start, step), in either
    # direction; a face whose p->q runs along the cell's counterclockwise
    # edge has its normal pointing into the cell, so that cell is its right
    sides: list[list] = [[None, None] for _ in segments]  # [left, right]: (cell, lattice start)
    cells: list[Cell] = []
    for j in range(ny):
        for i in range(nx):
            o = (xs[i], ys[j])
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
                cells.append(Cell(len(cells), ref, chart, AffineMap(m, o),
                                  tuple(a % nx + (b % ny) * nx for a, b in verts),
                                  tuple(edge_faces)))

    faces: list[Face] = []
    for f, (fkind, s, step) in enumerate(segments):
        if None in sides[f]:
            raise AssertionError(f"face {f} is not bounded by one left and one right cell")
        (left, at_left), (right, at_right) = sides[f]
        faces.append(Face(f, fkind, (xs[s[0]], ys[s[1]]), (xs[s[0] + step[0]], ys[s[1] + step[1]]),
                          left, right, (xs[at_left[0] - s[0]], ys[at_left[1] - s[1]]),
                          (xs[at_right[0] - s[0]], ys[at_right[1] - s[1]])))

    mesh = Mesh(kind, nx, ny, lx, ly, cells, faces, points, tuple(c[0] for c in charts))
    expected = entity_counts(kind, nx, ny)
    got = (mesh.num_cells, mesh.num_faces, mesh.num_points)
    if got != expected:
        raise AssertionError(f"entity counts {got} != closed form {expected}")
    return mesh
