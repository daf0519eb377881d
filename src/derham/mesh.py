"""Periodic structured meshes of the 2-torus [0,Lx) x [0,Ly).

Two kinds: a Cartesian grid of axis-aligned rectangles, and its triangulation
where every grid cell is split along the low-left -> up-right diagonal.  All
geometry is exact rational.  Entity numbering is a pure function of
(kind, nx, ny): cells row-major (triangles: lower then upper within a grid
cell), faces x-normal block, then y-normal block, then diagonals, points
row-major on the grid lattice.

The incidence is computed from integer lattice coordinates, for all cells
at once, and held as read-only integer arrays: per cell its chart id, its
vertex point indices in reference-vertex order and, for each reference
edge, its face and whether the face's P->Q runs along that edge; per face
its left and right cell.  Code that needs to know where a face sits in a
cell reads it from these arrays (``edge_segment`` gives the segment), not
from rational geometry.  Charts are numbered: a cell's chart is an int
index into ``mesh.charts``, the distinct linear parts, so code that groups
cells by chart keys on small integers and reads a chart's rational entries
once.  ``Cell`` and ``Face`` records, with exact rational geometry, are
made from the arrays only for callers that read one (``mesh.cell(i)``,
``mesh.face(f)``, or all of them through ``mesh.cells`` and
``mesh.faces``); a cell's inverse map is derived on first read.  Cells of
one chart share one linear part; each adds only its offset.

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
from typing import NamedTuple

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
    linear part of every cell with ``chart == i``.

    The incidence is held as read-only integer arrays, one row per cell or
    face: ``cell_chart``, ``cell_vertices`` (point indices in
    reference-vertex order), ``cell_faces`` and ``cell_along`` (per
    reference edge, its face and whether the face's p->q runs along it) and
    ``face_cells`` (left and right cell).  ``cell(i)`` and ``face(f)`` make
    the ``Cell`` or ``Face`` record of one entity; ``cells``, ``faces`` and
    ``points`` make every one, on first read.
    """

    def __init__(self, kind: MeshKind, nx: int, ny: int, lx: Fraction, ly: Fraction,
                 charts: tuple, cell_chart: np.ndarray, cell_vertices: np.ndarray,
                 cell_faces: np.ndarray, cell_along: np.ndarray, face_cells: np.ndarray,
                 face_wrap: np.ndarray):
        self.kind = kind
        self.ref = RefCell.TRIANGLE if kind is MeshKind.TRIANGULAR else RefCell.SQUARE
        self.nx = nx
        self.ny = ny
        self.lx = lx
        self.ly = ly
        self.hx = lx / nx
        self.hy = ly / ny
        self.charts = charts
        self.cell_chart = cell_chart
        self.cell_vertices = cell_vertices
        self.cell_faces = cell_faces
        self.cell_along = cell_along
        self.face_cells = face_cells
        # per face and side (left, right): the periods (x, y) that carry the
        # face's start into that cell's chart, read only by ``face``
        self._face_wrap = face_wrap
        self._cells: dict[int, Cell] = {}  # the records made so far, by index
        for a in (cell_chart, cell_vertices, cell_faces, cell_along, face_cells, face_wrap):
            a.flags.writeable = False

    @cached_property
    def chart_cells(self) -> tuple[np.ndarray, ...]:
        """Per chart id, the indices of its cells in mesh order; read only."""
        out = tuple((self.cell_chart == chart).nonzero()[0] for chart in range(len(self.charts)))
        for cells in out:
            cells.flags.writeable = False
        return out

    def cell(self, index) -> Cell:
        """The record of cell ``index``, made from the arrays on first read."""
        index = int(index)
        if index not in self._cells:
            square, chart = divmod(index, len(self.charts))  # one cell per chart in a square
            j, i = divmod(square, self.nx)
            self._cells[index] = Cell(
                index, self.ref, chart, AffineMap(self.charts[chart], (i * self.hx, j * self.hy)),
                tuple(self.cell_vertices[index].tolist()),
                tuple(zip(self.cell_faces[index].tolist(), self.cell_along[index].tolist())))
        return self._cells[index]

    def face(self, index) -> Face:
        """The record of face ``index``, made from the arrays."""
        index = int(index)
        kind, square = divmod(index, self.nx * self.ny)
        name, offset, step = _FACE_KINDS[kind]
        j, i = divmod(square, self.nx)
        sx, sy = i + offset[0], j + offset[1]
        left, right = self.face_cells[index].tolist()
        (left_x, left_y), (right_x, right_y) = self._face_wrap[index].tolist()
        hx, hy, lx, ly = self.hx, self.hy, self.lx, self.ly
        return Face(index, name, (sx * hx, sy * hy), ((sx + step[0]) * hx, (sy + step[1]) * hy),
                    left, right, (left_x * lx, left_y * ly), (right_x * lx, right_y * ly))

    @cached_property
    def cells(self) -> list[Cell]:
        return [self.cell(c) for c in range(self.num_cells)]

    @cached_property
    def faces(self) -> list[Face]:
        return [self.face(f) for f in range(self.num_faces)]

    @cached_property
    def points(self) -> list[tuple[Fraction, Fraction]]:
        """The lattice points, row-major."""
        return [(i * self.hx, j * self.hy) for j in range(self.ny) for i in range(self.nx)]

    @property
    def num_cells(self) -> int:
        return self.cell_chart.size

    @property
    def num_faces(self) -> int:
        return self.face_cells.shape[0]

    @property
    def num_points(self) -> int:
        return self.nx * self.ny

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


# the face kinds, in numbering order: name, the lattice offset of the start
# of the face of grid square (i, j) from (i, j), and its step.  x-normal
# faces are the east sides of the squares, pointing down so the +90 degree
# rotation gives normal (+hy, 0); y-normal faces the north sides, pointing in
# +x; diagonals (triangulation only) run low-left -> up-right, normal (-hy, hx)
_FACE_KINDS = (("x", (1, 1), (0, -1)), ("y", (0, 1), (1, 0)), ("diag", (0, 0), (1, 1)))


class _Square(NamedTuple):
    """The cells of one grid square, one per chart, as lattice data over
    (chart, edge): the vertex offsets from the square's corner in
    reference-vertex order, whether the edge's face runs p->q along it, that
    face's kind and the offset of the face's start from the square's corner.
    Each edge finds its face by (start, step), in either direction; a face
    whose p->q runs along the cell's counterclockwise edge has its normal
    pointing into the cell, so that cell is its right."""

    corners: np.ndarray
    along: np.ndarray
    face_kind: np.ndarray
    face_start: np.ndarray
    face_kinds: int

    @classmethod
    def of(cls, corners, face_kinds: int) -> "_Square":
        by_step = {step: (f, offset)
                   for f, (_, offset, step) in enumerate(_FACE_KINDS[:face_kinds])}
        along, faces, starts = [], [], []
        for cell in corners:
            for a, b in zip(cell, cell[1:] + cell[:1]):
                step = (b[0] - a[0], b[1] - a[1])
                along.append(step in by_step)
                f, offset = by_step[step if along[-1] else (-step[0], -step[1])]
                start = a if along[-1] else b
                faces.append(f)
                starts.append((start[0] - offset[0], start[1] - offset[1]))
        shape = (len(corners), len(corners[0]))
        arrays = (np.array(corners), np.array(along).reshape(shape),
                  np.array(faces).reshape(shape), np.array(starts).reshape(shape + (2,)))
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays, face_kinds)


# lower triangle: (i,j) -> (i+1,j) -> (i+1,j+1); upper: (i,j) -> (i+1,j+1) -> (i,j+1)
_SQUARES = {
    MeshKind.CARTESIAN: _Square.of([((0, 0), (1, 0), (1, 1), (0, 1))], 2),
    MeshKind.TRIANGULAR: _Square.of([((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))], 3),
}


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
    # the chart linear parts of the cells of one grid square, in _SQUARES order
    if kind is MeshKind.CARTESIAN:
        linear = [((hx, 0), (0, hy))]
    elif kind is MeshKind.TRIANGULAR:
        linear = [((hx, hx), (0, hy)), ((hx, 0), (hy, hy))]
    else:
        raise ValueError(f"unknown mesh kind: {kind!r}")
    square = _SQUARES[kind]

    # every array below is (grid square, chart, edge); cells run square by
    # square, one per chart, so they flatten to (cell, edge)
    squares = nx * ny
    sj, si = np.divmod(np.arange(squares), nx)
    si, sj = si[:, None, None], sj[:, None, None]
    cell_vertices = (si + square.corners[..., 0]) % nx + (sj + square.corners[..., 1]) % ny * nx
    wrap_x, fx = np.divmod(si + square.face_start[..., 0], nx)
    wrap_y, fy = np.divmod(sj + square.face_start[..., 1], ny)
    cell_faces = square.face_kind * squares + fy * nx + fx
    charts, nedges = square.along.shape
    ncells = squares * charts
    side = np.broadcast_to(square.along, cell_faces.shape).astype(np.int64)
    face_cells = np.full((square.face_kinds * squares, 2), -1, dtype=np.int64)
    face_cells[cell_faces, side] = np.arange(ncells).reshape(squares, charts, 1)
    if (face_cells < 0).any():
        f = int((face_cells < 0).any(axis=1).nonzero()[0][0])
        raise AssertionError(f"face {f} is not bounded by one left and one right cell")
    face_wrap = np.zeros((face_cells.shape[0], 2, 2), dtype=np.int64)
    face_wrap[cell_faces, side] = np.stack((wrap_x, wrap_y), axis=-1)

    mesh = Mesh(kind, nx, ny, lx, ly, tuple(AffineMap.make(m, (0, 0)).m for m in linear),
                np.arange(ncells) % charts, cell_vertices.reshape(ncells, nedges),
                cell_faces.reshape(ncells, nedges), side.reshape(ncells, nedges).astype(bool),
                face_cells, face_wrap)
    expected = entity_counts(kind, nx, ny)
    got = (mesh.num_cells, mesh.num_faces, mesh.num_points)
    if got != expected:
        raise AssertionError(f"entity counts {got} != closed form {expected}")
    return mesh
