"""Periodic mesh combinatorics and orientation conventions."""

import dataclasses
from fractions import Fraction

import pytest

from derham.fespace import ContinuousScalarSpace
from derham.mesh import Cell, MeshKind, build_mesh, edge_segment, entity_counts
from derham.poly import AffineMap
from oracles import build_mesh_loop, scalar_dofs_loop

F = Fraction

FROZEN_COUNTS = [
    (MeshKind.TRIANGULAR, 2, 2, (8, 12, 4)),
    (MeshKind.TRIANGULAR, 3, 2, (12, 18, 6)),
    (MeshKind.CARTESIAN, 2, 2, (4, 8, 4)),
    (MeshKind.CARTESIAN, 3, 2, (6, 12, 6)),
    (MeshKind.CARTESIAN, 5, 4, (20, 40, 20)),
]


@pytest.mark.parametrize("kind,nx,ny,expected", FROZEN_COUNTS)
def test_frozen_entity_counts(kind, nx, ny, expected):
    mesh = build_mesh(kind, nx, ny)
    assert (mesh.num_cells, mesh.num_faces, mesh.num_points) == expected
    assert entity_counts(kind, nx, ny) == expected


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
@pytest.mark.parametrize("nx", range(2, 6))
@pytest.mark.parametrize("ny", range(2, 6))
def test_counts_match_closed_forms(kind, nx, ny):
    mesh = build_mesh(kind, nx, ny)
    base = nx * ny
    if kind is MeshKind.TRIANGULAR:
        expected = (2 * base, 3 * base, base)
    else:
        expected = (base, 2 * base, base)
    assert (mesh.num_cells, mesh.num_faces, mesh.num_points) == expected
    assert mesh.euler_characteristic == 0


@pytest.mark.parametrize("bad", [(0, 2), (1, 3), (2, 1), (-2, 2)])
def test_grid_count_validation(bad):
    with pytest.raises(ValueError):
        build_mesh(MeshKind.CARTESIAN, *bad)


def test_grid_counts_must_be_integers():
    with pytest.raises(TypeError):
        build_mesh(MeshKind.TRIANGULAR, 2.5, 2)


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_face_normals_are_rotated_chords(kind):
    mesh = build_mesh(kind, 3, 2, F(3, 2), F(5, 7))
    hx, hy = F(3, 2) / 3, F(5, 7) / 2
    for face in mesh.faces:
        d, n = face.chord, face.normal
        assert n == (-d[1], d[0])
        assert n[0] * d[0] + n[1] * d[1] == 0
        assert n[0] ** 2 + n[1] ** 2 == face.length_sq
        if face.kind == "x":
            assert n == (hy, 0)
        elif face.kind == "y":
            assert n == (0, hx)
        else:
            assert n == (-hy, hx)


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_faces_lie_on_reference_edges(kind):
    # both charts must carry the face onto one full edge of their reference
    # cell; the trace machinery relies on this.  The recorded incidence must
    # name that edge and the face's direction on it, and the segment read
    # from the record must be the one the rational geometry gives.
    for nx, ny, lx, ly in ((2, 3, F(2), F(1, 3)), (2, 2, 1, 1), (3, 5, F(7, 3), F(5, 11))):
        mesh = build_mesh(kind, nx, ny, lx, ly)
        for face in mesh.faces:
            for side in ("left", "right"):
                cell = mesh.cells[face.cell_on(side)]
                a = cell.to_ref_point(face.start_in_chart(side))
                d = cell.to_ref_vector(face.chord)
                b = (a[0] + d[0], a[1] + d[1])
                matched = [
                    edge for edge in cell.ref.edges
                    if {edge.start, edge.end} == {a, b}
                ]
                assert len(matched) == 1
                [(e, along)] = [(e, along) for e, (f, along) in enumerate(cell.edge_faces)
                                if f == face.index]
                assert cell.ref.edges[e] == matched[0]
                assert along == (matched[0].start == a)
                assert along == (side == "right")
                assert edge_segment(cell.ref, cell.fmap.m, e, along) == (a, d, face.chord)


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_cell_vertices_are_mesh_points(kind):
    lx, ly = F(7, 3), F(5, 11)
    for nx, ny in ((2, 2), (3, 5)):
        mesh = build_mesh(kind, nx, ny, lx, ly)
        for cell in mesh.cells:
            assert len(cell.vertices) == len(cell.edge_faces) == cell.ref.num_edges
            for v, edge in zip(cell.vertices, cell.ref.edges):
                x, y = cell.fmap.apply(edge.start)
                assert mesh.points[v] == (x - (x // lx) * lx, y - (y // ly) * ly)


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_each_cell_bounded_by_expected_faces(kind):
    mesh = build_mesh(kind, 4, 3)
    incidence = {c.index: 0 for c in mesh.cells}
    for face in mesh.faces:
        assert face.left != face.right  # periodic seams still separate cells
        incidence[face.left] += 1
        incidence[face.right] += 1
    per_cell = 3 if kind is MeshKind.TRIANGULAR else 4
    assert all(count == per_cell for count in incidence.values())


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_cell_inverse_is_derived_from_the_chart(kind):
    # a cell records no inverse; it is formed from the chart map on first read
    assert "inv" not in {f.name for f in dataclasses.fields(Cell)}
    mesh = build_mesh(kind, 3, 2, F(7, 3), F(5, 11))
    for cell in mesh.cells:
        assert cell.inv == cell.fmap.inverse()
        assert cell.inv is cell.inv  # formed once per cell
        assert cell.m_inv == AffineMap(mesh.charts[cell.chart], (0, 0)).inverse().m
        for pt in ((F(0), F(0)), (F(1, 3), F(1, 5))):
            assert cell.to_ref_point(cell.fmap.apply(pt)) == pt


def test_cell_charts_have_positive_orientation():
    for kind in (MeshKind.TRIANGULAR, MeshKind.CARTESIAN):
        mesh = build_mesh(kind, 2, 2, F(5, 3), F(7, 11))
        total = sum(c.measure for c in mesh.cells)
        assert all(c.jac > 0 for c in mesh.cells)
        assert total == F(5, 3) * F(7, 11)


def test_summary_schema():
    info = build_mesh(MeshKind.TRIANGULAR, 2, 2).summary()
    assert info["schema"] == 1
    assert info["kind"] == "triangular"
    for key in ("nx", "ny", "cells", "faces", "points", "euler_characteristic"):
        assert key in info


@pytest.mark.parametrize("kind,charts", [(MeshKind.CARTESIAN, 1), (MeshKind.TRIANGULAR, 2)])
@pytest.mark.parametrize("nx,ny,lx,ly", [(2, 2, 1, 1), (4, 3, F(7, 3), F(5, 11))])
def test_integer_chart_ids(kind, charts, nx, ny, lx, ly):
    """Each cell's chart is an int index into ``mesh.charts``; cells with one
    id share the linear part exactly, and cells of different ids do not."""
    mesh = build_mesh(kind, nx, ny, lx, ly)
    assert len(mesh.charts) == charts
    assert {cell.chart for cell in mesh.cells} == set(range(charts))
    for cell in mesh.cells:
        assert type(cell.chart) is int
        assert cell.fmap.m == mesh.charts[cell.chart]
    assert len(set(mesh.charts)) == charts
    assert [cells.tolist() for cells in mesh.chart_cells] == [
        [cell.index for cell in mesh.cells if cell.chart == chart] for chart in range(charts)]


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (7, 4)])
@pytest.mark.parametrize("lx,ly", [(1, 1), (F(7, 3), F(5, 11))])
def test_records_match_the_loop_built_mesh(kind, nx, ny, lx, ly):
    """The Cell and Face records made on demand from the incidence arrays,
    and the continuous spaces' dofs, equal those of the mesh built cell by
    cell; so do the arrays themselves, read row by row."""
    mesh = build_mesh(kind, nx, ny, lx, ly)
    cells, faces, points = build_mesh_loop(kind, nx, ny, lx, ly)
    assert [mesh.cell(c) for c in range(mesh.num_cells)] == cells == mesh.cells
    assert [mesh.face(f) for f in range(mesh.num_faces)] == faces == mesh.faces
    assert mesh.points == points
    assert mesh.cell_chart.tolist() == [cell.chart for cell in cells]
    assert mesh.cell_vertices.tolist() == [list(cell.vertices) for cell in cells]
    assert mesh.cell_faces.tolist() == [[f for f, _ in cell.edge_faces] for cell in cells]
    assert mesh.cell_along.tolist() == [[a for _, a in cell.edge_faces] for cell in cells]
    assert mesh.face_cells.tolist() == [[face.left, face.right] for face in faces]
    for degree in (1, 2, 3):
        space = ContinuousScalarSpace(mesh, degree)
        assert (space.cell_dofs, space.dim) == scalar_dofs_loop(cells, degree)
        assert space.dofs.tolist() == space.cell_dofs


def test_records_are_made_once_and_arrays_are_read_only():
    mesh = build_mesh(MeshKind.TRIANGULAR, 3, 2)
    assert mesh.cell(4) is mesh.cell(4) is mesh.cells[4]
    for a in (mesh.cell_chart, mesh.cell_vertices, mesh.cell_faces, mesh.cell_along,
              mesh.face_cells):
        with pytest.raises(ValueError):
            a[0] = a[1]
