"""Local and global space construction: dimensions, membership, continuity."""

import random
from fractions import Fraction

import pytest

from derham import exactla, fespace
from derham.fespace import (
    ContinuousScalarSpace,
    CodomainSpace,
    DGVectorSpace,
    SpanError,
    audit_dimensions,
    dimension_formula,
    lagrange_basis,
    local_dim,
    make_vector_basis,
    scalar_local_basis,
)
from derham.mesh import MeshKind, build_mesh
from derham.poly import Poly, RefCell, VecPoly, divergence, grad_perp, restrict_to_segment
from derham.refcheck import flat_trace_basis

F = Fraction

LOCAL_DIMS = [
    ("vec_p", lambda k: (k + 1) * (k + 2)),
    ("vec_q", lambda k: 2 * (k + 1) ** 2),
    ("vec_qdiv", lambda k: 2 * (k + 1) ** 2 + 2 * k + 1),
    ("vec_qcurl", lambda k: 2 * (k + 1) ** 2 + 2 * k + 1),
    ("rt_tri", lambda k: (k + 1) * (k + 3)),
    ("ned_tri", lambda k: (k + 1) * (k + 3)),
    ("rt_quad", lambda k: 2 * (k + 1) * (k + 2)),
    ("ned_quad", lambda k: 2 * (k + 1) * (k + 2)),
]


@pytest.mark.parametrize("family,formula", LOCAL_DIMS)
@pytest.mark.parametrize("k", range(5))
def test_local_dims(family, formula, k):
    assert local_dim(family, k) == formula(k)


def test_frozen_local_dims():
    # the enriched quad family at k=1 and the lifted triangle family at k=1
    # are the dimensions everything else hinges on
    assert local_dim("vec_qdiv", 1) == 11
    assert local_dim("rt_tri", 1) == 8


@pytest.mark.parametrize("k", range(1, 5))
def test_scalar_family_dims(k):
    assert scalar_local_basis(RefCell.TRIANGLE, "p", k).dim == (k + 1) * (k + 2) // 2
    assert scalar_local_basis(RefCell.SQUARE, "q", k).dim == (k + 1) ** 2
    assert scalar_local_basis(RefCell.SQUARE, "qhat", k).dim == k * (k + 2)


def test_basis_encode_expand_roundtrip():
    rng = random.Random(4)
    for family, k in (("vec_p", 2), ("vec_qdiv", 1), ("rt_tri", 1), ("ned_quad", 0)):
        ref = RefCell.TRIANGLE if family.endswith("tri") or family == "vec_p" else RefCell.SQUARE
        basis = make_vector_basis(family, k, ref)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(basis.dim)]
        member = VecPoly.zero()
        for c, u in zip(coeffs, basis.elements):
            member = member + u.scale(c)
        assert basis.expand(member) == coeffs
    scalar_bases = [scalar_local_basis(RefCell.TRIANGLE, "p", 2),
                    scalar_local_basis(RefCell.SQUARE, "q", 2),
                    scalar_local_basis(RefCell.SQUARE, "qhat", 2)]
    for basis in scalar_bases:
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(basis.dim)]
        member = Poly.zero()
        for c, p in zip(coeffs, basis.elements):
            member = member + p.scale(c)
        assert basis.expand(member) == coeffs, basis.tag
    for ref, degree in ((RefCell.TRIANGLE, 2), (RefCell.SQUARE, 2)):
        # Lagrange coefficients are the values at the nodes
        nodes, basis = lagrange_basis(ref, degree)
        member = Poly({(a, b): F(rng.randint(-9, 9), rng.randint(1, 5))
                       for a, b in ((0, 0), (1, 0), (1, 1), (0, 2))})
        assert basis.expand(member) == [member.eval(*node) for node in nodes], basis.tag


def test_empty_scalar_basis():
    empty = scalar_local_basis(RefCell.TRIANGLE, "p", -1)
    assert empty.dim == 0
    assert empty.expand(Poly.zero()) == []
    with pytest.raises(SpanError, match=r"^nonzero polynomial in empty space p\(-1\) on triangle$"):
        empty.expand(Poly.const(1))


def test_expand_rejects_non_members():
    basis = make_vector_basis("vec_p", 0, RefCell.TRIANGLE)
    with pytest.raises(SpanError, match=r"^x-monomial x\^1 y\^0 outside vec_p\(k=0\)$"):
        basis.expand(VecPoly(Poly.monomial(1, 0), Poly.zero()))  # (x, 0) not constant
    with pytest.raises(SpanError, match=r"^y-monomial x\^0 y\^1 outside vec_p\(k=0\)$"):
        basis.expand(VecPoly(Poly.zero(), Poly.monomial(0, 1)))
    # (x^2 y, 0) uses only known monomials, but alone it is not a member
    enriched = make_vector_basis("vec_qdiv", 1, RefCell.SQUARE)
    with pytest.raises(SpanError, match=r"^target is outside the span \(vec_qdiv\(k=1\)\)$"):
        enriched.expand(VecPoly(Poly.monomial(2, 1), Poly.zero()))
    scalar = scalar_local_basis(RefCell.TRIANGLE, "p", 1)
    with pytest.raises(SpanError, match=r"^monomial x\^2 y\^0 outside p\(1\) on triangle$"):
        scalar.expand(Poly.monomial(2, 0))
    _, nodal = lagrange_basis(RefCell.TRIANGLE, 1)
    with pytest.raises(SpanError, match=r"^monomial x\^1 y\^1 outside lagrange\(1\) on triangle$"):
        nodal.expand(Poly.monomial(1, 1))


def test_enriched_quad_contains_rotated_gradients():
    # the one extra basis direction is exactly what closes rot-grad(Q_{k+1})
    for k in range(3):
        basis = make_vector_basis("vec_qdiv", k, RefCell.SQUARE)
        top = grad_perp(Poly.monomial(k + 1, k + 1))
        coeffs = basis.expand(top)  # raises SpanError if the claim fails
        assert any(coeffs)
        naive = make_vector_basis("vec_q", k, RefCell.SQUARE)
        with pytest.raises(SpanError):
            naive.expand(top)


def test_enriched_spanning_vector_is_divergence_free_in_any_chart():
    # the chart factors in the spanning vector make its physical divergence
    # cancel exactly, whatever the cell aspect ratio
    mesh = build_mesh(MeshKind.CARTESIAN, 2, 2, F(7, 3), F(1, 5))
    space = DGVectorSpace(mesh, "vec_qdiv", 2)
    cell = mesh.cells[0]
    extra = space.local(cell).elements[-1]
    assert divergence(extra, cell.m_inv).is_zero


def test_lagrange_basis_is_nodal():
    for ref, degree in ((RefCell.TRIANGLE, 3), (RefCell.SQUARE, 2)):
        nodes, basis = lagrange_basis(ref, degree)
        for i, p in enumerate(basis.elements):
            for j, node in enumerate(nodes):
                assert p.eval(*node) == (1 if i == j else 0)


def test_lagrange_basis_needs_no_square_solve(monkeypatch):
    # each nodal function is one expansion in the monomials at the nodes
    def boom(*args, **kwargs):
        raise AssertionError("lagrange_basis called solve_square")

    monkeypatch.setattr(fespace, "solve_square", boom)
    monkeypatch.setattr(exactla, "solve_square", boom)
    for ref, degree in ((RefCell.TRIANGLE, 3), (RefCell.SQUARE, 2)):
        nodes, basis = lagrange_basis.__wrapped__(ref, degree)
        assert basis.elements == lagrange_basis(ref, degree)[1].elements
        assert nodes == lagrange_basis(ref, degree)[0]


def test_flat_quad_is_the_appendix_triple():
    assert local_dim("flat_quad", 0) == 3
    with pytest.raises(ValueError, match="k = 0 only"):
        local_dim("flat_quad", 1)
    elements = make_vector_basis("flat_quad", 0, RefCell.SQUARE).elements
    assert elements == flat_trace_basis(RefCell.SQUARE)
    assert elements[2] == VecPoly(Poly({(0, 0): 1, (1, 0): -2}), Poly({(0, 0): -1, (0, 1): 2}))
    quad = build_mesh(MeshKind.CARTESIAN, 2, 3, F(3), F(1, 2))
    assert DGVectorSpace(quad, "flat_quad", 0).dim == 18
    with pytest.raises(ValueError):
        DGVectorSpace(build_mesh(MeshKind.TRIANGULAR, 2, 2), "flat_quad", 0)


GLOBAL_DIMS = [
    (MeshKind.TRIANGULAR, "scalar_continuous", lambda k, n: n * (k + 1) ** 2 // 2),
    (MeshKind.TRIANGULAR, "vec_p", lambda k, n: n * (k + 1) * (k + 2)),
    (MeshKind.TRIANGULAR, "codomain_low", lambda k, n: n * (k + 1) * (k + 3) // 2),
    (MeshKind.CARTESIAN, "scalar_continuous", lambda k, n: n * (k + 1) ** 2),
    (MeshKind.CARTESIAN, "vec_qdiv", lambda k, n: n * (2 * (k + 1) ** 2 + 2 * k + 1)),
    (MeshKind.CARTESIAN, "codomain_low", lambda k, n: n * (k * k + 4 * k + 2)),
]


@pytest.mark.parametrize("kind,name,formula", GLOBAL_DIMS)
@pytest.mark.parametrize("k", range(4))
def test_dimension_formulas(kind, name, formula, k):
    assert dimension_formula(kind, name, k, 8) == formula(k, 8)


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_audit_all_match(kind):
    mesh = build_mesh(kind, 2, 2)
    records = audit_dimensions(mesh, 3)
    assert records and all(r["ok"] and r["computed"] == r["expected"] for r in records)


def test_global_dims_frozen():
    tri = build_mesh(MeshKind.TRIANGULAR, 2, 2)
    assert ContinuousScalarSpace(tri, 1).dim == 4
    assert DGVectorSpace(tri, "vec_p", 0).dim == 16
    assert CodomainSpace(tri, 0, "p", -1).dim == 12
    quad = build_mesh(MeshKind.CARTESIAN, 2, 2)
    assert ContinuousScalarSpace(quad, 2).dim == 16
    assert DGVectorSpace(quad, "vec_qdiv", 1).dim == 44
    assert CodomainSpace(quad, 1, "qhat", 1).dim == 28


def test_family_mesh_kind_mismatch():
    tri = build_mesh(MeshKind.TRIANGULAR, 2, 2)
    with pytest.raises(ValueError):
        DGVectorSpace(tri, "vec_qdiv", 0)
    with pytest.raises(ValueError):
        DGVectorSpace(tri, "no_such_family", 0)


@pytest.mark.parametrize("kind,degree", [
    (MeshKind.TRIANGULAR, 1), (MeshKind.TRIANGULAR, 2),
    (MeshKind.CARTESIAN, 1), (MeshKind.CARTESIAN, 3),
])
def test_scalar_space_continuous_across_every_face(kind, degree):
    # evaluate a random member from both incident charts on every face; the
    # two traces must agree exactly, including across the periodic seam
    mesh = build_mesh(kind, 3, 2, F(4, 3), F(5, 2))
    space = ContinuousScalarSpace(mesh, degree)
    rng = random.Random(degree)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(space.dim)]
    for face in mesh.faces:
        traces = []
        for side in ("left", "right"):
            cell = mesh.cells[face.cell_on(side)]
            start = cell.to_ref_point(face.start_in_chart(side))
            direction = cell.to_ref_vector(face.chord)
            total = Poly.zero()
            for g, p in space.shape_functions(cell):
                total = total + p.scale(coeffs[g])
            traces.append(restrict_to_segment(total, start, direction))
        assert traces[0] == traces[1]


def wrapped_point_numbering(space):
    """The reference numbering: each node's physical point reduced into the
    periodic box, numbered in first-seen order over cells and nodes."""
    mesh = space.mesh
    table = {}
    cell_dofs = []
    for cell in mesh.cells:
        dofs = []
        for node in space.nodes:
            x, y = cell.fmap.apply(node)
            key = (x - (x // mesh.lx) * mesh.lx, y - (y // mesh.ly) * mesh.ly)
            dofs.append(table.setdefault(key, len(table)))
        cell_dofs.append(dofs)
    return cell_dofs, len(table)


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_incidence_numbering_matches_wrapped_points(kind):
    # nodes are numbered from the mesh incidence; numbering them by their
    # wrapped physical points must give the same dofs, also on the 2x2
    # triangular torus, where two diagonals join the same two vertices
    for nx in (2, 3, 5):
        for ny in (2, 3, 5):
            for lx, ly in ((1, 1), (F(7, 3), F(5, 11))):
                mesh = build_mesh(kind, nx, ny, lx, ly)
                for degree in (1, 2, 3):
                    space = ContinuousScalarSpace(mesh, degree)
                    expected = wrapped_point_numbering(space)
                    assert (space.cell_dofs, space.dim) == expected, (nx, ny, lx, degree)


def test_periodic_identification_shrinks_node_table():
    mesh = build_mesh(MeshKind.CARTESIAN, 2, 2)
    space = ContinuousScalarSpace(mesh, 1)
    # 4 cells x 4 corners collapse onto the 4 torus points
    assert space.dim == 4
    assert sorted(set(d for dofs in space.cell_dofs for d in dofs)) == [0, 1, 2, 3]


def test_codomain_uniform_vector():
    mesh = build_mesh(MeshKind.CARTESIAN, 2, 2)
    c_space = CodomainSpace(mesh, 1, "qhat", 1)
    v = c_space.uniform_vector(F(3, 2))
    face0 = c_space.face_offset(0)
    assert v[face0] == F(3, 2) and v[face0 + 1] == 0
    assert c_space.cell_local.dim == 3


def test_descriptors_carry_schema():
    mesh = build_mesh(MeshKind.TRIANGULAR, 2, 2)
    for desc in (DGVectorSpace(mesh, "vec_p", 1).descriptor(),
                 ContinuousScalarSpace(mesh, 1).descriptor(),
                 CodomainSpace(mesh, 0, "p", 0).descriptor()):
        assert desc["schema"] == 1 and desc["dim"] > 0


@pytest.mark.parametrize("kind,family", [(MeshKind.TRIANGULAR, "vec_p"),
                                         (MeshKind.TRIANGULAR, "rt_tri"),
                                         (MeshKind.CARTESIAN, "vec_qdiv")])
def test_constants_tiled_from_chart_stamps_expand_per_cell(kind, family):
    """The constant fields and the uniform element, placed from per-chart
    stamps, equal their expansions cell by cell and face by face."""
    mesh = build_mesh(kind, 3, 2, F(7, 3), F(5, 11))
    space = DGVectorSpace(mesh, family, 1)
    values = ((1, 0), (F(3), F(-2, 5)))
    columns = space.constant_columns(*values).columns()
    for (cx, cy), column in zip(values, columns):
        assert column == [c for cell in mesh.cells
                          for c in space.local(cell).expand(VecPoly.constant(cx, cy))]
    assert space.constant_vector(3, F(-2, 5)) == columns[1]
    c_space = CodomainSpace(mesh, 1, "p", 1)
    value = F(3, 2)
    cell_part = c_space.cell_local.expand(Poly.const(value)) * mesh.num_cells
    assert c_space.uniform_vector(value) == cell_part + [value, 0] * mesh.num_faces
