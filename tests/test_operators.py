"""Operator assembly: exactness, adjoints, membership guards, round-trips."""

import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from derham import exactla, operators
from derham.complexcheck import build_diagram
from derham.fespace import CodomainSpace, ContinuousScalarSpace, DGVectorSpace
from derham.mesh import MeshKind, build_mesh
from derham.operators import (
    GramMatrix,
    MembershipError,
    OpMatrix,
    _scatter,
    adjoint,
    assemble_curl_distributional,
    assemble_div_distributional,
    assemble_grad,
    assemble_grad_perp,
    assemble_gram,
    load_matrix,
)

F = Fraction


@pytest.fixture(scope="module")
def tri_spaces():
    mesh = build_mesh(MeshKind.TRIANGULAR, 2, 2)
    a = ContinuousScalarSpace(mesh, 2)
    b = DGVectorSpace(mesh, "vec_p", 1)
    c = CodomainSpace(mesh, 1, "p", 0)
    return mesh, a, b, c


def random_vec(rng, n):
    return [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]


def test_second_annihilates_first(tri_spaces):
    _, a, b, c = tri_spaces
    first = assemble_grad_perp(a, b)
    second = assemble_div_distributional(b, c)
    assert second.compose(first).is_zero


def test_curl_twin_annihilates_gradient(tri_spaces):
    _, a, b, c = tri_spaces
    assert assemble_curl_distributional(b, c).compose(assemble_grad(a, b)).is_zero


def test_float_array_matches_dense_rows(tri_spaces):
    _, a, b, c = tri_spaces
    for mat in (assemble_grad_perp(a, b), assemble_div_distributional(b, c),
                assemble_gram(b), assemble_gram(c)):
        assert np.array_equal(mat.float_array(), np.array(mat.dense_rows(), dtype=float))


def op_from_rows(rows):
    out = OpMatrix(len(rows), len(rows[0]))
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            out.add(r, c, F(v))
    return out


def dense_product(left, right):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*right)]
            for row in left]


def assert_matches_dense(product, expected):
    assert product.dense_rows() == expected
    assert all(product.entries.values())  # no stored zeros
    assert product.nnz == sum(1 for row in expected for v in row if v)


def test_compose_drops_cancelled_products():
    # entries (0, 0) and row 1 of left @ right, and row 0 of gram @ right, are
    # sums of nonzero products that cancel
    left = op_from_rows([[1, 1, 0], [0, 2, 1]])
    right = op_from_rows([[1, 0], [-1, 3], [2, -6]])
    assert_matches_dense(left.compose(right), [[F(0), F(3)], [F(0), F(0)]])
    gram = GramMatrix(4)
    gram.add_block(0, [[F(1), F(1)], [F(1), F(2)]])
    gram.add_block(2, [[F(3)]])
    right = op_from_rows([[1, 2], [-1, -2], [0, 5], [7, 0]])
    expected = dense_product(gram.dense_rows(), right.dense_rows())
    assert expected[0] == [F(0), F(0)]
    assert_matches_dense(gram.compose(right), expected)


def test_gram_sparse_form_follows_add_block():
    gram = GramMatrix(3)
    gram.add_block(0, [[F(1), F(1)], [F(1), F(2)]])
    right = op_from_rows([[1, 0], [0, 1], [1, 1]])
    assert_matches_dense(gram.compose(right), [[F(1), F(1)], [F(1), F(2)], [F(0), F(0)]])
    assert gram._as_op() is gram._as_op()  # built once
    gram.add_block(2, [[F(5)]])
    expected = dense_product(gram.dense_rows(), right.dense_rows())
    assert expected[2] == [F(5), F(5)]  # the added block is in the sparse form
    assert_matches_dense(gram.compose(right), expected)


def test_gram_symmetric_positive(tri_spaces):
    _, _, b, _ = tri_spaces
    gram = assemble_gram(b)
    rows = gram.dense_rows()
    assert rows == [list(col) for col in zip(*rows)]
    rng = random.Random(0)
    for _ in range(3):
        x = random_vec(rng, b.dim)
        assert gram.inner(x, x) > 0
    assert gram.inner([F(0)] * b.dim, [F(0)] * b.dim) == 0


def test_gram_solve_roundtrip(tri_spaces):
    _, _, b, _ = tri_spaces
    gram = assemble_gram(b)
    rng = random.Random(1)
    cols = [random_vec(rng, b.dim) for _ in range(2)]
    sols = gram.solve_columns(cols)
    for col, sol in zip(cols, sols):
        assert gram.matvec(sol) == col


def test_adjoint_pairing(tri_spaces):
    _, _, b, c = tri_spaces
    second = assemble_div_distributional(b, c)
    gb, gc = assemble_gram(b), assemble_gram(c)
    adj = adjoint(second, gb, gc)
    rng = random.Random(2)
    for _ in range(3):
        u, v = random_vec(rng, b.dim), random_vec(rng, c.dim)
        assert gc.inner(second.matvec(u), v) == gb.inner(u, adj.matvec(v))


def test_constants_in_first_kernel(tri_spaces):
    _, a, b, _ = tri_spaces
    first = assemble_grad_perp(a, b)
    assert all(v == 0 for v in first.matvec(a.constant_vector()))


def test_uniform_orthogonal_to_second_range(tri_spaces):
    _, _, b, c = tri_spaces
    second = assemble_div_distributional(b, c)
    gc = assemble_gram(c)
    weighted = gc.matvec(c.uniform_vector())
    assert all(v == 0 for v in second.rmatvec(weighted))


def test_trace_degree_guard():
    # degree-1 traces cannot land in a degree-0 face factor
    mesh = build_mesh(MeshKind.TRIANGULAR, 2, 2)
    b = DGVectorSpace(mesh, "vec_p", 1)
    low = CodomainSpace(mesh, 0, "p", 0)
    with pytest.raises(MembershipError, match=r"^div trace on face 0 \(x, left\): "
                                              r"degree 1 exceeds face degree 0$"):
        assemble_div_distributional(b, low)


def test_cell_factor_guard():
    # naive quads at k=1 have nonzero cellwise divergence, so an empty cell
    # factor must be refused
    mesh = build_mesh(MeshKind.CARTESIAN, 2, 2)
    b = DGVectorSpace(mesh, "vec_q", 1)
    c = CodomainSpace(mesh, 1, None, 0)
    with pytest.raises(MembershipError, match=r"^div cell part, cell 0: "
                                              r"nonzero result but empty cell factor$"):
        assemble_div_distributional(b, c)


def test_scatter_sums_repeated_positions():
    out = OpMatrix(3, 3)
    _scatter(out, [(0, 0, F(1, 2)), (1, 2, F(3))], 1, [2, 0, 1])
    assert out.entries == {(1, 2): F(1, 2), (2, 1): F(3)}
    _scatter(out, [(0, 0, F(1, 3)), (1, 2, F(-3))], 1, [2, 0, 1])
    assert out.entries == {(1, 2): F(5, 6)}


def test_stamps_are_formed_per_key(monkeypatch):
    # local element matrices depend on the chart, the reference edge and the
    # face's orientation, not on the mesh size
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators, "segment_trace",
                        counted("trace", operators.segment_trace))
    monkeypatch.setattr(exactla.LinearExpander, "expand",
                        counted("expand", exactla.LinearExpander.expand))
    build_diagram("tri-dp", 4, 4, 1)  # fills the local-basis caches
    per_size = []
    for n in (4, 8):
        calls.clear()
        build_diagram("tri-dp", n, n, 1)
        per_size.append(dict(calls))
    assert per_size[0] == per_size[1]
    assert per_size[0]["trace"] > 0 and per_size[0]["expand"] > 0


def test_matvec_rmatvec_consistency(tri_spaces):
    _, a, b, _ = tri_spaces
    first = assemble_grad_perp(a, b)
    rng = random.Random(3)
    x, y = random_vec(rng, a.dim), random_vec(rng, b.dim)
    lhs = sum(u * v for u, v in zip(first.matvec(x), y))
    rhs = sum(u * v for u, v in zip(x, first.rmatvec(y)))
    assert lhs == rhs


def test_export_load_roundtrip(tmp_path, tri_spaces):
    _, a, b, _ = tri_spaces
    first = assemble_grad_perp(a, b)
    path = tmp_path / "first.mtx"
    first.export(str(path), meta={"role": "first"})
    back = load_matrix(str(path))
    assert back.shape == first.shape
    assert back.dense_rows() == first.dense_rows()


@pytest.mark.parametrize("entry,reason", [
    ("0 1 1/1", r"entry \(0, 1\) outside the 2x2 shape"),
    ("3 1 1/1", r"entry \(3, 1\) outside the 2x2 shape"),
    ("1 3 1/1", r"entry \(1, 3\) outside the 2x2 shape"),
    ("1 1 1/0", r"zero denominator in '1/0'"),
    ("1 1 one/2", r"invalid literal"),
], ids=["row-before-start", "row-past-end", "col-past-end", "zero-denominator", "unparsed"])
def test_load_matrix_rejects_bad_entries(tmp_path, entry, reason):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate rational general\n"
                    f"2 2 2\n2 2 1/3\n{entry}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 4: {reason}"):
        load_matrix(str(path))


def test_naive_quad_has_no_cell_divergence():
    # lowest-order naive quads are cellwise solenoidal, so the face-only
    # codomain assembles cleanly; this is the operator behind the deficit
    mesh = build_mesh(MeshKind.CARTESIAN, 2, 2)
    b = DGVectorSpace(mesh, "vec_q", 0)
    c = CodomainSpace(mesh, 0, None, 0)
    second = assemble_div_distributional(b, c)
    assert second.shape == (c.dim, b.dim)
    assert not second.is_zero
