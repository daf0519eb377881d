"""Operator assembly: exactness, adjoints, membership guards, round-trips."""

import dataclasses
import json
import random
import re
import tempfile
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from derham import exactla, operators
from derham import sparse as kernels
from derham.complexcheck import DIAGRAMS, build_diagram
from derham.fespace import CodomainSpace, ContinuousScalarSpace, DGVectorSpace
from derham.mesh import MeshKind, build_mesh
from derham.operators import (
    GramBlock,
    GramMatrix,
    MembershipError,
    adjoint,
    assemble_curl_distributional,
    assemble_div_distributional,
    assemble_grad,
    assemble_grad_perp,
    assemble_gram,
)
from derham.poly import Poly
from derham.sparse import OpMatrix, Stamp, load_matrix

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
    entries = {(r, c): F(v) for r, row in enumerate(rows) for c, v in enumerate(row)}
    return OpMatrix.from_entries(len(rows), len(rows[0]), entries)


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
    three = GramBlock([[F(3)]])
    gram = GramMatrix(4, (GramBlock([[F(1), F(1)], [F(1), F(2)]]), three, three))
    right = op_from_rows([[1, 2], [-1, -2], [0, 5], [7, 0]])
    expected = dense_product(gram.dense_rows(), right.dense_rows())
    assert expected[0] == [F(0), F(0)]
    assert_matches_dense(gram.compose(right), expected)


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_gram_has_one_frozen_form(name):
    """A Gram matrix is fixed at construction: its blocks cannot be edited,
    and every product reads the one sparse form placed from them."""
    inst = build_diagram(name, 2, 2, 1)
    rng = random.Random(17)
    for gram in (inst.gram_b, inst.gram_c):
        assert isinstance(gram.blocks, tuple)
        assert all(isinstance(block, GramBlock) for block in gram.blocks)
        with pytest.raises(TypeError):
            gram.blocks[0] = gram.blocks[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            gram.blocks = ()
        v = random_vec(rng, gram.dim)
        product, off = [], 0  # block by block, from the blocks themselves
        for block in gram.blocks:
            product += [sum((a * x for a, x in zip(row, v[off:])), F(0)) for row in block]
            off += len(block)
        assert gram.matvec(v) == product
        assert gram.compose(OpMatrix.from_columns(gram.dim, [v])).column(0) == product
        assert [sum((a * x for a, x in zip(row, v)), F(0)) for row in gram.dense_rows()] == product
        assert np.allclose(gram.float_array() @ np.array(v, dtype=float),
                           np.array(product, dtype=float), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_block_diagonal_matches_the_placed_stamps(seed):
    """A Gram matrix of shared and merely equal blocks, rational and zero
    ones among them, is the dense block diagonal of its blocks, stored as
    the sorting placement ``OpMatrix.from_stamps`` stores it."""
    rng = random.Random(seed)
    kinds = [GramBlock([[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                        for _ in range(n)]) for n in (1, 2, 3, 2)]
    kinds += [GramBlock([[F(0)]]), GramBlock(kinds[1])]  # a zero block; an equal twin
    picked = [kinds[rng.randrange(len(kinds))] for _ in range(40)]
    dim = sum(map(len, picked))
    gram = GramMatrix(dim, picked)
    dense, off = [[F(0)] * dim for _ in range(dim)], 0
    placed = []
    for block in picked:
        for i, row in enumerate(block):
            dense[off + i][off:off + len(block)] = row
        placed.append((block.stamp, [off], [np.arange(off, off + len(block))]))
        off += len(block)
    assert gram.dense_rows() == dense
    stored = OpMatrix.from_stamps(dim, dim, placed).integer_rows()
    assert all(np.array_equal(a, b) for a, b in zip(gram._op.integer_rows(), stored))


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
    for _ in range(2):  # a failing trace stamp is never cached
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
    stamp = Stamp.of([(0, 0, F(1, 2)), (1, 2, F(3))])
    out = OpMatrix.from_stamps(3, 3, [(stamp, [1], [[2, 0, 1]])])
    assert out.entries == {(1, 2): F(1, 2), (2, 1): F(3)}
    again = Stamp.of([(0, 0, F(1, 3)), (1, 2, F(-3))])
    out = OpMatrix.from_stamps(3, 3, [(stamp, [1], [[2, 0, 1]]), (again, [1], [[2, 0, 1]])])
    assert out.entries == {(1, 2): F(5, 6)}
    # one stamp placed at two places
    out = OpMatrix.from_stamps(3, 3, [(stamp, [0, 1], [[2, 0, 1], [0, 1, 2]])])
    assert out.entries == {(0, 2): F(1, 2), (1, 1): F(3), (1, 0): F(1, 2), (2, 2): F(3)}


def test_stamp_is_read_only_integers():
    stamp = Stamp.of([(0, 1, F(-2, 3)), (1, 0, F(0)), (2, 2, F(5))])
    assert [a.tolist() for a in stamp] == [[0, 2], [1, 2], [-2, 5], [3, 1]]
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in stamp)


STAMP_KITS = (operators._cell_stamp, operators._trace_stamp)


def test_stamps_are_formed_per_key(monkeypatch):
    # a stamp depends on the local bases, the chart's linear part, the
    # operator and, for traces, the edge, orientation and face degree; not
    # on the mesh size.  It is formed once per process: a repeat build
    # forms none.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators, "trace_legendre",
                        counted("trace", operators.trace_legendre))
    monkeypatch.setattr(exactla.LinearExpander, "expand",
                        counted("expand", exactla.LinearExpander.expand))
    build_diagram("tri-dp", 4, 4, 1)  # fills the local-basis caches
    per_size = []
    for n in (4, 8):
        for kit in STAMP_KITS:
            kit.cache_clear()
        calls.clear()
        build_diagram("tri-dp", n, n, 1)
        per_size.append(dict(calls))
    assert per_size[0] == per_size[1]
    assert per_size[0]["trace"] > 0 and per_size[0]["expand"] > 0
    calls.clear()
    build_diagram("tri-dp", 8, 8, 1)
    assert calls["trace"] == 0 and calls["expand"] == 0


def diagram_entries(inst):
    return [dict(op.entries) for op in (inst.first, inst.second)] + [
        g.dense_rows() for g in (inst.gram_b, inst.gram_c)]


@pytest.mark.parametrize("name", ["tri-dp", "tri-dn", "quad-enriched-curl", "quad-drt"])
def test_repeat_build_serves_the_same_kits(name):
    """Cached stamps and Gram blocks give the same operators entry for
    entry, on a fresh mesh object and with rational periods."""
    for args in ((3, 2, 1), (2, 3, 1, F(7, 3), F(5, 11))):
        once, again = build_diagram(name, *args), build_diagram(name, *args)
        assert once.mesh is not again.mesh
        assert diagram_entries(once) == diagram_entries(again)
        # the scaled blocks are one object per (local basis, jac)
        assert list(map(id, once.gram_b.blocks)) == list(map(id, again.gram_b.blocks))
        assert once.b_space.constant_vector(1, 0) == again.b_space.constant_vector(1, 0)


def test_patched_operator_never_gets_a_cached_stamp(monkeypatch):
    """An operator that leaves the space raises on every call, after a
    healthy build and after its own failure, naming the call's cell."""
    build_diagram("tri-dp", 2, 2, 1)
    healthy_div, healthy_grad_perp = operators.divergence, operators.grad_perp

    def div_leaving_on_upper(u, m_inv):  # only the upper triangles' chart leaves P_0
        return Poly.monomial(3, 3) if m_inv[0][1] == 0 else healthy_div(u, m_inv)

    monkeypatch.setattr(operators, "divergence", div_leaving_on_upper)
    for _ in range(2):
        with pytest.raises(MembershipError, match=r"^div cell part, cell 1: "):
            build_diagram("tri-dp", 2, 2, 1)
    monkeypatch.setattr(operators, "divergence", healthy_div)
    monkeypatch.setattr(operators, "grad_perp",
                        lambda p, m_inv: healthy_grad_perp(p * Poly.monomial(2, 0), m_inv))
    for _ in range(2):
        with pytest.raises(MembershipError, match=r"^grad_perp on cell 0: "):
            build_diagram("tri-dp", 2, 2, 1)
    monkeypatch.undo()
    assert diagram_entries(build_diagram("tri-dp", 2, 2, 1)) == diagram_entries(
        build_diagram("tri-dp", 2, 2, 1))


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
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[1][len("%json "):])
    assert header == {"schema": 1, "nrows": b.dim, "ncols": a.dim, "nnz": first.nnz,
                      "role": "first"}
    # older files also name the two spaces; the tags are not read
    header.update(domain="scalar_deg2", codomain="vec_p_k1")
    lines[1] = "%json " + json.dumps(header, sort_keys=True) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert load_matrix(str(path)) == first


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


@pytest.mark.parametrize("text,reason", [
    ("", r": no size line$"),
    ("%%MatrixMarket matrix coordinate rational general\n", r": no size line$"),
    ("%%MatrixMarket matrix coordinate rational general\n2 2\n",
     r", line 2: the size line needs 3 integers >= 0, got '2 2'$"),
    ("2 two 1\n1 1 1/1\n", r", line 1: invalid literal"),
    ("2 -2 0\n", r", line 1: the size line needs 3 integers >= 0"),
    ("%json [1, 2]\n2 2 0\n", r", line 1: the %json header is not an object"),
    ("%json {\n2 2 0\n", r", line 1: "),
], ids=["empty", "comment-only", "two-sizes", "unparsed-size", "negative-size",
        "json-not-object", "json-unparsed"])
def test_load_matrix_rejects_bad_headers(tmp_path, text, reason):
    path = tmp_path / "bad.mtx"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{reason}"):
        load_matrix(str(path))


# a seeded property test against a dense Fraction oracle written here
def dense(shape, entries):
    nrows, ncols = shape
    return [[entries.get((r, c), F(0)) for c in range(ncols)] for r in range(nrows)]


def nonzeros(rows):
    return {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}


def product(left, right, ncols):
    return [[sum((a * right[k][c] for k, a in enumerate(row)), F(0)) for c in range(ncols)]
            for row in left]


BIG = 1 << 40


@st.composite
def rationals(draw):
    """Small values with mixed denominators, some of them primes near 2**31
    and 2**61 whose lcm passes 2**63, or numerators near 2**40."""
    if draw(st.booleans()):
        num = draw(st.integers(-9, 9))
    else:
        num = draw(st.sampled_from([-1, 1])) * (BIG + draw(st.integers(-5, 5)))
    return F(num, draw(st.sampled_from([1, 2, 3, 7, 12, 2 ** 31 - 1, 2 ** 61 - 1])))


@st.composite
def sparse(draw, nrows, ncols):
    cells = [(r, c) for r in range(nrows) for c in range(ncols)]
    keys = draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
    return {key: draw(rationals()) for key in keys}


@st.composite
def factor_pairs(draw):
    """(n, m, p, left entries, right entries); with at least two inner rows,
    one output row is planted to cancel: right row k2 = s * right row k1,
    left row r = x e_k1 - (x / s) e_k2."""
    n, m, p = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 5))
    left, right = draw(sparse(n, m)), draw(sparse(m, p))
    if n and m >= 2 and draw(st.booleans()):
        r, k1, k2 = draw(st.integers(0, n - 1)), *draw(st.permutations(range(m)))[:2]
        x, s = draw(rationals()), draw(rationals().filter(bool))
        left = {key: v for key, v in left.items() if key[0] != r}
        left[r, k1] = x
        left[r, k2] = -x / s
        right = {key: v for key, v in right.items() if key[0] != k2}
        right.update({(k2, c): s * v for (k, c), v in right.items() if k == k1})
    return n, m, p, {k: v for k, v in left.items() if v}, {k: v for k, v in right.items() if v}


@contextmanager
def summing(way):
    """Every kernel sums its terms the given way: "dense" in one accumulator
    over the whole output, "sort" by sorting them.  Yields the list of the
    (way, dtype of the terms) that reach a summing tail, one per kernel
    call."""
    taken = []
    accumulate, sum_runs = kernels._accumulate, kernels._sum_runs
    with mock.patch.object(kernels, "_DENSE_CELLS", 10 ** 9 if way == "dense" else 0), \
            mock.patch.object(kernels, "_accumulate",
                              lambda *a: taken.append(("dense", a[1].dtype)) or accumulate(*a)), \
            mock.patch.object(kernels, "_sum_runs",
                              lambda *a: taken.append(("sort", a[1].dtype)) or sum_runs(*a)):
        yield taken
    assert {taken_way for taken_way, _ in taken} <= {way}


@seed(1212)
@settings(max_examples=120, deadline=None)
@given(factor_pairs(), st.data())
def test_kernels_match_dense_oracle(case, data):
    kernels_match_dense_oracle(case, data)


@pytest.mark.parametrize("way", ["dense", "sort"])
@seed(1212)
@settings(max_examples=120, deadline=None)
@given(factor_pairs(), st.data())
def test_kernels_match_dense_oracle_each_way(way, case, data):
    """The oracle test with every kernel forced to one way of summing."""
    with summing(way):
        kernels_match_dense_oracle(case, data)


def kernels_match_dense_oracle(case, data):
    n, m, p, left_entries, right_entries = case
    left = OpMatrix.from_entries(n, m, left_entries)
    right = OpMatrix.from_entries(m, p, right_entries)
    dl, dr = dense((n, m), left_entries), dense((m, p), right_entries)
    assert dict(left.entries) == left_entries
    assert left.is_zero == (not left_entries)
    expected = product(dl, dr, p)
    composed = left.compose(right)
    assert composed.shape == (n, p)
    assert dict(composed.entries) == nonzeros(expected)  # exact, no stored zeros
    assert composed.is_zero == (not nonzeros(expected))
    assert dict(left.transpose().entries) == {(c, r): v for (r, c), v in left_entries.items()}
    assert np.array_equal(left.float_array(), np.array(dl, dtype=float).reshape(n, m))
    x = data.draw(st.lists(rationals(), min_size=m, max_size=m))
    y = data.draw(st.lists(rationals(), min_size=n, max_size=n))
    assert left.matvec(x) == [sum((a * b for a, b in zip(row, x)), F(0)) for row in dl]
    assert left.rmatvec(y) == [sum((dl[r][c] * y[r] for r in range(n)), F(0)) for c in range(m)]
    other = data.draw(sparse(n, m))
    difference = left - OpMatrix.from_entries(n, m, other)
    assert dict(difference.entries) == nonzeros(
        [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(dl, dense((n, m), other))])
    stacked = OpMatrix.stack([left, OpMatrix(1, m), OpMatrix.from_entries(n, m, other)])
    rows = dl + [[F(0)] * m] + dense((n, m), other)
    assert stacked.shape == (2 * n + 1, m)
    assert dict(stacked.entries) == nonzeros(rows)
    assert dict(stacked.compose(right).entries) == nonzeros(product(rows, dr, p))
    with pytest.raises(ValueError, match="width mismatch"):
        OpMatrix.stack([left, OpMatrix(1, m + 1)])
    dots = left.column_dots(OpMatrix.from_entries(n, m, other))
    assert dict(dots.entries) == nonzeros(
        [[sum((dl[r][c] * other.get((r, c), 0) for r in range(n)), F(0)) for c in range(m)]])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.mtx"
        composed.export(str(path))
        back = load_matrix(str(path))
    assert back.shape == composed.shape
    assert dict(back.entries) == dict(composed.entries)


def assert_same_storage(op, expected):
    assert op.shape == expected.shape
    for a, b in zip(op.integer_rows(), expected.integer_rows(), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def both_ways(build):
    """build() with every kernel summing in a dense accumulator, then by
    sorting: each returns a list of matrices, and each pair must store the
    same integers in the same dtypes.  Returns the dense way's matrices and
    the number of kernel calls of each way."""
    built, calls = {}, []
    for way in ("dense", "sort"):
        with summing(way) as taken:
            built[way] = build()
        calls.append(len(taken))
    for dense_op, sorted_op in zip(built["dense"], built["sort"], strict=True):
        assert_same_storage(dense_op, sorted_op)
    return built["dense"], calls


@seed(1213)
@settings(max_examples=80, deadline=None)
@given(factor_pairs(), st.data())
def test_dense_and_sorted_sums_store_the_same_integers(case, data):
    """Products, sums with cancelling entries, transposes, column dots and
    stamps placed twice at one place, on the values of the oracle test:
    mixed denominators whose lcm passes 2**63 and numerators near 2**40."""
    n, m, p, left_entries, right_entries = case
    other = data.draw(sparse(n, m))
    stamp = Stamp.of(data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                                   rationals()), max_size=6)))

    def build():
        left = OpMatrix.from_entries(n, m, left_entries)
        right = OpMatrix.from_entries(m, p, right_entries)
        diff = left - OpMatrix.from_entries(n, m, other)
        twice = [[0, 1, 2], [2, 1, 0], [2, 1, 0]]  # the last place repeats
        placed = OpMatrix.from_stamps(4, 3, [(stamp, [0, 1, 1], twice)])
        return [left, right, left.compose(right), left.transpose(), diff, diff + left,
                left.column_dots(diff), placed, placed.transpose().compose(placed)]

    both_ways(build)


@seed(1214)
@settings(max_examples=120, deadline=None)
@given(factor_pairs(), st.integers(1, 6))
def test_compose_by_row_blocks_stores_the_one_shot_product(case, budget):
    """With its pair budget cut to a few pairs, ``compose`` forms the
    product by many blocks of whole rows, each within the budget or one row
    alone; the stored integers and their dtypes are the one-shot product's,
    on the oracle test's values, whose products pass int64."""
    n, m, p, left_entries, right_entries = case
    left = OpMatrix.from_entries(n, m, left_entries)
    right = OpMatrix.from_entries(m, p, right_entries)
    one_shot = left.compose(right)
    pairs = [sum(1 for (k, _) in right_entries for (r2, k2) in left_entries
                 if r2 == r and k2 == k) for r in range(n)]
    cuts, blocks = kernels._cuts, []
    with mock.patch.object(kernels, "_PAIR_BUDGET", budget), \
            mock.patch.object(kernels, "_cuts", lambda *a: blocks.append(cuts(*a)) or blocks[-1]):
        assert_same_storage(left.compose(right), one_shot)
    for cut in blocks:
        assert cut[0] == 0 and cut[-1] == n
        for start, stop in zip(cut, cut[1:]):
            assert sum(pairs[start:stop]) <= budget or stop == start + 1


def test_dense_and_sorted_sums_agree_near_and_past_a_machine_word():
    """Sums of int64 values near 2**62 that pass 2**63, that cancel, and
    values past int64: both ways keep every sum exact, in the same dtype."""
    near = (1 << 62) + 1
    big = Stamp.of([(0, 0, F(near)), (0, 1, F(3))])
    cancel = Stamp.of([(0, 0, F(-near)), (0, 1, F(-3))])
    past = Stamp.of([(1, 1, F(1 << 70))])
    twice = [(big, [0, 0], [[0, 1], [0, 1]])]

    def build():
        pair = OpMatrix.from_entries(1, 2, {(0, 0): F(near), (0, 1): F(near)})
        return [OpMatrix.from_stamps(2, 2, twice),
                OpMatrix.from_stamps(2, 2, twice + [(cancel, [0], [[0, 1]])]),
                OpMatrix.from_stamps(2, 2, [(big, [0], [[0, 1]]), (cancel, [0], [[0, 1]])]),
                OpMatrix.from_stamps(2, 2, [(past, [0, 0], [[0, 1], [0, 1]])]),
                pair.compose(OpMatrix.from_entries(2, 1, {(0, 0): F(1), (1, 0): F(1)})),
                pair.compose(OpMatrix.from_entries(2, 1, {(0, 0): F(1), (1, 0): F(-1)})),
                pair.compose(OpMatrix.from_entries(2, 1, {(0, 0): F(1), (1, 0): F(-1, 2)})),
                OpMatrix.from_entries(2, 2, {(0, 0): F(1 << 70), (1, 0): F(1, 2 ** 61 - 1)})
                .transpose()]

    ops, calls = both_ways(build)
    two, once, zero, doubled, summed, cancelled, halved, transposed = ops
    assert calls[0] == calls[1] >= len(ops)  # at least one kernel per matrix, each way
    assert dict(two.entries) == {(0, 0): F(2 * near), (0, 1): F(6)}
    assert two.integer_rows()[2].dtype == object
    assert dict(once.entries) == {(0, 0): F(near), (0, 1): F(3)}
    assert once.integer_rows()[2].dtype == np.int64
    assert zero.is_zero and cancelled.is_zero
    assert dict(doubled.entries) == {(1, 1): F(1 << 71)}
    assert dict(summed.entries) == {(0, 0): F(2 * near)}
    assert summed.integer_rows()[2].dtype == object
    assert dict(halved.entries) == {(0, 0): F(near, 2)}
    assert halved.integer_rows()[2].dtype == np.int64
    assert dict(transposed.entries) == {(0, 0): F(1 << 70), (0, 1): F(1, 2 ** 61 - 1)}


@pytest.mark.parametrize("way", ["dense", "sort"])
def test_terms_are_widened_only_when_one_key_can_pass_a_machine_word(way):
    """One overflow rule for every kernel: the terms reach the summing tail
    as int64 unless the most terms at one key times the bound on each term
    reaches 2**63, whatever the number of terms or the length of a row."""
    near = (1 << 62) + 1

    def dtypes(build):
        with summing(way) as taken:
            op = build()
        return op, [dtype for _, dtype in taken]

    # many distinct positions near 2**62: eight of them pass 2**63, one per key does not
    spread, taken = dtypes(lambda: OpMatrix.from_entries(
        8, 1, {(c, 0): F(near + c) for c in range(8)}))
    assert taken == [np.int64]
    assert dict(spread.entries) == {(c, 0): F(near + c) for c in range(8)}
    # a transpose moves distinct entries and sums nothing
    row, taken = dtypes(spread.transpose)
    assert taken == [] and row.integer_rows()[2].dtype == np.int64
    assert dict(row.entries) == {(0, c): F(near + c) for c in range(8)}
    # two terms at one key whose sum passes 2**63
    stamp = Stamp.of([(0, 0, F(near))])
    twice, taken = dtypes(lambda: OpMatrix.from_stamps(1, 1, [(stamp, [0, 0], [[0], [0]])]))
    assert taken == [object]
    assert dict(twice.entries) == {(0, 0): F(2 * near)}
    # a long left row whose products, each 2**61, land on distinct keys: the
    # row's length times that cap passes 2**63, but no key gets two of them
    left = OpMatrix.from_entries(1, 8, {(0, c): F(1 << 40) for c in range(8)})
    right = OpMatrix.from_entries(8, 8, {(c, c): F(1 << 21) for c in range(8)})
    product, taken = dtypes(lambda: left.compose(right))
    assert taken == [np.int64]
    assert dict(product.entries) == {(0, c): F(1 << 61) for c in range(8)}


WIDE = (1 << 64) + 3
DENS = [1, 2, 3, 7, 12, 2 ** 31 - 1, 2 ** 61 - 1]


@st.composite
def dense_grids(draw):
    """(nrows, ncols, numerators column after column, one den per column,
    one den per entry): small numerators, numerators past 2**63 and all-zero
    columns, over mixed dens whose lcm passes 2**63; either size may be 0."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    value = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-WIDE, -WIDE + 6),
                      st.integers(WIDE - 6, WIDE))
    columns = [draw(st.lists(value, min_size=nrows, max_size=nrows)) if draw(st.booleans())
               else [0] * nrows for _ in range(ncols)]
    per_column = draw(st.lists(st.sampled_from(DENS), min_size=ncols, max_size=ncols))
    per_entry = [draw(st.lists(st.sampled_from(DENS), min_size=nrows, max_size=nrows))
                 for _ in range(ncols)]
    return nrows, ncols, columns, per_column, per_entry


@contextmanager
def never_summing():
    def refuse(*args):
        raise AssertionError("a dense constructor summed its entries")

    with mock.patch.object(kernels, "_accumulate", refuse), \
            mock.patch.object(kernels, "_sum_runs", refuse):
        yield


@seed(1214)
@settings(max_examples=150, deadline=None)
@given(dense_grids())
@example((2, 3, [[0, 0]] * 3, [1, 2 ** 61 - 1, 2 ** 31 - 1], [[1, 1]] * 3))  # L past 2**63
@example((0, 3, [[]] * 3, [2, 3, 7], [[]] * 3))
@example((3, 0, [], [], []))
def test_dense_constructors_never_sum(grid):
    """from_columns, from_integer_columns and from_integer_blocks read their
    nonzeros in stored order and sum nothing, and they store the integers,
    values and dtypes, that summing the same entries stores."""
    nrows, ncols, columns, per_column, per_entry = grid
    fractions = [[F(n, d) for n, d in zip(col, dens)] for col, dens in zip(columns, per_entry)]
    scaled = [[F(n, d) for n in col] for col, d in zip(columns, per_column)]

    def summed(cols):  # the summing route: from_entries on the same values
        return OpMatrix.from_entries(nrows, ncols, {
            (r, c): v for c, col in enumerate(cols) for r, v in enumerate(col) if v})

    expected = [summed(fractions), summed(scaled), summed(columns)]
    array = kernels._ints([v for r in range(nrows) for v in (col[r] for col in columns)])
    with never_summing():
        built = [OpMatrix.from_columns(nrows, fractions),
                 OpMatrix.from_integer_columns(nrows, columns, per_column),
                 OpMatrix.from_integer_blocks([array.reshape(1, nrows, ncols)])]
    for op, want in zip(built, expected, strict=True):
        assert_same_storage(op, want)


def test_compose_past_a_machine_word_stays_exact():
    # two products of 2**31 * 2**31 sum to exactly 2**63, one past int64: the
    # bound 2 * 2**31 * 2**31 is not below 2**63, so the kernel runs on
    # Python ints; one such product alone stays in int64
    half = 1 << 31
    left = OpMatrix.from_entries(1, 2, {(0, 0): F(half), (0, 1): F(half)})
    right = OpMatrix.from_entries(2, 1, {(0, 0): F(half), (1, 0): F(half)})
    assert dict(left.compose(right).entries) == {(0, 0): F(1 << 63)}
    one = OpMatrix.from_entries(1, 1, {(0, 0): F(half)})
    assert dict(one.compose(one).entries) == {(0, 0): F(1 << 62)}
    assert one.compose(one)._num.dtype == np.int64
    # numerators near 2**40 on a long row: the sums pass 2**63 and stay exact
    row = OpMatrix.from_entries(1, 8, {(0, c): F(BIG + c, 3) for c in range(8)})
    col = OpMatrix.from_entries(8, 1, {(c, 0): F(BIG - c, 5) for c in range(8)})
    assert row.compose(col)._num.dtype == object
    assert dict(row.compose(col).entries) == {
        (0, 0): sum((F(BIG + c, 3) * F(BIG - c, 5) for c in range(8)), F(0))}


def test_storage_is_frozen_and_a_sum_leaves_the_original():
    op = OpMatrix.from_entries(2, 2, {(0, 0): F(1, 2), (1, 1): F(3)})
    with pytest.raises(TypeError):
        op.entries[0, 0] = F(1)
    with pytest.raises(ValueError, match="read-only"):
        op._num[0] = 7
    changed = op + OpMatrix.from_entries(2, 2, {(0, 0): F(-1, 2), (0, 1): F(2, 3)})
    assert dict(changed.entries) == {(0, 1): F(2, 3), (1, 1): F(3)}
    assert dict(op.entries) == {(0, 0): F(1, 2), (1, 1): F(3)}
    with pytest.raises(ValueError, match=r"entry \(2, 0\) outside the 2x2 shape"):
        OpMatrix.from_entries(2, 2, {(2, 0): F(1)})
    with pytest.raises(ValueError, match="shape mismatch"):
        op + OpMatrix(2, 3)


@pytest.mark.parametrize("big", [5, 2 ** 70])
def test_integer_array_matches_its_entries(big):
    dtype = np.int64 if big < 2 ** 63 else object
    num = np.array([[0, 3, 0], [-2, 0, big], [0, 0, 0]], dtype=dtype)
    op = OpMatrix.from_integer_blocks([num[None]])
    assert op.shape == (3, 3)
    assert dict(op.entries) == {(0, 1): 3, (1, 0): -2, (1, 2): big}
    # two stacks, three blocks down the diagonal
    diag = OpMatrix.from_integer_blocks([np.stack([num, -num]), num[:2, :1][None]])
    assert diag.shape == (8, 7)
    assert dict(diag.entries) == {
        (0, 1): 3, (1, 0): -2, (1, 2): big, (3, 4): -3, (4, 3): 2, (4, 5): -big, (7, 6): -2}


@pytest.mark.parametrize("big", [5, 2 ** 62, 2 ** 70])
def test_integer_array_is_stored_without_scaling(monkeypatch, big):
    """Integer blocks are over 1: their nonzeros go straight to storage,
    never through ``_over_lcm``, and store what from_entries stores."""
    dtype = np.int64 if big < 2 ** 63 else object
    num = np.array([[0, 3, 0], [-2, 0, big], [0, 0, 0]], dtype=dtype)
    expected = OpMatrix.from_entries(3, 3, {(0, 1): 3, (1, 0): -2, (1, 2): big})

    def refuse(*args):
        raise AssertionError("an integer array was put over its lcm")

    monkeypatch.setattr(kernels, "_over_lcm", refuse)
    assert_same_storage(OpMatrix.from_integer_blocks([num[None]]), expected)
    assert OpMatrix.from_integer_blocks([np.zeros((1, 2, 0), dtype=np.int64)]).shape == (2, 0)


def placed(rows, start, stop, width, offset):
    return [[F(0)] * offset + row[start:stop] + [F(0)] * (width - offset - (stop - start))
            for row in rows]


@seed(1215)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_blocks_stacks_and_signed_sums_store_what_from_entries_stores(data):
    """Row blocks, placed column blocks, side-by-side stacks and signed sums
    store the integers, values and dtypes that from_entries stores for the
    same values, so equality reads the storage; on the values of the oracle
    test, with lcms past 2**63 and numerators near 2**40."""
    n, m, q = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3))
    ea, eb, ec = data.draw(sparse(n, m)), data.draw(sparse(n, q)), data.draw(sparse(n, m))
    a, b, c = (OpMatrix.from_entries(n, w, e) for w, e in ((m, ea), (q, eb), (m, ec)))
    da, db, dc = dense((n, m), ea), dense((n, q), eb), dense((n, m), ec)

    def check(op, rows, ncols):
        want = OpMatrix.from_entries(len(rows), ncols, nonzeros(rows))
        assert_same_storage(op, want)
        assert op == want and not op != want

    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    check(a.row_block(start, stop), da[start:stop], m)
    start = data.draw(st.integers(0, m))
    stop = data.draw(st.integers(start, m))
    width = data.draw(st.integers(stop - start, stop - start + 3))
    offset = data.draw(st.integers(0, width - (stop - start)))
    check(a.column_block(start, stop, width, offset), placed(da, start, stop, width, offset), width)
    check(a.column_block(start, stop), placed(da, start, stop, stop - start, 0), stop - start)
    check(OpMatrix.hstack([a, b, a]), [x + y + x for x, y in zip(da, db)], 2 * m + q)
    signs = data.draw(st.tuples(*[st.sampled_from([-1, 1])] * 3))
    check(OpMatrix.signed_sum(list(zip(signs, (a, c, a)))),
          [[signs[0] * x + signs[1] * y + signs[2] * x for x, y in zip(ra, rc)]
           for ra, rc in zip(da, dc)], m)
    check(a - c, [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(da, dc)], m)
    assert (a == c) == (nonzeros(da) == nonzeros(dc))
    assert a != OpMatrix(n, m + 1) and a != OpMatrix(n + 1, m) and a != da


def test_blocks_and_sums_refuse_what_does_not_fit():
    op = OpMatrix.from_entries(2, 3, {(0, 0): F(1, 2), (1, 2): F(3)})
    with pytest.raises(ValueError, match="rows"):
        op.row_block(1, 3)
    with pytest.raises(ValueError, match="columns"):
        op.column_block(0, 2, 3, 2)
    with pytest.raises(ValueError, match="columns"):
        op.column_block(2, 4)
    with pytest.raises(ValueError, match="height mismatch"):
        OpMatrix.hstack([op, OpMatrix(3, 1)])
    with pytest.raises(ValueError, match="shape mismatch"):
        OpMatrix.signed_sum([(1, op), (-1, op), (1, OpMatrix(2, 2))])
