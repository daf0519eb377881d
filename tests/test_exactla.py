"""Exact rational linear algebra against small known matrices and numpy."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from derham import exactla
from derham.exactla import (
    ExactSolveError,
    ExactWidthExceeded,
    LiftedSolver,
    LinearExpander,
    exact_rank,
    float_rank,
    mat_vec,
    positive_definite,
    prefix_ranks,
    ranks_mod_p,
    rank_nullspace,
    rank_of_columns,
    solve_any,
    solve_square,
    span_compare,
    transpose,
)
from derham.complexcheck import DIAGRAMS, build_diagram, naive_quad_report, verify_diagram
from derham.fespace import CodomainSpace, DGVectorSpace
from derham.mesh import MeshKind, build_mesh
from derham.operators import assemble_div_distributional
from derham.sparse import OpMatrix

F = Fraction


def random_matrix(rng, nrows, ncols, rank):
    """Random rational matrix of prescribed rank, built as a product."""
    left = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
             for _ in range(rank)]
    return [[sum((a * right[k][j] for k, a in enumerate(row)), F(0)) for j in range(ncols)]
            for row in left]


def test_rank_of_identity_and_zero():
    eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
    assert exact_rank(eye) == 4
    assert exact_rank([[F(0)] * 3 for _ in range(2)]) == 0


def test_rank_one_outer_product():
    a = [F(1), F(2), F(-3)]
    b = [F(1, 2), F(5), F(0), F(-7, 3)]
    rows = [[x * y for y in b] for x in a]
    res = rank_nullspace(rows)
    assert res.rank == 1
    assert res.nullity == 3
    for vec in res.nullspace:
        assert all(v == 0 for v in mat_vec(rows, vec))


@pytest.mark.parametrize("seed", range(6))
def test_prescribed_rank_and_nullspace(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    rows = random_matrix(rng, 6, 5, rank)
    res = rank_nullspace(rows)
    assert res.rank == rank
    assert res.nullity == 5 - rank
    for vec in res.nullspace:
        assert all(v == 0 for v in mat_vec(rows, vec))
    # nullspace vectors are independent
    assert rank_of_columns(res.nullspace) == res.nullity


@pytest.mark.parametrize("seed", range(6))
def test_float_rank_matches_exact(seed):
    rng = random.Random(100 + seed)
    rows = random_matrix(rng, 7, 6, rng.randint(1, 5))
    assert float_rank(rows, 1e-10) == exact_rank(rows)


def test_float_rank_sees_near_dependence_as_exact_does():
    # a row differing from a multiple of another by 1e-30 is dependent in
    # floats at tol 1e-10 but independent exactly; keep the two notions apart
    rows_exact = [[F(1), F(2)], [F(2), F(4) + F(1, 10**30)]]
    assert exact_rank(rows_exact) == 2
    assert float_rank(rows_exact, 1e-10) == 1


@pytest.fixture
def symbol_routes(monkeypatch):
    """What every symbol route ``float_rank`` tries returns: the singular
    values, or None where the exact invariance check failed."""
    found = []
    symbol_values = exactla._symbol_values

    def spy(*args):
        found.append(symbol_values(*args))
        return found[-1]

    monkeypatch.setattr(exactla, "_symbol_values", spy)
    return found


def permuted_blocks(rng, blocks, empty_rows, empty_cols):
    """An integer matrix that is block diagonal up to a random row and
    column permutation: one block per (rows, cols, rank), a product of
    random integer factors (all zero at rank 0), plus empty rows and
    columns."""
    nrows = sum(p for p, _, _ in blocks) + empty_rows
    ncols = sum(q for _, q, _ in blocks) + empty_cols
    row_of, col_of = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    r = c = 0
    for p, q, rank in blocks:
        left = np.array([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(p)])
        right = np.array([[rng.randint(-2, 2) for _ in range(q)] for _ in range(rank)])
        mat[np.ix_(row_of[r:r + p], col_of[c:c + q])] = left.reshape(p, rank) @ right.reshape(rank, q)
        r, c = r + p, c + q
    return mat


def dense_svd_rank(mat, tol=1e-10):
    sv = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


@pytest.mark.parametrize("seed", range(4))
def test_float_rank_by_blocks_matches_exact_and_dense(symbol_routes, seed):
    """Sparse block-diagonal matrices without translation labels take one
    dense SVD, and their float rank is the exact rank."""
    rng = random.Random(seed)
    blocks = [(rng.randint(1, 5), rng.randint(1, 5), 0) for _ in range(24)]
    blocks = [(p, q, rng.randint(1, min(p, q))) for p, q, _ in blocks] + [(3, 4, 0)]
    mat = permuted_blocks(rng, blocks, empty_rows=37, empty_cols=41)
    rows = [[F(int(v)) for v in row] for row in mat]
    op = OpMatrix.from_entries(*mat.shape, {(i, j): int(mat[i, j])
                                            for i, j in zip(*mat.nonzero())})
    rank = exact_rank(rows)
    assert dense_svd_rank(mat) == rank
    assert float_rank(mat) == float_rank(op) == float_rank(rows) == rank
    assert not symbol_routes


def test_float_rank_threshold_is_global(symbol_routes):
    """Blocks [[1]] and [[1e-12]]: one dense SVD keeps 1 singular value at
    tol 1e-10; a threshold per block would keep both."""
    mat = np.zeros((64, 64))
    mat[0, 0], mat[1, 1] = 1.0, 1e-12
    assert dense_svd_rank(mat) == 1
    assert float_rank(mat) == 1
    assert float_rank(OpMatrix.from_entries(64, 64, {(0, 0): 1, (1, 1): F(1, 10**12)})) == 1
    assert not symbol_routes


def grid_labels(nx, ny):
    """The translation labels (0, i, j) of one dof per square (i, j) of an
    nx x ny grid, square j nx + i."""
    j, i = np.divmod(np.arange(nx * ny), nx)
    return np.stack((np.zeros_like(i), i, j), axis=1)


def labelled(labels):
    """A stand-in space whose dofs carry these translation labels."""
    return SimpleNamespace(translations=labels)


def circulant(nx, ny, values):
    """The one-orbit operator of an nx x ny grid whose row (i, j) holds
    values[(di, dj)] at column (i + di, j + dj), periodically."""
    n = nx * ny
    return OpMatrix.from_entries(n, n, {
        (j * nx + i, (j + dj) % ny * nx + (i + di) % nx): v
        for j in range(ny) for i in range(nx) for (di, dj), v in values.items()})


def test_float_rank_symbol_threshold_is_global(monkeypatch, symbol_routes):
    """A circulant on a 2 x 64 grid with symbol 1 at wave vectors kx = 0 and
    1e-12 at kx = 1: one dense SVD keeps the 64 singular values 1 at tol
    1e-10; a threshold per Fourier block would keep all 128."""
    eps = F(1, 10**12)
    op = circulant(2, 64, {(0, 0): (1 + eps) / 2, (1, 0): (1 - eps) / 2})
    labels = grid_labels(2, 64)
    assert dense_svd_rank(op.float_array()) == 64
    monkeypatch.setattr(OpMatrix, "float_array", None)  # the symbol route densifies nothing
    assert float_rank(op, spaces=(labelled(labels), labelled(labels))) == 64
    [sv] = symbol_routes
    assert sv.size == 128 and np.sum(sv > 1e-10) == 64 and np.sum(sv < 1e-11) == 64


def test_symbol_route_only_where_it_pays(symbol_routes):
    """The rule reads the operator's shape and nonzero count: the small
    operators of ``verify --all`` take one dense SVD; the naive 16x16 jump
    operator takes its 256 Fourier blocks of 2 x 2."""
    assert verify_diagram("tri-dp", 2, 2, 1, float_check=True).passed
    assert not symbol_routes
    assert naive_quad_report(16, 16, float_check=True).passed
    [sv] = symbol_routes
    assert sv.size == 256 * 2


def diagram_operators(inst):
    """(operator, row labels, column labels) of first and second."""
    a, b, c = inst.a_space.translations, inst.b_space.translations, inst.c_space.translations
    return [(inst.first, b, a), (inst.second, c, b)]


def naive_operator(nx, ny):
    mesh = build_mesh(MeshKind.CARTESIAN, nx, ny)
    b_space = DGVectorSpace(mesh, "vec_q", 0)
    c_space = CodomainSpace(mesh, 0, None, 0)
    return (assemble_div_distributional(b_space, c_space), c_space.translations,
            b_space.translations)


def assert_symbol_matches_dense(op, rows, cols):
    sv = exactla._symbol_values(op, rows, cols)
    assert sv is not None
    dense = np.linalg.svd(op.float_array(), compute_uv=False)
    assert sv.size == dense.size
    assert np.abs(np.sort(sv)[::-1] - dense).max() <= 1e-12 * dense[0]
    assert np.sum(sv > 1e-10 * sv.max()) == dense_svd_rank(op.float_array())


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
@pytest.mark.parametrize("nx,ny,lx,ly", [(2, 2, 1, 1), (3, 5, F(7, 3), F(5, 11))])
def test_symbol_matches_dense_svd(name, nx, ny, lx, ly):
    """On every registered diagram, k = 0..2, on a small mesh and a
    stretched one, the symbol blocks give the dense SVD's singular values
    to 1e-12 times the largest, and its rank."""
    for k in range(3):
        for op, rows, cols in diagram_operators(build_diagram(name, nx, ny, k, lx, ly)):
            assert_symbol_matches_dense(op, rows, cols)


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 4), (16, 16)])
def test_symbol_matches_dense_svd_on_the_naive_operator(nx, ny):
    assert_symbol_matches_dense(*naive_operator(nx, ny))


@pytest.mark.parametrize("which", [0, 1])
def test_one_changed_entry_takes_the_dense_rank(symbol_routes, which):
    """One entry of first or second of tri-dp 6x6 k=1 changed by 1e-30
    breaks translation invariance: the exact check sees it, and the float
    rank is exactly that of one dense SVD."""
    op, rows, cols = diagram_operators(build_diagram("tri-dp", 6, 6, 1))[which]
    spaces = (labelled(rows), labelled(cols))
    assert float_rank(op, spaces=spaces) == dense_svd_rank(op.float_array())
    assert symbol_routes.pop() is not None
    (r, c), _ = next(iter(op.entries.items()))
    bent = op + OpMatrix.from_entries(*op.shape, {(r, c): F(1, 10**30)})
    assert bent.nnz == op.nnz
    assert float_rank(bent, spaces=spaces) == dense_svd_rank(bent.float_array())
    assert symbol_routes == [None]


def test_dense_svd_over_physical_memory_raises_before_allocating(monkeypatch, symbol_routes):
    """With the physical memory read as 4 MB, second of tri-dp 16x16 k=1
    (2,048 x 3,072, about 100 MB for a dense SVD) still takes its symbol
    route; with one entry changed it fails the exact check and raises
    MemoryError before the dense copy is made."""
    op, rows, cols = diagram_operators(build_diagram("tri-dp", 16, 16, 1))[1]
    spaces = (labelled(rows), labelled(cols))
    rank = float_rank(op, spaces=spaces)
    bent = op + OpMatrix.from_entries(*op.shape, {min(op.entries): F(1, 10**30)})
    dense_bytes = 16 * op.nrows * op.ncols
    monkeypatch.setattr(exactla, "_PHYSICAL_MEMORY", 4 << 20)
    assert float_rank(op, spaces=spaces) == rank
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="2048 x 3072"):
            float_rank(bent, spaces=spaces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense_bytes > 100 * 10**6 and peak < dense_bytes // 20
    assert symbol_routes[-1] is None and all(sv is not None for sv in symbol_routes[:-1])


def test_labels_that_do_not_tile_the_grid_take_the_dense_route():
    op = circulant(4, 4, {(0, 0): 2, (1, 0): -1, (0, 1): -1})
    labels = grid_labels(4, 4)
    assert exactla._symbol_values(op, labels, labels) is not None
    for bad in (labels[::-1] * [1, 1, 0], np.concatenate((labels[:-1], labels[:1]))):
        assert exactla._symbol_values(op, bad, labels) is None
        assert exactla._symbol_values(op, labels, bad) is None
    swapped = labels.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # a bijection, but not one the operator commutes with
    assert exactla._symbol_values(op, swapped, labels) is None


def test_span_compare_relations():
    e1, e2, e3 = [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]
    both = span_compare([e1, e2], [[F(1), F(1), F(0)], e1])
    assert both.equal
    sub = span_compare([e1], [e1, e2])
    assert sub.relation == "left_in_right"
    sup = span_compare([e1, e2], [e2])
    assert sup.relation == "right_in_left"
    disj = span_compare([e1], [e3])
    assert disj.relation == "incomparable"


def test_solve_any_consistent_and_inconsistent():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    x = solve_any(rows, [F(3), F(6)])
    assert x is not None and mat_vec(rows, x) == [F(3), F(6)]
    assert solve_any(rows, [F(3), F(7)]) is None


def test_solve_square_multi_rhs():
    rng = random.Random(2)
    rows = random_matrix(rng, 4, 4, 4)
    rhs_cols = [[F(rng.randint(-9, 9)) for _ in range(4)] for _ in range(3)]
    sols = solve_square(rows, rhs_cols)
    for col, sol in zip(rhs_cols, sols):
        assert mat_vec(rows, sol) == col


def test_linear_expander_inside_and_outside():
    cols = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    exp = LinearExpander(cols)
    assert exp.expand([F(2), F(3), F(5)]) == [F(2), F(3)]
    with pytest.raises(ExactSolveError):
        exp.expand([F(0), F(0), F(1)])
    with pytest.raises(ExactSolveError):
        LinearExpander([[F(1), F(2)], [F(2), F(4)]])  # dependent columns


def test_echelon_solve_needs_one_value_per_row():
    ech = exactla._Echelon(factor=True)
    for row in ({0: 1, 1: 2}, {0: 2, 1: 4}):
        ech.add(row)
    assert ech.solve([3, 6], 2) == [3, 0]
    assert ech.solve([3, 7], 2) is None  # the dependent row's residual is 1
    for rhs in ([3], [3, 7, 0]):
        with pytest.raises(ValueError, match="2 rows"):
            ech.solve(rhs, 2)


def test_width_guard(monkeypatch):
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "3")
    with pytest.raises(ExactWidthExceeded):
        exact_rank([[F(1)] * 4])
    assert exact_rank([[F(1)] * 3]) == 1
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "1")
    assert exact_rank([[F(2)]]) == 1
    for raw in ("0", "-1"):
        monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", raw)
        with pytest.raises(ValueError, match=f"must be a positive integer, got '{raw}'"):
            exact_rank([[F(1)]])
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "two")
    with pytest.raises(ValueError, match="must be an integer, got 'two'"):
        exact_rank([[F(1)]])


def test_against_numpy_on_integers():
    rng = random.Random(31)
    rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
    a = np.array(rows, dtype=float)
    assert exact_rank([[F(v) for v in r] for r in rows]) == np.linalg.matrix_rank(a)
    assert transpose(transpose(rows)) == rows


def block(rows, ncols=None):
    """Dense rational rows as one OpMatrix block."""
    ncols = len(rows[0]) if ncols is None else ncols
    return OpMatrix.from_entries(len(rows), ncols, {
        (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v})


def rank_mod_p(rows, p):
    return ranks_mod_p([block(rows)], p)[0]


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(small_rationals, min_size=ncols, max_size=ncols), min_size=1, max_size=5)),
    st.sampled_from([2, 3, 5, 7, 1073741789]))
def test_rank_mod_p_never_exceeds_exact_rank(rows, p):
    # rows enter as integer numerators, so a prime dividing a denominator is checked too
    assert rank_mod_p(rows, p) <= exact_rank(rows, ncols=len(rows[0]))


@pytest.mark.parametrize("seed", range(4))
def test_rank_mod_p_matches_exact_rank_for_large_prime(seed):
    rng = random.Random(200 + seed)
    rows = random_matrix(rng, 6, 7, rng.randint(1, 5))
    assert rank_mod_p(rows, exactla._PRIMES[0]) == exact_rank(rows)


@pytest.mark.parametrize("seed", range(3))
def test_ranks_of_numerators_past_int64(seed):
    """Numerators past int64 are stored as Python ints; the rank mod p stays
    a lower bound and the rank over Q is that of the Fraction matrix."""
    rng = random.Random(300 + seed)
    rows = [[v * 2 ** 70 / rng.choice([1, 3, 2 ** 66]) for v in row]
            for row in random_matrix(rng, 5, 6, rng.randint(1, 4))]
    big = block(rows)
    assert big.integer_rows()[2].dtype == object
    expected = exact_rank(rows)
    for p in (2, 3, *exactla._PRIMES):
        assert ranks_mod_p([big], p)[0] <= expected
    assert prefix_ranks([big]) == [expected]
    assert prefix_ranks([big], [expected]) == [expected]


def trace_routes(monkeypatch):
    """Record each prime ``prefix_ranks`` tries, and "Q" for each
    elimination over Q."""
    seen = []
    ranks_mod_p = exactla.ranks_mod_p
    monkeypatch.setattr(exactla, "ranks_mod_p",
                        lambda blocks, p: seen.append(p or "Q") or ranks_mod_p(blocks, p))
    return seen


def routes(monkeypatch, seen, primes, blocks, upper, expected):
    seen.clear()
    monkeypatch.setattr(exactla, "_PRIMES", primes)
    assert prefix_ranks(blocks, upper) == expected
    return list(seen)


def test_unlucky_prime_underestimates_rank(monkeypatch):
    p = 7
    rows = [[F(1), F(1)], [F(1), F(1 + p)]]
    assert exact_rank(rows) == 2
    assert rank_mod_p(rows, p) == 1
    seen = trace_routes(monkeypatch)
    blocks = [block(rows)]
    # the miss falls through to exact ranks over Q
    assert routes(monkeypatch, seen, (p,), blocks, [2], [2]) == [p, "Q"]
    # the retry prime closes it
    assert routes(monkeypatch, seen, (p, 11), blocks, [2], [2]) == [p, 11]
    # every listed prime is tried in turn, without a count of misses
    assert routes(monkeypatch, seen, (p, 7, 11), blocks, [2], [2]) == [p, 7, 11]


def test_prime_dividing_a_denominator_closes_the_rank(monkeypatch):
    rows = [[F(1, 5), F(0)], [F(0), F(3)]]
    assert rank_mod_p(rows, 5) == 2  # the row (1, 0) of numerators
    assert rank_mod_p(rows, 3) == 1  # unlucky
    seen = trace_routes(monkeypatch)
    blocks = [block(rows)]
    assert routes(monkeypatch, seen, (5,), blocks, [2], [2]) == [5]
    assert routes(monkeypatch, seen, (3, 5), blocks, [2], [2]) == [3, 5]


def test_prefix_ranks_prefix_bounds(monkeypatch):
    top = block([[F(1), F(2), F(0)], [F(2), F(4), F(0)]])
    bottom = block([[F(0), F(0), F(1, 3)]])
    assert ranks_mod_p([top, bottom], 3) == [1, 2]
    assert ranks_mod_p([top, bottom], 2) == [1, 2]
    seen = trace_routes(monkeypatch)
    primes = (3, 5)
    assert routes(monkeypatch, seen, primes, [top, bottom], [1, 2], [1, 2]) == [3]
    # true but loose bounds on either prefix: both tries miss, ranks stay exact
    assert routes(monkeypatch, seen, primes, [top, bottom], [2, 2], [1, 2]) == [3, 5, "Q"]
    assert routes(monkeypatch, seen, primes, [top, bottom], [1, 3], [1, 2]) == [3, 5, "Q"]
    assert routes(monkeypatch, seen, primes, [block([], 3), bottom], [0, 1], [0, 1]) == [3]
    # no bounds: straight to Q
    assert routes(monkeypatch, seen, primes, [top, bottom], None, [1, 2]) == ["Q"]


def test_prefix_ranks_width_cap_applies_over_q_only(monkeypatch):
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "3")
    rows = block([[F(1), F(0), F(0), F(2)], [F(0)] * 4])
    assert prefix_ranks([rows], [1]) == [1]  # closed mod p
    with pytest.raises(ExactWidthExceeded):
        prefix_ranks([rows])
    # the width is the highest column used plus one, not the blocks' ncols
    assert prefix_ranks([block([[F(1), F(2), F(0), F(0)]])]) == [1]  # 2 columns used
    assert prefix_ranks([block([[F(1), F(2), F(0), F(0), F(0)]]),
                         block([[F(0), F(1), F(3), F(0), F(0)]])]) == [1, 2]  # 3 used
    assert prefix_ranks([OpMatrix(2, 9), OpMatrix(1, 9)]) == [0, 0]  # none used


@st.composite
def row_blocks(draw):
    ncols = draw(st.integers(1, 5))
    row = st.lists(small_rationals, min_size=ncols, max_size=ncols)
    return ncols, draw(st.lists(st.lists(row, max_size=3), min_size=1, max_size=4))


@seed(2406)
@settings(max_examples=60, deadline=None)
@given(row_blocks())
def test_prefix_ranks_are_exact_ranks_of_prefixes(case):
    ncols, blocks = case
    stacked, expected = [], []
    for rows in blocks:
        stacked += rows
        expected.append(exact_rank(stacked, ncols=ncols))
    ops = [block(rows, ncols) for rows in blocks]
    assert prefix_ranks(ops) == expected
    # with true bounds, tight or loose, the ranks are the same
    assert prefix_ranks(ops, expected) == expected
    assert prefix_ranks(ops, [r + 1 for r in expected]) == expected


small_int_matrices = st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), min_size=1, max_size=6))


@seed(2404)
@settings(max_examples=60, deadline=None)
@given(small_int_matrices, st.data())
def test_kernel_against_numpy(rows, data):
    """numpy is the independent oracle: the exact and modular routes share
    one elimination loop, so comparing them checks the loop with itself."""
    a = np.array(rows, dtype=float)
    ncols = a.shape[1]
    exact = [[F(v) for v in r] for r in rows]
    res = rank_nullspace(exact)
    assert res.rank == np.linalg.matrix_rank(a)
    greedy = []
    for j in range(ncols):
        if np.linalg.matrix_rank(a[:, greedy + [j]]) > len(greedy):
            greedy.append(j)
    assert res.pivot_cols == greedy
    free = [j for j in range(ncols) if j not in greedy]
    assert len(res.nullspace) == len(free)
    for fc, vec in zip(free, res.nullspace):
        assert not any(mat_vec(exact, vec))
        assert [vec[j] for j in free] == [int(j == fc) for j in free]
    if data.draw(st.booleans(), label="rhs in range"):
        y = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
        b = [int(v) for v in a @ np.array(y)]
    else:
        b = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    x = solve_any(exact, [F(v) for v in b])
    if np.linalg.matrix_rank(np.column_stack([a, b])) == res.rank:
        assert x is not None and mat_vec(exact, x) == b
    else:
        assert x is None
    assert rank_mod_p(exact, exactla._PRIMES[0]) == res.rank


def reduced_row_echelon(rows, ncols):
    """(reduced rows, pivot columns) of a dense rational matrix by
    Gauss-Jordan elimination, pivoting on the first ``ncols`` columns."""
    rows = [list(row) for row in rows]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [v / rows[r][j] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[j]:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[r])]
        pivots.append(j)
    return rows, pivots


@st.composite
def independent_families(draw):
    """(cols, nrows): n <= m independent columns of length m plus 0-2 zero
    rows, the product of a unit lower triangular m x m factor and an upper
    trapezoidal m x n factor with nonzero diagonal, rows permuted, each
    off-diagonal entry kept with probability 2/3."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, m))
    keep = st.sampled_from([True, True, False])
    lower = [[F(int(i == j)) if j >= i else (draw(small_rationals) if draw(keep) else F(0))
              for j in range(m)] for i in range(m)]
    upper = [[draw(small_rationals.filter(bool)) if i == j else
              (draw(small_rationals) if j > i and draw(keep) else F(0))
              for j in range(n)] for i in range(m)]
    rows = [[sum((lower[i][k] * upper[k][j] for k in range(m)), F(0)) for j in range(n)]
            for i in range(m)]
    rows = [rows[i] for i in draw(st.permutations(range(m)))]
    rows += [[F(0)] * n] * draw(st.integers(0, 2))
    return [list(col) for col in zip(*rows)], len(rows)


@seed(1010)
@settings(max_examples=80, deadline=None)
@given(independent_families(), st.data())
def test_linear_expander_expands_exactly(family, data):
    cols, nrows = family
    n = len(cols)
    sparse_cols = [{i: v for i, v in enumerate(col) if v} for col in cols]
    dim = 1 + max(i for col in sparse_cols for i in col)
    coeffs = data.draw(st.lists(small_rationals, min_size=n, max_size=n), label="coeffs")
    inside = [sum((c * col[i] for c, col in zip(coeffs, cols)), F(0)) for i in range(nrows)]
    outside = data.draw(st.lists(small_rationals, min_size=nrows, max_size=nrows), label="outside")
    in_span = len(reduced_row_echelon(
        [list(row) + [b] for row, b in zip(zip(*cols), outside)], n + 1)[1]) == n
    past = [F(0)] * (nrows + 1)  # one entry longer than the columns
    past[data.draw(st.integers(dim, nrows), label="past")] = F(1)
    for family in (cols, sparse_cols):
        exp = LinearExpander(family)
        assert exp.dim == dim
        assert exp.expand(inside) == coeffs
        if not in_span:
            with pytest.raises(ExactSolveError, match="outside the span"):
                exp.expand(outside)
        with pytest.raises(ExactSolveError, match="outside the span"):
            exp.expand(past)  # nonzero only past the family's last nonzero row


def oracle_solutions(rows, rhs):
    """Solutions by dense Gauss-Jordan elimination of [A | B] over Q; None
    when A is singular."""
    n = len(rows)
    reduced, pivots = reduced_row_echelon(
        [list(row) + [col[i] for col in rhs] for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        return None
    return [[reduced[i][n + j] for i in range(n)] for j in range(len(rhs))]


rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def square_systems(draw):
    """(rows, rhs): a nonsingular rational matrix, as a product of a unit
    lower and an upper triangular factor with nonzero diagonal, each entry
    kept with probability 2/3, and 0-5 right-hand-side columns."""
    n = draw(st.integers(1, 6))
    keep = st.sampled_from([True, True, False])
    lower = [[F(int(i == j)) if j >= i else (draw(rationals) if draw(keep) else F(0))
              for j in range(n)] for i in range(n)]
    upper = [[draw(rationals.filter(bool)) if i == j else
              (draw(rationals) if j > i and draw(keep) else F(0))
              for j in range(n)] for i in range(n)]
    rows = [[sum((lower[i][k] * upper[k][j] for k in range(n)), F(0)) for j in range(n)]
            for i in range(n)]
    order = draw(st.permutations(range(n)))
    rows = [rows[i] for i in order]
    rhs = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=5))
    return rows, rhs


def lifted(rows, rhs):
    """The columns of LiftedSolver's solution of rows x = each column of rhs."""
    n = len(rows)
    system = OpMatrix.from_columns(n, [list(col) for col in zip(*rows)])
    return LiftedSolver(system).solve(OpMatrix.from_columns(n, rhs)).columns()


@seed(909)
@settings(max_examples=80, deadline=None)
@given(square_systems())
def test_lifted_solves_match_gauss_jordan(system):
    rows, rhs = system
    expected = oracle_solutions(rows, rhs)
    assert expected is not None
    assert lifted(rows, rhs) == expected
    assert solve_square(rows, rhs) == expected


def test_lifted_solve_of_empty_system_and_batch():
    assert solve_square([], [[], []]) == [[], []]
    empty = LiftedSolver(OpMatrix.from_entries(1, 1, {(0, 0): F(2)})).solve(OpMatrix(1, 0))
    assert empty.shape == (1, 0)


def test_zero_right_hand_side_on_numerators_past_int64_solves_to_zero():
    """A zero batch has max |x| = 0, which must not bound A x to int64
    when A's numerators do not fit it."""
    assert solve_square([[F(2 ** 64)]], [[F(0)]]) == [[F(0)]]


def test_batch_of_zero_columns_on_numerators_past_int64_solves_to_zero():
    system = OpMatrix.from_entries(2, 2, {(0, 0): F(2 ** 63), (0, 1): F(1), (1, 1): F(3)})
    assert LiftedSolver(system).solve(OpMatrix(2, 3)).columns() == [[F(0)] * 2] * 3


def test_lifted_solve_rejects_wrong_shapes():
    with pytest.raises(ValueError, match="square"):
        LiftedSolver(OpMatrix(2, 3))
    solver = LiftedSolver(OpMatrix.from_entries(2, 2, {(0, 0): F(1), (1, 1): F(3)}))
    with pytest.raises(ValueError, match="3 rows"):
        solver.solve(OpMatrix(3, 1))


def record_replays(monkeypatch):
    """Record the number of open columns at every replay of the factor."""
    widths = []
    replay = LiftedSolver._replay
    monkeypatch.setattr(LiftedSolver, "_replay",
                        lambda self, r: widths.append(r.shape[1]) or replay(self, r))
    return widths


def test_batch_columns_leave_after_their_own_lifting_steps(monkeypatch):
    """A column whose solution has a denominator near 2**200 lifts for
    several steps; the zero column and two small solutions leave after the
    first, and every column equals the oracle's."""
    big = 2 ** 200 - 1
    rows = [[F(big), F(1), F(0)], [F(2), F(1), F(3)], [F(0), F(-1), F(1)]]
    small = [[F(1), F(-2), F(3)], [F(1, 3), F(0), F(-5, 7)]]
    rhs = [[F(1), F(0), F(0)], [F(0)] * 3,
           *([sum((a * x for a, x in zip(row, sol)), F(0)) for row in rows] for sol in small)]
    expected = oracle_solutions(rows, rhs)
    assert max(v.denominator for v in expected[0]).bit_length() > 200
    assert expected[1:] == [[F(0)] * 3, *small]
    widths = record_replays(monkeypatch)
    assert lifted(rows, rhs) == expected
    assert widths[:2] == [4, 1] and set(widths[1:]) == {1} and len(widths) > 5


def test_lifted_solve_of_wide_entries_matches_the_oracle(monkeypatch):
    """40 unknowns with integer entries up to 2**60 and a batch of 5
    right-hand sides of numerators up to 2**60: every solution has
    numerators and a denominator of thousands of bits, so each column is
    lifted for hundreds of steps before it reconstructs."""
    rng = random.Random(2021)
    big = 2 ** 60
    rows = [[F(rng.randint(-big, big)) for _ in range(40)] for _ in range(40)]
    rhs = [[F(rng.randint(-big, big), rng.randint(1, 9)) for _ in range(40)] for _ in range(5)]
    expected = oracle_solutions(rows, rhs)
    assert min(max(v.denominator for v in col) for col in expected).bit_length() > 2000
    widths = record_replays(monkeypatch)
    assert lifted(rows, rhs) == expected
    assert widths[0] == 5 and len(widths) > 100


def record_primes(monkeypatch):
    """Record the prime of each elimination the solver starts, 0 over Q."""
    seen = []

    class Recording(exactla._Echelon):
        def __init__(self, p=0, factor=False):
            seen.append(p)
            super().__init__(p, factor)
    monkeypatch.setattr(exactla, "_Echelon", Recording)
    return seen


def test_lift_primes_are_the_primes_below_2_to_the_21():
    """The listed primes of ranks and lifted solves, and the ones trial
    division finds past them, are the largest primes below 2**21 in
    decreasing order; so every residue product of a replay row is below
    2**42, and a replay row of over two million terms sums in int64."""
    sympy = pytest.importorskip("sympy")
    primes = list(itertools.islice(exactla._primes(), 6))
    expected = [sympy.prevprime(2 ** 21)]
    while len(expected) < 6:
        expected.append(sympy.prevprime(expected[-1]))
    assert primes == expected
    assert primes[:len(exactla._PRIMES)] == list(exactla._PRIMES)
    assert all(exactla._replay_terms(p) >= 2_097_172 for p in primes)


def test_matrix_singular_mod_the_first_prime(monkeypatch):
    p, q = exactla._PRIMES[:2]
    seen = record_primes(monkeypatch)
    rows = [[F(p), F(0)], [F(0), F(1)]]
    # right-hand-side denominators divisible by p are scaled away, not inverted
    rhs = [[F(1), F(1, p)], [F(3, p * p), F(-5, 7 * p)]]
    assert solve_square(rows, rhs) == [[F(1, p), F(1, p)], [F(3, p ** 3), F(-5, 7 * p)]]
    assert seen == [p, q]
    seen.clear()
    # singular mod the first two primes: the rank over Q decides, then a third prime
    rows = [[F(p * q), F(0)], [F(0), F(1)]]
    assert solve_square(rows, [[F(1), F(2)]]) == [[F(1, p * q), F(2)]]
    assert seen == [p, q, 0, exactla._PRIMES[2]]


def test_singular_matrix_raises_after_a_rank_over_q(monkeypatch):
    seen = record_primes(monkeypatch)
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1, 3), F(1)]]
    with pytest.raises(ExactSolveError, match="singular"):
        solve_square(rows, [[F(1), F(2), F(3)]])
    assert seen == [*exactla._PRIMES[:2], 0]
    with pytest.raises(ExactSolveError, match="singular"):
        LiftedSolver(OpMatrix.from_entries(2, 2, {(0, 0): F(1)}))
    with pytest.raises(ExactSolveError, match="singular"):
        solve_square([[F(0)]], [])


def test_singular_verdict_keeps_the_exact_width_cap(monkeypatch):
    """After two prime misses the rank over Q that calls a system singular
    is ``prefix_ranks``', so it stops at the width cap like every other
    elimination over Q."""
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1, 3), F(1)]]
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "2")
    with pytest.raises(ExactWidthExceeded, match="3 columns exceeds the exact cap 2"):
        solve_square(rows, [[F(1), F(2), F(3)]])
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "3")
    with pytest.raises(ExactSolveError, match="singular"):
        solve_square(rows, [[F(1), F(2), F(3)]])


def test_wrong_reconstruction_is_never_returned(monkeypatch):
    rows = random_matrix(random.Random(7), 5, 5, 5)
    rhs = [[F(2, 3), F(-1), F(0), F(5), F(1, 8)], [F(0), F(4, 9), F(1), F(0), F(-2)]]
    expected = oracle_solutions(rows, rhs)
    monkeypatch.setattr(exactla, "_reconstruct", lambda u, m, bound: (1, 1))
    with pytest.raises(ArithmeticError, match="Hadamard"):
        solve_square(rows, rhs)
    # wrong after the first lifting step, right later: only the checked value comes back
    monkeypatch.undo()
    reconstruct, p = exactla._reconstruct, exactla._PRIMES[0]
    moduli = set()
    monkeypatch.setattr(exactla, "_reconstruct",
                        lambda u, m, bound: moduli.add(m) or
                        ((1, 1) if m == p else reconstruct(u, m, bound)))
    assert solve_square(rows, rhs) == expected
    assert p in moduli and max(moduli) > p


def test_one_wrong_column_stays_open_while_the_others_return(monkeypatch):
    """Integer solutions reconstruct at the first step.  The value 777 only
    occurs in the second column; made wrong there for the first two steps,
    that column is checked, kept and lifted on, while the other columns
    leave the batch; made wrong at every step, it is never returned."""
    rows = [[F(3), F(1), F(0), F(2)], [F(1), F(4), F(1), F(0)],
            [F(0), F(1), F(5), F(1)], [F(2), F(0), F(1), F(6)]]
    sols = [[1, -2, 3, 0], [4, 777, -1, 2], [0, 0, 5, -3]]
    rhs = [[F(sum(a * x for a, x in zip(row, sol))) for row in rows] for sol in sols]
    assert oracle_solutions(rows, rhs) == [[F(v) for v in sol] for sol in sols]
    reconstruct, p = exactla._reconstruct, exactla._PRIMES[0]

    def wrong_777(limit):
        def patched(u, m, bound):
            found = reconstruct(u, m, bound)
            return (778, 1) if found == (777, 1) and m <= limit else found
        return patched

    widths = record_replays(monkeypatch)
    monkeypatch.setattr(exactla, "_reconstruct", wrong_777(p * p))
    assert lifted(rows, rhs) == [[F(v) for v in sol] for sol in sols]
    assert widths == [3, 1, 1]
    monkeypatch.setattr(exactla, "_reconstruct", wrong_777(float("inf")))
    with pytest.raises(ArithmeticError, match="Hadamard"):
        lifted(rows, rhs)


def test_int64_replay_row_at_its_proven_bound():
    """The longest replay row the bound allows, every coefficient and
    residue p - 1, sums in int64 to what Python ints give, and one more
    term would pass 2**63."""
    p = exactla._PRIMES[0]
    terms = exactla._replay_terms(p)
    assert terms * (p - 1) ** 2 < 2 ** 63 <= (terms + 1) * (p - 1) ** 2
    coef = np.full(terms, p - 1, dtype=np.int64)
    residues = np.full((terms, 2), p - 1, dtype=np.int64)
    row = coef @ residues
    assert row.tolist() == [terms * (p - 1) ** 2] * 2
    assert (row % p).tolist() == [terms * (p - 1) ** 2 % p] * 2


def test_ranks_and_lifted_solves_start_on_one_prime(monkeypatch):
    """A rank closed mod p and a lifted solve's factor start on the same
    first listed prime.  With no listed prime the solve goes on to the
    primes below 2**21 and returns the same solutions."""
    rng = random.Random(5)
    rows = random_matrix(rng, 5, 5, 5)
    rhs = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(3)]
    seen = record_primes(monkeypatch)
    assert prefix_ranks([block(rows)], [5]) == [5]
    rank_primes = list(seen)
    seen.clear()
    expected = solve_square(rows, rhs)
    assert expected == oracle_solutions(rows, rhs)
    assert seen == rank_primes == [exactla._PRIMES[0]]
    seen.clear()
    monkeypatch.setattr(exactla, "_PRIMES", ())
    assert solve_square(rows, rhs) == expected
    assert lifted(rows, rhs) == expected
    assert seen[0] == 2097143  # the largest prime below 2**21, found by trial division


def ldlt_positive_definite(rows) -> bool:
    """Reference: exact dense LDL^T of a square block, symmetric with every
    pivot > 0."""
    n = len(rows)
    if any(len(row) != n or any(row[j] != rows[j][i] for j in range(i))
           for i, row in enumerate(rows)):
        return False
    a = [list(row) for row in rows]
    for p in range(n):
        pivot = a[p][p]
        if pivot <= 0:
            return False
        for i in range(p + 1, n):
            f = a[i][p] / pivot
            if f:
                for j in range(p + 1, n):
                    a[i][j] -= f * a[p][j]
    return True


small_fractions = st.fractions(-4, 4, max_denominator=3)


def square_of(mat, n, shift=0):
    """M^T M + shift I for a matrix M with n columns."""
    return [[sum((row[i] * row[j] for row in mat), F(0)) + (shift if i == j else 0)
             for j in range(n)] for i in range(n)]


@st.composite
def definiteness_cases(draw):
    """(rows, whether they are symmetric positive definite) of one small
    rational matrix, from every kind of input the check must tell apart."""
    kind = draw(st.sampled_from(["definite", "semidefinite", "indefinite", "zero_lead",
                                 "asymmetric", "ragged"]))
    n = draw(st.integers(0 if kind == "definite" else 1, 4))
    if kind in ("asymmetric", "zero_lead"):
        n = max(n, 2)

    def mat(nrows, ncols):
        return draw(st.lists(st.lists(small_fractions, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))

    if kind == "semidefinite":  # rank at most n - 1
        return square_of(mat(draw(st.integers(0, n - 1)), n), n), False
    if kind == "indefinite":  # L D L^T, unit lower L, D with a negative entry
        low = mat(n, n)
        d = draw(st.lists(st.fractions(F(1, 3), 4, max_denominator=3), min_size=n, max_size=n))
        d[draw(st.integers(0, n - 1))] *= -1
        lower = [[low[i][j] if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
        return [[sum((lower[i][k] * d[k] * lower[j][k] for k in range(n)), F(0))
                 for j in range(n)] for i in range(n)], False
    if kind == "zero_lead":  # [[0, b^T], [b, B]] with B definite
        trailing = square_of(mat(draw(st.integers(0, n)), n - 1), n - 1, shift=1)
        b = mat(1, n - 1)[0]
        return [[F(0)] + b] + [[v] + row for v, row in zip(b, trailing)], False
    rows = square_of(mat(draw(st.integers(0, n + 1)), n), n, shift=1)
    if kind == "asymmetric":
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        rows[i][j] += draw(st.sampled_from([F(-1), F(1, 2), F(3)]))
        return rows, False
    if kind == "ragged":
        if draw(st.booleans()):
            rows.append([F(1)] * n)  # one row too many
        else:
            del rows[draw(st.integers(0, n - 1))][-1]
        return rows, False
    return rows, True


@seed(1717)
@settings(max_examples=150, deadline=None)
@given(definiteness_cases())
def test_positive_definite_matches_ldlt(case):
    rows, expected = case
    assert positive_definite(rows) == ldlt_positive_definite(rows) == expected


def test_positive_definite_of_empty_matrix():
    assert positive_definite([]) and ldlt_positive_definite([])


def test_gram_blocks_are_definite_and_their_negations_are_not():
    blocks = {}
    for name in sorted(DIAGRAMS):
        for k in range(3):
            inst = build_diagram(name, 2, 2, k)
            for gram in (inst.gram_b, inst.gram_c):
                blocks.update((id(block), block) for block in gram.blocks)
    assert len(blocks) >= len(DIAGRAMS)
    for block in blocks.values():
        assert positive_definite(block) and ldlt_positive_definite(block)
        minus = [[-v for v in row] for row in block]
        assert not positive_definite(minus) and not ldlt_positive_definite(minus)
