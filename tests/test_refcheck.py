"""Reference-cell boundary map, bubbles and the div-free decomposition."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from derham import exactla, refcheck
from derham.exactla import rank_nullspace, solve_any, solve_square, span_compare, transpose
from derham.fespace import LocalBasis, scalar_local_basis
from derham.poly import Poly, RefCell, VecPoly, divergence, grad_perp, legendre_basis
from derham.refcheck import (
    boundary_curl_map,
    bubble_basis,
    decompose_divfree,
    divfree_coefficients,
    edge_modes,
    family_ref,
    flat_trace_basis,
    random_divfree,
    reference_basis,
    refcheck_report,
    trace_coefficients,
    uniqueness_probe,
)
from derham.sparse import OpMatrix
from oracles import word_draws

F = Fraction


@pytest.mark.parametrize("k", range(5))
def test_boundary_map_rank_triangle(k):
    bm = boundary_curl_map(RefCell.TRIANGLE, k)
    assert bm.rank == 3 * k + 2
    assert len(bm.kernel) == 1 + k * (k - 1) // 2


@pytest.mark.parametrize("k", range(5))
def test_boundary_map_rank_square(k):
    bm = boundary_curl_map(RefCell.SQUARE, k)
    assert bm.rank == 4 * k + 3
    assert len(bm.kernel) == 1 + k * k


@pytest.mark.parametrize("ref", [RefCell.TRIANGLE, RefCell.SQUARE])
@pytest.mark.parametrize("k", range(5))
def test_boundary_range_misses_exactly_the_constants(ref, k):
    bm = boundary_curl_map(ref, k)
    assert bm.range_orthogonal_to_constants()
    boundary_dim = ref.num_edges * (k + 1)
    assert bm.rank + 1 == boundary_dim


@pytest.mark.parametrize("ref", [RefCell.TRIANGLE, RefCell.SQUARE])
@pytest.mark.parametrize("k", range(5))
def test_boundary_map_rows_are_traces_of_rotated_gradients(ref, k):
    """T G equals the polynomial route: column j holds the trace
    coefficients of the rotated gradient of scalar element j."""
    bm = boundary_curl_map(ref, k)
    assert bm.rows == _polynomial_map_rows(ref, k)


@pytest.mark.parametrize("ref", [RefCell.TRIANGLE, RefCell.SQUARE])
def test_width_cap_is_checked_before_each_elimination(monkeypatch, ref):
    """The map refuses a scalar basis wider than DERHAM_MAX_EXACT_COLS at
    construction, and the bubble basis a family basis wider than it."""
    k, family = 2, "vec_p" if ref is RefCell.TRIANGLE else "vec_qdiv"
    scalar_dim = boundary_curl_map(ref, k).scalar.dim
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", str(scalar_dim - 1))
    with pytest.raises(exactla.ExactWidthExceeded, match=f"{scalar_dim} columns"):
        refcheck.BoundaryCurlMap(ref, k)
    family_dim = reference_basis(family, k).dim
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", str(family_dim - 1))
    with pytest.raises(exactla.ExactWidthExceeded, match=f"{family_dim} columns"):
        refcheck.BubbleBasis(family, k)
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", str(max(scalar_dim, family_dim)))
    assert refcheck.BoundaryCurlMap(ref, k).rows == boundary_curl_map(ref, k).rows
    assert refcheck.BubbleBasis(family, k).vectors == bubble_basis(family, k).vectors


@pytest.mark.parametrize("k", range(5))
def test_constants_in_boundary_kernel(k):
    # scalar constants always map to zero boundary data: T G 1 = 0
    for ref in (RefCell.TRIANGLE, RefCell.SQUARE):
        bm = boundary_curl_map(ref, k)
        ones = OpMatrix.from_columns(bm.scalar.dim, [bm.scalar.expand(Poly.const(1))])
        assert bm.matrix.compose(ones).is_zero


def test_bubbles_need_a_decomposable_family():
    with pytest.raises(ValueError, match="decomposition applies to"):
        bubble_basis("rt_tri", 1)


@pytest.mark.parametrize("cell", ["tri", "quad"])
def test_fresh_report_eliminates_once_over_q(monkeypatch, cell):
    """With the local bases built, a report whose refcheck tables are all
    formed afresh eliminates over Q once: the bubbles' factor of [D; T]."""
    refcheck_report(cell, 3)  # the local bases, cached outside refcheck
    for cached in (boundary_curl_map, bubble_basis, divfree_coefficients,
                   refcheck._decomposition_tables, edge_modes):
        cached.cache_clear()
    over_q = []
    init = exactla._Echelon.__init__

    def counted(self, p=0, factor=False):
        if p == 0:
            over_q.append(factor)
        init(self, p, factor)

    monkeypatch.setattr(exactla._Echelon, "__init__", counted)
    assert refcheck_report(cell, 3).passed
    assert over_q == [True]


@pytest.mark.parametrize("family,k,expected", [
    ("vec_p", 0, 0), ("vec_p", 1, 0), ("vec_p", 2, 1), ("vec_p", 3, 3), ("vec_p", 4, 6),
    ("vec_qdiv", 0, 0), ("vec_qdiv", 1, 1), ("vec_qdiv", 2, 4), ("vec_qdiv", 3, 9),
])
def test_bubble_dimensions(family, k, expected):
    assert bubble_basis(family, k).dim == expected


@pytest.mark.parametrize("family,k", [("vec_p", 2), ("vec_p", 3), ("vec_qdiv", 1), ("vec_qdiv", 2)])
def test_bubbles_are_divfree_with_zero_traces(family, k):
    ref = RefCell.TRIANGLE if family == "vec_p" else RefCell.SQUARE
    for u in bubble_basis(family, k).elements:
        assert divergence(u).is_zero
        for edge in ref.edges:
            assert edge.normal_trace(u).is_zero


@pytest.mark.parametrize("family,k", [(f, k) for f in ("vec_p", "vec_qdiv") for k in range(4)])
def test_divfree_pieces_unique_and_spanning(family, k):
    probe = uniqueness_probe(family, k)
    assert probe.independent
    assert probe.spans_divfree


def test_flat_trace_basis_traces():
    tri = flat_trace_basis(RefCell.TRIANGLE)
    assert len(tri) == 2
    quad = flat_trace_basis(RefCell.SQUARE)
    assert len(quad) == 3
    v = quad[2]
    values = [edge.normal_trace(v) for edge in RefCell.SQUARE.edges]
    assert [t.coeff(0) for t in values] == [1, -1, 1, -1]
    assert all(t.degree() <= 0 for t in values)


def test_constant_field_decomposes_trivially():
    d = decompose_divfree(VecPoly.constant(1, 0), "vec_p", 1)
    assert d.exact and d.residual.is_zero
    assert d.bubble.is_zero
    assert all(m.coefficient == 0 for m in d.modes)
    assert d.flat_coeffs == [1, 0]


@pytest.mark.parametrize("family,k", [("vec_p", 2), ("vec_p", 3), ("vec_qdiv", 2)])
def test_random_decompositions_reconstruct(family, k):
    rng = random.Random(17)
    for _ in range(10):
        u = random_divfree(family, k, rng)
        d = decompose_divfree(u, family, k)
        assert d.exact
        assert d.residual.is_zero
        assert (d.reconstruct() - u).is_zero


@pytest.mark.parametrize("k", range(4))
def test_quad_flat_coefficients_closed_form(k):
    # inputs with constant per-edge traces determine the flat part through
    # the edge values alone: ((b1-b3)/2, (b2-b0)/2, (b0+b2)/2)
    rng = random.Random(23 + k)
    flats = flat_trace_basis(RefCell.SQUARE)
    bubbles = bubble_basis("vec_qdiv", k).elements
    for _ in range(5):
        u = VecPoly.zero()
        for w in flats:
            u = u + w.scale(F(rng.randint(-9, 9), rng.randint(1, 5)))
        for w in bubbles:
            u = u + w.scale(F(rng.randint(-9, 9), rng.randint(1, 5)))
        b = [edge.normal_trace(u).coeff(0) for edge in RefCell.SQUARE.edges]
        assert sum(b) == 0  # compatibility of a div-free field
        d = decompose_divfree(u, "vec_qdiv", k)
        assert d.exact and d.residual.is_zero
        assert d.flat_coeffs == [(b[1] - b[3]) / 2, (b[2] - b[0]) / 2, (b[0] + b[2]) / 2]


def test_decompose_rejects_non_divfree():
    with pytest.raises(ValueError):
        decompose_divfree(VecPoly(Poly.monomial(1, 0), Poly.zero()), "vec_p", 1)


def test_decompose_rejects_unknown_family():
    with pytest.raises(ValueError):
        decompose_divfree(VecPoly.constant(1, 0), "rt_tri", 1)


def test_trace_coefficients_degree_guard():
    quadratic = VecPoly(Poly.monomial(0, 2), Poly.zero())  # trace y^2 on x=1
    with pytest.raises(ValueError):
        trace_coefficients(RefCell.SQUARE, quadratic, 1)


def test_edge_mode_count():
    # k modes per edge: orders 1..k
    assert len(edge_modes("vec_p", 0)) == 0
    assert len(edge_modes("vec_p", 2)) == 6
    assert len(edge_modes("vec_qdiv", 3)) == 12


@pytest.mark.parametrize("cell,k", [("triangle", 2), ("square", 2)])
def test_refcheck_report_passes(cell, k):
    rep = refcheck_report(cell, k, samples=3, seed=1)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "boundary_map_rank" in names and "random_decompositions_exact" in names



# --- the polynomial-product route, kept as an oracle for the coefficient tables


def _combination(elements, coeffs):
    out = VecPoly.zero() if isinstance(elements[0], VecPoly) else Poly.zero()
    for c, f in zip(coeffs, elements):
        out = out + f.scale(c)
    return out


def _polynomial_map_rows(ref, k):
    """The boundary map's rows by the polynomial route: the trace
    coefficients of each scalar element's rotated gradient, one column each."""
    scalar = scalar_local_basis(ref, "p" if ref is RefCell.TRIANGLE else "q", k + 1)
    return transpose([trace_coefficients(ref, grad_perp(psi), k) for psi in scalar.elements])


def _oracle_traces(ref, u, k):
    """Edge-major Legendre coefficients 0..k of the outward normal traces,
    by polynomial products."""
    out = []
    for edge in ref.edges:
        tr = edge.normal_trace(u)
        assert tr.degree() <= k
        out.extend((tr * ell).integrate01() * (2 * i + 1) for i, ell in enumerate(legendre_basis(k)))
    return out


class _OracleDecomposer:
    """Bubbles from power-basis trace rows, bubble projections by inner
    products against the bubbles and their Gram inverse, mode coefficients
    from the input's traces, and the flat part by a solve."""

    def __init__(self, family, k):
        self.family, self.k = family, k
        self.ref = family_ref(family)
        self.basis = reference_basis(family, k)
        divs = [divergence(u) for u in self.basis.elements]
        monos = sorted({ab for d in divs for ab, _ in d.terms()})
        rows = [[d.coeff(*ab) for d in divs] for ab in monos]
        for edge in self.ref.edges:
            traces = [edge.normal_trace(u) for u in self.basis.elements]
            deg = max(t.degree() for t in traces)
            rows.extend([t.coeff(p) for t in traces] for p in range(deg + 1))
        self.bubble_vectors = rank_nullspace(rows, ncols=self.basis.dim).nullspace
        self.bubbles = [_combination(self.basis.elements, v) for v in self.bubble_vectors]
        scalar = scalar_local_basis(self.ref, "p" if self.ref is RefCell.TRIANGLE else "q", k + 1)
        map_rows = _polynomial_map_rows(self.ref, k)
        self.modes = []
        for e in range(self.ref.num_edges):
            for i in range(1, k + 1):
                target = [F(0)] * len(map_rows)
                target[e * (k + 1) + i] = F(1)
                w = grad_perp(_combination(scalar.elements, solve_any(map_rows, target)))
                self.modes.append((e, i, w - self.project(w)))

    def bubble_coefficients(self, v):
        """The bubble coefficients of the projection of ``v``, solved from
        inner products against the bubbles and their Gram matrix."""
        if not self.bubbles:
            return []
        local = LocalBasis(self.ref, self.bubbles, "bubbles")
        rhs = [local.inner(b, v) for b in self.bubbles]
        [coeffs] = solve_square(local.gram_ref(), [rhs])
        return coeffs

    def project(self, v):
        if not self.bubbles:
            return VecPoly.zero()
        return _combination(self.bubbles, self.bubble_coefficients(v))

    def decompose(self, u):
        bubble = self.project(u)
        tc = _oracle_traces(self.ref, u, self.k)
        acc, modes = bubble, []
        for e, i, elem in self.modes:
            lam = tc[e * (self.k + 1) + i]
            modes.append((e, i, lam, elem))
            acc = acc + elem.scale(lam)
        rem = u - acc
        flats = flat_trace_basis(self.ref)
        cols = [self.basis.expand(w) for w in flats]
        sol = solve_any(transpose(cols), self.basis.expand(rem))
        if sol is None:
            return bubble, modes, VecPoly.zero(), [], False, rem
        flat = _combination(flats, sol)
        return bubble, modes, flat, sol, True, rem - flat


_ORACLES = {}


def _oracle(family, k):
    if (family, k) not in _ORACLES:
        _ORACLES[family, k] = _OracleDecomposer(family, k)
    return _ORACLES[family, k]


@pytest.mark.parametrize("family", ["vec_p", "vec_qdiv"])
@pytest.mark.parametrize("k", range(4))
def test_bubbles_and_modes_match_polynomial_route(family, k):
    oracle = _oracle(family, k)
    assert bubble_basis(family, k).vectors == oracle.bubble_vectors
    assert [(e, i, elem) for e, i, elem in edge_modes(family, k)] == oracle.modes
    rng = random.Random(k)
    for _ in range(2):
        u = random_divfree(family, k, rng)
        assert bubble_basis(family, k).project(u) == oracle.project(u)


@seed(2718)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["vec_p", "vec_qdiv"]), st.integers(0, 3), st.data())
def test_decompose_matches_polynomial_route(family, k, data):
    ref = family_ref(family)
    scalar = scalar_local_basis(ref, "p" if ref is RefCell.TRIANGLE else "q", k + 1)
    coeffs = data.draw(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
                                min_size=scalar.dim, max_size=scalar.dim))
    u = grad_perp(_combination(scalar.elements, coeffs))
    d = decompose_divfree(u, family, k)
    bubble, modes, flat, flat_coeffs, exact, residual = _oracle(family, k).decompose(u)
    assert d.bubble == bubble
    assert [(m.edge, m.order, m.coefficient, m.element) for m in d.modes] == modes
    assert (d.flat, d.flat_coeffs, d.exact, d.residual) == (flat, flat_coeffs, exact, residual)
    assert d.exact and (d.reconstruct() - u).is_zero


@pytest.mark.parametrize("seed_", [0, 3, 41])
@pytest.mark.parametrize("family,k", [("vec_p", 2), ("vec_qdiv", 3)])
def test_random_divfree_is_the_rotated_gradient_of_word_draws(family, k, seed_):
    """Each field is the rotated gradient of the scalar whose coefficients
    are the next values of the word-by-word draw, and the generator ends
    where that draw leaves it."""
    ref = family_ref(family)
    scalar = scalar_local_basis(ref, "p" if ref is RefCell.TRIANGLE else "q", k + 1)
    rng, reference = random.Random(seed_), random.Random(seed_)
    for _ in range(3):
        coeffs = [F(a, d) for a, d in word_draws(reference, scalar.dim)]
        assert random_divfree(family, k, rng) == grad_perp(_combination(scalar.elements, coeffs))
    assert rng.getstate() == reference.getstate()


def _failed_checks(rep):
    return {c.name for c in rep.checks if not c.passed}




def _corrupted(matrix, row, col, by=1):
    """``matrix`` with ``by`` added at (row, col)."""
    return matrix + OpMatrix.from_entries(matrix.nrows, matrix.ncols, {(row, col): by})


@pytest.mark.parametrize("cell,family,k", [("tri", "vec_p", 3), ("quad", "vec_qdiv", 2)])
def test_corrupt_bubble_projector_fails_report(monkeypatch, cell, family, k):
    tables = refcheck._decomposition_tables(family, k)
    assert refcheck_report(cell, k).passed
    ptr, cols, _, _ = tables.projector.integer_rows()
    monkeypatch.setattr(tables, "projector", _corrupted(tables.projector, 0, int(cols[ptr[0]])))
    rep = refcheck_report(cell, k)
    assert not rep.passed
    assert _failed_checks(rep) == {"random_decompositions_exact"}


@pytest.mark.parametrize("cell,family,k", [("tri", "vec_p", 3), ("quad", "vec_qdiv", 2)])
@pytest.mark.parametrize("entry", [0, -1])
def test_corrupt_edge_mode_fails_report(monkeypatch, cell, family, k, entry):
    tables = refcheck._decomposition_tables(family, k)
    assert refcheck_report(cell, k).passed
    pieces = tables.pieces  # the first mode column follows the bubbles
    monkeypatch.setattr(tables, "pieces",
                        _corrupted(pieces, entry % pieces.nrows, tables.bubble_count))
    rep = refcheck_report(cell, k)
    assert not rep.passed
    assert _failed_checks(rep) & {"random_decompositions_exact", "edge_mode_traces_exact"}
    assert "edge_mode_traces_exact" in _failed_checks(rep)  # both entries move a trace


# --- the uniqueness probe against span comparison


def _span_oracle(columns, family, k):
    """(rank, independent, spans the divergence-free subspace) of the piece
    columns, by comparing spans with the divergence nullspace."""
    cert = span_compare(columns, [list(v) for v in refcheck.divfree_coefficients(family, k)])
    return cert.rank_left, cert.rank_left == len(columns), cert.equal


def _replaced_column(tables):
    """The first mode column, or the last column when there is no mode."""
    return tables.bubble_count if tables.mode_count else tables.pieces.ncols - 1


def _dependent_pieces(tables):
    """The pieces with one column replaced by the sum of all the others."""
    cols = tables.pieces.columns()
    j = _replaced_column(tables)
    cols[j] = [sum(values) for values in zip(*(c for i, c in enumerate(cols) if i != j))]
    return OpMatrix.from_columns(tables.pieces.nrows, cols)


def _probe_facts(family, k):
    probe = uniqueness_probe(family, k)
    return probe.rank, probe.independent, probe.spans_divfree


@pytest.mark.parametrize("over_q", [False, True])
@pytest.mark.parametrize("family,k", [(f, k) for f in ("vec_p", "vec_qdiv") for k in range(4)])
def test_probe_rank_matches_span_oracle(monkeypatch, family, k, over_q):
    """Healthy, dependent and corrupted pieces: the probe's exact rank and
    verdicts are those of span comparison, with its rank closed mod p or,
    with no prime, eliminated over Q."""
    tables = refcheck._decomposition_tables(family, k)
    healthy, count = tables.pieces, tables.pieces.ncols
    bad = _dependent_pieces(tables)
    cases = [(healthy, (count, True, True)), (bad, (count - 1, False, False))]
    if not tables.divergence.is_zero:  # at k = 0 every member is divergence-free
        # the last piece plus a basis element of nonzero divergence
        off = _corrupted(healthy, int(tables.divergence.integer_rows()[1][0]), count - 1)
        cases.append((off, (count, True, False)))
    # the dependent pieces plus p times a basis element outside the span of
    # the other pieces: independent, but dependent mod the first prime p
    p = exactla._PRIMES[0]
    unlucky = next(m for r in range(healthy.nrows)
                   if _span_oracle((m := _corrupted(bad, r, _replaced_column(tables), p)).columns(),
                                   family, k)[0] == count)
    assert exactla.ranks_mod_p([unlucky.transpose()], p) == [count - 1]
    cases.append((unlucky, None))
    if over_q:
        monkeypatch.setattr(exactla, "_PRIMES", ())
    for pieces, facts in cases:
        monkeypatch.setattr(tables, "pieces", pieces)
        got = _probe_facts(family, k)
        assert got == _span_oracle(pieces.columns(), family, k)
        assert facts is None or got == facts
    assert got[:2] == (count, True)  # the unlucky prime's rank is not trusted


@pytest.mark.parametrize("cell,family,k", [("tri", "vec_p", 2), ("quad", "vec_qdiv", 1)])
def test_dependent_mode_fails_probe(monkeypatch, cell, family, k):
    tables = refcheck._decomposition_tables(family, k)
    assert refcheck_report(cell, k).passed
    monkeypatch.setattr(tables, "pieces", _dependent_pieces(tables))
    rep = refcheck_report(cell, k)
    assert not rep.passed
    assert {"pieces_independent", "pieces_span_divfree"} <= _failed_checks(rep)


# --- the batch route against the polynomial route and random_divfree


def _rationals(n):
    return st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 9)), min_size=n, max_size=n)


@seed(31415)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["vec_p", "vec_qdiv"]), st.integers(0, 3), st.data())
def test_batch_split_matches_polynomial_route(family, k, data):
    """Column by column of one batch of divergence-free fields and other
    family members: the same beta, lambda, sigma and exactness as the
    polynomial route."""
    tables = refcheck._decomposition_tables(family, k)
    basis, scalar = tables.basis, boundary_curl_map(family_ref(family), k).scalar
    fields = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            fields.append(grad_perp(_combination(scalar.elements, data.draw(_rationals(scalar.dim)))))
        else:
            fields.append(_combination(basis.elements, data.draw(_rationals(basis.dim))))
    split = tables.decompose(OpMatrix.from_columns(basis.dim, [basis.expand(u) for u in fields]))
    nb, nm = tables.bubble_count, tables.mode_count
    oracle = _oracle(family, k)
    for u, coeffs, divfree, exact in zip(fields, split.coefficients.columns(), split.divfree,
                                         split.exact):
        _, modes, _, flat_coeffs, oracle_exact, _ = oracle.decompose(u)
        assert coeffs[:nb] == oracle.bubble_coefficients(u)
        assert coeffs[nb:nb + nm] == [lam for _, _, lam, _ in modes]
        assert bool(exact) == oracle_exact
        assert bool(divfree) == divergence(u).is_zero
        if oracle_exact:
            assert coeffs[nb + nm:] == flat_coeffs


def _assert_samples_are_draws(family, k, seed_, samples=5):
    tables = refcheck._decomposition_tables(family, k)
    rng, reference = random.Random(seed_), random.Random(seed_)
    columns = tables.sample(rng, samples)
    fields = [random_divfree(family, k, reference) for _ in range(samples)]
    assert columns.columns() == [tables.basis.expand(u) for u in fields]
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("seed_", [0, 3, 41])
@pytest.mark.parametrize("family,k", [(f, k) for f in ("vec_p", "vec_qdiv") for k in range(4)])
def test_batch_samples_are_random_divfree_draws(family, k, seed_):
    _assert_samples_are_draws(family, k, seed_)


def test_batch_samples_redraw_a_zero_field():
    """A seed whose first five k = 0 triangle draws include a constant
    scalar, found by search: the batch redraws it as random_divfree does."""
    n = refcheck._decomposition_tables("vec_p", 0).grad.ncols

    def redraws(seed_):
        rng, plain = random.Random(seed_), random.Random(seed_)
        for _ in range(5):
            random_divfree("vec_p", 0, rng)
            refcheck._draw(plain, n)
        return rng.getstate() != plain.getstate()

    # eight samples, so that draws follow the one drawn again
    _assert_samples_are_draws("vec_p", 0, next(s for s in range(200) if redraws(s)), samples=8)


def _assert_draw_is_word_by_word(seed_, n):
    """``_draw`` gives the pairs, and leaves the state, of ``word_draws``."""
    rng, reference = random.Random(seed_), random.Random(seed_)
    num, den = refcheck._draw(rng, n)
    assert num.dtype == den.dtype == np.int64
    assert list(zip(num.tolist(), den.tolist())) == word_draws(reference, n)
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, 1000, 5000])
def test_draw_is_one_word_per_value(n):
    for seed_ in range(200 if n < 5000 else 10):
        _assert_draw_is_word_by_word(seed_, n)


@pytest.mark.parametrize("n,m", [(0, 3), (1, 1), (7, 40), (5000, 9)])
def test_draw_continues_where_it_stopped(n, m):
    """n values and then m are the first n + m values, and leave the same
    state, so a batch of fields is the same fields drawn one at a time."""
    for seed_ in range(20):
        rng, whole = random.Random(seed_), random.Random(seed_)
        parts = [refcheck._draw(rng, n), refcheck._draw(rng, m)]
        for joined, once in zip(map(np.concatenate, zip(*parts)), refcheck._draw(whole, n + m)):
            assert joined.tolist() == once.tolist()
        assert rng.getstate() == whole.getstate()


@pytest.mark.parametrize("read_words", [1, 2, 5, 7, 1 << 20])
def test_draw_reads_in_chunks_and_again(monkeypatch, read_words):
    """Reads of a few words each run out mid-draw and are followed by
    more; the generator is then advanced again, in reads as bounded, by the
    words up to the last value kept."""
    cases = [(seed_, n) for seed_ in range(40) for n in (0, 1, 2, 9, 50)]
    expected = {}
    for seed_, n in cases:
        reference = random.Random(seed_)
        expected[seed_, n] = (word_draws(reference, n), reference.getstate())
    monkeypatch.setattr(refcheck, "_READ_WORDS", read_words)
    reads = []
    getrandbits = random.Random.getrandbits
    monkeypatch.setattr(random.Random, "getrandbits",
                        lambda self, k: reads.append(k) or getrandbits(self, k))
    for seed_, n in cases:
        rng = random.Random(seed_)
        num, den = refcheck._draw(rng, n)
        assert (list(zip(num.tolist(), den.tolist())), rng.getstate()) == expected[seed_, n]
    assert max(reads) <= 32 * read_words
    assert len(reads) >= 2 * sum(1 for _, n in cases if n)  # a read and an advance per draw


class _Words(random.Random):
    """A generator that gives the listed 32-bit words in order; its state is
    the number of words given."""

    def __init__(self, words):
        self.words, self.at = list(words), 0

    def getstate(self):
        return self.at

    def setstate(self, state):
        self.at = state

    def getrandbits(self, k):
        words = self.words[self.at:self.at + k // 32]
        self.at += k // 32
        return sum(w << 32 * i for i, w in enumerate(words))


def test_accepted_words_replay_the_rejections():
    """Every value of the top 9 bits, against the word-by-word loop: a word
    is kept exactly when its top 5 bits are below 19 and its next 4 below 9,
    and its lowest 23 bits are never read."""
    def word(top, next_):
        return top << 27 | next_ << 23 | (1 << 23) - 1

    words = [word(19, 0), word(0, 9), word(31, 15), word(18, 8), word(0, 0), word(9, 3)]
    rng = _Words(words + [word(0, 0)] * 30)
    num, den = refcheck._draw(rng, 3)
    assert list(zip(num.tolist(), den.tolist())) == [(9, 9), (-9, 1), (0, 4)]
    assert rng.at == len(words)
    shuffle = random.Random(5)
    words = [top << 23 | shuffle.getrandbits(23) for top in range(512)] * 3
    shuffle.shuffle(words)
    kept = sum(w >> 27 < 19 and w >> 23 & 15 < 9 for w in words)
    rng, reference = _Words(words), _Words(words)
    num, den = refcheck._draw(rng, kept)
    assert list(zip(num.tolist(), den.tolist())) == word_draws(reference, kept)
    assert rng.at == reference.at


def test_draw_reaches_every_value_of_the_rule():
    """Over 20,000 values every numerator in -9..9 meets every denominator
    in 1..9, and nothing else is drawn."""
    num, den = refcheck._draw(random.Random(0), 20_000)
    assert set(zip(num.tolist(), den.tolist())) == {
        (a, d) for a in range(-9, 10) for d in range(1, 10)}


@pytest.mark.parametrize("seed_", range(5))
def test_reports_pass_at_every_seed(seed_):
    """The report counts the samples that split exactly, so it reads the
    same whichever fields a seed gives."""
    for cell in ("tri", "quad"):
        for k in range(4):
            rep = refcheck_report(cell, k, seed=seed_)
            assert rep.passed, (cell, k, _failed_checks(rep))


def test_tables_are_slices_of_the_trace_and_the_bubbles():
    """R is the rows (edge, order 1..k) of T and the first pieces are the
    bubble vectors, both equal to the matrices built from dense rows."""
    for family in ("vec_p", "vec_qdiv"):
        for k in range(7):
            tables = refcheck._decomposition_tables(family, k)
            n, rows = tables.basis.dim, tables.trace.dense_rows()
            at = [e * (k + 1) + i for e, i in tables.labels]
            assert tables.mode_rows == OpMatrix.from_entries(len(at), n, {
                (r, c): v for r, t in enumerate(at) for c, v in enumerate(rows[t]) if v})
            assert tables.pieces.column_block(0, tables.bubble_count) == OpMatrix.from_columns(
                n, tables.bubbles.vectors)


def test_zero_draws_give_up_after_64(monkeypatch):
    calls = []

    def zero_draw(rng, n):
        calls.append(n)
        return np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)

    monkeypatch.setattr(refcheck, "_draw", zero_draw)
    tables = refcheck._decomposition_tables("vec_p", 1)
    with pytest.raises(AssertionError, match="64 times"):
        tables.sample(random.Random(0), 1)
    assert len(calls) == 1 + 64  # the batch's draw, then 64 draws one at a time
    calls[:] = []
    with pytest.raises(AssertionError, match="64 times"):
        random_divfree("vec_p", 1, random.Random(0))
    assert len(calls) == 1 + 64  # random_divfree is one sample of the tables


def test_report_without_samples_passes():
    rep = refcheck_report("quad", 1, samples=0)
    assert rep.passed
    assert [(c.expected, c.computed) for c in rep.checks
            if c.name == "random_decompositions_exact"] == [(0, 0)]


def forbid(monkeypatch, owner, *names):
    def boom(*args, **kwargs):
        raise AssertionError(f"forbidden call among {names}")
    for name in names:
        monkeypatch.setattr(owner, name, boom)


@pytest.mark.parametrize("cell", ["tri", "quad"])
def test_warm_report_makes_no_fraction_calls(monkeypatch, cell):
    """Once the tables are formed, a report runs on integer products and
    ranks: no dense Fraction product, span comparison, solve or expansion."""
    for k in range(4):
        refcheck_report(cell, k)
    for owner in (refcheck, exactla):
        forbid(monkeypatch, owner, "mat_vec", "span_compare", "solve_any")
    forbid(monkeypatch, exactla.LinearExpander, "expand")
    for k in range(4):
        assert refcheck_report(cell, k, seed=k + 1).passed
