"""Reference-cell boundary map, bubbles and the div-free decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from derham import refcheck
from derham.exactla import rank_nullspace, solve_any, solve_square, transpose
from derham.fespace import LocalBasis, scalar_local_basis
from derham.poly import Poly, RefCell, VecPoly, divergence, grad_perp, legendre_basis
from derham.refcheck import (
    boundary_curl_map,
    bubble_basis,
    decompose_divfree,
    edge_modes,
    family_ref,
    flat_trace_basis,
    random_divfree,
    reference_basis,
    refcheck_report,
    trace_coefficients,
    uniqueness_probe,
)

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


@pytest.mark.parametrize("k", range(5))
def test_constants_in_boundary_kernel(k):
    # scalar constants always map to zero boundary data
    for ref in (RefCell.TRIANGLE, RefCell.SQUARE):
        bm = boundary_curl_map(ref, k)
        ones = bm.scalar.expand(Poly.const(1))
        assert all(v == 0 for v in bm.apply(ones))


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
        bcm = boundary_curl_map(self.ref, k)
        self.modes = []
        for e in range(self.ref.num_edges):
            for i in range(1, k + 1):
                target = [F(0)] * bcm.boundary_dim
                target[e * (k + 1) + i] = F(1)
                w = grad_perp(_combination(bcm.scalar.elements, solve_any(bcm.rows, target)))
                self.modes.append((e, i, w - self.project(w)))

    def project(self, v):
        if not self.bubbles:
            return VecPoly.zero()
        local = LocalBasis(self.ref, self.bubbles, "bubbles")
        rhs = [local.inner(b, v) for b in self.bubbles]
        [coeffs] = solve_square(local.gram_ref(), [rhs])
        return _combination(self.bubbles, coeffs)

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
def test_random_divfree_draws_as_before(family, k, seed_):
    """randrange(19) - 9 and randrange(9) + 1 are the draws randint(-9, 9)
    and randint(1, 9) make, so the seeded fields stay the same."""
    ref = family_ref(family)
    scalar = scalar_local_basis(ref, "p" if ref is RefCell.TRIANGLE else "q", k + 1)
    rng, reference = random.Random(seed_), random.Random(seed_)
    for _ in range(3):
        coeffs = [F(reference.randint(-9, 9), reference.randint(1, 9)) for _ in scalar.elements]
        assert random_divfree(family, k, rng) == grad_perp(_combination(scalar.elements, coeffs))
    assert rng.getstate() == reference.getstate()


def _failed_checks(rep):
    return {c.name for c in rep.checks if not c.passed}


@pytest.mark.parametrize("cell,family,k", [("tri", "vec_p", 3), ("quad", "vec_qdiv", 2)])
def test_corrupt_bubble_projector_fails_report(monkeypatch, cell, family, k):
    bubbles = bubble_basis(family, k)
    assert refcheck_report(cell, k).passed
    bad = [list(row) for row in bubbles.projector]
    j = next(j for j, v in enumerate(bad[0]) if v)
    bad[0][j] += 1
    monkeypatch.setattr(bubbles, "projector", bad)
    rep = refcheck_report(cell, k)
    assert not rep.passed
    assert _failed_checks(rep) == {"random_decompositions_exact"}


@pytest.mark.parametrize("cell,family,k", [("tri", "vec_p", 3), ("quad", "vec_qdiv", 2)])
@pytest.mark.parametrize("entry", [0, -1])
def test_corrupt_edge_mode_fails_report(monkeypatch, cell, family, k, entry):
    tables = refcheck._decomposition_tables(family, k)
    assert refcheck_report(cell, k).passed
    e, i, v = tables.modes[0]
    bad = list(v)
    bad[entry] += 1
    monkeypatch.setattr(tables, "modes", [(e, i, bad)] + tables.modes[1:])
    monkeypatch.setattr(refcheck, "edge_modes", refcheck.edge_modes.__wrapped__)
    rep = refcheck_report(cell, k)
    assert not rep.passed
    assert _failed_checks(rep) & {"random_decompositions_exact", "edge_mode_traces_exact"}
