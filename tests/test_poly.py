"""Exact polynomial layer: integration oracles, calculus identities, traces."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from derham.fespace import scalar_local_basis
from derham.poly import (
    AffineMap,
    EdgePoly,
    Poly,
    RefCell,
    VecPoly,
    curl2d,
    divergence,
    grad,
    grad_perp,
    TraceDegreeError,
    legendre_basis,
    restrict_to_segment,
    trace_legendre,
)

F = Fraction


def random_poly(rng, degree, span=9):
    coeffs = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            coeffs[(a, b)] = F(rng.randint(-span, span), rng.randint(1, span))
    return Poly(coeffs)


@pytest.mark.parametrize("a", range(6))
@pytest.mark.parametrize("b", range(6))
def test_triangle_moment_oracle(a, b):
    # int over conv{(0,0),(1,0),(0,1)} of x^a y^b = a! b! / (a+b+2)!
    expected = F(math.factorial(a) * math.factorial(b), math.factorial(a + b + 2))
    assert RefCell.TRIANGLE.moment(a, b) == expected


@pytest.mark.parametrize("a", range(6))
@pytest.mark.parametrize("b", range(6))
def test_square_moment_oracle(a, b):
    assert RefCell.SQUARE.moment(a, b) == F(1, (a + 1) * (b + 1))


def test_moments_against_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    for a, b in ((2, 3), (4, 1), (0, 5)):
        tri = sympy.integrate(x**a * y**b, (y, 0, 1 - x), (x, 0, 1))
        assert F(str(tri)) == RefCell.TRIANGLE.moment(a, b)
        sq = sympy.integrate(x**a * y**b, (y, 0, 1), (x, 0, 1))
        assert F(str(sq)) == RefCell.SQUARE.moment(a, b)


def test_poly_arithmetic_and_eval():
    p = Poly.monomial(1, 0) + Poly.monomial(0, 1, 2)        # x + 2y
    q = p * p
    assert q.coeff(2, 0) == 1 and q.coeff(1, 1) == 4 and q.coeff(0, 2) == 4
    assert q.eval(F(1, 2), F(1, 3)) == (F(1, 2) + F(2, 3)) ** 2
    assert (p - p).is_zero
    assert p.diff(0) == Poly.const(1)
    assert p.diff(1) == Poly.const(2)


def test_compose_matches_pointwise():
    rng = random.Random(5)
    p = random_poly(rng, 3)
    fmap = AffineMap.make(((F(1, 2), F(1, 3)), (F(-1, 4), F(2))), (F(1), F(-2)))
    comp = p.compose(fmap)
    for pt in ((F(0), F(0)), (F(1, 3), F(2, 5)), (F(-1), F(1))):
        assert comp.eval(*pt) == p.eval(*fmap.apply(pt))


def test_affine_inverse_roundtrip():
    fmap = AffineMap.make(((F(2), F(1)), (F(0), F(3))), (F(5), F(-1)))
    inv = fmap.inverse()
    for pt in ((F(0), F(0)), (F(1), F(1)), (F(-3, 7), F(2, 9))):
        assert inv.apply(fmap.apply(pt)) == pt
    assert fmap.det() * inv.det() == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**31))
def test_div_of_rotated_gradient_vanishes(degree, seed):
    rng = random.Random(seed)
    psi = random_poly(rng, degree)
    assert divergence(grad_perp(psi)).is_zero
    assert curl2d(grad(psi)).is_zero


def test_chain_rule_under_charts():
    # grad through a chart must agree with the pushed-forward derivative:
    # d/dx [psi o F^-1](F(p)) computed intrinsically on the reference cell.
    rng = random.Random(11)
    psi = random_poly(rng, 3)
    fmap = AffineMap.make(((F(1, 3), F(0)), (F(1, 5), F(1, 2))), (F(0), F(0)))
    g = grad(psi, fmap.m_inverse())
    phys = psi.compose(fmap.inverse())
    gref = grad(phys)
    for pt in ((F(1, 7), F(2, 7)), (F(0), F(1))):
        ref_pt = fmap.inverse().apply(pt)
        assert g.eval(*ref_pt) == gref.eval(*pt)


@pytest.mark.parametrize("ref", [RefCell.TRIANGLE, RefCell.SQUARE])
def test_boundary_trace_is_tangent_derivative(ref):
    # outward trace of the rotated gradient along an edge is -d/dt of the
    # restricted scalar; this is what keeps face traces one degree lower.
    rng = random.Random(3)
    psi = random_poly(rng, 4)
    for edge in ref.edges:
        restricted = restrict_to_segment(psi, edge.start, edge.direction)
        derivative = EdgePoly([(i + 1) * restricted.coeff(i + 1)
                               for i in range(restricted.degree())])
        assert edge.normal_trace(grad_perp(psi)) == -derivative


def test_restrict_to_segment_pointwise():
    rng = random.Random(7)
    p = random_poly(rng, 3)
    start, direction = (F(1, 4), F(1, 2)), (F(1, 3), F(-1, 5))
    seg = restrict_to_segment(p, start, direction)
    for t in (F(0), F(1, 2), F(1)):
        x = start[0] + t * direction[0]
        y = start[1] + t * direction[1]
        assert seg.eval(t) == p.eval(x, y)


def test_edge_poly_integration():
    # int_0^1 (1 + 2t + 3t^2) dt = 1 + 1 + 1
    assert EdgePoly([1, 2, 3]).integrate01() == 3
    assert EdgePoly([]).integrate01() == 0


@pytest.mark.parametrize("k", range(5))
def test_legendre_orthogonality(k):
    basis = legendre_basis(k)
    for i, li in enumerate(basis):
        for j, lj in enumerate(basis):
            expected = F(1, 2 * i + 1) if i == j else F(0)
            assert (li * lj).integrate01() == expected
    # unit value at t=1 pins the normalization
    for li in basis:
        assert li.eval(1) == 1


def test_integrate_product_linearity():
    rng = random.Random(9)
    p, q = random_poly(rng, 2), random_poly(rng, 2)
    for ref in (RefCell.TRIANGLE, RefCell.SQUARE):
        assert ref.integrate(p + q) == ref.integrate(p) + ref.integrate(q)
        assert scalar_local_basis(ref, "p", 0).inner(p, q) == ref.integrate(p * q)


def test_vecpoly_rotation_and_dot():
    u = VecPoly(Poly.monomial(1, 0), Poly.monomial(0, 1))    # (x, y)
    r = u.rot90()                                            # (-y, x)
    assert r.x == -Poly.monomial(0, 1) and r.y == Poly.monomial(1, 0)
    assert u.dot((F(2), F(3))) == Poly.monomial(1, 0, 2) + Poly.monomial(0, 1, 3)


def _oracle_trace(u, start, direction, vec, k):
    """Shifted-Legendre coefficients 0..k of ``u . vec`` on the segment by
    polynomial products: restrict, multiply by each L_i, integrate.  Returns
    the trace's degree and the coefficients, or None when the degree
    exceeds k."""
    tr = restrict_to_segment(u.dot(vec), start, direction)
    if tr.degree() > k:
        return tr.degree(), None
    return tr.degree(), [(tr * ell).integrate01() * (2 * i + 1)
                         for i, ell in enumerate(legendre_basis(k))]


rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
vector_polys = st.builds(
    lambda xs, ys: VecPoly(Poly(xs), Poly(ys)),
    *(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), rationals, max_size=5)
      for _ in range(2)))


@seed(1414)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([RefCell.TRIANGLE, RefCell.SQUARE]), st.data(), st.booleans(),
       vector_polys, st.tuples(rationals, rationals), st.integers(0, 4))
def test_trace_legendre_matches_polynomial_products(ref, data, along, u, vec, k):
    edge = data.draw(st.integers(0, ref.num_edges - 1))
    e = ref.edges[edge]
    start, direction = (e.start, e.direction) if along else (
        e.end, (-e.direction[0], -e.direction[1]))
    degree, want = _oracle_trace(u, start, direction, vec, k)
    if want is None:
        with pytest.raises(TraceDegreeError, match=f"^trace has degree {degree} > {k}$") as err:
            trace_legendre(u, ref, edge, along, vec, k)
        assert err.value.degree == degree
    else:
        assert trace_legendre(u, ref, edge, along, vec, k) == want


def test_trace_legendre_covers_every_edge_and_orientation():
    # a field whose traces have degree 4 on every edge of both cells
    u = VecPoly(Poly({(4, 0): F(1, 3), (0, 4): F(-2, 5), (1, 1): 1}), Poly({(2, 2): F(3, 7)}))
    vec = (F(2, 3), F(-1, 2))
    for ref in (RefCell.TRIANGLE, RefCell.SQUARE):
        for edge, e in enumerate(ref.edges):
            for along in (True, False):
                start, direction = (e.start, e.direction) if along else (
                    e.end, (-e.direction[0], -e.direction[1]))
                for k in range(5):
                    degree, want = _oracle_trace(u, start, direction, vec, k)
                    assert degree == 4
                    if want is None:
                        with pytest.raises(TraceDegreeError):
                            trace_legendre(u, ref, edge, along, vec, k)
                    else:
                        assert trace_legendre(u, ref, edge, along, vec, k) == want
