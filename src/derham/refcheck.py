"""Reference-cell analysis of vector families and boundary trace maps.

Three related objects live here, all in exact arithmetic:

* ``BoundaryCurlMap``: scalar polynomials of degree k+1 mapped to the
  Legendre coefficients of the outward normal traces of their rotated
  gradients, edge by edge.  Along an edge that trace equals d/dt of the
  scalar restricted to the edge, so it always has degree <= k.
* ``bubble_basis``: the members of a vector family that are divergence-free
  with identically zero normal trace on every edge.
* ``decompose_divfree``: splits a divergence-free family member into a
  bubble, one reproducing mode per (edge, Legendre index >= 1), and a
  remainder with edgewise-constant normal traces, then certifies the split
  by exact reconstruction.  ``uniqueness_probe`` certifies that those three
  ingredients form a basis of the divergence-free subspace.

The decomposition works on coefficient vectors in the family's reference
basis, with tables formed once per (family, k): the bubble projector, the
basis's trace table, the edge modes' vectors and one factor of the flat
columns.  Its fields are formed from those vectors at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactla import (
    ExactSolveError,
    LinearExpander,
    RankResult,
    mat_vec,
    rank_nullspace,
    rank_of_columns,
    solve_any,
    solve_square,
    span_compare,
    transpose,
)
from .fespace import VECTOR_FAMILIES, LocalBasis, make_vector_basis, scalar_local_basis
from .mesh import MeshKind
from .poly import Poly, RefCell, VecPoly, divergence, grad_perp, trace_legendre
from .report import Report

__all__ = [
    "DECOMPOSABLE_FAMILIES",
    "BoundaryCurlMap",
    "boundary_curl_map",
    "BubbleBasis",
    "bubble_basis",
    "EdgeMode",
    "edge_modes",
    "DivFreeDecomposition",
    "decompose_divfree",
    "UniquenessProbe",
    "uniqueness_probe",
    "flat_trace_basis",
    "trace_coefficients",
    "divfree_coefficients",
    "random_divfree",
    "family_ref",
    "reference_basis",
    "refcheck_report",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# families whose normal traces stay at degree <= k, where the decomposition
# into bubbles + edge modes + flat-trace fields applies
DECOMPOSABLE_FAMILIES = ("vec_p", "vec_qdiv")


def family_ref(family: str) -> RefCell:
    kind = VECTOR_FAMILIES[family]
    return RefCell.TRIANGLE if kind is MeshKind.TRIANGULAR else RefCell.SQUARE


def reference_basis(family: str, k: int) -> LocalBasis:
    """The family's local basis on its own reference cell (identity chart)."""
    return make_vector_basis(family, k, family_ref(family))


def _combine(elements, coeffs):
    """The combination sum c_i * elements[i] of scalar or vector polynomials
    (at least one element)."""
    vector = isinstance(elements[0], VecPoly)
    parts: list[dict] = [{}, {}] if vector else [{}]
    for c, f in zip(coeffs, elements):
        if c:
            for acc, part in zip(parts, (f.x, f.y) if vector else (f,)):
                for ab, v in part.c.items():
                    acc[ab] = acc.get(ab, _ZERO) + c * v
    return VecPoly(Poly(parts[0]), Poly(parts[1])) if vector else Poly(parts[0])


def trace_coefficients(ref: RefCell, u: VecPoly, k: int) -> list[Fraction]:
    """Edge-major vector of Legendre coefficients (orders 0..k) of the
    outward normal traces of ``u``; exact, raises ``TraceDegreeError`` if a
    trace exceeds degree k."""
    out: list[Fraction] = []
    for e, edge in enumerate(ref.edges):
        out.extend(trace_legendre(u, ref, e, True, edge.outward, k))
    return out


class BoundaryCurlMap:
    """Boundary-trace matrix of the rotated gradient on one reference cell.

    Columns are the scalar monomials of degree k+1 (total degree on the
    triangle, per-variable degree on the square); rows are the Legendre
    coefficients of the outward normal traces of the rotated gradient,
    edge-major with k+1 coefficients per edge.
    """

    def __init__(self, ref: RefCell, k: int):
        if k < 0:
            raise ValueError("level k must be >= 0")
        self.ref = ref
        self.k = k
        fam = "p" if ref is RefCell.TRIANGLE else "q"
        self.scalar = scalar_local_basis(ref, fam, k + 1)
        self.num_edges = ref.num_edges
        self.boundary_dim = self.num_edges * (k + 1)
        rows = [[_ZERO] * self.scalar.dim for _ in range(self.boundary_dim)]
        for j, psi in enumerate(self.scalar.elements):
            coeffs = trace_coefficients(ref, grad_perp(psi), k)
            for r, c in enumerate(coeffs):
                if c:
                    rows[r][j] = c
        self.rows = rows
        self._analysis: RankResult | None = None

    @property
    def analysis(self) -> RankResult:
        if self._analysis is None:
            self._analysis = rank_nullspace(self.rows, ncols=self.scalar.dim)
        return self._analysis

    @property
    def rank(self) -> int:
        return self.analysis.rank

    @property
    def kernel(self) -> list[list[Fraction]]:
        """Scalar coefficient vectors whose rotated gradient has zero trace."""
        return self.analysis.nullspace

    def apply(self, scalar_coeffs) -> list[Fraction]:
        return mat_vec(self.rows, scalar_coeffs)

    def solve(self, boundary_target) -> list[Fraction] | None:
        """One scalar preimage of a boundary coefficient vector, or None."""
        return solve_any(self.rows, boundary_target)

    def range_orthogonal_to_constants(self) -> bool:
        """Every column has edge-integrals summing to zero, exactly.

        The order-0 coefficient of a trace is its mean, so this is the exact
        statement that the range is orthogonal to the constant boundary
        function in the weighted Legendre inner product.
        """
        step = self.k + 1
        return all(
            not sum((self.rows[e * step][j] for e in range(self.num_edges)), _ZERO)
            for j in range(self.scalar.dim)
        )


@lru_cache(maxsize=None)
def boundary_curl_map(ref: RefCell, k: int) -> BoundaryCurlMap:
    return BoundaryCurlMap(ref, k)


def _divergence_rows(basis: LocalBasis) -> list[list[Fraction]]:
    divs = [divergence(u) for u in basis.elements]
    monos = sorted({ab for d in divs for ab, _ in d.terms()})
    return [[d.coeff(*ab) for d in divs] for ab in monos]


def _trace_rows(basis: LocalBasis, k: int) -> list[list[Fraction]]:
    """The basis's trace table: edge-major rows (edge, Legendre order 0..k)
    of the outward normal trace coefficients of every basis element."""
    return transpose([trace_coefficients(basis.ref, u, k) for u in basis.elements])


@lru_cache(maxsize=None)
def divfree_coefficients(family: str, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient basis of all divergence-free members of the family."""
    basis = reference_basis(family, k)
    res = rank_nullspace(_divergence_rows(basis), ncols=basis.dim)
    return tuple(tuple(v) for v in res.nullspace)


class BubbleBasis:
    """Divergence-free family members with zero normal trace on every edge.

    ``projector`` maps a family coefficient vector to the bubble
    coefficients of its L2-orthogonal projection: the inverse of the
    bubbles' Gram matrix times their moments against the family basis.
    """

    def __init__(self, family: str, k: int):
        self.family = family
        self.k = k
        self.ref = family_ref(family)
        self.basis = reference_basis(family, k)
        degree = max(a + b for u in self.basis.elements for p in (u.x, u.y) for a, b in p.c)
        rows = _divergence_rows(self.basis) + _trace_rows(self.basis, degree)
        res = rank_nullspace(rows, ncols=self.basis.dim)
        self.vectors = res.nullspace
        self.elements = [_combine(self.basis.elements, v) for v in self.vectors]
        n = self.dim
        if not n:
            self.projector: list[list[Fraction]] = []
            return
        # moments of the bubbles against the family basis, then their Gram
        # matrix; the inverse by one batch solve is symmetric, so its
        # columns are its rows
        moments = [[self.basis.inner(b, e) for e in self.basis.elements] for b in self.elements]
        gram_inverse = solve_square([mat_vec(moments, v) for v in self.vectors], [
            [_ONE if i == j else _ZERO for i in range(n)] for j in range(n)])
        self.projector = transpose([mat_vec(gram_inverse, col) for col in transpose(moments)])

    @property
    def dim(self) -> int:
        return len(self.elements)

    def coefficients(self, cv) -> list[Fraction]:
        """Bubble coefficients of the projection of family coefficients ``cv``."""
        return mat_vec(self.projector, cv)

    def project(self, v: VecPoly) -> VecPoly:
        """Exact L2-orthogonal projection of a family member onto the bubble
        span; SpanError if ``v`` is outside the family."""
        if not self.elements:
            return VecPoly.zero()
        return _combine(self.elements, self.coefficients(self.basis.expand(v)))


@lru_cache(maxsize=None)
def bubble_basis(family: str, k: int) -> BubbleBasis:
    return BubbleBasis(family, k)


def flat_trace_basis(ref: RefCell) -> list[VecPoly]:
    """Divergence-free fields with edgewise-constant normal traces that
    complement bubbles and edge modes: the two constants, plus on the square
    the field (1-2x, 2y-1) whose traces alternate sign around the boundary."""
    out = [VecPoly.constant(1, 0), VecPoly.constant(0, 1)]
    if ref is RefCell.SQUARE:
        out.append(VecPoly(Poly({(0, 0): 1, (1, 0): -2}), Poly({(0, 0): -1, (0, 1): 2})))
    return out


class _DecompositionTables:
    """The coefficient-space tables of one decomposable (family, k), in the
    family's reference basis: divergence rows, the rows (edge, order 1..k)
    of the basis's trace table that read off the edge-mode coefficients,
    one vector per edge mode, and a factor of the flat-trace columns."""

    def __init__(self, family: str, k: int):
        ref = family_ref(family)
        self.basis = reference_basis(family, k)
        self.bubbles = bubble_basis(family, k)
        self.divergence = _divergence_rows(self.basis)
        trace = _trace_rows(self.basis, k)
        self.mode_rows = [trace[e * (k + 1) + i] for e in range(ref.num_edges)
                          for i in range(1, k + 1)]
        # one mode per (edge, order 1..k): a rotated gradient whose boundary
        # coefficients hit exactly that unit target, minus its bubble projection
        bcm = boundary_curl_map(ref, k)
        self.modes: list[tuple[int, int, list[Fraction]]] = []
        for e in range(ref.num_edges):
            for i in range(1, k + 1):
                target = [_ZERO] * bcm.boundary_dim
                target[e * (k + 1) + i] = _ONE
                psi = bcm.solve(target)
                if psi is None:
                    raise AssertionError("boundary target unexpectedly outside the range")
                w = self.basis.expand(grad_perp(_combine(bcm.scalar.elements, psi)))
                bubble = _lincomb(self.bubbles.vectors, self.bubbles.coefficients(w), len(w))
                self.modes.append((e, i, _subtract(w, bubble)))
        self.flats = flat_trace_basis(ref)
        self.flat_columns = [self.basis.expand(w) for w in self.flats]
        self.flat_factor = LinearExpander(self.flat_columns)


def _subtract(a, b) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def _lincomb(vectors, coeffs, n: int) -> list[Fraction]:
    """sum c_i * vectors[i], as a length-n list."""
    out = [_ZERO] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] += c * x
    return out


@lru_cache(maxsize=None)
def _decomposition_tables(family: str, k: int) -> _DecompositionTables:
    return _DecompositionTables(family, k)


@lru_cache(maxsize=None)
def edge_modes(family: str, k: int) -> tuple[tuple[int, int, VecPoly], ...]:
    """One mode per (edge, Legendre order 1..k): a rotated gradient whose
    boundary coefficients hit exactly that unit target, minus its bubble
    projection.  Triples are (edge index, Legendre order, field)."""
    tables = _decomposition_tables(family, k)
    return tuple((e, i, _combine(tables.basis.elements, v)) for e, i, v in tables.modes)


@dataclass
class EdgeMode:
    edge: int
    order: int
    coefficient: Fraction
    element: VecPoly


@dataclass
class DivFreeDecomposition:
    family: str
    k: int
    input: VecPoly
    bubble: VecPoly
    modes: list[EdgeMode]
    flat: VecPoly
    flat_coeffs: list[Fraction]
    exact: bool
    residual: VecPoly

    def reconstruct(self) -> VecPoly:
        out = self.bubble + self.flat
        for m in self.modes:
            if m.coefficient:
                out = out + m.element.scale(m.coefficient)
        return out


def decompose_divfree(u: VecPoly, family: str, k: int) -> DivFreeDecomposition:
    """Split a divergence-free family member into bubble + edge modes + flat.

    The mode coefficients are read directly off the input's trace Legendre
    coefficients, so exact reconstruction certifies that those functionals,
    together with the bubble and flat pieces, control the whole field.
    """
    if family not in DECOMPOSABLE_FAMILIES:
        raise ValueError(f"decomposition applies to {DECOMPOSABLE_FAMILIES}, not {family!r}")
    tables = _decomposition_tables(family, k)
    cu = tables.basis.expand(u)  # membership check; SpanError if outside
    if any(mat_vec(tables.divergence, cu)):
        raise ValueError("input field is not divergence-free")

    bubbles = tables.bubbles
    beta = bubbles.coefficients(cu)
    lams = mat_vec(tables.mode_rows, cu)
    n = len(cu)
    rem = _subtract(cu, _lincomb(bubbles.vectors + [v for _, _, v in tables.modes], beta + lams, n))
    bubble = _combine(bubbles.elements, beta) if bubbles.elements else VecPoly.zero()
    modes = [EdgeMode(e, i, lam, elem) for (e, i, elem), lam in zip(edge_modes(family, k), lams)]
    try:
        sol = tables.flat_factor.expand(rem)
    except ExactSolveError:
        return DivFreeDecomposition(family, k, u, bubble, modes, VecPoly.zero(), [], False,
                                    _combine(tables.basis.elements, rem))
    residual = _subtract(rem, _lincomb(tables.flat_columns, sol, n))
    return DivFreeDecomposition(family, k, u, bubble, modes, _combine(tables.flats, sol), sol, True,
                                _combine(tables.basis.elements, residual))


@dataclass
class UniquenessProbe:
    family: str
    k: int
    bubble_dim: int
    flat_count: int
    mode_count: int
    rank: int
    divfree_dim: int
    independent: bool
    spans_divfree: bool


def uniqueness_probe(family: str, k: int) -> UniquenessProbe:
    """Certify that bubbles, flat-trace fields and edge modes are jointly
    independent and span exactly the divergence-free subspace, which makes
    the decomposition unique."""
    tables = _decomposition_tables(family, k)
    bubbles = tables.bubbles
    flats = tables.flat_columns
    modes = [v for _, _, v in tables.modes]
    cols = [list(v) for v in bubbles.vectors] + flats + modes
    divfree = [list(v) for v in divfree_coefficients(family, k)]
    cert = span_compare(cols, divfree)
    return UniquenessProbe(
        family,
        k,
        bubbles.dim,
        len(flats),
        len(modes),
        cert.rank_left,
        len(divfree),
        cert.rank_left == len(cols),
        cert.equal,
    )


def random_divfree(family: str, k: int, rng: random.Random) -> VecPoly:
    """Rotated gradient of a random rational scalar of degree k+1.

    For the decomposable families this construction reaches every
    divergence-free member: the rotated-gradient image has the same dimension
    as the divergence-free subspace.
    """
    ref = family_ref(family)
    fam = "p" if ref is RefCell.TRIANGLE else "q"
    scalar = scalar_local_basis(ref, fam, k + 1)
    for _ in range(64):
        coeffs = [Fraction(rng.randrange(19) - 9, rng.randrange(9) + 1) for _ in scalar.elements]
        u = grad_perp(_combine(scalar.elements, coeffs))
        if not u.is_zero:
            return u
    raise AssertionError("random scalar degenerated 64 times in a row")


def refcheck_report(cell: str, k: int, samples: int = 5, seed: int = 0) -> Report:
    """Run every reference-cell check for one cell shape and level."""
    names = {"triangle": RefCell.TRIANGLE, "tri": RefCell.TRIANGLE,
             "square": RefCell.SQUARE, "quad": RefCell.SQUARE}
    if cell not in names:
        raise ValueError(f"cell must be one of {sorted(names)}, got {cell!r}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    ref = names[cell]
    tri = ref is RefCell.TRIANGLE
    family = "vec_p" if tri else "vec_qdiv"
    rep = Report("reference-cell checks",
                 params={"cell": ref.value, "k": k, "family": family,
                         "samples": samples, "seed": seed})

    bcm = boundary_curl_map(ref, k)
    rep.check("boundary_map_rank", 3 * k + 2 if tri else 4 * k + 3, bcm.rank)
    rep.check("boundary_map_kernel_dim",
              1 + k * (k - 1) // 2 if tri else 1 + k * k,
              bcm.analysis.nullity)
    rep.check("range_plus_constants_fills_boundary", bcm.boundary_dim, bcm.rank + 1)
    rep.check("range_orthogonal_to_constants", True, bcm.range_orthogonal_to_constants())

    bubbles = bubble_basis(family, k)
    rep.check("bubble_dim", k * (k - 1) // 2 if tri else k * k, bubbles.dim)

    probe = uniqueness_probe(family, k)
    rep.check("divfree_dim", (k + 1) * (k + 4) // 2 if tri else (k + 1) * (k + 3),
              probe.divfree_dim)
    rep.check("pieces_independent", True, probe.independent)
    rep.check("pieces_span_divfree", True, probe.spans_divfree)

    modes_ok = True
    for e, i, elem in edge_modes(family, k):
        got = trace_coefficients(ref, elem, k)
        want = [_ONE if r == e * (k + 1) + i else _ZERO for r in range(bcm.boundary_dim)]
        if got != want:
            modes_ok = False
    rep.check("edge_mode_traces_exact", True, modes_ok)

    rng = random.Random(seed)
    good = 0
    for _ in range(samples):
        u = random_divfree(family, k, rng)
        d = decompose_divfree(u, family, k)
        if d.exact and d.residual.is_zero and (d.reconstruct() - u).is_zero:
            good += 1
    rep.check("random_decompositions_exact", samples, good)
    return rep.finish()
