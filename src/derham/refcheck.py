"""Reference-cell analysis of vector families and boundary trace maps.

Three related objects live here, all in exact arithmetic:

* ``BoundaryCurlMap``: scalar polynomials of degree k+1 mapped to the
  Legendre coefficients of the outward normal traces of their rotated
  gradients, edge by edge.  Along an edge that trace equals d/dt of the
  scalar restricted to the edge, so it always has degree <= k.  It is T G.
* ``bubble_basis``: the members of a vector family that are divergence-free
  with identically zero normal trace on every edge: one factor of D, then
  of [D; T], gives the divergence-free basis, the bubbles and, replayed,
  the edge-mode preimages.
* ``decompose_divfree``: splits a divergence-free family member into a
  bubble, one reproducing mode per (edge, Legendre index >= 1), and a
  remainder with edgewise-constant normal traces.  ``uniqueness_probe``
  certifies that those three ingredients form a basis of the
  divergence-free subspace.

Each table is formed once per (family, k), and that factor is a fresh
report's one elimination over Q; the map's rank is a witness mod p plus
a bound.  The split acts on coefficient columns in the family's reference
basis, through the integer ``OpMatrix`` tables of ``_DecompositionTables``
(G and T are the map's, D the bubbles').  A batch of columns C splits as
beta = P C, lambda = R C and
sigma = L (C - W [beta; lambda; 0]), with W = [bubbles | modes | flats]; a
column is exact only when the integer product C - W [beta; lambda; sigma]
is zero there.  ``refcheck_report`` draws its samples as the columns G X,
splits them as one batch, compares T W with the unit targets on the mode
columns, and takes the probe's rank of W from ``prefix_ranks``.
Polynomials are formed only for the tables' traces and expansions,
``decompose_divfree``'s fields and ``edge_modes``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .exactla import LiftedSolver, RankResult, _check_width, _exact_echelon, prefix_ranks
from .exactla import mat_vec  # unused; perfbench/tracing.py rebinds it here
from .exactla import rank_nullspace  # unused; perfbench/tracing.py rebinds it here
from .exactla import rank_of_columns  # unused; perfbench/tracing.py rebinds it here
from .exactla import solve_any  # unused; perfbench/tracing.py rebinds it here
from .exactla import solve_square  # unused; perfbench/tracing.py rebinds it here
from .exactla import span_compare  # unused; perfbench/tracing.py rebinds it here
from .exactla import transpose  # unused; perfbench/tracing.py rebinds it here
from .fespace import VECTOR_FAMILIES, LocalBasis, local_dim, make_vector_basis, scalar_local_basis
from .mesh import MeshKind
from .poly import Poly, RefCell, VecPoly, divergence, grad_perp, trace_legendre
from .report import Report
from .sparse import OpMatrix

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

# families whose normal traces stay at degree <= k, where the decomposition
# into bubbles + edge modes + flat-trace fields applies
DECOMPOSABLE_FAMILIES = ("vec_p", "vec_qdiv")
# the decomposable family of each reference cell
_CELL_FAMILY = {RefCell.TRIANGLE: "vec_p", RefCell.SQUARE: "vec_qdiv"}


def family_ref(family: str) -> RefCell:
    kind = VECTOR_FAMILIES[family]
    return RefCell.TRIANGLE if kind is MeshKind.TRIANGULAR else RefCell.SQUARE


def reference_basis(family: str, k: int) -> LocalBasis:
    """The family's local basis on its own reference cell (identity chart)."""
    return make_vector_basis(family, k, family_ref(family))


def _combine(elements, coeffs) -> VecPoly:
    """The combination sum c_i * elements[i] of vector polynomials."""
    parts: tuple[dict, dict] = ({}, {})
    for c, f in zip(coeffs, elements):
        if c:
            for acc, part in zip(parts, (f.x, f.y)):
                for ab, v in part.c.items():
                    acc[ab] = acc.get(ab, _ZERO) + c * v
    return VecPoly(Poly(parts[0]), Poly(parts[1]))


def _rows_matrix(rows, ncols: int) -> OpMatrix:
    """Dense rational rows as one ``OpMatrix``."""
    return OpMatrix.from_entries(len(rows), ncols, {
        (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v})


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

    The map is ``matrix``, the integer product T G in the cell's
    decomposable ``family``: ``grad`` (G) expands each scalar element's
    rotated gradient in its ``basis``, and ``trace`` (T) is its trace table.
    The rank is a witness plus a bound: when the order-0 edge sums kill T G
    (``range_orthogonal_to_constants``), it is at most ``boundary_dim`` - 1,
    else at most ``boundary_dim``, and ``prefix_ranks`` closes it mod p.
    Only ``analysis``, ``kernel`` and the dense ``rows`` eliminate, on first
    use.
    """

    def __init__(self, ref: RefCell, k: int):
        if k < 0:
            raise ValueError("level k must be >= 0")
        self.ref = ref
        self.k = k
        self.family = _CELL_FAMILY[ref]
        # both widths in closed form, before either basis is built
        _check_width((k + 2) * (k + 3) // 2 if ref is RefCell.TRIANGLE else (k + 2) ** 2)
        _check_width(local_dim(self.family, k))
        self.scalar = scalar_local_basis(ref, "p" if ref is RefCell.TRIANGLE else "q", k + 1)
        self.num_edges = ref.num_edges
        self.boundary_dim = self.num_edges * (k + 1)
        self.basis = basis = reference_basis(self.family, k)
        self.grad = OpMatrix.from_columns(
            basis.dim, [basis.expand(grad_perp(psi)) for psi in self.scalar.elements])
        self.trace = OpMatrix.from_columns(
            self.boundary_dim, [trace_coefficients(ref, u, k) for u in basis.elements])
        self.matrix = self.trace.compose(self.grad)
        edge_sums = OpMatrix.from_entries(1, self.boundary_dim, {
            (0, e * (k + 1)): 1 for e in range(self.num_edges)})
        self._orthogonal = edge_sums.compose(self.matrix).is_zero
        [self.rank] = prefix_ranks([self.matrix], [self.boundary_dim - self._orthogonal])

    @cached_property
    def rows(self) -> list[list[Fraction]]:
        return self.matrix.dense_rows()

    @cached_property
    def analysis(self) -> RankResult:
        ech, n = _exact_echelon(self.rows), self.scalar.dim
        return RankResult(len(self.rows), n, ech.rank, sorted(ech.pivots), ech.nullspace(n))

    @property
    def kernel(self) -> list[list[Fraction]]:
        """Scalar coefficient vectors whose rotated gradient has zero trace."""
        return self.analysis.nullspace

    def range_orthogonal_to_constants(self) -> bool:
        """Every column has edge-integrals summing to zero, exactly: the
        integer product of the order-0 edge sums with T G is zero.

        The order-0 coefficient of a trace is its mean, so this is the exact
        statement that the range is orthogonal to the constant boundary
        function in the weighted Legendre inner product.
        """
        return self._orthogonal


@lru_cache(maxsize=None)
def boundary_curl_map(ref: RefCell, k: int) -> BoundaryCurlMap:
    return BoundaryCurlMap(ref, k)


@lru_cache(maxsize=None)
def divfree_coefficients(family: str, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient basis of the family's divergence-free members: ker D."""
    return tuple(tuple(v) for v in bubble_basis(family, k).divfree)


class BubbleBasis:
    """Divergence-free family members with zero normal trace on every edge.

    The one elimination over Q of refcheck, recorded as ``factor``: the
    divergence rows D (``divergence``), whose kernel is ``divfree``, then
    the boundary map's trace rows T (orders 0..k); the kernel of [D; T] is
    ``vectors`` (B), and ``_DecompositionTables`` replays the factor for
    the edge modes.  ``projector`` maps family coefficient columns to the
    bubble coefficients of their L2-orthogonal projection: B^T M B solved
    against the moments B^T M, with M the family's Gram matrix.
    """

    def __init__(self, family: str, k: int):
        if family not in DECOMPOSABLE_FAMILIES:
            raise ValueError(f"decomposition applies to {DECOMPOSABLE_FAMILIES}, not {family!r}")
        _check_width(local_dim(family, k))
        self.family = family
        self.k = k
        self.ref = family_ref(family)
        self.boundary_map = boundary_curl_map(self.ref, k)
        self.basis = self.boundary_map.basis
        n = self.basis.dim
        divs = [divergence(u) for u in self.basis.elements]
        rows = [[d.coeff(*ab) for d in divs] for ab in sorted({ab for d in divs for ab in d.c})]
        self.divergence = _rows_matrix(rows, n)
        self.factor = _exact_echelon(rows, factor=True)
        self.divfree = self.factor.nullspace(n)
        for row in self.boundary_map.trace.dense_rows():
            self.factor.add({c: v for c, v in enumerate(row) if v})
        self.vectors = self.factor.nullspace(n)
        self.elements = [_combine(self.basis.elements, v) for v in self.vectors]
        bubbles = OpMatrix.from_columns(n, self.vectors)
        moments = bubbles.transpose().compose(OpMatrix.from_columns(n, self.basis.gram_ref()))
        self.projector = LiftedSolver(moments.compose(bubbles)).solve(moments)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def coefficients(self, cv) -> list[Fraction]:
        """Bubble coefficients of the projection of family coefficients ``cv``."""
        return self.projector.matvec(cv)

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
    (``flat_quad``) the field (1-2x, 2y-1), whose traces alternate in sign."""
    if ref is RefCell.SQUARE:
        return list(reference_basis("flat_quad", 0).elements)
    return [VecPoly.constant(1, 0), VecPoly.constant(0, 1)]


# 32-bit words per getrandbits read, far below the C int of bits it takes
_READ_WORDS = 1 << 20
# words read past 3.5 per pair still needed; a pair takes 32/19 + 16/9 on average
_OVERDRAW = 64


def _accepted(words: np.ndarray) -> np.ndarray:
    """The positions of the 32-bit words that randrange(19), randrange(9),
    randrange(19), ... accept, reading ``words`` in order.  Each reads the
    top 5 or 4 bits of a word and rejects values of 19 or 9 and up, so a
    word whose top 5 bits are 17 or less is accepted by either, one of 18
    only as a numerator, and one of 19 or more by neither.  Of a run of 18s,
    only the first can be accepted, and after the first word that follows a
    run of 18s, the next word is read as a numerator again.  In between the
    accepted words alternate, so an 18 is accepted exactly when an even
    number of accepted words lie between that restart and it."""
    top = words >> 27
    candidates = np.flatnonzero(top < 19)
    only_num = top[candidates] == 18
    either = ~only_num
    after_num = np.zeros_like(only_num)
    after_num[1:] = only_num[:-1]
    restart = np.ones_like(only_num)
    restart[1:] = (either & after_num)[:-1]
    before = either.cumsum() - either  # words of either kind before each
    even = (before - before[restart.nonzero()[0]][restart.cumsum() - 1]) % 2 == 0
    return candidates[either | (only_num & ~after_num & even)]


def _draw(rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random rationals as int64 arrays (numerators, denominators): for
    each, numerator randrange(19) - 9 and then denominator randrange(9) + 1;
    the draw of every seeded field here and in ``hodge``.  The words that
    2n ``randrange`` calls read are read from ``rng.getrandbits`` in bounded
    chunks and accepted as ``_accepted`` replays them; ``rng`` is then put
    back and advanced by exactly the words used, so it ends in the state
    those calls leave."""
    start = rng.getstate()
    empty = np.zeros(0, dtype=np.int64)
    nums, dens = [empty], [empty]
    words, used, have = np.zeros(0, dtype=np.uint32), 0, 0
    while have < n:
        k = min(_READ_WORDS, 7 * (n - have) // 2 + _OVERDRAW)
        words = np.concatenate((words, np.frombuffer(
            rng.getrandbits(32 * k).to_bytes(4 * k, "little"), dtype="<u4")))
        at = _accepted(words)
        pairs = min(at.size // 2, n - have)
        nums.append((words[at[:2 * pairs:2]] >> 27).astype(np.int64) - 9)
        dens.append((words[at[1:2 * pairs:2]] >> 28).astype(np.int64) + 1)
        have += pairs
        if pairs:  # what follows the last pair is read again from a numerator
            used += int(at[2 * pairs - 1]) + 1
            words = words[at[2 * pairs - 1] + 1:]
    rng.setstate(start)
    for done in range(0, used, _READ_WORDS):
        rng.getrandbits(32 * min(_READ_WORDS, used - done))
    return np.concatenate(nums), np.concatenate(dens)


class _Split(NamedTuple):
    """A batch of coefficient columns C split on the pieces W: the piece
    coefficients K = [beta; lambda; sigma], the remainder after bubbles and
    modes, the residual C - W K, and per column whether D C and the
    residual are zero."""

    coefficients: OpMatrix
    remainder: OpMatrix
    residual: OpMatrix
    divfree: np.ndarray
    exact: np.ndarray


class _DecompositionTables:
    """The integer tables of one decomposable (family, k), on coefficient
    columns in the family's reference basis:

    * ``grad``: G, the rotated gradient of each scalar basis element, and
      ``trace``: T, the whole trace table (edge, order 0..k), both the
      boundary map's;
    * ``divergence``: D, the divergence rows, and ``projector``: P, the
      bubble projector, both the bubble basis's;
    * ``mode_rows``: R, the trace rows (edge, order 1..k), which read off
      the edge-mode coefficients;
    * ``pieces``: W = [bubbles | modes | flats], one mode per (edge, order
      1..k) in ``labels`` order: a divergence-free member whose boundary
      coefficients hit exactly that unit target, minus its bubble projection;
    * ``flat_inverse``: L = (F^T F)^-1 F^T, a left inverse of the flat
      columns F;
    * ``mode_targets``: the unit targets that T W must equal on the mode
      columns.

    Every check reads the tables afresh, so it sees any change made to them.
    """

    def __init__(self, family: str, k: int):
        self.bubbles = bubbles = bubble_basis(family, k)
        bcm, ref = bubbles.boundary_map, bubbles.ref
        self.basis = basis = bubbles.basis
        n = basis.dim
        self.grad, self.trace, self.divergence = bcm.grad, bcm.trace, bubbles.divergence
        self.projector = bubbles.projector
        self.labels = [(e, i) for e in range(ref.num_edges) for i in range(1, k + 1)]
        at = [e * (k + 1) + i for e, i in self.labels]
        self.mode_rows = _rows_matrix([row for r, row in enumerate(self.trace.dense_rows())
                                       if r in at], n)
        # [D; T] w = [0; e_t], replayed on the bubbles' factor: two solutions
        # differ by a bubble, which the projection below removes
        zeros = [0] * self.divergence.nrows
        solutions = [bubbles.factor.solve(zeros + [int(r == t) for r in range(bcm.boundary_dim)], n)
                     for t in at]
        if None in solutions:
            raise AssertionError("boundary target unexpectedly outside the range")
        preimages = OpMatrix.from_columns(n, solutions)
        bubble_columns = OpMatrix.from_columns(n, bubbles.vectors)
        modes = preimages - bubble_columns.compose(self.projector.compose(preimages))
        self.flats = flat_trace_basis(ref)
        flat_columns = OpMatrix.from_columns(n, [basis.expand(w) for w in self.flats])
        self.pieces = OpMatrix.hstack([bubble_columns, modes, flat_columns])
        self.flat_inverse = LiftedSolver(flat_columns.transpose().compose(flat_columns)).solve(
            flat_columns.transpose())
        self.bubble_count, self.mode_count, self.flat_count = bubbles.dim, len(at), len(self.flats)
        self.mode_targets = OpMatrix.from_entries(bcm.boundary_dim, self.pieces.ncols, {
            (t, self.bubble_count + j): 1 for j, t in enumerate(at)})

    def sample(self, rng: random.Random, samples: int) -> OpMatrix:
        """The coefficient columns G X of ``samples`` seeded fields: one
        ``_draw`` of n values per field; when any field is zero, ``rng`` is
        rewound and each field drawn again until it is nonzero, at most 64
        times in a row."""
        start = rng.getstate()
        columns = self._columns(*_draw(rng, self.grad.ncols * samples))
        if columns.zero_columns().any():  # rare: draw again one field at a time
            rng.setstate(start)
            draws = [self._nonzero_draw(rng) for _ in range(samples)]
            columns = self._columns(*map(np.concatenate, zip(*draws)))
        return columns

    def _columns(self, num: np.ndarray, den: np.ndarray) -> OpMatrix:
        """G X, with X the drawn values num / den, n to a column."""
        n = self.grad.ncols
        return self.grad.compose(OpMatrix._from_dense(num.reshape(-1, n).T,
                                                      den.reshape(-1, n).T))

    def _nonzero_draw(self, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
        for _ in range(64):
            draw = _draw(rng, self.grad.ncols)
            if not self._columns(*draw).is_zero:
                return draw
        raise AssertionError("random scalar degenerated 64 times in a row")

    def decompose(self, columns: OpMatrix) -> _Split:
        """Split every column of C: beta = P C, lambda = R C, sigma = L times
        the remainder C - W [beta; lambda; 0]; a column is exact when
        C - W [beta; lambda; sigma] is zero there."""
        beta = self.projector.compose(columns)
        lam = self.mode_rows.compose(columns)
        unflat = OpMatrix.stack([beta, lam, OpMatrix(self.flat_count, columns.ncols)])
        remainder = columns - self.pieces.compose(unflat)
        coefficients = OpMatrix.stack([beta, lam, self.flat_inverse.compose(remainder)])
        residual = columns - self.pieces.compose(coefficients)
        return _Split(coefficients, remainder, residual,
                      self.divergence.compose(columns).zero_columns(), residual.zero_columns())

    def mode_traces_exact(self) -> bool:
        """T W equals the unit targets on every mode column."""
        off = self.trace.compose(self.pieces) - self.mode_targets
        first = self.bubble_count
        return bool(off.zero_columns()[first:first + self.mode_count].all())


@lru_cache(maxsize=None)
def _decomposition_tables(family: str, k: int) -> _DecompositionTables:
    return _DecompositionTables(family, k)


@lru_cache(maxsize=None)
def edge_modes(family: str, k: int) -> tuple[tuple[int, int, VecPoly], ...]:
    """One mode per (edge, Legendre order 1..k): a divergence-free member
    whose boundary coefficients hit exactly that unit target, minus its
    bubble projection.  Triples are (edge index, Legendre order, field)."""
    tables = _decomposition_tables(family, k)
    columns = tables.pieces.columns()[tables.bubble_count:]
    return tuple((e, i, _combine(tables.basis.elements, v))
                 for (e, i), v in zip(tables.labels, columns))


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

    The input is a batch of one for the decomposition tables.  The mode
    coefficients are read directly off the input's trace Legendre
    coefficients, so an exact split certifies that those functionals,
    together with the bubble and flat pieces, control the whole field.
    """
    tables = _decomposition_tables(family, k)
    basis = tables.basis
    # membership check; SpanError if outside
    split = tables.decompose(OpMatrix.from_columns(basis.dim, [basis.expand(u)]))
    if not split.divfree[0]:
        raise ValueError("input field is not divergence-free")
    coeffs = split.coefficients.column(0)
    nb, nm = tables.bubble_count, tables.mode_count
    bubble = _combine(tables.bubbles.elements, coeffs[:nb]) if nb else VecPoly.zero()
    modes = [EdgeMode(e, i, lam, elem)
             for (e, i, elem), lam in zip(edge_modes(family, k), coeffs[nb:nb + nm])]
    if not split.exact[0]:
        return DivFreeDecomposition(family, k, u, bubble, modes, VecPoly.zero(), [], False,
                                    _combine(basis.elements, split.remainder.column(0)))
    sigma = coeffs[nb + nm:]
    return DivFreeDecomposition(family, k, u, bubble, modes, _combine(tables.flats, sigma), sigma,
                                True, _combine(basis.elements, split.residual.column(0)))


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
    the decomposition unique.

    The rank of the pieces W is exact (``prefix_ranks`` with the piece
    count as its proven upper bound).  They span the divergence-free
    subspace when D W = 0 exactly and that rank equals its dimension."""
    tables = _decomposition_tables(family, k)
    pieces = tables.pieces
    [rank] = prefix_ranks([pieces.transpose()], [pieces.ncols])
    divfree_dim = len(divfree_coefficients(family, k))
    return UniquenessProbe(
        family,
        k,
        tables.bubble_count,
        tables.flat_count,
        tables.mode_count,
        rank,
        divfree_dim,
        rank == pieces.ncols,
        rank == divfree_dim and tables.divergence.compose(pieces).is_zero,
    )


def random_divfree(family: str, k: int, rng: random.Random) -> VecPoly:
    """Rotated gradient of a random rational scalar of degree k+1: one
    ``_DecompositionTables.sample`` of the decomposable family on the
    family's cell, so the field depends on the cell only.

    For the decomposable families this construction reaches every
    divergence-free member: the rotated-gradient image has the same dimension
    as the divergence-free subspace.
    """
    tables = _decomposition_tables(_CELL_FAMILY[family_ref(family)], k)
    return _combine(tables.basis.elements, tables.sample(rng, 1).column(0))


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
    family = _CELL_FAMILY[ref]
    rep = Report("reference-cell checks",
                 params={"cell": ref.value, "k": k, "family": family,
                         "samples": samples, "seed": seed})

    bcm = boundary_curl_map(ref, k)
    rep.check("boundary_map_rank", 3 * k + 2 if tri else 4 * k + 3, bcm.rank)
    rep.check("boundary_map_kernel_dim",
              1 + k * (k - 1) // 2 if tri else 1 + k * k,
              bcm.scalar.dim - bcm.rank)
    rep.check("range_plus_constants_fills_boundary", bcm.boundary_dim, bcm.rank + 1)
    rep.check("range_orthogonal_to_constants", True, bcm.range_orthogonal_to_constants())

    bubbles = bubble_basis(family, k)
    rep.check("bubble_dim", k * (k - 1) // 2 if tri else k * k, bubbles.dim)

    probe = uniqueness_probe(family, k)
    rep.check("divfree_dim", (k + 1) * (k + 4) // 2 if tri else (k + 1) * (k + 3),
              probe.divfree_dim)
    rep.check("pieces_independent", True, probe.independent)
    rep.check("pieces_span_divfree", True, probe.spans_divfree)

    tables = _decomposition_tables(family, k)
    rep.check("edge_mode_traces_exact", True, tables.mode_traces_exact())

    split = tables.decompose(tables.sample(random.Random(seed), samples))
    rep.check("random_decompositions_exact", samples, int((split.divfree & split.exact).sum()))
    return rep.finish()
