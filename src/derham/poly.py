"""Exact rational polynomial algebra on reference cells.

Bivariate polynomials with ``fractions.Fraction`` coefficients, their
restrictions to straight segments (univariate ``EdgePoly``), affine maps
between cells, and exact integration over the two reference cells (the unit
triangle ``conv{(0,0),(1,0),(0,1)}`` and the unit square ``[0,1]^2``).

Face traces go through one kernel, ``trace_legendre``: a cached table per
oriented reference edge maps each monomial to the shifted-Legendre
coefficients of its restriction, so a trace is a sum of table rows scaled by
the field's coefficients, with no polynomial products per call.

Everything here stays in exact arithmetic; no floats enter at any point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Poly",
    "VecPoly",
    "EdgePoly",
    "AffineMap",
    "RefCell",
    "RefEdge",
    "grad",
    "grad_perp",
    "divergence",
    "curl2d",
    "legendre_basis",
    "restrict_to_segment",
    "TraceDegreeError",
    "trace_legendre",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

IDENTITY2 = ((_ONE, _ZERO), (_ZERO, _ONE))


def _rat(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class Poly:
    """Bivariate polynomial ``sum c[a,b] * x^a * y^b`` over the rationals.

    Immutable; zero coefficients are dropped so equality of the coefficient
    maps is equality of polynomials.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction | int] | None = None):
        c: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for ab, v in coeffs.items():
                v = _rat(v)
                if v:
                    c[ab] = v
        self.c = c

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(v) -> "Poly":
        return Poly({(0, 0): _rat(v)})

    @staticmethod
    def monomial(a: int, b: int, coeff=1) -> "Poly":
        return Poly({(a, b): _rat(coeff)})

    def coeff(self, a: int, b: int) -> Fraction:
        return self.c.get((a, b), _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.c

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self.c.items())

    def __add__(self, other: "Poly") -> "Poly":
        c = dict(self.c)
        for ab, v in other.c.items():
            w = c.get(ab, _ZERO) + v
            if w:
                c[ab] = w
            else:
                c.pop(ab, None)
        out = Poly.__new__(Poly)
        out.c = c
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.c = {ab: -v for ab, v in self.c.items()}
        return out

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            c: dict[tuple[int, int], Fraction] = {}
            for (a1, b1), v1 in self.c.items():
                for (a2, b2), v2 in other.c.items():
                    ab = (a1 + a2, b1 + b2)
                    w = c.get(ab, _ZERO) + v1 * v2
                    if w:
                        c[ab] = w
                    else:
                        c.pop(ab, None)
            out = Poly.__new__(Poly)
            out.c = c
            return out
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "Poly":
        s = _rat(s)
        if not s:
            return Poly()
        out = Poly.__new__(Poly)
        out.c = {ab: v * s for ab, v in self.c.items()}
        return out

    def diff(self, var: int) -> "Poly":
        """Partial derivative; var 0 is x, var 1 is y."""
        c: dict[tuple[int, int], Fraction] = {}
        for (a, b), v in self.c.items():
            if var == 0 and a > 0:
                c[(a - 1, b)] = v * a
            elif var == 1 and b > 0:
                c[(a, b - 1)] = v * b
        out = Poly.__new__(Poly)
        out.c = c
        return out

    def eval(self, x, y) -> Fraction:
        x = _rat(x)
        y = _rat(y)
        total = _ZERO
        for (a, b), v in self.c.items():
            total += v * x**a * y**b
        return total

    def compose(self, fmap: "AffineMap") -> "Poly":
        """Return ``self(F(u, v))`` as a polynomial in the map inputs."""
        fx = Poly({(0, 0): fmap.o[0], (1, 0): fmap.m[0][0], (0, 1): fmap.m[0][1]})
        fy = Poly({(0, 0): fmap.o[1], (1, 0): fmap.m[1][0], (0, 1): fmap.m[1][1]})
        return _substitute(self, fx, fy, Poly.const(1), Poly())

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self) -> str:
        if not self.c:
            return "Poly(0)"
        parts = []
        for (a, b), v in sorted(self.c.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1], kv[0][0])):
            parts.append(f"{v}*x^{a}*y^{b}")
        return "Poly(" + " + ".join(parts) + ")"


class VecPoly:
    """Vector field with two ``Poly`` components (physical x/y components)."""

    __slots__ = ("x", "y")

    def __init__(self, x: Poly, y: Poly):
        self.x = x
        self.y = y

    @staticmethod
    def zero() -> "VecPoly":
        return VecPoly(Poly(), Poly())

    @staticmethod
    def constant(cx, cy) -> "VecPoly":
        return VecPoly(Poly.const(cx), Poly.const(cy))

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.y.is_zero

    def __add__(self, other: "VecPoly") -> "VecPoly":
        return VecPoly(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "VecPoly") -> "VecPoly":
        return VecPoly(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "VecPoly":
        return VecPoly(-self.x, -self.y)

    def scale(self, s) -> "VecPoly":
        return VecPoly(self.x.scale(s), self.y.scale(s))

    __mul__ = scale
    __rmul__ = scale

    def dot(self, v: tuple) -> Poly:
        """Dot with a constant rational vector."""
        return self.x.scale(v[0]) + self.y.scale(v[1])

    def rot90(self) -> "VecPoly":
        """Rotate the field by +90 degrees: (x, y) -> (-y, x)."""
        return VecPoly(-self.y, self.x)

    def compose(self, fmap: "AffineMap") -> "VecPoly":
        return VecPoly(self.x.compose(fmap), self.y.compose(fmap))

    def eval(self, x, y) -> tuple[Fraction, Fraction]:
        return self.x.eval(x, y), self.y.eval(x, y)

    def __eq__(self, other) -> bool:
        return isinstance(other, VecPoly) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"VecPoly({self.x!r}, {self.y!r})"


class EdgePoly:
    """Univariate polynomial in the segment parameter t, exact coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable = ()):
        c = [_rat(v) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = c

    @property
    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return len(self.c) - 1

    def coeff(self, i: int) -> Fraction:
        return self.c[i] if i < len(self.c) else _ZERO

    def __add__(self, other: "EdgePoly") -> "EdgePoly":
        n = max(len(self.c), len(other.c))
        return EdgePoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "EdgePoly") -> "EdgePoly":
        n = max(len(self.c), len(other.c))
        return EdgePoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "EdgePoly":
        return EdgePoly([-v for v in self.c])

    def __mul__(self, other) -> "EdgePoly":
        if isinstance(other, EdgePoly):
            if not self.c or not other.c:
                return EdgePoly()
            out = [_ZERO] * (len(self.c) + len(other.c) - 1)
            for i, a in enumerate(self.c):
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
            return EdgePoly(out)
        s = _rat(other)
        return EdgePoly([v * s for v in self.c])

    __rmul__ = __mul__

    def integrate01(self) -> Fraction:
        """Exact integral over t in [0, 1]."""
        return sum((v / (i + 1) for i, v in enumerate(self.c)), _ZERO)

    def eval(self, t) -> Fraction:
        t = _rat(t)
        total = _ZERO
        for v in reversed(self.c):
            total = total * t + v
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgePoly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(self.c))

    def __repr__(self) -> str:
        return f"EdgePoly({self.c!r})"


@dataclass(frozen=True)
class AffineMap:
    """Affine map F(u) = o + m @ u with exact rational entries."""

    m: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    o: tuple[Fraction, Fraction]

    @staticmethod
    def make(m, o) -> "AffineMap":
        mm = tuple(tuple(_rat(v) for v in row) for row in m)
        oo = tuple(_rat(v) for v in o)
        return AffineMap(mm, oo)  # type: ignore[arg-type]

    def det(self) -> Fraction:
        return self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]

    def apply(self, pt) -> tuple[Fraction, Fraction]:
        u, v = _rat(pt[0]), _rat(pt[1])
        return (
            self.o[0] + self.m[0][0] * u + self.m[0][1] * v,
            self.o[1] + self.m[1][0] * u + self.m[1][1] * v,
        )

    def apply_vector(self, vec) -> tuple[Fraction, Fraction]:
        u, v = _rat(vec[0]), _rat(vec[1])
        return (self.m[0][0] * u + self.m[0][1] * v, self.m[1][0] * u + self.m[1][1] * v)

    def inverse(self) -> "AffineMap":
        d = self.det()
        if not d:
            raise ZeroDivisionError("singular affine map")
        mi = (
            (self.m[1][1] / d, -self.m[0][1] / d),
            (-self.m[1][0] / d, self.m[0][0] / d),
        )
        oi = (
            -(mi[0][0] * self.o[0] + mi[0][1] * self.o[1]),
            -(mi[1][0] * self.o[0] + mi[1][1] * self.o[1]),
        )
        return AffineMap(mi, oi)

    def m_inverse(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return self.inverse().m


def grad(p: Poly, m_inv=IDENTITY2) -> VecPoly:
    """Physical gradient of the function whose pullback is ``p``.

    ``m_inv`` is the inverse of the cell map's linear part; chain rule
    d/dx_i = sum_j m_inv[j][i] d/du_j.  Defaults to the identity, i.e.
    reference coordinates are physical coordinates.
    """
    du = p.diff(0)
    dv = p.diff(1)
    gx = du.scale(m_inv[0][0]) + dv.scale(m_inv[1][0])
    gy = du.scale(m_inv[0][1]) + dv.scale(m_inv[1][1])
    return VecPoly(gx, gy)


def grad_perp(p: Poly, m_inv=IDENTITY2) -> VecPoly:
    """Rotated gradient (-d/dy, d/dx), the scalar-to-vector curl."""
    return grad(p, m_inv).rot90()


def divergence(u: VecPoly, m_inv=IDENTITY2) -> Poly:
    gx = u.x.diff(0).scale(m_inv[0][0]) + u.x.diff(1).scale(m_inv[1][0])
    gy = u.y.diff(0).scale(m_inv[0][1]) + u.y.diff(1).scale(m_inv[1][1])
    return gx + gy


def curl2d(u: VecPoly, m_inv=IDENTITY2) -> Poly:
    """Scalar curl d(u_y)/dx - d(u_x)/dy."""
    dyx = u.y.diff(0).scale(m_inv[0][0]) + u.y.diff(1).scale(m_inv[1][0])
    dxy = u.x.diff(0).scale(m_inv[0][1]) + u.x.diff(1).scale(m_inv[1][1])
    return dyx - dxy


def _substitute(p: Poly, px, py, one, zero):
    """``p(px, py)`` for polynomials px, py of one kind (``Poly`` or
    ``EdgePoly``) with unit ``one`` and zero ``zero``; each power is formed once."""
    xs, ys = [one], [one]
    out = zero
    for (a, b), v in p.terms():
        while len(xs) <= a:
            xs.append(xs[-1] * px)
        while len(ys) <= b:
            ys.append(ys[-1] * py)
        out = out + xs[a] * ys[b] * v
    return out


def restrict_to_segment(p: Poly, start, direction) -> EdgePoly:
    """Restrict ``p`` to t -> start + t * direction, all exact."""
    xt = EdgePoly([start[0], direction[0]])
    yt = EdgePoly([start[1], direction[1]])
    return _substitute(p, xt, yt, EdgePoly([1]), EdgePoly())


@dataclass(frozen=True)
class RefEdge:
    """Oriented straight edge of a reference cell.

    ``outward`` is the unnormalized outward normal (direction rotated by
    -90 degrees), whose length equals the edge length, so that
    ``integral_edge u . n ds == integral_0^1 u(x(t)) . outward dt`` exactly.
    """

    start: tuple[Fraction, Fraction]
    end: tuple[Fraction, Fraction]

    @property
    def direction(self) -> tuple[Fraction, Fraction]:
        return (self.end[0] - self.start[0], self.end[1] - self.start[1])

    @property
    def outward(self) -> tuple[Fraction, Fraction]:
        d = self.direction
        return (d[1], -d[0])

    def normal_trace(self, u: VecPoly) -> EdgePoly:
        return restrict_to_segment(u.dot(self.outward), self.start, self.direction)


def _pt(a, b) -> tuple[Fraction, Fraction]:
    return (_rat(a), _rat(b))


class RefCell(Enum):
    """The two reference cells, with exact moments and oriented edges."""

    TRIANGLE = "triangle"
    SQUARE = "square"

    @property
    def edges(self) -> tuple[RefEdge, ...]:
        return _ref_edges(self)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def moment(self, a: int, b: int) -> Fraction:
        return _moment(self, a, b)

    def integrate(self, p: Poly) -> Fraction:
        """Exact integral of ``p`` over the reference cell."""
        total = _ZERO
        for (a, b), v in p.terms():
            total += v * self.moment(a, b)
        return total


@lru_cache(maxsize=None)
def _ref_edges(cell: RefCell) -> tuple[RefEdge, ...]:
    if cell is RefCell.TRIANGLE:
        verts = [_pt(0, 0), _pt(1, 0), _pt(0, 1)]
    else:
        verts = [_pt(0, 0), _pt(1, 0), _pt(1, 1), _pt(0, 1)]
    n = len(verts)
    return tuple(RefEdge(verts[i], verts[(i + 1) % n]) for i in range(n))


@lru_cache(maxsize=None)
def _moment(cell: RefCell, a: int, b: int) -> Fraction:
    if cell is RefCell.SQUARE:
        return Fraction(1, (a + 1) * (b + 1))
    # unit triangle: iterate y over [0, 1-x], then x over [0, 1];
    # the inner integral gives (1-x)^(b+1)/(b+1), expanded binomially
    from math import comb

    total = _ZERO
    for m in range(b + 2):
        total += Fraction((-1) ** m * comb(b + 1, m), a + m + 1)
    return total / (b + 1)


@lru_cache(maxsize=None)
def _legendre(n: int) -> EdgePoly:
    # shifted Legendre on [0,1]; recurrence keeps everything rational and
    # gives integral_0^1 L_n^2 dt = 1/(2n+1)
    if n == 0:
        return EdgePoly([1])
    if n == 1:
        return EdgePoly([-1, 2])
    s = EdgePoly([-1, 2])
    prev, cur = _legendre(n - 2), _legendre(n - 1)
    return (s * cur * (2 * n - 1) - prev * (n - 1)) * Fraction(1, n)


def legendre_basis(k: int) -> list[EdgePoly]:
    """Shifted Legendre polynomials L_0..L_k on [0,1]."""
    return [_legendre(i) for i in range(k + 1)]


@lru_cache(maxsize=None)
def _power_legendre(j: int) -> tuple[Fraction, ...]:
    """Shifted-Legendre coefficients 0..j of t^j on [0, 1]: entry i is
    (2i+1) * integral_0^1 t^j L_i(t) dt."""
    return tuple((2 * i + 1) * sum((c / (m + j + 1) for m, c in enumerate(_legendre(i).c)), _ZERO)
                 for i in range(j + 1))


class _TraceTable(dict):
    """Monomial ``(a, b)`` -> shifted-Legendre coefficients 0..a+b of
    ``x^a y^b`` restricted to one oriented reference edge; a row is formed
    on first use."""

    def __init__(self, start, direction):
        super().__init__()
        self.start = start
        self.direction = direction

    def __missing__(self, ab: tuple[int, int]) -> tuple[Fraction, ...]:
        powers = restrict_to_segment(Poly.monomial(*ab), self.start, self.direction)
        row = [_ZERO] * (ab[0] + ab[1] + 1)
        for j, pj in enumerate(powers.c):
            if pj:
                for i, v in enumerate(_power_legendre(j)):
                    row[i] += pj * v
        self[ab] = out = tuple(row)
        return out


@lru_cache(maxsize=None)
def _trace_table(ref: RefCell, edge: int, along: bool) -> _TraceTable:
    e = ref.edges[edge]
    if along:
        return _TraceTable(e.start, e.direction)
    return _TraceTable(e.end, (-e.direction[0], -e.direction[1]))


class TraceDegreeError(ValueError):
    """A face trace has a higher degree than the coefficients asked for."""

    def __init__(self, degree: int, k: int):
        super().__init__(f"trace has degree {degree} > {k}")
        self.degree = degree


def trace_legendre(u: VecPoly, ref: RefCell, edge: int, along: bool, vec, k: int) -> list[Fraction]:
    """Shifted-Legendre coefficients 0..k of the trace ``u . vec`` on edge
    ``edge`` of ``ref``, traversed start -> end when ``along`` and end ->
    start otherwise, for a constant vector ``vec`` (a face normal or
    tangent), all exact.  Raises ``TraceDegreeError`` naming the trace's
    degree, its last nonzero Legendre index, when that exceeds k."""
    table = _trace_table(ref, edge, along)
    acc = [_ZERO] * (k + 1)
    for part, w in ((u.x, vec[0]), (u.y, vec[1])):
        if not w:
            continue
        for ab, c in part.c.items():
            s = c * w
            row = table[ab]
            if len(row) > len(acc):
                acc.extend([_ZERO] * (len(row) - len(acc)))
            for i, v in enumerate(row):
                if v:
                    acc[i] += s * v
    for degree in range(len(acc) - 1, k, -1):
        if acc[degree]:
            raise TraceDegreeError(degree, k)
    return acc[:k + 1]
