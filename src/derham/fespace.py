"""Discrete function spaces on periodic meshes.

Every space stores, per cell, its basis as pullbacks to the reference cell
(plain composition with the inverse chart map; components are physical).
Scalar and vector monomial families keep the same span under the structured
chart maps; the exceptions are handled explicitly:

* the enriched quad families' spanning vector pulls back to
  ``(-hx * x^(k+1) y^k, hy * x^k y^(k+1))`` on a cell of size hx x hy;
* intrinsic triangle RT/Nedelec bases pull back to
  ``P_k^2 + (M x_hat) * homogeneous_k`` with M the chart's linear part
  (for Nedelec, M rotated by +90 degrees), which keeps normal respectively
  tangential face traces at degree <= k on sheared cells;
* ``flat_quad`` (k = 0 only, in no diagram) is the appendix's three fields
  (1,0), (0,1) and (1-2x, 2y-1) in reference coordinates on every chart.

Local bases verify their own linear independence and cardinality against the
per-cell dimension formulas on construction.  DOF layouts are deterministic:
discontinuous spaces are cell-blocked in mesh order with graded-lex local
ordering, codomain spaces put all cell blocks before all face blocks, and
continuous scalar spaces number Lagrange nodes in first-encounter order,
identifying nodes by the mesh incidence (vertex point; face and position
along it; cell and interior node), never by their coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .exactla import ExactSolveError, LinearExpander
from .exactla import solve_square  # unused; perfbench/tracing.py rebinds it here
from .mesh import Cell, Mesh, MeshKind
from .poly import IDENTITY2, Poly, RefCell, VecPoly
from .sparse import OpMatrix, Stamp

__all__ = [
    "SpanError",
    "LocalBasis",
    "scalar_local_basis",
    "make_vector_basis",
    "lagrange_basis",
    "local_dim",
    "VECTOR_FAMILIES",
    "SCALAR_FAMILIES",
    "DGVectorSpace",
    "ContinuousScalarSpace",
    "CodomainSpace",
    "audit_dimensions",
    "dimension_formula",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

VECTOR_FAMILIES = {
    "vec_p": MeshKind.TRIANGULAR,      # discontinuous P_k^2
    "vec_q": MeshKind.CARTESIAN,       # discontinuous Q_k^2 (the naive choice)
    "vec_qdiv": MeshKind.CARTESIAN,    # enriched quad family with degree-k normal traces
    "vec_qcurl": MeshKind.CARTESIAN,   # its +90 degree rotation
    "rt_tri": MeshKind.TRIANGULAR,
    "ned_tri": MeshKind.TRIANGULAR,
    "rt_quad": MeshKind.CARTESIAN,
    "ned_quad": MeshKind.CARTESIAN,
    "flat_quad": MeshKind.CARTESIAN,   # the appendix's three fields, k = 0 only
}

SCALAR_FAMILIES = ("p", "q", "qhat")


class SpanError(ValueError):
    """A polynomial fell outside the span it was required to lie in."""


def _graded(monos: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted(set(monos), key=lambda ab: (ab[0] + ab[1], ab[1], ab[0]))


def p_monomials(d: int) -> list[tuple[int, int]]:
    return _graded((a, b) for a in range(d + 1) for b in range(d + 1 - a))


def q_monomials(dx: int, dy: int) -> list[tuple[int, int]]:
    if dx < 0 or dy < 0:
        return []
    return _graded((a, b) for a in range(dx + 1) for b in range(dy + 1))


def homogeneous_monomials(d: int) -> list[tuple[int, int]]:
    return [(d - b, b) for b in range(d + 1)]


def local_dim(family: str, k: int) -> int:
    """Per-cell dimension of a vector family at level k."""
    if family == "flat_quad" and k:
        raise ValueError("flat_quad exists at k = 0 only")
    return {
        "vec_p": (k + 1) * (k + 2),
        "vec_q": 2 * (k + 1) ** 2,
        "vec_qdiv": 2 * (k + 1) ** 2 + 2 * k + 1,
        "vec_qcurl": 2 * (k + 1) ** 2 + 2 * k + 1,
        "rt_tri": (k + 1) * (k + 3),
        "ned_tri": (k + 1) * (k + 3),
        "rt_quad": 2 * (k + 1) * (k + 2),
        "ned_quad": 2 * (k + 1) * (k + 2),
        "flat_quad": 3,
    }[family]


def _parts(f: Poly | VecPoly) -> tuple[Poly, ...]:
    """The components of a scalar (one) or vector (x and y) polynomial."""
    return (f.x, f.y) if isinstance(f, VecPoly) else (f,)


class LocalBasis:
    """Independent scalar or vector polynomials on a reference cell, with
    exact expansion; vector components are physical.

    A polynomial is encoded component by component over the graded
    monomials that the basis uses in that component.
    """

    def __init__(self, ref: RefCell, elements: Sequence[Poly | VecPoly], tag: str,
                 expected_dim: int | None = None):
        self.ref = ref
        self.tag = tag
        self.elements = list(elements)
        if expected_dim is not None and len(self.elements) != expected_dim:
            raise AssertionError(f"{tag}: cardinality {len(self.elements)} != formula {expected_dim}")
        vector = any(isinstance(f, VecPoly) for f in self.elements)
        self._names = ("x-monomial", "y-monomial") if vector else ("monomial",)
        self._index: list[dict[tuple[int, int], int]] = []  # per component: monomial -> row
        self._width = 0
        for comp in range(len(self._names)):
            monos = _graded(ab for f in self.elements for ab, _ in _parts(f)[comp].terms())
            self._index.append({ab: self._width + i for i, ab in enumerate(monos)})
            self._width += len(monos)
        cols = [self.encode(f) for f in self.elements]
        try:
            self.expander = LinearExpander(cols) if cols else None
        except ExactSolveError as exc:
            raise AssertionError(f"dependent local basis for {tag}") from exc
        self._gram: list[list[Fraction]] | None = None

    @property
    def dim(self) -> int:
        return len(self.elements)

    def encode(self, f: Poly | VecPoly) -> list[Fraction]:
        v = [_ZERO] * self._width
        for part, index, name in zip(_parts(f), self._index, self._names):
            for ab, c in part.terms():
                i = index.get(ab)
                if i is None:
                    raise SpanError(f"{name} x^{ab[0]} y^{ab[1]} outside {self.tag}")
                v[i] = c
        return v

    def expand(self, f: Poly | VecPoly) -> list[Fraction]:
        """Coefficients of ``f`` in this basis; SpanError if outside."""
        if f.is_zero:
            return [_ZERO] * self.dim
        if self.expander is None:
            raise SpanError(f"nonzero polynomial in empty space {self.tag}")
        try:
            return self.expander.expand(self.encode(f))
        except ExactSolveError as exc:
            raise SpanError(f"{exc} ({self.tag})") from exc

    def inner(self, f: Poly | VecPoly, g: Poly | VecPoly) -> Fraction:
        """Exact L2 inner product on the reference cell: c d times the
        cell's moment of x^(a1+a2) y^(b1+b2), summed over the term pairs
        of matching components, with no product polynomial."""
        moment = self.ref.moment
        return sum((c * d * moment(a1 + a2, b1 + b2)
                    for p, q in zip(_parts(f), _parts(g))
                    for (a1, b1), c in p.terms() for (a2, b2), d in q.terms()), _ZERO)

    def gram_ref(self) -> list[list[Fraction]]:
        if self._gram is None:
            n = self.dim
            g = [[_ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    g[i][j] = g[j][i] = self.inner(self.elements[i], self.elements[j])
            self._gram = g
        return self._gram


@lru_cache(maxsize=None)
def _constant_stamp(local: LocalBasis, values: tuple) -> Stamp:
    """The stamp of the constants ``values`` in ``local``: entry (i, j) is
    coefficient i of values[j], a number for a scalar basis or a pair
    (cx, cy) for a vector basis; expanded once per process."""
    consts = [VecPoly.constant(*v) if isinstance(v, tuple) else Poly.const(v) for v in values]
    return Stamp.of((i, j, c) for j, f in enumerate(consts) for i, c in enumerate(local.expand(f)))


@lru_cache(maxsize=None)
def scalar_local_basis(ref: RefCell, family: str, param: int) -> LocalBasis:
    """Monomial scalar basis: family "p" (total degree), "q" (per-variable
    degree) or "qhat" (level-k reduced quad space Q_{k,k-1} + Q_{k-1,k})."""
    if family == "p":
        monos = p_monomials(param) if param >= 0 else []
    elif family == "q":
        monos = q_monomials(param, param) if param >= 0 else []
    elif family == "qhat":
        monos = _graded(q_monomials(param, param - 1) + q_monomials(param - 1, param))
    else:
        raise ValueError(f"unknown scalar family {family!r}")
    elems = [Poly.monomial(a, b) for a, b in monos]
    return LocalBasis(ref, elems, f"{family}({param}) on {ref.value}")


def _vec_of(monos, comp: int) -> list[VecPoly]:
    zero = Poly.zero()
    if comp == 0:
        return [VecPoly(Poly.monomial(a, b), zero) for a, b in monos]
    return [VecPoly(zero, Poly.monomial(a, b)) for a, b in monos]


@lru_cache(maxsize=None)
def make_vector_basis(family: str, k: int, ref: RefCell, mlin=IDENTITY2) -> LocalBasis:
    """The pulled-back local basis of a vector family, one per argument tuple.

    ``mlin`` is the cell chart's linear part; the identity gives the space on
    the reference cell itself.
    """
    if k < 0:
        raise ValueError("level k must be >= 0")
    hx, hy = mlin[0][0], mlin[1][1]  # quad charts are diagonal; only they use these
    if family == "vec_p":
        elems = _vec_of(p_monomials(k), 0) + _vec_of(p_monomials(k), 1)
    elif family == "vec_q":
        elems = _vec_of(q_monomials(k, k), 0) + _vec_of(q_monomials(k, k), 1)
    elif family in ("vec_qdiv", "vec_qcurl"):
        if family == "vec_qdiv":
            mx = _graded(q_monomials(k, k) + q_monomials(k + 1, k - 1))
            my = _graded(q_monomials(k, k) + q_monomials(k - 1, k + 1))
            span = VecPoly(Poly.monomial(k + 1, k, -hx), Poly.monomial(k, k + 1, hy))
        else:
            mx = _graded(q_monomials(k, k) + q_monomials(k - 1, k + 1))
            my = _graded(q_monomials(k, k) + q_monomials(k + 1, k - 1))
            span = VecPoly(Poly.monomial(k, k + 1, hy), Poly.monomial(k + 1, k, hx))
        elems = _vec_of(mx, 0) + _vec_of(my, 1) + [span]
    elif family in ("rt_tri", "ned_tri"):
        m = mlin
        if family == "ned_tri":
            m = ((-m[1][0], -m[1][1]), (m[0][0], m[0][1]))  # +90 degree rotation of the columns' image
        wx = Poly({(1, 0): m[0][0], (0, 1): m[0][1]})
        wy = Poly({(1, 0): m[1][0], (0, 1): m[1][1]})
        extras = [VecPoly(wx * Poly.monomial(a, b), wy * Poly.monomial(a, b))
                  for a, b in homogeneous_monomials(k)]
        elems = _vec_of(p_monomials(k), 0) + _vec_of(p_monomials(k), 1) + extras
    elif family == "rt_quad":
        elems = _vec_of(q_monomials(k + 1, k), 0) + _vec_of(q_monomials(k, k + 1), 1)
    elif family == "ned_quad":
        elems = _vec_of(q_monomials(k, k + 1), 0) + _vec_of(q_monomials(k + 1, k), 1)
    elif family == "flat_quad":
        elems = [VecPoly.constant(1, 0), VecPoly.constant(0, 1),
                 VecPoly(Poly({(0, 0): 1, (1, 0): -2}), Poly({(0, 0): -1, (0, 1): 2}))]
    else:
        raise ValueError(f"unknown vector family {family!r}")
    return LocalBasis(ref, elems, f"{family}(k={k})", expected_dim=local_dim(family, k))


def lagrange_nodes(ref: RefCell, degree: int) -> list[tuple[Fraction, Fraction]]:
    d = degree
    if d < 1:
        raise ValueError("continuous spaces need degree >= 1")
    if ref is RefCell.TRIANGLE:
        return [(Fraction(a, d), Fraction(b, d))
                for b in range(d + 1) for a in range(d + 1 - b)]
    return [(Fraction(a, d), Fraction(b, d))
            for b in range(d + 1) for a in range(d + 1)]


@lru_cache(maxsize=None)
def lagrange_basis(ref: RefCell, degree: int) -> tuple[list[tuple[Fraction, Fraction]], LocalBasis]:
    """Nodal (Lagrange) basis on the reference lattice of the given degree."""
    nodes = lagrange_nodes(ref, degree)
    monos = p_monomials(degree) if ref is RefCell.TRIANGLE else q_monomials(degree, degree)
    n = len(nodes)
    if len(monos) != n:
        raise AssertionError("node lattice does not match monomial count")
    expander = LinearExpander([[x ** a * y ** b for x, y in nodes] for a, b in monos])
    coeffs = [expander.expand([_ONE if i == j else _ZERO for i in range(n)]) for j in range(n)]
    elems = [Poly({ab: c for ab, c in zip(monos, col) if c}) for col in coeffs]
    return nodes, LocalBasis(ref, elems, f"lagrange({degree}) on {ref.value}")


def _labels(mesh: Mesh, orbits: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Translation labels (orbit, i, j), one row per dof: its orbit and its
    grid square (i, j), numbered j nx + i; read only."""
    j, i = np.divmod(squares, mesh.nx)
    out = np.stack((orbits, i, j), axis=1)
    out.flags.writeable = False
    return out


def _cell_labels(mesh: Mesh, size: int) -> np.ndarray:
    """The translation labels of dofs blocked ``size`` per cell in cell
    order: cell (j nx + i) charts + chart holds orbits chart size + l."""
    dof = np.arange(mesh.num_cells * size)
    square, chart = np.divmod(dof // size, len(mesh.charts))
    return _labels(mesh, chart * size + dof % size, square)


class DGVectorSpace:
    """Discontinuous vector space: one local basis block per cell."""

    def __init__(self, mesh: Mesh, family: str, k: int):
        want = VECTOR_FAMILIES.get(family)
        if want is None:
            raise ValueError(f"unknown vector family {family!r}")
        if mesh.kind is not want:
            raise ValueError(f"family {family!r} lives on {want.value} meshes")
        self.mesh = mesh
        self.family = family
        self.k = k
        self.local_dim = local_dim(family, k)
        self.dim = self.local_dim * mesh.num_cells

    def local(self, cell: Cell) -> LocalBasis:
        return make_vector_basis(self.family, self.k, cell.ref, cell.fmap.m)

    def offset(self, cell_index: int) -> int:
        return cell_index * self.local_dim

    @cached_property
    def translations(self) -> np.ndarray:
        """Per dof, its translation label (orbit, i, j): the cell's grid
        square (i, j), and chart times local_dim plus the local index."""
        return _cell_labels(self.mesh, self.local_dim)

    def constant_stamps(self, *values) -> list[Stamp]:
        """Per chart id, the stamp of the constant fields ``values``, each a
        pair (cx, cy), in the chart's local basis (``_constant_stamp``)."""
        return [_constant_stamp(self.local(self.mesh.cell(cells[0])), values)
                for cells in self.mesh.chart_cells]

    def constant_columns(self, *values) -> OpMatrix:
        """The constant fields ``values``, each a pair (cx, cy), as the
        columns of one matrix: each chart's stamp placed at its cells."""
        span = np.arange(len(values))
        return OpMatrix.from_stamps(
            self.dim, len(values),
            ((stamp, self.offset(cells), np.broadcast_to(span, (cells.size, span.size)))
             for stamp, cells in zip(self.constant_stamps(*values), self.mesh.chart_cells)))

    def constant_vector(self, cx, cy) -> list[Fraction]:
        """Global coefficient vector of the constant field (cx, cy)."""
        return self.constant_columns((cx, cy)).column(0)

    def descriptor(self) -> dict:
        return {
            "schema": 1,
            "space": "dg_vector",
            "family": self.family,
            "k": self.k,
            "mesh": self.mesh.summary(),
            "dim": self.dim,
            "local_dim": self.local_dim,
        }


@lru_cache(maxsize=None)
def _node_places(ref: RefCell, degree: int) -> tuple[tuple[str, int, int], ...]:
    """Where each node of ``lagrange_nodes(ref, degree)`` sits:
    ``("vertex", e, 0)`` at the start of edge e, ``("edge", e, a)`` a/degree
    of the way along edge e, or ``("interior", 0, 0)``."""
    places = []
    for node in lagrange_nodes(ref, degree):
        place = ("interior", 0, 0)
        for e, edge in enumerate(ref.edges):
            d = edge.direction
            r = (node[0] - edge.start[0], node[1] - edge.start[1])
            t = (r[0] * d[0] + r[1] * d[1]) / (d[0] * d[0] + d[1] * d[1])
            if 0 <= t < 1 and r == (t * d[0], t * d[1]):
                place = ("vertex" if t == 0 else "edge", e, int(t * degree))
                break
        places.append(place)
    return tuple(places)


class ContinuousScalarSpace:
    """Periodic continuous Lagrange space (P_d on triangles, Q_d on quads).

    A node's key is its vertex point, its face and position along the face's
    P->Q, or its cell and node index, so two nodes share a dof exactly when
    they are the same point of the torus.
    """

    def __init__(self, mesh: Mesh, degree: int):
        self.mesh = mesh
        self.degree = degree
        self.ref = mesh.ref
        self.nodes, self.local = lagrange_basis(mesh.ref, degree)
        where, edge, at = (np.array(column) for column in zip(*_node_places(mesh.ref, degree)))
        # one integer key per node: its vertex point; past the points, degree
        # keys per face, one per position along the face's P->Q; past the
        # faces, one per cell and node
        nodes = where.size
        faces_at = mesh.num_points
        cells_at = faces_at + degree * mesh.num_faces
        on_face = faces_at + degree * mesh.cell_faces[:, edge] + np.where(
            mesh.cell_along[:, edge], at, degree - at)
        inside = cells_at + nodes * np.arange(mesh.num_cells)[:, None] + np.arange(nodes)
        keys = np.where(where == "vertex", mesh.cell_vertices[:, edge],
                        np.where(where == "edge", on_face, inside))
        # number the keys in first-seen order, cell by cell
        seen = keys.size
        first = np.full(cells_at + nodes * mesh.num_cells, seen)
        np.minimum.at(first, keys.ravel(), np.arange(seen))  # each key's first position
        used = (first < seen).nonzero()[0]
        number = np.empty(first.size, dtype=np.int64)
        self._keys = used[first[used].argsort()]  # the key of each dof
        number[self._keys] = np.arange(used.size)
        self.dofs = number[keys]
        self.dofs.flags.writeable = False
        ordered = np.sort(self.dofs, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise AssertionError("periodic identification collapsed nodes inside one cell")
        self.dim = used.size

    @cached_property
    def cell_dofs(self) -> list[list[int]]:
        """``dofs`` as lists, one per cell."""
        return self.dofs.tolist()

    @cached_property
    def translations(self) -> np.ndarray:
        """Per dof, its translation label (orbit, i, j), read from its key:
        a vertex is orbit 0 at its point; a face node is orbit 1 + kind
        degree + position at the face's square; an interior node is orbit
        1 + kinds degree + chart nodes + node at its cell's square."""
        mesh, degree = self.mesh, self.degree
        squares = mesh.nx * mesh.ny
        kinds = mesh.num_faces // squares
        nodes = len(self.nodes)
        keys = self._keys
        face, position = np.divmod(keys - mesh.num_points, degree)
        cell, node = np.divmod(keys - mesh.num_points - degree * mesh.num_faces, nodes)
        cell_square, chart = np.divmod(cell, len(mesh.charts))
        where = np.select([keys < mesh.num_points, face < mesh.num_faces], [0, 1], 2)
        orbits = np.choose(where, (0, 1 + face // squares * degree + position,
                                   1 + kinds * degree + chart * nodes + node))
        return _labels(mesh, orbits, np.choose(where, (keys, face % squares, cell_square)))

    def shape_functions(self, cell: Cell) -> list[tuple[int, Poly]]:
        return list(zip(self.dofs[cell.index].tolist(), self.local.elements))

    def constant_vector(self, value=1) -> list[Fraction]:
        return [Fraction(value)] * self.dim

    def descriptor(self) -> dict:
        return {
            "schema": 1,
            "space": "continuous_scalar",
            "degree": self.degree,
            "mesh": self.mesh.summary(),
            "dim": self.dim,
        }


class CodomainSpace:
    """Product target space: scalar polynomials per cell and per face.

    Layout: all cell blocks first (mesh order), then all face blocks (mesh
    order, shifted Legendre coefficients 0..face_degree).  Face components are
    polynomials in the face's chord parameter t; paired with jumps taken
    against the unnormalized face normal this realizes the true arc-length
    pairing exactly.
    """

    def __init__(self, mesh: Mesh, face_degree: int, cell_family: str | None, cell_param: int):
        self.mesh = mesh
        self.face_degree = face_degree
        self.cell_family = cell_family
        self.cell_param = cell_param
        if cell_family is None or (cell_family in ("p", "q") and cell_param < 0):
            self.cell_local = None
            self.cell_dim = 0
        else:
            self.cell_local = scalar_local_basis(mesh.ref, cell_family, cell_param)
            self.cell_dim = self.cell_local.dim
        self.face_dim = face_degree + 1
        self._face_base = self.cell_dim * mesh.num_cells
        self.dim = self._face_base + self.face_dim * mesh.num_faces

    def cell_offset(self, cell_index: int) -> int:
        return cell_index * self.cell_dim

    def face_offset(self, face_index: int) -> int:
        return self._face_base + face_index * self.face_dim

    @cached_property
    def translations(self) -> np.ndarray:
        """Per dof, its translation label (orbit, i, j): cell dofs as in
        ``DGVectorSpace``; face dof l of face kind f nx ny + j nx + i is
        orbit charts cell_dim + kind face_dim + l at (i, j)."""
        mesh = self.mesh
        squares = mesh.nx * mesh.ny
        face, mode = np.divmod(np.arange(mesh.num_faces * self.face_dim), self.face_dim)
        kind, square = np.divmod(face, squares)
        faces = _labels(mesh, len(mesh.charts) * self.cell_dim + kind * self.face_dim + mode,
                        square)
        out = np.concatenate((_cell_labels(mesh, self.cell_dim), faces))
        out.flags.writeable = False
        return out

    def uniform_column(self, value=1) -> OpMatrix:
        """The element equal to ``value`` on every cell and every face, as
        one column: the cell factor's constant stamp at every cell, and
        ``value`` on each face's Legendre L_0 = 1."""
        value = Fraction(value)
        cells, faces = np.arange(self.mesh.num_cells), np.arange(self.mesh.num_faces)
        placed = [(Stamp.of([(0, 0, value)]), self.face_offset(faces),
                   np.zeros((faces.size, 1), dtype=np.int64))]
        if self.cell_dim:
            placed.append((_constant_stamp(self.cell_local, (value,)), self.cell_offset(cells),
                           np.zeros((cells.size, 1), dtype=np.int64)))
        return OpMatrix.from_stamps(self.dim, 1, placed)

    def uniform_vector(self, value=1) -> list[Fraction]:
        """The element equal to ``value`` on every cell and every face."""
        return self.uniform_column(value).column(0)

    def descriptor(self) -> dict:
        return {
            "schema": 1,
            "space": "codomain",
            "face_degree": self.face_degree,
            "cell_family": self.cell_family,
            "cell_param": self.cell_param,
            "mesh": self.mesh.summary(),
            "dim": self.dim,
            "cell_dim": self.cell_dim,
            "face_dim": self.face_dim,
        }


def dimension_formula(kind: MeshKind, name: str, k: int, n: int) -> int:
    """Closed-form global dimensions used by the audit."""
    if kind is MeshKind.TRIANGULAR:
        table = {
            "scalar_continuous": n * (k + 1) ** 2 // 2,
            "vec_p": n * (k + 1) * (k + 2),
            "rt_tri": n * (k + 1) * (k + 3),
            "ned_tri": n * (k + 1) * (k + 3),
            "codomain_low": n * (k + 1) * (k + 3) // 2,
            "codomain_full": n * (k + 1) * (k + 5) // 2,
        }
    else:
        table = {
            "scalar_continuous": n * (k + 1) ** 2,
            "vec_qdiv": n * (2 * (k + 1) ** 2 + 2 * k + 1),
            "vec_qcurl": n * (2 * (k + 1) ** 2 + 2 * k + 1),
            "rt_quad": 2 * n * (k + 1) * (k + 2),
            "ned_quad": 2 * n * (k + 1) * (k + 2),
            "codomain_low": n * (k * k + 4 * k + 2),
            "codomain_full": n * (k + 1) * (k + 3),
        }
    return table[name]


def audit_dimensions(mesh: Mesh, k_max: int) -> list[dict]:
    """Compare constructed space dimensions against the closed forms, k = 0..k_max."""
    rows: list[dict] = []
    n = mesh.num_cells
    tri = mesh.kind is MeshKind.TRIANGULAR

    def add(name: str, k: int, computed: int):
        expected = dimension_formula(mesh.kind, name, k, n)
        rows.append({
            "family": name,
            "k": k,
            "computed": computed,
            "expected": expected,
            "ok": computed == expected,
        })

    for k in range(k_max + 1):
        add("scalar_continuous", k, ContinuousScalarSpace(mesh, k + 1).dim)
        if tri:
            add("vec_p", k, DGVectorSpace(mesh, "vec_p", k).dim)
            add("rt_tri", k, DGVectorSpace(mesh, "rt_tri", k).dim)
            add("ned_tri", k, DGVectorSpace(mesh, "ned_tri", k).dim)
            add("codomain_low", k, CodomainSpace(mesh, k, "p", k - 1).dim)
            add("codomain_full", k, CodomainSpace(mesh, k, "p", k).dim)
        else:
            add("vec_qdiv", k, DGVectorSpace(mesh, "vec_qdiv", k).dim)
            add("vec_qcurl", k, DGVectorSpace(mesh, "vec_qcurl", k).dim)
            add("rt_quad", k, DGVectorSpace(mesh, "rt_quad", k).dim)
            add("ned_quad", k, DGVectorSpace(mesh, "ned_quad", k).dim)
            add("codomain_low", k, CodomainSpace(mesh, k, "qhat", k).dim)
            add("codomain_full", k, CodomainSpace(mesh, k, "q", k).dim)
    return rows
