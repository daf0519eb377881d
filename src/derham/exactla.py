"""Exact linear algebra over the rationals, plus a float cross-check route.

Every exact entry point runs one sparse row-echelon kernel, ``_Echelon``.
Rows are ``{column: value}`` dicts; each new row is reduced against the
pivot rows lowest column first and, when anything survives, becomes a pivot
row scaled so its pivot is 1.  Over Q the values are ``Fraction``s, so
ranks, nullspaces, solves and span comparisons are certificates, not
approximations.  ``ranks_mod_p`` runs the same kernel on the integer rows
of stacked ``OpMatrix`` blocks, each row its numerators over the row's
denominator: scaling a row keeps the rank over Q, and integers reduce mod
every prime.  Over GF(p) the rank never exceeds the rank over Q (a nonzero
minor mod p is a nonzero integer), so it certifies lower bounds only.
``prefix_ranks`` is the one rank route of the verifier: exact ranks of
stacked blocks, closed by a rank mod p that meets proven upper bounds, else
by the same elimination over Q under the exact width cap.  Lifted solves
take their primes from the same list, ``_PRIMES``.

Every solve replays one recorded factor: with ``factor`` the kernel keeps
each row's elimination multipliers, and ``_Echelon.solve`` runs a
right-hand side forward through them (a row that reduced to zero must leave
a zero residual) and back through the pivot rows.  ``LinearExpander`` and
``solve_any`` replay a factor over Q.  ``LiftedSolver`` takes a square
system and a batch of right-hand sides as integer ``OpMatrix``es, factors
the system's integer rows mod a prime once (reduced as in ``ranks_mod_p``),
and lifts the whole batch on integer residuals: each lifting step replays
the factor once, as numpy int64 rows over every column still open, and
each column is recovered by rational reconstruction.  The replay and the
integer products run in int64 only under bounds proven from the prime or
from the operands.  The search is modular; the certificate is not: a column
is returned only after the exact integer product A num = q b holds, and a
matrix is called singular only after its rank over Q from ``prefix_ranks``
says so.
``solve_square`` is the same solver for ``Fraction`` rows and columns.
``positive_definite`` is the one definiteness test: the same kernel over Q
in natural row order, where a symmetric matrix is positive definite exactly
when row i pivots at column i with a positive pivot.
``float_rank`` provides the independent numpy SVD route; the float and
exact results are compared in tests and reports but never merged.  The
paper's operators live on periodic nx x ny grids and commute with the grid
translations, so the 2-D DFT on each translation orbit, a unitary change
of basis, block-diagonalises them: their singular values are those of nx ny
small symbol blocks (Davis, *Circulant Matrices*, 1979).  Given each row's
and column's translation label (orbit, i, j) from its space, and where one
dense SVD would cost at least 2**19 flops (m n min(m, n) for m x n, about
where it stops being the faster route), ``float_rank`` first checks
invariance exactly, on the integer numerators and row denominators, then
forms the blocks with one real FFT of the shift-0 rows (the block at -k is
the conjugate of the block at k) and runs one batched SVD.  It counts the
singular values above tol times the largest over all blocks, the threshold
of one dense SVD of the whole.
Where the check fails, or without labels, it runs one dense SVD.
``tri-dp`` 64x64 k=1 ``second`` (32,768 x 49,152, 12.9 GB dense) takes
about 60 ms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import isqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .sparse import _WORD, OpMatrix, _max_abs, _runs, _word_dtype

__all__ = [
    "RankResult",
    "SpanCert",
    "ExactSolveError",
    "ExactWidthExceeded",
    "LinearExpander",
    "LiftedSolver",
    "rank_nullspace",
    "exact_rank",
    "rank_of_columns",
    "prefix_ranks",
    "span_compare",
    "positive_definite",
    "float_rank",
    "solve_any",
    "solve_square",
    "mat_vec",
    "transpose",
    "exact_width_limit",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_EXACT_COLS = 2000


class ExactSolveError(Exception):
    """Raised when an exact linear solve has no solution or the matrix is
    singular."""


class ExactWidthExceeded(Exception):
    """Raised when a matrix is wider than the exact-arithmetic cap, or a
    lifted solve has more unknowns than its int64 replay allows.  The
    message ends with the advice for it."""


def exact_width_limit() -> int:
    """Column cap for exact elimination; DERHAM_MAX_EXACT_COLS overrides."""
    raw = os.environ.get("DERHAM_MAX_EXACT_COLS")
    if raw is None:
        return DEFAULT_MAX_EXACT_COLS
    try:
        limit = int(raw)
    except ValueError as exc:
        raise ValueError(f"DERHAM_MAX_EXACT_COLS must be an integer, got {raw!r}") from exc
    if limit < 1:
        raise ValueError(f"DERHAM_MAX_EXACT_COLS must be a positive integer, got {raw!r}")
    return limit


def _check_width(ncols: int) -> None:
    if ncols > exact_width_limit():
        raise ExactWidthExceeded(f"{ncols} columns exceeds the exact cap {exact_width_limit()}; "
                                 "raise DERHAM_MAX_EXACT_COLS")


def _items(vec: Sequence | Mapping) -> Iterable:
    """(index, value) pairs of a dense sequence or a sparse mapping."""
    return vec.items() if isinstance(vec, Mapping) else enumerate(vec)


def _sparse(row: Sequence | Mapping) -> dict:
    return {c: v for c, v in _items(row) if v}


def _rows_of(cols: Sequence[Sequence | Mapping[int, Fraction]]) -> list[dict]:
    """The sparse rows ``{column: value}`` of a family of dense or sparse
    columns, up to the last row with a nonzero entry."""
    rows: dict[int, dict] = {}
    for j, col in enumerate(cols):
        for i, v in _items(col):
            if v:
                rows.setdefault(i, {})[j] = v
    return [rows.get(i, {}) for i in range(max(rows, default=-1) + 1)]


def _subtract(row: dict, f, pivot_row, p: int, heap: list | None = None) -> None:
    """row -= f * pivot_row in place, mod p when p is nonzero; columns new
    to ``row`` go on ``heap`` when one is given."""
    minus_f = -f  # forward Fraction operators below, also where old is an int
    for k, v in pivot_row:
        old = row.get(k)
        if old is None:
            w = v * minus_f
            row[k] = w % p if p else w
            if heap is not None:
                heappush(heap, k)
        else:
            w = v * minus_f + old
            if p:
                w %= p
            if w:
                row[k] = w
            else:
                del row[k]


class _Echelon:
    """Sparse row echelon form over Q (p = 0) or GF(p), one row at a time.

    ``pivots`` maps each pivot column to the rest of its row, as
    (column, value) pairs right of the pivot, which is scaled to 1.  With
    ``factor``, ``lower`` holds per input row, in order, (its pivot column,
    or -1 when it reduced to zero; the inverse of its pivot value; the
    (pivot column, multiplier) pairs it was reduced by): the row is the sum
    of each multiplier times that pivot row, plus its pivot value times its
    own pivot row.  These sparse multipliers are the lower factor of an LU
    decomposition; ``solve`` replays it over Q, and ``LiftedSolver`` turns
    a factor mod p into its replay program.
    """

    def __init__(self, p: int = 0, factor: bool = False):
        self.p = p
        self.pivots: dict[int, list[tuple[int, object]]] = {}
        self.lower: list[tuple[int, object, list[tuple[int, object]]]] | None = [] if factor else None
        self.nrows = 0
        self._upper: list[tuple[int, list]] | None = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        """Reduce ``row`` (consumed) and keep it as a pivot row when it
        survives.  Returns True when the row raised the rank."""
        p, pivots = self.p, self.pivots
        steps = None if self.lower is None else []
        self.nrows += 1
        self._upper = None
        heap = sorted(row)
        while heap:
            c = heappop(heap)
            f = row.pop(c, None)
            if f is None:
                continue
            tail = pivots.get(c)
            if tail is None:
                inv = pow(f, -1, p) if p else _ONE / f
                pivots[c] = [(k, inv * v % p if p else inv * v) for k, v in row.items()]
                if steps is not None:
                    self.lower.append((c, inv, steps))
                return True
            _subtract(row, f, tail, p, heap)
            if steps is not None:
                steps.append((c, f))
        if steps is not None:
            self.lower.append((-1, 0, steps))
        return False

    def _back_substitute(self, x: dict, ncols: int) -> list:
        """Fill the pivot entries of ``x`` (pivot column -> reduced value,
        free column -> its chosen value) so the pivot rows hold; dense."""
        if self._upper is None:  # pivot rows right to left, those with a tail
            self._upper = [(c, tail) for c, tail in sorted(self.pivots.items(), reverse=True)
                           if tail]
        top = max(x, default=-1)
        for c, tail in self._upper:
            if c > top:  # every entry right of c is still zero
                continue
            t = sum(v * x[k] for k, v in tail if k in x)
            if t:
                x[c] = x.get(c, 0) - t
        out = [_ZERO] * ncols
        for c, v in x.items():
            out[c] = v
        return out

    def nullspace(self, ncols: int) -> list[list]:
        """One kernel vector per free column: 1 there, 0 at the other free
        columns."""
        return [self._back_substitute({fc: _ONE}, ncols)
                for fc in range(ncols) if fc not in self.pivots]

    def solve(self, rhs: Sequence, ncols: int) -> list | None:
        """x with A x = rhs and 0 at every free column, over Q, or None when
        a row that reduced to zero leaves a nonzero residual.  Needs
        ``factor``; ``rhs`` holds one value per row added."""
        if len(rhs) != self.nrows:
            raise ValueError(f"right-hand side has {len(rhs)} entries for {self.nrows} rows")
        x: dict = {}
        for (c, inv, steps), s in zip(self.lower, rhs):
            if steps:
                s -= sum(f * x[k] for k, f in steps if k in x)
            if not s:
                continue
            if c < 0:
                return None
            x[c] = s * inv
        return self._back_substitute(x, ncols)


def _exact_echelon(rows: Iterable[Sequence | Mapping], factor: bool = False) -> _Echelon:
    ech = _Echelon(factor=factor)
    for row in rows:
        ech.add(_sparse(row))
    return ech


@dataclass
class RankResult:
    """Exact rank with a rational nullspace basis (columns of the kernel)."""

    nrows: int
    ncols: int
    rank: int
    pivot_cols: list[int]
    nullspace: list[list[Fraction]] = field(repr=False)

    @property
    def nullity(self) -> int:
        return self.ncols - self.rank


def rank_nullspace(rows: Iterable[Sequence], ncols: int | None = None,
                   want_nullspace: bool = True) -> RankResult:
    """Exact rank and nullspace basis of a rational matrix given row-wise.

    The pivot columns are the leftmost independent columns; each nullspace
    vector is 1 at its own free column and 0 at the other free columns.
    """
    mat = list(rows)
    if ncols is None:
        if not mat:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(mat[0])
    _check_width(ncols)
    ech = _exact_echelon(mat)
    null = ech.nullspace(ncols) if want_nullspace else []
    return RankResult(len(mat), ncols, ech.rank, sorted(ech.pivots), null)


def exact_rank(rows: Iterable[Sequence], ncols: int | None = None) -> int:
    return rank_nullspace(rows, ncols, want_nullspace=False).rank


def rank_of_columns(cols: Sequence[Sequence]) -> int:
    """Rank of a set of column vectors (rank of the transpose)."""
    if not cols:
        return 0
    return exact_rank(cols, ncols=len(cols[0]))


@dataclass
class SpanCert:
    """Certificate comparing the column spans of two rational matrices."""

    rank_left: int
    rank_right: int
    rank_union: int

    @property
    def relation(self) -> str:
        left_in = self.rank_union == self.rank_right
        right_in = self.rank_union == self.rank_left
        if left_in and right_in:
            return "equal"
        if left_in:
            return "left_in_right"
        if right_in:
            return "right_in_left"
        return "incomparable"

    @property
    def equal(self) -> bool:
        return self.relation == "equal"


def span_compare(cols_left: Sequence[Sequence], cols_right: Sequence[Sequence]) -> SpanCert:
    """Compare column spans exactly: rank[L], rank[R], rank[L|R].

    rank[L|R] continues the elimination of L with the columns of R.
    """
    rr = rank_of_columns(cols_right)
    if not cols_left:
        return SpanCert(0, rr, rr)
    _check_width(len(cols_left[0]))
    ech = _exact_echelon(cols_left)
    rl = ech.rank
    for col in cols_right:
        ech.add(_sparse(col))
    return SpanCert(rl, rr, ech.rank)


def positive_definite(rows: Sequence[Sequence]) -> bool:
    """Whether a rational matrix, given row-wise, is symmetric positive
    definite: square and symmetric, and eliminated over Q in natural row
    order, row i pivots at column i with a positive pivot.  The pivots are
    then the ratios of consecutive leading principal minors, so every minor
    is positive (Sylvester)."""
    n = len(rows)
    if any(len(row) != n or any(row[j] != rows[j][i] for j in range(i))
           for i, row in enumerate(rows)):
        return False
    lower = _exact_echelon(rows, factor=True).lower
    return all(c == i and inv > 0 for i, (c, inv, _) in enumerate(lower))


# The three largest primes below 2**21, for ranks and lifted solves alike:
# residues fit one Python int digit, and a replay row sums its products of
# two residues in int64 (``_replay_terms``).  Should every one divide a
# determinant, ``_primes`` goes on to the next primes by trial division.
_PRIMES = (2097143, 2097133, 2097131)


def _primes() -> Iterable[int]:
    yield from _PRIMES
    for n in range(2 ** 21 - 1, 2, -2):
        if n not in _PRIMES and all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


def _numerator_rows(matrix: OpMatrix, p: int = 0) -> list[dict[int, int]]:
    """The rows of ``matrix`` as ``{column: value}`` dicts of its integer
    numerators, reduced mod ``p`` when it is nonzero.  Each is a row of the
    matrix times its denominator, so any stack of them has the rank over Q
    of the same rows, and the reduction is defined mod every prime."""
    ptr, cols, num, _ = matrix.integer_rows()
    if p:
        num = num % p
    ptr, cols, num = ptr.tolist(), cols.tolist(), num.tolist()
    return [{c: v for c, v in zip(cols[a:b], num[a:b]) if v} for a, b in zip(ptr, ptr[1:])]


def ranks_mod_p(blocks: Sequence[OpMatrix], p: int) -> list[int]:
    """Ranks over GF(p) of the stacked prefixes [B0], [B0; B1], ... of
    matrices of one width, each row entering as its integer numerators.

    Each is a lower bound on the rank over Q for every prime ``p``; with
    ``p = 0`` the same elimination runs over Q and the ranks are exact.
    """
    ech = _Echelon(p)
    ranks: list[int] = []
    for block in blocks:
        for row in _numerator_rows(block, p):
            ech.add(row)
        ranks.append(ech.rank)
    return ranks


def prefix_ranks(blocks: Sequence[OpMatrix], upper: Sequence[int] | None = None) -> list[int]:
    """Exact ranks over Q of the stacked prefixes [B0], [B0; B1], ... of
    matrices of one width.

    ``upper`` holds proven upper bounds, one per prefix.  With them, every
    prime of ``_PRIMES`` is tried in turn; a prime whose ranks reach every
    bound closes each rank from both sides.  Otherwise the blocks are
    eliminated over Q, under the exact width cap on the highest column used.
    """
    if upper is not None:
        for p in _PRIMES:
            ranks = ranks_mod_p(blocks, p)
            if all(r >= u for r, u in zip(ranks, upper)):
                return ranks
    used = [int(block.integer_rows()[1].max()) for block in blocks if block.nnz]
    _check_width(1 + max(used, default=-1))
    return ranks_mod_p(blocks, 0)


# One dense SVD of an m x n matrix costs about m n min(m, n) flops; the
# symbol route costs a fixed 0.1-0.3 ms (the exact invariance check, one
# FFT and a batch of small SVDs) that hardly grows with the mesh.  Timed
# with one BLAS thread on the operators of the benchmark, the dense SVD is
# faster up to 144 x 54 (0.42M flops) and slower from 192 x 64 (0.79M
# flops) on, so the symbol route runs from this many flops on.
_SYMBOL_FLOPS = 1 << 19

# The host's physical memory in bytes, the most a dense float SVD may ask for.
_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _components(ptr: np.ndarray, cols: np.ndarray, nrows: int) -> np.ndarray:
    """The connected component of each row of a row-compressed nonzero
    pattern whose every row is nonempty, two rows joined when they share a
    column, labelled by its smallest row.

    Min-label propagation on the rows alone: each column takes the smallest
    label among its rows (one ``np.minimum.reduceat`` in column order), each
    row the smallest among its columns' (in row order), and then every label
    is replaced by its label's label until none changes (pointer jumping).
    A label is always a row of the same component and no larger than the
    row; once a round changes nothing, labels agree across every shared
    column, so each component carries its smallest row."""
    by_col = cols.argsort(kind="stable")
    col_starts, col_lengths = _runs(cols[by_col])
    rows_by_col = np.arange(nrows).repeat(np.diff(ptr))[by_col]
    col_of = np.empty_like(by_col)  # each nonzero's column, numbered 0, 1, ... in order
    col_of[by_col] = np.arange(col_starts.size).repeat(col_lengths)
    labels = np.arange(nrows)
    while True:
        merged = np.minimum.reduceat(
            np.minimum.reduceat(labels[rows_by_col], col_starts)[col_of], ptr[:-1])
        while not ((jumped := merged[merged]) == merged).all():
            merged = jumped
        if (merged == labels).all():
            return labels
        labels = merged


def _orbits(labels: np.ndarray, nx: int, ny: int) -> tuple[np.ndarray, int] | None:
    """The orbit of each index labelled (orbit, i, j), numbered 0, 1, ... in
    increasing label order, and the number of orbits, when the labels
    number every orbit times the nx x ny grid exactly once; else None."""
    orbit, i, j = labels.T
    if i.min() < 0 or j.min() < 0 or i.max() >= nx or j.max() >= ny:
        return None
    _, orbit = np.unique(orbit, return_inverse=True)
    count = int(orbit.max()) + 1
    keys = (orbit * ny + j) * nx + i
    if keys.size != count * nx * ny or (np.bincount(keys, minlength=keys.size) != 1).any():
        return None
    return orbit, count


def _symbol_values(matrix: OpMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray | None:
    """The singular values of ``matrix`` from its translation symbol, or
    None when the labels do not make it block circulant.

    ``rows`` and ``cols`` label each row and column (orbit, i, j): its orbit
    under the translations of the nx x ny grid and its shift (i, j) on it.
    The matrix commutes with the translations when, for every key (row
    orbit, column orbit, column shift minus row shift mod the grid), the
    row orbit holds nx ny nonzeros of one value: each row can have at most
    one, so then every row has it.  That is checked exactly on the integer
    numerators and row denominators (a row and its translate reduce to
    equal ones); a failure only sends the caller to one dense SVD.  The 2-D
    DFT on each orbit, a unitary change of basis, then makes the matrix
    block diagonal, one (row orbits x column orbits) block per wave vector:
    the FFT over the grid of the shift-0 rows, one per orbit, each nonzero
    placed at its column's orbit and shift.  One batched SVD factors the
    blocks."""
    ri, rj, ci, cj = rows[:, 1], rows[:, 2], cols[:, 1], cols[:, 2]
    nx, ny = int(ri.max()) + 1, int(rj.max()) + 1
    labelled = (_orbits(rows, nx, ny), _orbits(cols, nx, ny))
    if None in labelled:
        return None
    (row_orbit, nrow), (col_orbit, ncol) = labelled
    ptr, col, num, den = matrix.integer_rows()
    row = np.arange(matrix.nrows).repeat(np.diff(ptr))
    di, dj = (ci[col] - ri[row]) % nx, (cj[col] - rj[row]) % ny
    keys = ((row_orbit[row] * ncol + col_orbit[col]) * ny + dj) * nx + di
    order = keys.argsort(kind="stable")
    starts, lengths = _runs(keys[order])
    if (lengths != nx * ny).any():
        return None
    for values in (num, den[row]):
        values = values[order]
        if not (values == values[starts].repeat(lengths)).all():
            return None
    first = (ri[row] == 0) & (rj[row] == 0)
    grid = np.zeros((nrow, ncol, ny, nx))
    grid[row_orbit[row[first]], col_orbit[col[first]], dj[first], di[first]] = \
        matrix.float_values()[first]
    # the matrix is real, so its block at -k is the conjugate of its block
    # at k, with the same singular values: rfft2 keeps kx = 0 .. nx // 2, and
    # each kx whose mirror nx - kx it leaves out stands for both
    blocks = np.fft.rfft2(grid).transpose(2, 3, 0, 1)
    kx = np.arange(nx // 2 + 1)
    copies = np.where(2 * kx % nx == 0, 1, 2)
    return np.linalg.svd(blocks, compute_uv=False).repeat(copies, axis=1).ravel()


def float_rank(matrix: OpMatrix | np.ndarray | Sequence[Sequence], tol: float = 1e-10,
               spaces: tuple | None = None) -> int:
    """Numerical rank via numpy SVD: singular values above tol times the
    largest singular value.

    Takes an ``OpMatrix``, a float array, or rows of anything ``float()``
    accepts.  ``spaces``, for an ``OpMatrix``, holds the space of its rows
    and the space of its columns; each labels its dofs (orbit, i, j) by its
    ``translations``, an (n, 3) integer array read only here.  When one
    dense SVD would cost at least ``_SYMBOL_FLOPS`` (2**19) flops, m n
    min(m, n) for an m x n matrix, and the matrix commutes with the
    translations, checked exactly (``_symbol_values``), its singular values
    are those of its translation-symbol blocks, one small block per wave
    vector in one batched SVD.  The DFT is unitary, so one threshold over
    all of them counts what one dense SVD counts.  Otherwise, or without
    spaces, the whole matrix takes one dense SVD; when the dense copy and
    the SVD's working copy, about 16 m n bytes, would exceed the host's
    physical memory, it raises ``MemoryError`` before allocating either."""
    if isinstance(matrix, OpMatrix):
        nnz = matrix.nnz
    else:
        matrix = np.asarray(matrix, dtype=float)
        nnz = np.count_nonzero(matrix)
    if not nnz:
        return 0
    nrows, ncols = matrix.shape
    sv = None
    if (spaces is not None and isinstance(matrix, OpMatrix)
            and nrows * ncols * min(nrows, ncols) >= _SYMBOL_FLOPS):
        rows, cols = (space.translations for space in spaces)
        if (len(rows), len(cols)) != (nrows, ncols):
            raise ValueError(f"spaces of dimensions {len(rows)} and {len(cols)} for a "
                             f"{nrows} x {ncols} matrix")
        sv = _symbol_values(matrix, rows, cols)
    if sv is None:
        if 16 * nrows * ncols > _PHYSICAL_MEMORY:
            raise MemoryError(f"a dense SVD of a {nrows} x {ncols} matrix needs about "
                              f"{16 * nrows * ncols:,} bytes, more than the "
                              f"{_PHYSICAL_MEMORY:,} bytes of physical memory")
        dense = matrix.float_array() if isinstance(matrix, OpMatrix) else matrix
        sv = np.linalg.svd(dense, compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv.max()))


def solve_any(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return []
    return _exact_echelon(rows, factor=True).solve(rhs, len(rows[0]))


def solve_square(rows: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve A X = B exactly for square invertible A, given row-wise; B and
    X column-wise.  ``LiftedSolver`` on the same matrices as ``OpMatrix``.

    Raises ``ExactSolveError`` when A is singular."""
    n = len(rows)
    return LiftedSolver(OpMatrix.from_columns(n, list(zip(*rows)))).solve(
        OpMatrix.from_columns(n, rhs)).columns()


def mat_vec(rows: Sequence[Sequence], v: Sequence) -> list[Fraction]:
    out = []
    for r in rows:
        s = _ZERO
        for a, x in zip(r, v):
            if a and x:
                s += a * x
        out.append(s)
    return out


def transpose(rows: Sequence[Sequence]) -> list[list]:
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]


class LinearExpander:
    """Expand vectors in a fixed independent column family, exactly.

    Columns are dense sequences or sparse ``{row: value}`` mappings.
    Factors the family's rows once over Q, so each expansion replays the
    recorded multipliers and back-substitutes.  ``expand`` raises
    ``ExactSolveError`` when the target is outside the span.
    """

    def __init__(self, cols: Sequence[Sequence | Mapping[int, Fraction]]):
        self.ncols = len(cols)
        rows = _rows_of(cols)
        self.dim = len(rows)  # the target must vanish past it
        self._ech = _exact_echelon(rows, factor=True)
        if self._ech.rank < self.ncols:
            raise ExactSolveError("columns are linearly dependent")

    def expand(self, target: Sequence) -> list[Fraction]:
        x = None if any(target[self.dim:]) else self._ech.solve(target[:self.dim], self.ncols)
        if x is None:
            raise ExactSolveError("target is outside the span")
        return x


def _reconstruct(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """(a, d) with a = d u mod m, |a| <= bound and 0 < d <= bound, by the
    half extended Euclidean algorithm (Wang's rational reconstruction), or
    None.  Unique when 2 bound^2 < m."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    return (r1, s1) if 0 < s1 <= bound else None


def _reconstruct_vector(acc: list[int], m: int) -> tuple[list[int], int] | None:
    """(num, q) with num / q = acc mod m entrywise over one common
    denominator q, every value reconstructed within sqrt(m / 2); or None.

    Each entry is reconstructed after multiplying by the denominator found
    so far, so once the denominator is known an entry costs one step."""
    bound = isqrt(m // 2)
    q = 1
    parts = []
    for u in acc:
        found = _reconstruct(u * q % m, m, bound)
        if found is None:
            return None
        a, d = found
        q *= d
        if q > bound:
            return None
        parts.append((a, q))
    return [a * (q // d) for a, d in parts], q


class LiftedSolver:
    """Exact solves of one square nonsingular system N x = b, for a whole
    batch of b at once.

    N is an integer ``OpMatrix``: row i holds the integers A_i over its
    denominator D_i, so A = D N.  A is factored once mod a prime p, and the
    recorded factor becomes a replay program: one gathered dot product mod p
    per row, forward through the multipliers and back through the pivot
    rows.  A batch B (columns b_j = c_j / e_j, integers over one denominator
    each) is lifted (Dixon) on the integer residuals r_j, starting at D c_j:
    every step replays the factor once for all columns still open, x_k =
    A^-1 r_k mod p, and sets r_k+1 = (r_k - A x_k) / p, so sum x_k p^k solves
    A y = D c mod p^k.  After each step every open column is reconstructed
    over one common denominator q (Wang), and leaves the batch only when the
    exact integer product A num = q D c holds; it is returned as num / (q e).
    Past its Hadamard bound a column that failed the check raises
    ``ArithmeticError``; a modular value is never returned.

    Two int64 bounds are proven before each kernel runs.  The replay keeps
    every residue and every coefficient below p < 2**21, so a row of L
    terms sums below L (p - 1)**2; ``_replay_terms`` caps L for int64
    (about 2.1 million), and a system with more unknowns than that is
    refused.  A x, and A num in the check, run in int64 when the longest
    row of A times max |A| times max |x| is below 2**63, else in Python
    ints, as the residual update and the scaled right-hand sides do under
    their own bounds.

    A rank mod p below n sends the build to the next prime of ``_primes``;
    after two misses, ``prefix_ranks``' capped rank over Q decides, and a
    rank below n raises ``ExactSolveError``.
    """

    def __init__(self, system: OpMatrix):
        if system.nrows != system.ncols:
            raise ValueError(f"a lifted solve needs a square system, got {system.nrows}x{system.ncols}")
        n = self.n = system.ncols
        self._ptr, self._cols, self._num, self._scale = system.integer_rows()
        ptr, num = self._ptr.tolist(), self._num.tolist()
        self._norms = [sum(v * v for v in num[a:b]) for a, b in zip(ptr, ptr[1:])]
        self._row_bound = int(np.diff(self._ptr).max(initial=0)) * _max_abs(self._num)
        for tried, p in enumerate(_primes()):
            if n > _replay_terms(p):
                raise ExactWidthExceeded(f"{n} unknowns exceed the int64 replay bound "
                                         f"{_replay_terms(p)} for p = {p}; try a smaller mesh")
            ech = _Echelon(p, factor=True)
            for row in _numerator_rows(system, p):
                ech.add(row)
            if ech.rank == n:
                break
            if tried == 1 and prefix_ranks([system]) != [n]:
                raise ExactSolveError("matrix is singular")
        self.p = p
        self._program = _replay_program(ech, n)

    def _times(self, x: np.ndarray) -> np.ndarray:
        """A x for every column of x, in int64 when the longest row of A
        times max |A| times max(max |x|, 1) is below 2**63, else in Python ints."""
        dtype = _word_dtype(self._row_bound * max(_max_abs(x), 1))
        terms = self._num.astype(dtype, copy=False)[:, None] * x.astype(dtype, copy=False)[self._cols]
        return np.add.reduceat(terms, self._ptr[:-1], axis=0)

    def _replay(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r mod p for every column of r, int64 residues in [0, p).
        Each program row writes one entry of x."""
        n, p = self.n, self.p
        z = np.empty((2 * n, r.shape[1]), dtype=np.int64)
        z[n:] = r
        for c, idx, coef in self._program:
            z[c] = coef @ z.take(idx, axis=0) % p
        return z[:n]

    def solve(self, rhs: OpMatrix) -> OpMatrix:
        """The exact solution X of N X = B, column by column of the batch B."""
        n, p, m = self.n, self.p, rhs.ncols
        if rhs.nrows != n:
            raise ValueError(f"right-hand side has {rhs.nrows} rows for a system of {n}")
        if not (n and m):
            return OpMatrix(n, m)
        # column j of B is c_j / e_j, row j of B^T over its least common denominator
        ptr, at, c, e = rhs.transpose().integer_rows()
        scale = self._scale[at]
        b = np.zeros((n, m), dtype=_word_dtype(_max_abs(c) * _max_abs(scale)))
        b[at, np.arange(m).repeat(np.diff(ptr))] = c.astype(b.dtype) * scale.astype(b.dtype)
        # Hadamard: |det A| and every numerator of y are at most
        # prod_i sqrt(|A_i|^2 + b_i^2), so past 2 H^2 the reconstruction is unique
        need = [1 + sum((s + v * v).bit_length() for s, v in zip(self._norms, col))
                for col in b.T.tolist()]
        open_cols = list(range(m))
        r, acc, modulus = b, np.zeros((n, m), dtype=object), 1
        solved: dict[int, tuple[list[int], int]] = {}
        while open_cols:
            x = self._replay((r % p).astype(np.int64))
            acc += x.astype(object) * modulus
            modulus *= p
            ax = self._times(x)
            dtype = _word_dtype(_max_abs(r) + _max_abs(ax))
            r = (r.astype(dtype, copy=False) - ax.astype(dtype, copy=False)) // p
            found = {j: rec for j, col in zip(open_cols, acc.T.tolist())
                     if (rec := _reconstruct_vector(col, modulus))}
            if found:
                nums = np.array([num for num, _ in found.values()], dtype=object).T
                products = self._times(nums).T.tolist()
                for (j, (num, q)), product, col in zip(found.items(), products,
                                                       b[:, list(found)].T.tolist()):
                    if product == [q * v for v in col]:
                        solved[j] = num, q * int(e[j])
            keep = [t for t, j in enumerate(open_cols) if j not in solved]
            open_cols = [open_cols[t] for t in keep]
            if any(modulus.bit_length() > need[j] for j in open_cols):
                raise ArithmeticError("lifted solution failed its exact check past the Hadamard bound")
            r, acc = r[:, keep], acc[:, keep]
        return OpMatrix.from_integer_columns(n, *zip(*(solved[j] for j in range(m))))


def _replay_terms(p: int) -> int:
    """The most terms of one replay row for which its int64 sum is proven:
    L products, each a coefficient below p times a residue below p."""
    return (_WORD - 1) // (p - 1) ** 2


def _replay_program(ech: _Echelon, n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The recorded factor mod p of a full-rank n x n system as replay rows
    (c, the rows of the work array gathered, their coefficients in [0, p)):
    x_c = inv r_i - sum inv f_k x_k per input row i, forward; then x_c = x_c
    - sum v_k x_k per pivot row, right to left.  The work array holds x,
    then r."""
    p = ech.p
    rows = [(c, [k for k, _ in steps] + [n + i], [-f * inv % p for _, f in steps] + [inv])
            for i, (c, inv, steps) in enumerate(ech.lower)]
    rows += [(c, [c] + [k for k, _ in tail], [1] + [p - v for _, v in tail])
             for c, tail in sorted(ech.pivots.items(), reverse=True) if tail]
    # every row's gathered positions and coefficients in one array each,
    # viewed row by row
    idx = np.array([k for _, ks, _ in rows for k in ks], dtype=np.int64)
    coef = np.array([f for _, _, fs in rows for f in fs], dtype=np.int64)
    ends = np.cumsum([len(ks) for _, ks, _ in rows]).tolist()
    return [(c, idx[a:b], coef[a:b]) for (c, _, _), a, b in zip(rows, [0] + ends, ends)]
