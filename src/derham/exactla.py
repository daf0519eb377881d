"""Exact linear algebra over the rationals, plus a float cross-check route.

Every exact entry point runs one sparse row-echelon kernel, ``_Echelon``.
Rows are ``{column: value}`` dicts; each new row is reduced against the
pivot rows lowest column first and, when anything survives, becomes a pivot
row scaled so its pivot is 1.  Over Q the values are ``Fraction``s, so
ranks, nullspaces, solves and span comparisons are certificates, not
approximations.  ``ranks_mod_p`` runs the same kernel over GF(p): a rank mod
p never exceeds the rank over Q (a nonzero minor mod p is a nonzero
integer), so it certifies lower bounds only.  ``prefix_ranks`` is the one
rank route of the verifier: exact ranks of stacked row blocks, closed by a
rank mod p that meets proven upper bounds, else by elimination over Q.
Solves track each pivot row as a combination of the input rows, then replay
it on a right-hand side and back-substitute.  ``float_rank`` provides the
independent numpy SVD route; the float and exact results are compared in
tests and reports but never merged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "RankResult",
    "SpanCert",
    "ExactSolveError",
    "ExactWidthExceeded",
    "LinearExpander",
    "rank_nullspace",
    "exact_rank",
    "rank_of_columns",
    "ranks_mod_p",
    "prefix_ranks",
    "span_compare",
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
    """Raised when an exact linear solve has no solution."""


class ExactWidthExceeded(Exception):
    """Raised when a matrix is wider than the exact-arithmetic cap."""


def exact_width_limit() -> int:
    """Column cap for exact elimination; DERHAM_MAX_EXACT_COLS overrides."""
    raw = os.environ.get("DERHAM_MAX_EXACT_COLS")
    if raw is None:
        return DEFAULT_MAX_EXACT_COLS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"DERHAM_MAX_EXACT_COLS must be an integer, got {raw!r}") from exc


def _check_width(ncols: int) -> None:
    if ncols > exact_width_limit():
        raise ExactWidthExceeded(f"{ncols} columns exceeds the exact cap {exact_width_limit()}")


def _sparse(row: Sequence) -> dict:
    return {c: v for c, v in enumerate(row) if v}


def _subtract(row: dict, f, pivot_row, p: int, heap: list | None = None) -> None:
    """row -= f * pivot_row in place, mod p when p is nonzero; columns new
    to ``row`` go on ``heap`` when one is given."""
    for k, v in pivot_row:
        old = row.get(k)
        if old is None:
            w = -f * v
            row[k] = w % p if p else w
            if heap is not None:
                heappush(heap, k)
        else:
            w = old - f * v
            if p:
                w %= p
            if w:
                row[k] = w
            else:
                del row[k]


def _over_lcm(pairs: list[tuple[int, Fraction]]) -> tuple[int, list[tuple[int, int]]]:
    """(d, [(i, n_i)]) with each value equal to n_i / d, d the lcm of the
    denominators."""
    d = lcm(*(w.denominator for _, w in pairs))
    return d, [(i, w.numerator * (d // w.denominator)) for i, w in pairs]


class _Echelon:
    """Sparse row echelon form over Q (p = 0) or GF(p), one row at a time.

    ``pivots`` maps each pivot column to the rest of its row, as
    (column, value) pairs right of the pivot, which is scaled to 1.  With
    ``track``, ``combos`` maps each pivot column to its row as a combination
    (input row, weight) of the rows added, and ``dependent`` holds the
    combinations that reduced to zero, a basis of the left kernel.
    """

    def __init__(self, p: int = 0, track: bool = False):
        self.p = p
        self.pivots: dict[int, list[tuple[int, object]]] = {}
        self.combos: dict[int, list[tuple[int, object]]] | None = {} if track else None
        self.dependent: list[list[tuple[int, object]]] = []
        self.nrows = 0
        self._order: list[int] | None = None
        self._int_combos: dict[int, tuple[int, list[tuple[int, int]]]] = {}
        self._int_dependent: list[tuple[int, list[tuple[int, int]]]] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        """Reduce ``row`` (consumed) and keep it as a pivot row when it
        survives.  Returns True when the row raised the rank."""
        p, pivots, combos = self.p, self.pivots, self.combos
        combo = None if combos is None else {self.nrows: 1 if p else _ONE}
        self.nrows += 1
        self._order = None
        heap = sorted(row)
        while heap:
            c = heappop(heap)
            f = row.pop(c, None)
            if f is None:
                continue
            tail = pivots.get(c)
            if tail is None:
                inv = pow(f, -1, p) if p else _ONE / f
                pivots[c] = [(k, v * inv % p if p else v * inv) for k, v in row.items()]
                if combo is not None:
                    combos[c] = [(i, w * inv % p if p else w * inv) for i, w in combo.items()]
                return True
            _subtract(row, f, tail, p, heap)
            if combo is not None:
                _subtract(combo, f, combos[c], p)
        if combo is not None:
            self.dependent.append(list(combo.items()))
        return False

    def _ready(self) -> None:
        """Sort the pivots and, when tracking, put each combination over one
        integer denominator, so replaying it is an integer dot product."""
        if self._order is not None:
            return
        self._order = sorted(self.pivots, reverse=True)
        if self.combos is not None:
            self._int_combos = {c: _over_lcm(pairs) for c, pairs in self.combos.items()}
            self._int_dependent = [_over_lcm(pairs) for pairs in self.dependent]

    def _back_substitute(self, x: dict, ncols: int) -> list:
        """Fill the pivot entries of ``x`` (pivot column -> reduced value,
        free column -> its chosen value) so the pivot rows hold; dense."""
        self._ready()
        top = max(x, default=-1)
        for c in self._order:
            if c > top:  # every entry right of c is still zero
                continue
            s = x.get(c, 0) - sum(v * x[k] for k, v in self.pivots[c] if k in x)
            if s:
                x[c] = s
            else:
                x.pop(c, None)
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
        """x with A x = rhs and 0 at every free column, or None when rhs
        fails a left-kernel combination.  Needs ``track``; over Q only."""
        self._ready()
        den = lcm(*(v.denominator for v in rhs))
        b = [v.numerator * (den // v.denominator) for v in rhs]
        if any(sum(w * b[i] for i, w in combo) for _, combo in self._int_dependent):
            return None
        x = {}
        for c, (d, combo) in self._int_combos.items():
            s = sum(w * b[i] for i, w in combo)
            if s:
                x[c] = Fraction(s, d * den)
        return self._back_substitute(x, ncols)


def _exact_echelon(rows: Iterable[Sequence], track: bool = False) -> _Echelon:
    ech = _Echelon(track=track)
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


# Word-size primes below 2**30, so residues fit one Python int digit.
_PRIMES = (1073741789, 1073741783, 1073741741, 1073741723)


def _rows_mod_p(rows: Iterable[Mapping[int, Fraction]], p: int) -> list[dict[int, int]] | None:
    """Map sparse rational rows to GF(p) as num * den^-1; None when p divides
    a denominator, so the reduction is undefined."""
    inverses: dict[int, int] = {}
    out = []
    for row in rows:
        red = {}
        for c, v in row.items():
            den = v.denominator
            inv = inverses.get(den)
            if inv is None:
                if den % p == 0:
                    return None
                inv = inverses[den] = pow(den, -1, p)
            x = v.numerator * inv % p
            if x:
                red[c] = x
        out.append(red)
    return out


def ranks_mod_p(blocks: Sequence[Sequence[Mapping[int, Fraction]]], p: int) -> list[int] | None:
    """Ranks over GF(p) of the stacked prefixes [B0], [B0; B1], ... of
    blocks of sparse rational rows (column -> value mappings).

    Each is a lower bound on the rank over Q for any prime ``p``.  None when
    ``p`` divides a denominator.
    """
    ech = _Echelon(p)
    ranks: list[int] = []
    for block in blocks:
        reduced = _rows_mod_p(block, p)
        if reduced is None:
            return None
        for row in reduced:
            ech.add(row)
        ranks.append(ech.rank)
    return ranks


def prefix_ranks(blocks: Sequence[Sequence[Mapping[int, Fraction]]],
                 upper: Sequence[int] | None = None) -> list[int]:
    """Exact ranks over Q of the stacked prefixes [B0], [B0; B1], ... of
    blocks of sparse rational rows (column -> value mappings).

    ``upper`` holds proven upper bounds, one per prefix.  With them, at most
    two primes of a fixed list are tried, skipping any prime that divides a
    denominator; a prime whose ranks reach every bound closes each rank from
    both sides.  Otherwise the blocks are eliminated over Q, under the exact
    width cap on the highest column used.
    """
    if upper is not None:
        misses = 0
        for p in _PRIMES:
            ranks = ranks_mod_p(blocks, p)
            if ranks is None:
                continue
            if all(r >= u for r, u in zip(ranks, upper)):
                return ranks
            misses += 1
            if misses == 2:
                break
    _check_width(1 + max((c for block in blocks for row in block for c in row), default=-1))
    ech = _Echelon()
    ranks = []
    for block in blocks:
        for row in block:
            ech.add({c: v for c, v in row.items() if v})
        ranks.append(ech.rank)
    return ranks


def float_rank(rows: Sequence[Sequence] | np.ndarray, tol: float = 1e-10) -> int:
    """Numerical rank via numpy SVD: singular values above tol * sigma_max.

    Takes a float array or rows of anything ``float()`` accepts."""
    mat = np.asarray(rows, dtype=float)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def solve_any(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return []
    return _exact_echelon(rows, track=True).solve(rhs, len(rows[0]))


def solve_square(rows: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve A X = B exactly for square invertible A; B given column-wise."""
    n = len(rows)
    ech = _exact_echelon(rows, track=True)
    if ech.rank < n:
        raise ExactSolveError("matrix is singular")
    return [ech.solve(col, n) for col in rhs]


def mat_vec(rows: Sequence[Sequence], v: Sequence) -> list[Fraction]:
    out = []
    for r in rows:
        s = _ZERO
        for a, x in zip(r, v):
            if a and x:
                s += Fraction(a) * x
        out.append(s)
    return out


def transpose(rows: Sequence[Sequence]) -> list[list]:
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]


class LinearExpander:
    """Expand vectors in a fixed independent column family, exactly.

    Columns are dense sequences or sparse ``{row: value}`` mappings.
    Eliminates the family once, so each expansion is a replay plus a
    back-substitution.  ``expand`` raises ``ExactSolveError`` when the
    target is outside the span.
    """

    def __init__(self, cols: Sequence[Sequence | Mapping[int, Fraction]]):
        self.ncols = len(cols)
        rows: dict[int, dict] = {}
        for j, col in enumerate(cols):
            for i, v in (col.items() if isinstance(col, Mapping) else enumerate(col)):
                if v:
                    rows.setdefault(i, {})[j] = v
        self.dim = max(rows, default=-1) + 1  # the target must vanish past it
        self._ech = _Echelon(track=True)
        for i in range(self.dim):
            self._ech.add(rows.get(i, {}))
        if self._ech.rank < self.ncols:
            raise ExactSolveError("columns are linearly dependent")

    def expand(self, target: Sequence) -> list[Fraction]:
        x = None if any(target[self.dim:]) else self._ech.solve(target[:self.dim], self.ncols)
        if x is None:
            raise ExactSolveError("target is outside the span")
        return x
