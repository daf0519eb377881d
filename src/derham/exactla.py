"""Exact linear algebra over the rationals, plus a float cross-check route.

The exact route clears each row to integers and runs fraction-free Gaussian
elimination with gcd reduction, so ranks, nullspaces and span comparisons are
certificates, not approximations.  ``ranks_mod_p`` and ``rank_at_least``
eliminate sparse rows over GF(p) instead: a rank mod p never exceeds the rank
over Q (a nonzero minor mod p is a nonzero integer), so it certifies lower
bounds only.  ``float_rank`` provides the independent numpy SVD route; the
float and exact results are compared in tests and reports but never merged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "RankResult",
    "SpanCert",
    "DirectSumCert",
    "ExactSolveError",
    "ExactWidthExceeded",
    "LinearExpander",
    "rank_nullspace",
    "exact_rank",
    "rank_of_columns",
    "ranks_mod_p",
    "rank_at_least",
    "span_compare",
    "direct_sum_check",
    "float_rank",
    "solve_any",
    "solve_square",
    "mat_mul",
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


def _to_int_row(row: Sequence) -> list[int]:
    """Scale a rational row to coprime integers (rank-preserving)."""
    fr = [v if isinstance(v, Fraction) else Fraction(v) for v in row]
    den = 1
    for v in fr:
        if v:
            den = den * v.denominator // math.gcd(den, v.denominator)
    ints = [int(v.numerator) * (den // v.denominator) for v in fr]
    g = 0
    for v in ints:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                break
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _reduce_ints(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, abs(v))
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], list[list[int]]]:
    """Fraction-free row echelon over the integers.

    Returns (pivot column indices, echelon rows).  Pivot rows keep their
    integer entries; pivots are chosen by smallest bit length (with a sparsity
    tie-break) to limit coefficient growth.
    """
    work = [r for r in rows if any(r)]
    pivots: list[int] = []
    echelon: list[list[int]] = []
    r = 0
    for col in range(ncols):
        best = -1
        best_key = None
        for idx in range(r, len(work)):
            v = work[idx][col]
            if v:
                key = abs(v).bit_length()
                if best_key is None or key < best_key:
                    best, best_key = idx, key
                    if key == 1:
                        break
        if best < 0:
            continue
        work[r], work[best] = work[best], work[r]
        pivot_row = work[r]
        p = pivot_row[col]
        keep = work[: r + 1]
        for idx in range(r + 1, len(work)):
            row = work[idx]
            f = row[col]
            if f:
                row = _reduce_ints([a * p - b * f for a, b in zip(row, pivot_row)])
            if any(row):
                keep.append(row)
        work = keep
        pivots.append(col)
        echelon.append(pivot_row)
        r += 1
        if r == len(work):
            break
    return pivots, echelon


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
    """Exact rank and nullspace basis of a rational matrix given row-wise."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    if ncols is None:
        if not mat:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(mat[0])
    if ncols > exact_width_limit():
        raise ExactWidthExceeded(f"{ncols} columns exceeds the exact cap {exact_width_limit()}")
    int_rows = [_to_int_row(r) for r in mat]
    pivots, ech = _echelon(int_rows, ncols)
    rank = len(pivots)
    null: list[list[Fraction]] = []
    if want_nullspace and rank < ncols:
        pivset = set(pivots)
        free_cols = [c for c in range(ncols) if c not in pivset]
        for fc in free_cols:
            v = [_ZERO] * ncols
            v[fc] = _ONE
            for i in range(rank - 1, -1, -1):
                pc = pivots[i]
                s = _ZERO
                row = ech[i]
                for c in range(pc + 1, ncols):
                    if row[c] and v[c]:
                        s += Fraction(row[c]) * v[c]
                if s:
                    v[pc] = -s / row[pc]
            null.append(v)
    return RankResult(nrows, ncols, rank, pivots, null)


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
    witness_left: int | None = None   # index of a left column outside right span
    witness_right: int | None = None  # index of a right column outside left span

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


def _witness_outside(first: Sequence[Sequence], second: Sequence[Sequence]) -> int | None:
    """Index of a column of ``second`` outside span(first), by incremental rank."""
    if not second:
        return None
    base = rank_of_columns(list(first)) if first else 0
    stack = [list(c) for c in first]
    for i, col in enumerate(second):
        stack.append(list(col))
        if rank_of_columns(stack) > base:
            return i
        stack.pop()
    return None


def span_compare(cols_left: Sequence[Sequence], cols_right: Sequence[Sequence],
                 want_witness: bool = True) -> SpanCert:
    """Compare column spans exactly: rank[L], rank[R], rank[L|R]."""
    rl = rank_of_columns(cols_left)
    rr = rank_of_columns(cols_right)
    ru = rank_of_columns(list(cols_left) + list(cols_right))
    cert = SpanCert(rl, rr, ru)
    if want_witness and ru != rr:
        cert.witness_left = _witness_outside(cols_right, cols_left)
    if want_witness and ru != rl:
        cert.witness_right = _witness_outside(cols_left, cols_right)
    return cert


@dataclass
class DirectSumCert:
    part_ranks: list[int]
    rank_union: int
    orthogonal: bool | None

    @property
    def is_direct(self) -> bool:
        return sum(self.part_ranks) == self.rank_union


def direct_sum_check(parts: Sequence[Sequence[Sequence]], gram: Sequence[Sequence] | None = None) -> DirectSumCert:
    """Check that the given column families sum directly (and orthogonally).

    Directness: sum of part ranks equals the rank of the concatenation.
    Orthogonality (when ``gram`` rows are given): every cross block
    X^T G Y vanishes identically.
    """
    part_ranks = [rank_of_columns(list(p)) for p in parts]
    union = [list(c) for p in parts for c in p]
    ru = rank_of_columns(union)
    orth: bool | None = None
    if gram is not None:
        gparts = [[mat_vec(gram, list(c)) for c in p] for p in parts]
        orth = all(
            not _dot(x, gy)
            for a in range(len(parts))
            for b in range(a + 1, len(parts))
            for x in parts[a]
            for gy in gparts[b]
        )
    return DirectSumCert(part_ranks, ru, orth)


def _dot(x: Sequence, y: Sequence) -> Fraction:
    s = _ZERO
    for a, b in zip(x, y):
        if a and b:
            s += Fraction(a) * b
    return s


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


def _add_row_mod_p(pivots: dict[int, list[tuple[int, int]]], row: dict[int, int], p: int) -> bool:
    """Reduce ``row`` against the pivot rows, lowest column first; keep it as
    a new pivot row (its tail scaled so the pivot is 1) when it survives.
    Returns True when the row raised the rank."""
    heap = sorted(row)
    while heap:
        c = heappop(heap)
        f = row.pop(c, None)
        if f is None:
            continue
        tail = pivots.get(c)
        if tail is None:
            inv = pow(f, -1, p)
            pivots[c] = [(k, v * inv % p) for k, v in row.items()]
            return True
        for k, v in tail:
            old = row.get(k)
            if old is None:
                row[k] = -f * v % p
                heappush(heap, k)
            else:
                w = (old - f * v) % p
                if w:
                    row[k] = w
                else:
                    del row[k]
    return False


def ranks_mod_p(blocks: Sequence[Sequence[Mapping[int, Fraction]]], p: int,
                floors: Sequence[int] | None = None) -> list[int] | None:
    """Ranks over GF(p) of the stacked prefixes [B0], [B0; B1], ... of
    blocks of sparse rational rows (column -> value mappings).

    Each is a lower bound on the rank over Q for any prime ``p``.  None when
    ``p`` divides a denominator.  With ``floors``, stops after the first
    prefix whose rank falls short of its floor.
    """
    pivots: dict[int, list[tuple[int, int]]] = {}
    ranks: list[int] = []
    rank = 0
    for i, block in enumerate(blocks):
        reduced = _rows_mod_p(block, p)
        if reduced is None:
            return None
        for row in reduced:
            rank += _add_row_mod_p(pivots, row, p)
        ranks.append(rank)
        if floors is not None and rank < floors[i]:
            break
    return ranks


def rank_at_least(blocks: Sequence[Sequence[Mapping[int, Fraction]]],
                  floors: Sequence[int]) -> bool:
    """Certify rank over Q of each stacked prefix [B0; ...; Bi] >= floors[i].

    Rows are sparse column -> value mappings.  Tries at most two primes of a
    fixed list, skipping any prime that divides a denominator; True as soon
    as one prime reaches every floor.  False certifies nothing: the rank may
    be short, or both primes were unlucky.
    """
    misses = 0
    for p in _PRIMES:
        ranks = ranks_mod_p(blocks, p, floors)
        if ranks is None:
            continue
        if len(ranks) == len(floors) and all(r >= f for r, f in zip(ranks, floors)):
            return True
        misses += 1
        if misses == 2:
            return False
    return False


def float_rank(rows: Iterable[Sequence], tol: float = 1e-10) -> int:
    """Numerical rank via numpy SVD: singular values above tol * sigma_max."""
    mat = np.array([[float(v) for v in r] for r in rows], dtype=float)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def solve_any(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None.

    Plain Gauss-Jordan over Fraction on the augmented system; fine for the
    small dense solves this library needs outside the echelon fast path.
    """
    a = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    if not a:
        return []
    ncols = len(a[0]) - 1
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pval = a[r][col]
        a[r] = [v / pval for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == len(a):
            break
    for i in range(r, len(a)):
        if a[i][ncols]:
            return None
    x = [_ZERO] * ncols
    for row, col in pivots:
        x[col] = a[row][ncols]
    return x


def solve_square(rows: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve A X = B exactly for square invertible A; B given column-wise."""
    n = len(rows)
    a = [[Fraction(v) for v in r] for r in rows]
    b = [[Fraction(col[i]) for col in rhs] for i in range(n)]
    m = len(rhs)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ExactSolveError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        pval = a[col][col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col] / pval
                arow, acol = a[r], a[col]
                for c in range(col, n):
                    arow[c] -= f * acol[c]
                brow, bcol = b[r], b[col]
                for c in range(m):
                    brow[c] -= f * bcol[c]
    return [[b[i][j] / a[i][i] for i in range(n)] for j in range(m)]


def mat_vec(rows: Sequence[Sequence], v: Sequence) -> list[Fraction]:
    out = []
    for r in rows:
        s = _ZERO
        for a, x in zip(r, v):
            if a and x:
                s += Fraction(a) * x
        out.append(s)
    return out


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[Fraction]]:
    bt = transpose(b)
    out = []
    for r in a:
        row = []
        for c in bt:
            s = _ZERO
            for x, y in zip(r, c):
                if x and y:
                    s += Fraction(x) * y
            row.append(s)
        out.append(row)
    return out


def transpose(rows: Sequence[Sequence]) -> list[list]:
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]


class LinearExpander:
    """Expand vectors in a fixed independent column family, exactly.

    Precomputes a Gauss-Jordan factorization of the family so repeated
    expansions are cheap.  ``expand`` raises ``ExactSolveError`` when the
    target is outside the span.
    """

    def __init__(self, cols: Sequence[Sequence]):
        self.ncols = len(cols)
        self.dim = len(cols[0]) if cols else 0
        # augmented [A | I]; full Gauss-Jordan so pivot rows read off solutions
        aug = [[Fraction(cols[j][i]) for j in range(self.ncols)] + [
            _ONE if k == i else _ZERO for k in range(self.dim)] for i in range(self.dim)]
        width = self.ncols + self.dim
        pivots: list[tuple[int, int]] = []
        r = 0
        for col in range(self.ncols):
            piv = next((idx for idx in range(r, self.dim) if aug[idx][col]), None)
            if piv is None:
                raise ExactSolveError("columns are linearly dependent")
            aug[r], aug[piv] = aug[piv], aug[r]
            pval = aug[r][col]
            aug[r] = [v / pval for v in aug[r]]
            for idx in range(self.dim):
                if idx != r and aug[idx][col]:
                    f = aug[idx][col]
                    row, prow = aug[idx], aug[r]
                    aug[idx] = [v - f * w for v, w in zip(row, prow)]
            pivots.append((r, col))
            r += 1
        self._solution_rows = [aug[i][self.ncols:] for i in range(self.ncols)]
        self._check_rows = [aug[i][self.ncols:] for i in range(self.ncols, self.dim)]

    def expand(self, target: Sequence) -> list[Fraction]:
        t = [Fraction(v) for v in target]
        for chk in self._check_rows:
            s = _ZERO
            for a, x in zip(chk, t):
                if a and x:
                    s += a * x
            if s:
                raise ExactSolveError("target is outside the span")
        out = []
        for row in self._solution_rows:
            s = _ZERO
            for a, x in zip(row, t):
                if a and x:
                    s += a * x
            out.append(s)
        return out
