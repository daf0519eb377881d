"""Exact sparse matrices, stored once as integers.

An ``OpMatrix`` is row-compressed: integer numerators over one positive
denominator per row, the least common denominator of the row.  Numerators
and denominators are int64 arrays when every value fits a machine word and
object arrays of Python ints otherwise.  Every product, sum and transpose
is an integer kernel over whole arrays, built from two helpers.
``_over_lcm`` puts exact values over L, the lcm of their denominators,
with a bound in Python integers on each scaled numerator; ``_sum`` adds
terms at their output positions, in int64 unless the most terms at one
position times the bound on each reaches 2**63, and otherwise in the same
code on object arrays, so nothing wraps.  An output with at most
``_DENSE_CELLS`` cells per term is summed in one zeroed array
(``np.add.at``) and read back in row-major order; a larger one sorts the
terms and sums each run with ``np.add.reduceat``.  Dense constructors read
their nonzeros in row-major order and sum nothing; an integer array is over
1 and is not scaled either.  ``signed_sum`` adds any number of matrices,
each with a sign, in one such kernel.  Row blocks, column blocks placed at
an offset, and stacks below (``stack``) or beside (``hstack``) one another
are structural: they copy, filter or shift stored entries, multiply nothing,
and reduce a row again only where entries were dropped or denominators
met.  Every matrix ends in ``_from_sorted`` or ``_set`` with each row over
its least common denominator and gcd-reduced, so equal values are equal
storage, and ``==`` compares the frozen arrays.  ``Fraction``s are built
only where a caller asks for them (``entries``, ``dense_rows``,
``columns``, ...).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = ["OpMatrix", "Stamp", "load_matrix"]

_ZERO = Fraction(0)
_WORD = 1 << 63  # every int64 value stored here has |v| < _WORD
_FLOAT_EXACT = 1 << 53  # integers up to this convert to float exactly
_EXACT_TYPES = {int, Fraction}
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False
# A kernel sums its terms into a dense array over the whole output when the
# output has at most this many cells per term, and sorts them otherwise.
_DENSE_CELLS = 8


def _ints(values) -> np.ndarray:
    """Python ints as an int64 array when every |value| < 2**63, else as an
    object array of the same ints."""
    try:
        out = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    if out.size and out.min() == -_WORD:
        return out.astype(object)
    return out


def _max_abs(a: np.ndarray) -> int:
    return int(abs(a).max()) if a.size else 0


def _word_dtype(bound: int):
    """int64 when ``bound``, proven to cap every value the caller computes,
    is below 2**63; else object.  Every choice of dtype from a bound goes
    through it (``_ints`` reads Python ints, whose fit numpy itself checks)."""
    return np.int64 if bound < _WORD else object


def _narrow(a: np.ndarray) -> np.ndarray:
    """An object array as int64 when every value fits; int64 as it is."""
    return a if a.dtype != object else a.astype(_word_dtype(_max_abs(a)))


def _over_lcm(num: np.ndarray, den: np.ndarray,
              at=slice(None)) -> tuple[np.ndarray, int, int]:
    """num / den[at] (one den per term by default), dens positive, over L,
    the lcm of the dens: (num * (L / den[at]), L, bound), where bound =
    max |num| * L / min(den) caps each numerator, int64 when it is below
    2**63.  L / den is divided in the dtype of L, which fits every den, and
    narrowed only at ``at``."""
    dens = set(den.tolist())
    total = math.lcm(*dens)
    bound = _max_abs(num) * (total // min(dens, default=1))
    dtype = _word_dtype(bound)
    if total == 1:  # integers: nothing to scale
        return num.astype(dtype, copy=False), total, bound
    wide = _word_dtype(total)
    quotients = (np.array(total, dtype=wide) // den.astype(wide, copy=False))[at]
    return num.astype(dtype, copy=False) * quotients.astype(dtype, copy=False), total, bound


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entrywise, in int64 when max |a| times max |b| is below 2**63."""
    dtype = _word_dtype(_max_abs(a) * _max_abs(b))
    return a.astype(dtype, copy=False) * b.astype(dtype, copy=False)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and the length of each run of equal values in a sorted,
    nonempty array."""
    new = np.empty(keys.size, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = new.nonzero()[0]
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1] = keys.size - starts[-1]
    return starts, lengths


def _accumulate(keys: np.ndarray, terms: np.ndarray,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, increasing, of the terms and the exact sum at
    each, summed in one zeroed array of ``size`` cells in the terms' dtype;
    sums that cancel are dropped."""
    acc = np.zeros(size, dtype=terms.dtype)
    np.add.at(acc, keys, terms)
    at = acc.nonzero()[0]
    return at, acc[at]


def _sum_runs(keys: np.ndarray, terms: np.ndarray,
              starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_accumulate`` for keys already sorted, whose runs start at
    ``starts``: one ``np.add.reduceat`` per run."""
    sums = np.add.reduceat(terms, starts)
    keep = sums != 0
    return keys[starts[keep]], sums[keep]


def _sum(keys: np.ndarray, terms: np.ndarray, bound: int,
         size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, increasing, of nonempty terms, each at most
    ``bound`` in size and keyed below ``size``, and the exact sum at each,
    dropping sums that cancel: in one accumulator (``_accumulate``) when
    ``size`` is at most ``_DENSE_CELLS`` times the number of terms, else by
    sorted runs (``_sum_runs``).  The sums run on object arrays when the
    most terms at one key times ``bound`` reaches 2**63, counted only when
    the number of terms times ``bound`` does."""
    dense = size <= _DENSE_CELLS * keys.size
    if not dense:
        order = keys.argsort(kind="stable")
        keys, terms = keys[order], terms[order]
        starts, lengths = _runs(keys)
    if keys.size * bound >= _WORD:
        most = int(np.bincount(keys).max() if dense else lengths.max())
        terms = terms.astype(_word_dtype(most * bound), copy=False)
    return _accumulate(keys, terms, size) if dense else _sum_runs(keys, terms, starts)


def _spans(lengths: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """The concatenated ranges firsts[i], firsts[i] + 1, ..., of the given
    lengths."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (firsts - ends + lengths).repeat(lengths)


class Stamp(NamedTuple):
    """The nonzeros of one local element matrix as read-only integer
    arrays: local row, local col, numerator and positive denominator of
    each.  Formed once from exact values (``Stamp.of``) and then only
    placed (``OpMatrix.from_stamps``)."""

    rows: np.ndarray
    cols: np.ndarray
    num: np.ndarray
    den: np.ndarray

    @classmethod
    def of(cls, triplets: Iterable[tuple[int, int, Fraction]]) -> "Stamp":
        """The stamp of the nonzero ``(i, j, v)`` triplets."""
        items = [(i, j, Fraction(v)) for i, j, v in triplets if v]
        arrays = (np.array([i for i, _, _ in items], dtype=np.int64),
                  np.array([j for _, j, _ in items], dtype=np.int64),
                  _ints([v.numerator for _, _, v in items]),
                  _ints([v.denominator for _, _, v in items]))
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)


class OpMatrix:
    """Sparse exact matrix with domain/codomain tags.

    Row r holds the columns ``cols[ptr[r]:ptr[r + 1]]`` in increasing order
    and their nonzero integer numerators over the row's denominator, the
    least common denominator of its entries (1 for an empty row).  The
    storage is frozen when the matrix is built: ``compose``, ``transpose``,
    ``stack``, ``hstack``, the blocks, ``signed_sum``, ``+`` and ``-``
    return new matrices, and ``entries`` is a read-only view.

    ``compose`` puts the right factor's numerators over one denominator L,
    multiplies every pair of matching nonzeros and sums the products at
    each output position with ``_sum`` (see the module docstring), dropping
    the sums that cancel.  Each product is at most the largest left
    numerator times the largest scaled right numerator; the products are
    formed in int64 when that cap is below 2**63, and summed in int64 when
    the most products at one position times it is.
    """

    def __init__(self, nrows: int, ncols: int, domain: str = "", codomain: str = ""):
        """The zero matrix of this shape."""
        self._set(nrows, ncols, np.zeros(nrows + 1, dtype=np.int64), _EMPTY, _EMPTY, _EMPTY,
                  None, domain, codomain)

    def _set(self, nrows: int, ncols: int, ptr: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             num: np.ndarray, den: np.ndarray | None, domain: str, codomain: str) -> None:
        """Freeze the storage: row pointers, row-major nonzeros and the row
        denominators (all 1 when None)."""
        self.nrows = nrows
        self.ncols = ncols
        self.domain = domain
        self.codomain = codomain
        self._ptr = ptr
        self._rows = rows  # the row of each nonzero
        self._cols = cols
        self._num = num
        self._den = np.ones(nrows, dtype=np.int64) if den is None else den
        for a in (self._ptr, rows, cols, num, self._den):
            a.flags.writeable = False

    @classmethod
    def _from_sorted(cls, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
                     num: np.ndarray, den: np.ndarray | int, domain: str = "",
                     codomain: str = "") -> "OpMatrix":
        """The matrix with entries num / den[row] at (rows, cols), given in
        row-major order at distinct positions, every num nonzero and every
        den positive; ``den`` is one per row or one for all.  Each row's
        numerators and denominator are divided by their gcd, which leaves
        the row's least common denominator (1 for an empty row)."""
        if not num.size:
            return cls(nrows, ncols, domain, codomain)
        out = cls.__new__(cls)
        counts = np.bincount(rows, minlength=nrows)
        ptr = np.zeros(nrows + 1, dtype=np.int64)
        counts.cumsum(out=ptr[1:])
        if isinstance(den, int) and den == 1:  # integers: every row is reduced
            out._set(nrows, ncols, ptr, rows, cols, _narrow(num), None, domain, codomain)
            return out
        used = counts.nonzero()[0]
        starts, lengths = ptr[used], counts[used]
        if isinstance(den, int):
            den = np.array(den, dtype=_word_dtype(den))
        else:
            den = den[used]
        g = np.gcd(np.gcd.reduceat(num, starts), den)
        reduced = _narrow(den // g)
        row_den = np.ones(nrows, dtype=reduced.dtype)
        row_den[used] = reduced
        out._set(nrows, ncols, ptr, rows, cols, _narrow(num // g.repeat(lengths)), row_den,
                 domain, codomain)
        return out

    @classmethod
    def _from_triplets(cls, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
                       num: np.ndarray, den: np.ndarray, domain: str = "",
                       codomain: str = "") -> "OpMatrix":
        """The matrix with entries num / den at (rows, cols), in any order,
        dens positive.  Every value is put over L, the lcm of the dens
        (``_over_lcm``), and repeated positions are summed (``_sum``); a sum
        that cancels leaves no entry."""
        if not num.size:
            return cls(nrows, ncols, domain, codomain)
        terms, total, bound = _over_lcm(num, den)
        keys, sums = _sum(rows * ncols + cols, terms, bound, nrows * ncols)
        return cls._from_sorted(nrows, ncols, keys // ncols, keys % ncols, sums, total,
                                domain, codomain)

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: Mapping[tuple[int, int], Fraction],
                     domain: str = "", codomain: str = "") -> "OpMatrix":
        """The matrix with these ``{(row, col): value}`` entries."""
        items = [(r, c, Fraction(v)) for (r, c), v in entries.items() if v]
        for r, c, _ in items:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r}, {c}) outside the {nrows}x{ncols} shape")
        return cls._from_triplets(
            nrows, ncols, np.array([r for r, _, _ in items], dtype=np.int64),
            np.array([c for _, c, _ in items], dtype=np.int64),
            _ints([v.numerator for _, _, v in items]),
            _ints([v.denominator for _, _, v in items]), domain, codomain)

    @classmethod
    def from_stamps(cls, nrows: int, ncols: int,
                    placed: Iterable[tuple[Stamp, Sequence[int], Sequence[Sequence[int]]]],
                    domain: str = "", codomain: str = "") -> "OpMatrix":
        """The matrix of stamps placed at many places.  Each item is a stamp
        with the row offset and the column map of every place it goes: the
        stamp's entry (i, j, v) lands at ``(base + i, cols[j])``.

        Every place of a stamp is filled by one integer gather from its
        arrays; no ``Fraction`` is read.  A position stamped again gets the
        exact sum, and a sum that cancels leaves no entry.
        """
        rows, cols, nums, dens = [], [], [], []
        for stamp, where, cols_at in placed:
            if not stamp.rows.size or not len(where):
                continue
            where = np.asarray(where, dtype=np.int64)
            cols_at = np.asarray(cols_at, dtype=np.int64)
            rows.append((where[:, None] + stamp.rows).ravel())
            cols.append(cols_at[:, stamp.cols].ravel())
            # the stamp's values once per place (np.tile, without its overhead)
            nums.append(stamp.num[None, :].repeat(where.size, axis=0).ravel())
            dens.append(stamp.den[None, :].repeat(where.size, axis=0).ravel())
        if not rows:
            return cls(nrows, ncols, domain, codomain)
        return cls._from_triplets(nrows, ncols, np.concatenate(rows), np.concatenate(cols),
                                  np.concatenate(nums), np.concatenate(dens), domain, codomain)

    @classmethod
    def block_diagonal(cls, stamps: Sequence[Stamp], sizes: Sequence[int], which: np.ndarray,
                       domain: str = "", codomain: str = "") -> "OpMatrix":
        """The square matrix whose diagonal blocks, one after another, are
        stamps[which[0]], stamps[which[1]], ..., block b of size
        sizes[which[b]].  Each stamp's entries must be distinct and in
        row-major order, so the placed entries are too: nothing is sorted or
        summed.  Every value is put over L, the lcm of the stamps' dens
        (``_over_lcm``)."""
        size = np.asarray(sizes, dtype=np.int64)[which]
        ends = size.cumsum()
        dim = int(ends[-1]) if ends.size else 0
        counts = np.array([stamp.rows.size for stamp in stamps], dtype=np.int64)
        if not counts[which].any():
            return cls(dim, dim, domain, codomain)
        # where each block's entries start in the stamps' concatenation
        at = _spans(counts[which], (counts.cumsum() - counts)[which])
        offsets = (ends - size).repeat(counts[which])
        scaled, total, _ = _over_lcm(np.concatenate([stamp.num for stamp in stamps]),
                                     np.concatenate([stamp.den for stamp in stamps]))
        return cls._from_sorted(
            dim, dim, np.concatenate([stamp.rows for stamp in stamps])[at] + offsets,
            np.concatenate([stamp.cols for stamp in stamps])[at] + offsets, scaled[at], total,
            domain, codomain)

    @classmethod
    def from_columns(cls, nrows: int, vectors: Sequence[Sequence[Fraction]]) -> "OpMatrix":
        """The dense vectors, each of length nrows, as the columns of one
        sparse matrix.  Every entry is an ``int`` or a ``Fraction``; any
        other value raises ``TypeError`` naming its column and row."""
        if any(len(vec) != nrows for vec in vectors):
            raise ValueError(f"a column of from_columns is not of length {nrows}")
        values = [v for vec in vectors for v in vec]
        if not set(map(type, values)) <= _EXACT_TYPES:
            for at, v in enumerate(values):
                if not isinstance(v, (int, Fraction)):
                    raise TypeError(f"column {at // nrows}, row {at % nrows} of from_columns "
                                    f"is {v!r}, not an int or a Fraction")
        shape = (len(vectors), nrows)
        return cls._from_dense(_ints([v.numerator for v in values]).reshape(shape).T,
                               _ints([v.denominator for v in values]).reshape(shape).T)

    @classmethod
    def from_integer_columns(cls, nrows: int, columns: Sequence[Sequence[int]],
                             dens: Sequence[int]) -> "OpMatrix":
        """The matrix whose column j is the dense integer vector columns[j],
        of length nrows, over the positive denominator dens[j]; ``columns``
        may be one 2-D integer array, a row per column."""
        return cls._from_dense(_ints(columns).reshape(len(columns), nrows).T, _ints(dens))

    @classmethod
    def from_integer_array(cls, num: np.ndarray) -> "OpMatrix":
        """The matrix of a dense 2-D integer array, int64 or object (Python
        ints): its nonzeros in row-major order, over 1."""
        rows, cols = num.nonzero()
        return cls._from_sorted(num.shape[0], num.shape[1], rows, cols, num[rows, cols], 1)

    @classmethod
    def _from_dense(cls, num: np.ndarray, den: np.ndarray) -> "OpMatrix":
        """The matrix with entries num / den of a dense 2-D integer array
        ``num`` over positive dens, one per column (1-D) or per entry (2-D).
        The nonzeros are read in row-major order and put over L
        (``_over_lcm``): nothing is sorted or summed."""
        rows, cols = num.nonzero()
        at = cols if den.ndim == 1 else rows * num.shape[1] + cols
        scaled, total, _ = _over_lcm(num[rows, cols], den.reshape(-1), at)
        return cls._from_sorted(num.shape[0], num.shape[1], rows, cols, scaled, total)

    @classmethod
    def stack(cls, blocks: Sequence["OpMatrix"]) -> "OpMatrix":
        """The blocks, all of one width, one below another; each row keeps
        its numerators and denominator."""
        ncols = blocks[0].ncols
        if any(b.ncols != ncols for b in blocks):
            raise ValueError("width mismatch in stack")
        firsts = np.cumsum([0] + [b.nrows for b in blocks])
        starts = np.cumsum([0] + [b.nnz for b in blocks])
        out = cls.__new__(cls)
        out._set(int(firsts[-1]), ncols,
                 np.concatenate([starts[:1]] + [b._ptr[1:] + s for b, s in zip(blocks, starts)]),
                 np.concatenate([b._rows + f for b, f in zip(blocks, firsts)]),
                 np.concatenate([b._cols for b in blocks]),
                 _narrow(np.concatenate([b._num for b in blocks])),
                 _narrow(np.concatenate([b._den for b in blocks])), blocks[0].domain, "")
        return out

    @classmethod
    def hstack(cls, blocks: Sequence["OpMatrix"]) -> "OpMatrix":
        """The blocks, all of one height, side by side: each block's entries
        move right by the widths before it, and every value is put over L
        (``_over_lcm``).  The entries are already distinct, so one stable
        sort by row orders them and nothing is summed."""
        nrows = blocks[0].nrows
        if any(b.nrows != nrows for b in blocks):
            raise ValueError("height mismatch in hstack")
        offsets = np.cumsum([0] + [b.ncols for b in blocks])
        rows = np.concatenate([b._rows for b in blocks])
        order = rows.argsort(kind="stable")
        scaled, total, _ = _over_lcm(np.concatenate([b._num for b in blocks]),
                                     np.concatenate([b._den[b._rows] for b in blocks]))
        cols = np.concatenate([b._cols + f for b, f in zip(blocks, offsets)])
        return cls._from_sorted(nrows, int(offsets[-1]), rows[order], cols[order], scaled[order],
                                total, "", blocks[0].codomain)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self._cols.size)

    def _items(self) -> Iterable[tuple[int, int, Fraction]]:
        """(row, col, value) of every nonzero in row-major order, as Python
        ints and Fractions; equal values share one Fraction."""
        values: dict[tuple[int, int], Fraction] = {}
        dens = self._den.tolist()
        for r, c, n in zip(self._rows.tolist(), self._cols.tolist(), self._num.tolist()):
            key = (n, dens[r])
            v = values.get(key)
            if v is None:
                v = values[key] = Fraction(n, dens[r])
            yield r, c, v

    @property
    def entries(self) -> Mapping[tuple[int, int], Fraction]:
        """Read-only ``{(row, col): value}`` view of the nonzeros, built on
        each access; ``+`` and ``-`` make a changed matrix."""
        return MappingProxyType({(r, c): v for r, c, v in self._items()})

    @classmethod
    def signed_sum(cls, terms: Sequence[tuple[int, "OpMatrix"]]) -> "OpMatrix":
        """sign_1 M_1 + sign_2 M_2 + ..., each sign +1 or -1 and every M of
        one shape, as one ``_from_triplets``: a sum that cancels leaves no
        entry.  The result takes the tags of the first matrix."""
        first = terms[0][1]
        if any(m.shape != first.shape for _, m in terms):
            raise ValueError("shape mismatch in a matrix sum")
        return cls._from_triplets(
            first.nrows, first.ncols, np.concatenate([m._rows for _, m in terms]),
            np.concatenate([m._cols for _, m in terms]),
            np.concatenate([m._num if sign > 0 else -m._num for sign, m in terms]),
            np.concatenate([m._den[m._rows] for _, m in terms]), first.domain, first.codomain)

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix.signed_sum([(1, self), (1, other)])

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix.signed_sum([(1, self), (-1, other)])

    def __eq__(self, other: object) -> bool:
        """Equal shapes and equal values.  Every constructor ends in
        ``_from_sorted`` or ``_set`` with each row over its least common
        denominator and gcd-reduced, so equal matrices store equal ``ptr``,
        ``cols``, ``num`` and ``den``: nothing is subtracted or reduced."""
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(a, b) for a, b in zip(self.integer_rows(), other.integer_rows()))

    def row_block(self, start: int, stop: int) -> "OpMatrix":
        """Rows start..stop-1 as a matrix of their own; each row keeps its
        numerators and denominator."""
        if not 0 <= start <= stop <= self.nrows:
            raise ValueError(f"rows {start}..{stop} outside {self.nrows}")
        a, b = int(self._ptr[start]), int(self._ptr[stop])
        out = OpMatrix.__new__(OpMatrix)
        out._set(stop - start, self.ncols, self._ptr[start:stop + 1] - a,
                 self._rows[a:b] - start, self._cols[a:b], _narrow(self._num[a:b]),
                 _narrow(self._den[start:stop]), self.domain, "")
        return out

    def column_block(self, start: int, stop: int, width: int | None = None,
                     offset: int = 0) -> "OpMatrix":
        """Columns start..stop-1 placed at columns offset.. of a matrix
        ``width`` columns wide (stop - start by default).  Each row is
        reduced again by ``_from_sorted``, as the entries it drops may have
        set its least common denominator."""
        width = stop - start if width is None else width
        if not (0 <= start <= stop <= self.ncols and 0 <= offset <= width - (stop - start)):
            raise ValueError(f"columns {start}..{stop} at {offset} do not fit "
                             f"{self.ncols} -> {width}")
        keep = (self._cols >= start) & (self._cols < stop)
        return OpMatrix._from_sorted(self.nrows, width, self._rows[keep],
                                     self._cols[keep] + (offset - start), self._num[keep],
                                     self._den, "", self.codomain)

    def dense_rows(self) -> list[list[Fraction]]:
        rows = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        for r, c, v in self._items():
            rows[r][c] = v
        return rows

    def float_values(self) -> np.ndarray:
        """The stored nonzeros as floats, in the order of ``integer_rows``:
        each is its numerator over its row denominator, correctly rounded
        as ``float(Fraction)`` is."""
        num, den = self._num, self._den[self._rows]
        if _max_abs(num) <= _FLOAT_EXACT and _max_abs(den) <= _FLOAT_EXACT:
            return num.astype(float) / den.astype(float)
        return (num.astype(object) / den.astype(object)).astype(float)  # Python rounds once

    def float_array(self) -> np.ndarray:
        """Dense float copy of the whole matrix, from ``float_values``."""
        out = np.zeros((self.nrows, self.ncols))
        out[self._rows, self._cols] = self.float_values()
        return out

    def columns(self) -> list[list[Fraction]]:
        cols = [[_ZERO] * self.nrows for _ in range(self.ncols)]
        for r, c, v in self._items():
            cols[c][r] = v
        return cols

    def column(self, j: int) -> list[Fraction]:
        col = [_ZERO] * self.nrows
        for r, c, v in self._items():
            if c == j:
                col[r] = v
        return col

    def transpose(self) -> "OpMatrix":
        return OpMatrix._from_triplets(self.ncols, self.nrows, self._cols, self._rows, self._num,
                                       self._den[self._rows], self.codomain, self.domain)

    def matvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        return self.compose(OpMatrix.from_columns(self.ncols, [v])).column(0)

    def rmatvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Transpose times vector."""
        return self.transpose().matvec(v)

    def compose(self, other: "OpMatrix") -> "OpMatrix":
        """Matrix product self @ other, exact and sparse: the product of
        every pair of matching nonzeros, summed at its output position by
        ``_sum``; cancelled sums are dropped."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in compose")
        inner = self._cols
        firsts = other._ptr[inner]
        lengths = other._ptr[inner + 1] - firsts
        if not lengths.any():
            return OpMatrix(self.nrows, other.ncols, other.domain, self.codomain)
        right, scale, bound = _over_lcm(other._num, other._den, other._rows)
        bound *= _max_abs(self._num)
        dtype = _word_dtype(bound)
        # pair each nonzero a_rk of self with every nonzero of row k of other
        pos = _spans(lengths, firsts)
        pair = np.arange(inner.size).repeat(lengths)
        keys, sums = _sum(self._rows[pair] * other.ncols + other._cols[pos],
                          self._num.astype(dtype, copy=False)[pair]
                          * right.astype(dtype, copy=False)[pos],
                          bound, self.nrows * other.ncols)
        den = self._den.astype(_word_dtype(_max_abs(self._den) * scale), copy=False) * scale
        return OpMatrix._from_sorted(self.nrows, other.ncols, keys // other.ncols,
                                     keys % other.ncols, sums, den,
                                     other.domain, self.codomain)

    def column_dots(self, other: "OpMatrix") -> "OpMatrix":
        """The 1 x ncols matrix of the dot products of matching columns of
        self and other: the products at shared positions, summed exactly
        per column."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch in column_dots")
        _, ia, ib = np.intersect1d(self._rows * self.ncols + self._cols,
                                   other._rows * self.ncols + other._cols,
                                   assume_unique=True, return_indices=True)
        rows = self._rows[ia]
        return OpMatrix._from_triplets(1, self.ncols, np.zeros_like(rows), self._cols[ia],
                                       _products(self._num[ia], other._num[ib]),
                                       _products(self._den[rows], other._den[rows]))

    @property
    def is_zero(self) -> bool:
        return not self._cols.size

    def zero_columns(self) -> np.ndarray:
        """A boolean array, True at each column without a nonzero."""
        out = np.ones(self.ncols, dtype=bool)
        out[self._cols] = False
        return out

    def integer_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The frozen storage (ptr, cols, num, den): row r holds the
        numerators num[ptr[r]:ptr[r + 1]] at the columns cols[ptr[r]:ptr[r + 1]],
        in increasing order, over its denominator den[r]."""
        return self._ptr, self._cols, self._num, self._den

    def export(self, path: str, meta: dict | None = None) -> None:
        """Write a MatrixMarket-style file with exact ``p/q`` entries, each
        reduced by the gcd of its numerator and its row denominator."""
        header = {
            "schema": 1,
            "domain": self.domain,
            "codomain": self.codomain,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "nnz": self.nnz,
        }
        if meta:
            header.update(meta)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%%MatrixMarket matrix coordinate rational general\n")
            fh.write("%json " + json.dumps(header, sort_keys=True) + "\n")
            fh.write(f"{self.nrows} {self.ncols} {self.nnz}\n")
            den = self._den[self._rows]
            g = np.gcd(self._num, den)
            fh.writelines(f"{r + 1} {c + 1} {p}/{q}\n" for r, c, p, q in zip(
                self._rows.tolist(), self._cols.tolist(), (self._num // g).tolist(),
                (den // g).tolist()))

    def __repr__(self) -> str:
        return f"OpMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def load_matrix(path: str) -> OpMatrix:
    """Read a file written by ``OpMatrix.export``.  A missing or malformed
    size or ``%json`` line, an entry outside the shape, with a zero
    denominator or that does not parse raises ``ValueError`` naming the
    path and the line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = {}
    body = []
    for lineno, line in enumerate(lines, 1):
        if line.startswith("%json "):
            try:
                meta = json.loads(line[len("%json "):])
                if not isinstance(meta, dict):
                    raise ValueError("the %json header is not an object")
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from exc
        elif line.startswith("%"):
            continue
        elif line.strip():
            body.append((lineno, line))
    if not body:
        raise ValueError(f"{path}: no size line")
    lineno, line = body[0]
    try:
        sizes = [int(tok) for tok in line.split()]
        if len(sizes) != 3 or min(sizes) < 0:
            raise ValueError(f"the size line needs 3 integers >= 0, got {line!r}")
    except ValueError as exc:
        raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    nrows, ncols, nnz = sizes
    entries: dict[tuple[int, int], Fraction] = {}
    for lineno, line in body[1:]:
        try:
            r, c, val = line.split()
            num, den = val.split("/")
            r, c, num, den = int(r), int(c), int(num), int(den)
            if not (1 <= r <= nrows and 1 <= c <= ncols):
                raise ValueError(f"entry ({r}, {c}) outside the {nrows}x{ncols} shape")
            if not den:
                raise ValueError(f"zero denominator in {val!r}")
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from exc
        key = (r - 1, c - 1)
        entries[key] = entries.get(key, 0) + Fraction(num, den)
    out = OpMatrix.from_entries(nrows, ncols, entries, meta.get("domain", ""),
                                meta.get("codomain", ""))
    if out.nnz != nnz:
        raise ValueError(f"nnz mismatch reading {path}")
    return out


