"""Host speed, measured with a fixed reference computation.

On a shared host the speed of a core drifts by 1.3-1.8x for stretches of
seconds to minutes, the same on every core and with no steal time visible
in the guest.  A 40 s run mostly sees one speed, so raw wall times of runs
minutes apart differ by more than any regression worth catching.

``kernel`` is a fixed piece of pure-Python work shaped like derham's hot
paths: a fraction-free integer elimination with gcd row reduction, rational
dot products, a sparse dict assembly with tuple keys, and reads of Python
ints scattered over a few megabytes, as derham's tables are.  It imports
nothing from derham, so no change to the program can move it.  The worker
runs it between reports and scales every time it reports by

    REF_S / median(kernel times around the measurement)

so the end-to-end times read as seconds at the reference speed.  The raw
wall times are printed too.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from time import perf_counter

# median kernel time on the reference host in its fast state: a 2-vCPU
# Firecracker VM on a 2.0 GHz Intel Xeon, Python 3.11
REF_S = 0.0075

_RNG = random.Random(20240430)
_ROWS, _COLS = 26, 40
_MATRIX = [[_RNG.choice((0, 0, 0, 0, 1, -1, 2, -3, _RNG.randint(-40, 40))) for _ in range(_COLS)]
           for _ in range(_ROWS)]
_FRACS = [Fraction(_RNG.randint(-30, 30), _RNG.randint(1, 12)) for _ in range(120)]
_CELLS = [(_RNG.randrange(400), _RNG.randrange(400), _RNG.randint(-6, 6)) for _ in range(2500)]
# about 4 MB of int objects and pointers: more than a core's own caches hold
_TABLE = [_RNG.randrange(1 << 40) for _ in range(100_000)]
_WALK = _RNG.sample(range(len(_TABLE)), 6000)


def _eliminate() -> int:
    work = [list(r) for r in _MATRIX]
    rank = 0
    for col in range(_COLS):
        pick = next((i for i in range(rank, len(work)) if work[i][col]), -1)
        if pick < 0:
            continue
        work[rank], work[pick] = work[pick], work[rank]
        pivot_row = work[rank]
        p = pivot_row[col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                row = [a * p - b * f for a, b in zip(work[i], pivot_row)]
                g = 0
                for v in row:
                    if v:
                        g = math.gcd(g, v)
                work[i] = [v // g for v in row] if g > 1 else row
        rank += 1
        if rank == len(work):
            break
    return rank


def _dots() -> Fraction:
    s = Fraction(0)
    for i in range(0, len(_FRACS) - 8, 3):
        for a, b in zip(_FRACS[i:i + 8], _FRACS[i + 1:i + 9]):
            s += a * b
    return s


def _assemble() -> int:
    entries: dict[tuple[int, int], int] = {}
    for i, j, v in _CELLS:
        key = (i % 97, j % 89)
        entries[key] = entries.get(key, 0) + v
    return sum(1 for key in sorted(entries) if entries[key])


def _scattered_reads() -> int:
    table = _TABLE
    s = 0
    for i in _WALK:
        s += table[i]
    return s


def kernel() -> None:
    """One unit of reference work (about ``REF_S`` seconds on a quiet host)."""
    _eliminate()
    _dots()
    _assemble()
    _scattered_reads()


def sample(repeats: int = 1) -> list[float]:
    """Times of ``repeats`` kernel runs, in seconds."""
    out = []
    for _ in range(repeats):
        t = perf_counter()
        kernel()
        out.append(perf_counter() - t)
    return out


def scale(kernel_times: list[float]) -> float:
    """The factor that turns wall seconds measured while ``kernel_times``
    were taken into seconds at the reference speed."""
    return REF_S / statistics.median(kernel_times)
