"""Location and scale estimators: mean, median, Hodges-Lehmann variants,
MAD, the pairwise-difference (Shamos) scale estimator, and the sample
standard deviation.

All functions are pure: they accept any finite 1-d array-like, never mutate
it, and return a plain float.  Estimates are invariant under permutation of
the input (sums use ``math.fsum``; medians are order-statistic based).

The three Hodges-Lehmann variants differ only in which index pairs (i, j)
enter the pairwise-average multiset:

    hl1 : i < j            (distinct pairs)
    hl2 : i <= j           (Walsh averages, diagonal included once)
    hl3 : all ordered (i, j)

Scale estimators accept ``consistent=True`` (default) to apply the constant
that makes them consistent for sigma under a normal population.

Each estimator's facts live on its ``Estimator`` member, defined with the
package's input checks in ``_facts``, which needs no numpy;
``_row_estimates``, which reads them, is the one path of the scalar
functions, the simulator and the control charts; ``factors`` maps each
scale estimator to its unbiasing factor and variance.

The six order-statistic estimators (median, mad, shamos, hl1, hl2, hl3)
share one median kernel, ``_row_medians``, over the rows of a 2-d array:
the scalar functions are 1-row calls of it, and the simulator and the
control charts call it on blocks.  It selects in one reused buffer of about
2 MB per chunk of rows: O(n) memory per row for the median and the MAD,
O(n^2) for the pairwise estimators.  Those sort a chunk's rows into a new
array as they fill it, never the caller's rows, so a call's working memory
is the buffer whatever the block's size: a traced peak of 2.4-2.7 MB for
4096 rows at n = 100 or 200, whose samples take 3.1 or 6.3 MB.  They form
only the pairs whose rank bounds leave them within reach of the two middle
ranks, as X + Y selection (Johnson and Mizoguchi 1978) and the fast Qn and
Sn (Croux and Rousseeuw 1992) do: about 45% of the values of the
Hodges-Lehmann variants (for hl3, of its n^2 ordered pairs) and 90% of
those of shamos.  The plan, a band and each counting round select in one
window of pairs (i, j) for each i, ``starts[i] <= j < stops[i]``, which
holds the diagonal pair (i, i) exactly when it starts at i (``_PairPlan``).
A long pairwise row is not filled when it is the call's only row, as in the
scalar API from n of about 270 (hl3, shamos) or 380 (hl1, hl2) on, or too
long to share the buffer: ``_count_middle`` selects its two middle values
by counting in its sorted pair matrix, in O(n log n) time and O(n) memory.
Blocks of shorter rows, as in the simulator and the control charts, keep
the buffer.  A block whose plan keeps 1200 pairs or more per row, as in
the simulator from n = 53 (hl3, shamos), 73 (hl2) or 74 (hl1) on, and
which has at least 8 times the rows of the chunks that hold 32 rows, as
its 4096-row blocks do, selects those chunks from the plan's pairs and
then learns a band: the plan narrowed to the places of each window that
the rows so far needed, widened a little (``_needed``).  Later chunks form
and select only the band, about half of the plan's pairs at n = 100 and a
third at n = 200, and check each row exactly: its largest pair below the
band must not exceed its lower middle value, nor its smallest pair above
the band fall short of its upper one, so that the band's middle values are
the plan's (Floyd and Rivest 1975 select among the values a sample
predicts, then check).  A row that fails is selected again from the plan
and widens the band.  One select step counts in a row or fills the buffer
with the plan's or the band's pairs and selects at their ranks, for each
chunk, each row that misses the band and each row whose middle sums
overflow, selected again with its values halved.  ``_select_middles``
picks how a chunk's rows are selected, by the row count and the row length
m only: by a sort, a partition or, in blocks of 1024 rows or more of up to
9 values, a sorting network (Batcher 1968) over whole columns, in chunks
of at most 8192 rows whose columns stay in a 2 MB L2 cache: at 40,960 x 5 a
call took 0.60-0.93 times as long as in one chunk and peaked at 0.72-1.50
MB of traced memory rather than 2.35-4.54 MB, at 100,000 x 2 0.26-0.69
times as long at 1.20-1.33 MB rather than 5.34-6.87 MB.  A pair
value, a MAD deviation or a scale times its consistency constant past the
largest double rounds to an infinity without a warning:
a block runs under one ``np.errstate(over="ignore")``, and a single row,
as from the scalar API, goes quiet only when the two ends of its sorted
row or its MAD centre say that a value may pass the largest double.

The mean and the standard deviation have two kernels: ``math.fsum`` for one
sample in the scalar API, and numpy's row reductions for a block, which the
simulator and the control charts use.  The two may differ in the last bit,
and both are finite whenever the true value is.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from ._facts import _OFF_DIAGONAL, Estimator, _check_flag, _check_int, _multiset_size

__all__ = [
    "Estimator",
    "mean",
    "median",
    "hodges_lehmann",
    "hl1",
    "hl2",
    "hl3",
    "mad",
    "shamos",
    "std_dev",
    "select_kth",
    "PAIR_LIMIT",
]

# Pairwise estimators accept n up to this, in the scalar API and the
# simulator alike, and callers get an explicit size-limit error beyond it.
# No path holds more pairs than the buffer (see the module docstring).
PAIR_LIMIT = 10_000

# Values (pairs, for the pairwise estimators) per chunk buffer: 2 MB of
# doubles, small enough to stay in cache while a chunk is built and selected.
_BUFFER_PAIRS = 1 << 18

# Pairs a block fills per numpy call: 256 KB, which filled a chunk faster
# than 32, 128 or 512 KB or the whole 2 MB (crossover table in CHANGES.md).
_FILL_PAIRS = 1 << 15

# How _select_middles selects a chunk's rows of m values, by the row count
# and m only, whatever the kind or the parity of m (CPU time of whole calls;
# crossover tables in CHANGES.md):
# - a single row is sorted up to _SORT_SINGLE_ROW values, raw or pairs, and
#   partitioned beyond: a sort was as fast on odd m and faster on even m up
#   to about 1000 raw values and 740 pairs, a partition faster from 1100 on;
# - a block's rows of up to _NETWORK_ROW values go through a sorting network
#   over whole columns once _NETWORK_BLOCK rows or more pay for its numpy
#   call per comparator: a median call through it took 0.40 (m = 2), 0.56
#   (m = 5) and 0.93 (m = 9) times as long as the faster of sort and
#   partition at 1024 rows, but 0.98-1.37 at 64 rows and 1.22 (m = 9) at 512;
# - a network selects in chunks of at most _NETWORK_CHUNK rows, whose columns
#   stay in a 2 MB L2 cache, rather than _BUFFER_PAIRS // m (29,127-262,144
#   rows): on normal blocks a call took 0.60-0.93 times as long at 40,960 x 5
#   (hl1 fastest, hl3 slowest), 0.26 (median), 0.54 (mad) and 0.69 (hl3) at
#   100,000 x 2, but 0.91-1.12 at 20,000 x 5 and 0.93-1.20 at 16,384 x 3 and
#   x 9, in two or three chunks for one, the median slowest, 25 us more per
#   call at 16,384 x 3; its traced peak fell from 2.35-4.54 MB to
#   0.72-1.50 MB at 40,960 x 5 and from 5.34-6.87 MB to 1.20-1.33 MB at
#   100,000 x 2.  Chunks of 2048 or 4096 rows were slower than one chunk at
#   16,384-20,000 rows, by up to 2.0 times, and the median and the MAD at
#   40,960 x 5; chunks of 16,384 rows peaked at 1.13-2.69 MB at 40,960 x 5;
# - other block rows are sorted up to _SORT_ROW values and partitioned
#   beyond: a sort took 0.80-1.10 times as long at m = 11-15, 0.66 at
#   256, 1.03 at 320 and 1.20-1.34 at 539-1098 (hl1, shamos, n = 50).
_SORT_SINGLE_ROW = 700
_NETWORK_ROW = 9
_NETWORK_BLOCK = 1024
_NETWORK_CHUNK = 8192
_SORT_ROW = 256

# A block whose plan keeps at least _BAND_PAIRS pairs per row, and which has
# at least _BAND_CHUNKS times the rows of the whole chunks that hold
# _LEARN_ROWS rows, selects those chunks with the plan and its later rows in
# a band of each i's pairs that they needed, widened by _BAND_MARGIN pairs
# on each side, and again by each row that misses it (see _needed).  Through
# the band a normal block of 4096 rows took 0.90-1.01 times as long at plans
# of 1075-1115 pairs (n = 50 for shamos and hl3, 70 for hl1 and hl2),
# 0.85-0.95 at 1209-1600 and 0.80-0.82 at 1815-1849.  At n = 56-100, blocks
# of 2.2-5.6 times the rows learned took 0.96-1.48 times as long, of 8.8
# times or more 0.71-1.00.  Where a chunk holds 1-14 rows (n = 200-800),
# learning from 32 rows rather than one chunk let 15-62% fewer rows miss
# and took 0.70-1.05 times as long; a band learned from one row took 1.9-2.1
# times as long as the plan in blocks of 64 and 128 rows.  Blocks of 8 times
# the 32 rows learned took 0.54-1.40 times as long where a chunk holds one
# row (n = 600, 800), shamos the slowest, and 0.40-0.52 at 12 and 16 times.
# Margins of 1 and 2 pairs tied, 0 and 3 were slower; a band that did not
# widen took 1.3-1.8 times as long at n = 200 (CPU time; tables in
# CHANGES.md).
_BAND_CHUNKS = 8
_LEARN_ROWS = 32
_BAND_PAIRS = 1200
_BAND_MARGIN = 2

# _count_middle samples this many of the pairs left in a round, takes the
# pivots this many sample ranks either side of the one expected at the
# middle, and forms the pairs once at most _GATHER are left.
_SAMPLE = 2048
_MARGIN = 64
_GATHER = 4096


# The _row_medians kinds whose values are pairs of observations.
_PAIR_KINDS = ("shamos", "hl1", "hl2", "hl3")

# Below _SAFE_PAIRS in magnitude no pair value, nor one plus or minus an
# observation (_count_below), passes the largest double, so a single row
# whose sorted ends stay below it runs without np.errstate.  The Euclidean
# norm of a sample bounds every |x_i|; below _SAFE_SQUARES no deviation from
# the mean, its square or the sum of the squares does.
_SAFE_PAIRS = 2.0 ** 1022
_SAFE_SQUARES = 2.0 ** 510

# x - median rounds past the largest double only when the exact difference
# reaches it plus half its ulp, 2**970; |x| is at most the largest double,
# so only when |median| reaches 2**970: a single MAD row whose centre stays
# below it subtracts without np.errstate.
_SAFE_CENTRE = 2.0 ** 970

# The mean of n copies of v, a sum divided by n, need not be v, so the
# standard deviation of a constant sample can come out as a few ulps of v.
# Only a standard deviation this small relative to the first value asks
# whether the sample is constant, and is then exactly 0.
_TIES = 2.0 ** -40


def _sample(estimator: Estimator, values: Iterable[float]) -> np.ndarray:
    """``values`` as a sample ``estimator`` takes: a finite 1-d float array of
    ``min_n`` values or more, and at most ``PAIR_LIMIT`` for a pairwise one."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"sample must be 1-d, got an array of shape {arr.shape}")
    if arr.size < estimator.min_n:
        raise ValueError(f"sample of size {arr.size} given; need at least {estimator.min_n}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValueError("sample contains NaN or infinite values")
    _check_pair_limit(estimator, arr.size)
    return arr


def select_kth(values: Iterable[float], k: int) -> float:
    """Return the k-th smallest element (0-based), duplicates preserved.

    Backed by introselect (``np.partition``), average linear time.
    """
    arr = _sample(Estimator.MEDIAN, values)  # any finite sample of one value or more
    k = _check_int("k", k)
    if not 0 <= k < arr.size:
        raise ValueError(f"k={k} out of range for sample of size {arr.size}")
    value = float(np.partition(arr, k)[k])
    if value == 0:
        # partitioning treats -0.0 and +0.0 as equal and may return either,
        # so the sign is counted instead, -0.0 ranking before +0.0
        return -0.0 if k < _negatives(arr, "median") else 0.0
    return value


def _fsum_mean(values: np.ndarray, divisor: int) -> float:
    """``math.fsum(values) / divisor``, finite whenever the true quotient
    is.  Only when the exact sum passes the largest double are the values
    first divided by a power of two above ``divisor``, which is at least
    the number of terms of a mean or a variance, and the quotient is
    multiplied back."""
    try:
        return math.fsum(values) / divisor
    except OverflowError:
        scale = 2.0 ** divisor.bit_length()
        return math.fsum(values / scale) / divisor * scale


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (exactly-rounded sum, so permutation invariant)."""
    return _estimate(Estimator.MEAN, values)


def median(values: Iterable[float]) -> float:
    """Sample median: middle order statistic, or the average of the two
    middle order statistics when the size is even."""
    return _estimate(Estimator.MEDIAN, values)


def _check_pair_limit(estimator: Estimator, n: int) -> None:
    if n > PAIR_LIMIT and estimator._kind in _PAIR_KINDS:
        raise ValueError(f"size limit: pairwise estimator {estimator.value} "
                         f"supports n <= {PAIR_LIMIT}, got n={n}")


def _estimate(estimator: Estimator, values: Iterable[float], consistent: bool = True) -> float:
    """``estimator`` of one sample, a scale consistent unless ``consistent``
    is false: the scalar API's one path."""
    return _row_estimates(estimator, _sample(estimator, values), consistent)


def _pair_counts(kind: str, n: int, i: np.ndarray, j: np.ndarray):
    """(P, S) of the pairs (i, j), i <= j, of a sorted row of n values: how
    many of the kind's values are certainly <= and certainly >= the pair's,
    each counting the pair itself once.  hl3 takes each pair i < j twice,
    and the twin (j, i), equal to the pair, counts on neither side."""
    if kind == "shamos":
        g = j - i
        return g * (g + 1) // 2, (i + 1) * (n - j)
    if kind == "hl1":
        return ((i + 1) * j - i * (i + 1) // 2,
                (j - i) * (n - j) + (n - j) * (n - j - 1) // 2)
    if kind == "hl2":
        return ((i + 1) * (j + 1) - i * (i + 1) // 2,
                (j - i) * (n - j) + (n - j) * (n - j + 1) // 2)
    twin = i < j
    return (i + 1) * (2 * j - i + 1) - twin, (n - j) * (n + j - 2 * i) - twin


class _PairPlan(NamedTuple):
    """Pairs (i, j), i <= j, of a sorted row that ``_row_medians`` selects
    in, one window of j for each i: ``starts[i] <= j < stops[i]``, which
    holds the diagonal pair (i, i) exactly when ``starts[i] == i``.  Its
    values grow with j, and hl3 counts each pair i < j twice (``_values``)."""

    kind: str
    size: int                 # values of the pairs, hl3's twins twice
    ranks: tuple[int, int]    # ranks of the two middle values among them
    starts: np.ndarray
    stops: np.ndarray
    index: tuple | None       # _pair_index(plan), while it is small


# A plan of at most this many values caches its index, 512 KB of indices,
# so the 256 plans hold at most 128 MB.  Larger ones are given it once per
# ``_row_medians`` call of several rows that share the buffer; a single row,
# or one too long for the buffer, is counted in without an index.
_CACHED_INDEX = 1 << 15


def _values(kind: str, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """How many values the first ``counts[..., i]`` pairs of the windows
    from j = ``starts[i]`` stand for: hl3 counts each pair i < j twice and
    the diagonal pair (i, i) once, the other kinds each pair once."""
    if kind != "hl3":
        return counts
    return 2 * counts - ((starts == np.arange(starts.size)) & (counts > 0))


def _narrow(plan: _PairPlan, low: np.ndarray, high: np.ndarray) -> _PairPlan | None:
    """The plan of the places ``low[i] <= p < high[i]`` of each i's window
    of ``plan``, whose middle ranks are the plan's less the values below
    them, or None when a middle rank falls outside it."""
    starts, stops = plan.starts + low, plan.starts + high
    size = int(_values(plan.kind, starts, stops - starts).sum())
    shift = int(_values(plan.kind, plan.starts, low).sum())
    ranks = (plan.ranks[0] - shift, plan.ranks[1] - shift)
    if ranks[0] < 0 or ranks[1] >= size:
        return None
    return _PairPlan(plan.kind, size, ranks, starts, stops, None)


@lru_cache(maxsize=256)
def _pair_plan(n: int, kind: str) -> _PairPlan:
    """The pairs of a sorted row of n values that can be one of the two
    middle values of the pairwise ``kind``'s multiset of m values.

    Pair values grow along both indices of a sorted row, and rounding is
    monotone, so a pair's value is at least that of each pair it dominates.
    A pair with P > m // 2 + 1 (see ``_pair_counts``) ranks above both
    middle values, one with S > m - (m - 1) // 2 below them.  The middle
    values are those of the pairs kept, at ranks lowered by the number of
    values dropped below: the bound behind X + Y selection (Johnson and
    Mizoguchi 1978) and the fast Qn and Sn (Croux and Rousseeuw 1992).
    For each i the kept j form one range, found by bisection, so the plan is
    O(n); the cache holds every (n, kind) of a typical session.  A row too
    short to hold a pair, n < 2 for shamos and hl1, is a ``ValueError``.
    """
    first = 1 if kind in _OFF_DIAGONAL else 0
    if n <= first:
        raise ValueError(f"{kind} needs rows of at least {first + 1} value"
                         f"{'s' if first else ''}, got n={n}")
    m = _multiset_size(kind, n)
    lo_rank, hi_rank = (m - 1) // 2, m // 2
    i = np.arange(n)
    whole = _PairPlan(kind, m, (lo_rank, hi_rank), i + first, np.full(n, n), None)

    def first_j(cond):
        # the smallest j of i's window with cond(j), n if none (cond holds
        # from some j on)
        lo, hi = whole.starts, whole.stops
        while np.count_nonzero(lo < hi):
            mid = (lo + hi) // 2
            ok = cond(mid) | (lo == hi)
            lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
        return lo

    starts = first_j(lambda j: _pair_counts(kind, n, i, j)[1] <= m - lo_rank)
    stops = first_j(lambda j: _pair_counts(kind, n, i, j)[0] > hi_rank + 1)
    plan = _narrow(whole, starts - whole.starts, stops - whole.starts)
    if plan.size <= _CACHED_INDEX:
        plan = plan._replace(index=_pair_index(plan))
    # every caller gets these arrays from the cache
    for a in (plan.starts, plan.stops, *(plan.index or ())):
        a.flags.writeable = False
    return plan


def _pair_index(plan: _PairPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How many values a plan forms with each x_i as first operand, and the
    columns (i, j) of their operands, grouped by i: the pairs of i's window,
    then for hl3 its pairs i < j again: about 45% of the values of the
    Hodges-Lehmann variants (for hl3, of its n^2 ordered pairs) and 90% of
    those of shamos.  Only asked for while one row's values fit the buffer,
    so the columns take at most 4 MB."""
    pairs = plan.stops - plan.starts
    counts = _values(plan.kind, plan.starts, pairs)
    i = np.repeat(np.arange(pairs.size), counts)
    at = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # hl3's second copies, after the window, are its last pairs, those i < j
    return counts, i, np.where(at < pairs[i], plan.starts[i], plan.stops[i] - counts[i]) + at


def _fill_pairs(rows: np.ndarray, plan: _PairPlan | None, out: np.ndarray) -> None:
    """Write the values whose median is taken of each row into the same row
    of ``out``: the row itself for median and mad, and for the pairwise
    kinds the values of ``plan``'s pairs of sorted rows, ``S[j] - S[i]`` for
    shamos and the sums ``S[i] + S[j]``, not yet halved, for the
    Hodges-Lehmann variants.  ``plan`` carries its index: rows too long to
    share the buffer are never filled, ``_count_middle`` selects in them
    without forming their pairs.
    """
    if plan is None:
        out[...] = rows
        return
    op = np.subtract if plan.kind == "shamos" else np.add
    counts, i, j = plan.index
    if len(rows) == 1:
        # one row, as from the scalar API: indexing it costs less than take
        # and repeat, which are faster on many rows
        row = rows[0]
        op(row[j], row[i], out=out[0])
    elif out.flags.c_contiguous:
        # a slice of rows at a time, so that the repeated rows, a temporary
        # of the slice's size, stay in cache instead of doubling the buffer
        step = _FILL_PAIRS // out.shape[1] or 1
        for r in range(0, len(rows), step):
            part = out[r:r + step]
            np.take(rows[r:r + step], j, axis=1, out=part, mode="clip")
            op(part, np.repeat(rows[r:r + step], counts, axis=1), out=part)
    else:
        # a column-major buffer, as a sorting network takes its rows: one
        # column at a time, where take would fill a copy of ``out``
        for c, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            op(rows[:, b], rows[:, a], out=out[:, c])


def _pair_values(s: np.ndarray, kind: str, i, j):
    """The values of the pairs (i, j) of a sorted row ``s``, formed as
    ``_fill_pairs`` forms them; of each column, given sorted rows as the
    columns of ``s``.  Indexing the first axis keeps a row's gathers on
    numpy's fast path, which ``s[..., j]`` leaves."""
    return s[j] - s[i] if kind == "shamos" else s[j] + s[i]


def _count_below(s: np.ndarray, kind: str, t: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many of the pairs (i, j), ``starts[i] <= j < stops[i]``, of a
    sorted row ``s`` have a value below each pivot ``t[a]``, and how many
    at most ``t[a]``: two (pivots, n) arrays.

    Rounding is monotone, so the values of each i grow with j, and the
    strict bound starts where ``s[j]`` passes ``t - s[i]`` (``t + s[i]``
    for shamos).  That difference is rounded too, so the bound is then
    moved over whole runs of equal ``s[j]`` until the rounded pair values
    on its two sides agree with it.  The values equal to the pivot follow
    it, so the other bound steps on from it over the runs whose value is
    the pivot, which only a few i have unless the row is heavily tied.
    ``_count_middle`` gives
    the call times against correcting both bounds over whole arrays."""
    n = s.size
    every = slice(None)  # the first operands s[i], every i, as a view
    t = t[:, None]
    at = np.searchsorted(s, t + s if kind == "shamos" else t - s)
    np.maximum(at, starts, out=at)
    np.minimum(at, stops, out=at)
    while True:
        back = (at > starts) & (_pair_values(s, kind, every, at - 1) >= t)
        v = _pair_values(s, kind, every, np.minimum(at, n - 1))
        ahead = (at < stops) & (v < t)
        if not (back.any() or ahead.any()):
            break
        lo = np.broadcast_to(starts, at.shape)
        hi = np.broadcast_to(stops, at.shape)
        at[back] = np.maximum(lo[back], np.searchsorted(s, s[at[back] - 1], "left"))
        at[ahead] = np.minimum(hi[ahead], np.searchsorted(s, s[at[ahead]], "right"))
    upto = at.copy()
    flat = upto.reshape(-1)
    # the bounds at a value equal to their pivot, by place a * n + i in upto
    step = np.flatnonzero((at < stops) & (v == t))
    while step.size:
        i = step % n
        flat[step] = np.minimum(stops[i], np.searchsorted(s, s[flat[step]], "right"))
        inside = flat[step] < stops[i]
        step, i = step[inside], i[inside]
        step = step[_pair_values(s, kind, i, flat[step]) == t.reshape(-1)[step // n]]
    return at - starts, upto - starts


def _middle_of_windows(s: np.ndarray, kind: str, starts: np.ndarray,
                       sizes: np.ndarray) -> np.ndarray:
    """The median of the middle values of the windows of ``sizes`` pairs
    (i, j), ``j >= starts[i]``, of a sorted row ``s``, each weighted by its
    size, as a 1-element array: at least a quarter of the pairs in the
    windows are at most that value, and a quarter at least it."""
    i = np.flatnonzero(sizes)
    middles = _pair_values(s, kind, i, starts[i] + sizes[i] // 2)
    order = np.argsort(middles)
    weights = np.cumsum(sizes[i][order])
    at = np.searchsorted(weights, weights[-1] / 2)
    return middles[order[at:at + 1]]


def _sample_pairs(size: int, ends: np.ndarray,
                  stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of a systematic sample of ``size`` of the pairs in
    windows laid end to end, the window of each i ending at place
    ``ends[i]`` (exclusive) and at j = ``stops[i]``.  The a-th is at place
    ``f = (2a + 1) * total // (2 * size)``, in the window
    ``np.searchsorted(ends, f, "right")``, found without a search: f is
    below a place E exactly when (2a + 1) * total < 2 * size * E, so
    ``(2 * size * E + total - 1) // (2 * total)`` of the places are, and
    each window takes those below its end less those below its start."""
    total = int(ends[-1])
    f = (2 * np.arange(size) + 1) * total // (2 * size)
    below = (2 * size * ends + total - 1) // (2 * total)
    i = np.repeat(np.arange(ends.size), np.diff(below, prepend=0))
    return i, f + (stops - ends)[i]


def _count_middle(s: np.ndarray, plan: _PairPlan) -> tuple[float, float]:
    """The values at ``plan.ranks`` among the pairs ``plan`` keeps of the
    sorted row ``s``, selected by counting in its pair matrix without
    forming the pairs: O(n log n) time and O(n) memory, as X + Y selection
    (Johnson and Mizoguchi 1978) and the fast Qn and Sn (Croux and
    Rousseeuw 1992) select.

    Each i keeps a window of j that holds every pair still in reach of the
    middle ranks.  At first it is the plan's, which leaves out pairs no
    larger than the lower middle value and no smaller than the upper one;
    each round then cuts off pairs below the upper middle value at the
    windows' left ends and above it at their right ends.  A round takes two
    pivots from a systematic sample of the pairs in the windows, placed
    with integer arithmetic (``_sample_pairs``) and sorted once,
    ``_MARGIN`` sample ranks either side of the one expected at the rank,
    counts the values below and at most each pivot (``_count_below``), and
    narrows the windows to the values strictly between the two pivots the
    rank lies between.  Near the largest double the counts compare the
    rounded values, infinities too.  A pivot whose run of
    equal values holds the rank is the answer, so heavy ties cost no more
    than distinct values.  A round that leaves more than half of the pairs
    is followed by one whose pivot, the weighted median of the windows'
    middle values, cuts at least a quarter of them.  The last ``_GATHER``
    or fewer pairs are formed and selected in.  hl3 counts each pair
    i < j twice.

    The lower middle value, where it differs from the upper one, is the
    largest value below it: the last pair before the upper value's bound in
    some i, so it is read off those bounds.

    A scalar call of each pairwise kind on normal, Cauchy and rounded
    samples took 0.77-1.26 ms of CPU at n = 2000, 2.1-3.0 ms at 5000 and
    5.3-5.9 ms at 10,000, against 1.4-2.0, 3.8-4.7 and 8.2-9.2 ms when each
    round corrected both bounds of each pivot over whole arrays, placed its
    sample by a search and took its pivots by partition and ``np.unique``
    (medians of 21 interleaved calls, 2-vCPU Xeon, numpy 2.4).
    """
    kind = plan.kind
    n = s.size
    i = np.arange(n)
    first = 1 if kind in _OFF_DIAGONAL else 0
    starts, stops = plan.starts, plan.stops
    low, k = plan.ranks

    def weigh(c):
        # how many values the first c pairs of each window stand for
        return _values(kind, starts, c).sum(axis=-1)

    sure = False  # the next pivot must cut a quarter of the pairs
    while True:
        sizes = stops - starts
        ends = np.cumsum(sizes)
        total = int(ends[-1])
        if total <= _GATHER:
            rows = np.repeat(i, sizes)
            cols = np.arange(total) - np.repeat(ends - sizes - starts, sizes)
            values = _pair_values(s, kind, rows, cols)
            pool = np.concatenate([values, values[cols != rows]]) if kind == "hl3" else values
            upper = np.partition(pool, k).item(k)
            below = np.bincount(rows[values < upper], minlength=n)
            break
        if sure:
            pivots = _middle_of_windows(s, kind, starts, sizes)
        else:
            sample = _pair_values(s, kind, *_sample_pairs(_SAMPLE, ends, stops))
            sample.sort()
            centre = (k + 0.5) / int(weigh(sizes)) * _SAMPLE
            a, b = (min(max(math.floor(centre + d), 0), _SAMPLE - 1)
                    for d in (-_MARGIN, _MARGIN))
            pivots = sample[[a, b]] if sample[a] < sample[b] else sample[a:a + 1]
        strict, upto = _count_below(s, kind, pivots, starts, stops)
        lt, le = weigh(strict).tolist(), weigh(upto).tolist()
        hit = [a for a in range(len(pivots)) if lt[a] <= k < le[a]]
        if hit:
            upper = pivots.item(hit[0])
            below = strict[hit[0]]
            break
        after = [a for a in range(len(pivots)) if le[a] <= k]
        before = [a for a in range(len(pivots)) if k < lt[a]]
        if before:
            stops = starts + strict[before[0]]
        if after:
            k -= le[after[-1]]
            low -= le[after[-1]]
            starts = starts + upto[after[-1]]
        sure = int((stops - starts).sum()) > total // 2
    if low == k or int(weigh(below)) <= low:
        # one middle rank, or the lower one is in the run equal to the upper
        return upper, upper
    last = starts + below - 1
    has = np.flatnonzero(last >= i + first)
    values = _pair_values(s, kind, has, last[has])
    # an i whose window was empty from the start may have a pair above the
    # middle values just before it
    return values[values < upper].max().item(), upper


def _needed(plan: _PairPlan, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            bounds: tuple[np.ndarray, np.ndarray] | None = None):
    """(low, high): each i's places in its window of ``plan`` from the
    fewest pairs that any sorted row s of ``rows`` has below its lower
    middle value ``lo[r]`` to the most it has up to its upper one
    ``hi[r]``, widened by ``_BAND_MARGIN`` on each side, and by ``bounds``,
    such a (low, high) of other rows.  A search of ``b - s`` (``b + s`` for
    shamos) in s counts them for each i, the rounded comparison that
    ``_count_below`` starts from: a count may be off where rounding
    decides, but only a band uses them, and its check is exact."""
    shamos = plan.kind == "shamos"
    below, upto = ([np.searchsorted(s, b + s if shamos else b - s, side)
                    for s, b in zip(rows, middle.tolist())]
                   for middle, side in ((lo, "left"), (hi, "right")))
    width = plan.stops - plan.starts
    low = np.clip(np.min(below, axis=0) - plan.starts, 0, width) - _BAND_MARGIN
    high = np.clip(np.max(upto, axis=0) - plan.starts, 0, width) + _BAND_MARGIN
    np.clip(low, 0, None, out=low)
    np.minimum(high, width, out=high)
    if bounds is not None:
        np.minimum(low, bounds[0], out=low)
        np.maximum(high, bounds[1], out=high)
    return low, high


def _band_misses(rows: np.ndarray, plan: _PairPlan, band: _PairPlan, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """The sorted rows of ``rows`` whose middle values ``lo`` and ``hi`` in
    ``band`` need not be their ``plan``'s: a pair below the band exceeds
    ``lo``, or one above it is less than ``hi``.  Otherwise no pair outside
    the band lies strictly between them, and the band's ranks are those of
    the plan's middle values less the values below the band, so they are the
    plan's middle values.  Pair values grow with j, so the pairs just below
    and just above the band of each i decide, two gathers of at most n.  So
    a band selects as Floyd and Rivest's (1975) selection does, which also
    picks its values from a guess and checks it."""
    miss = np.zeros(len(rows), dtype=bool)
    i = np.flatnonzero(band.starts > plan.starts)
    if i.size:
        below = _pair_values(rows.T, plan.kind, i, band.starts[i] - 1)
        miss |= np.maximum.reduce(below, axis=0) > lo
    i = np.flatnonzero(band.stops < plan.stops)
    if i.size:
        above = _pair_values(rows.T, plan.kind, i, band.stops[i])
        miss |= np.minimum.reduce(above, axis=0) < hi
    return np.flatnonzero(miss)


def _negatives(row: np.ndarray, kind: str) -> int:
    """How many of the values whose median ``kind`` takes are negative or
    -0.0: the observations for "median", the pair sums for the
    Hodges-Lehmann variants.  Counted on the observations, as a sum is
    negative exactly when x_i < -x_j, and -0.0 only as -0.0 + -0.0."""
    negative = int(np.count_nonzero(row < 0))
    z = int(np.count_nonzero(np.signbit(row) & (row == 0)))
    if kind == "median":
        return negative + z
    s = np.sort(row)
    ordered = int(np.searchsorted(s, -s).sum())  # pairs (i, j), i == j too
    if kind == "hl3":
        return ordered + z * z
    distinct = (ordered - negative) // 2 + z * (z - 1) // 2
    return distinct + negative + z if kind == "hl2" else distinct


def _row_medians(block: np.ndarray, kind: str) -> np.ndarray:
    """Median of the values of each row of a (rows, n) float array: the row
    itself for "median", ``|x_i - median|`` for "mad" and ``|x_i - x_j|``
    for "shamos" (both unscaled), ``0.5 * (x_i + x_j)`` for "hl1", "hl2"
    and "hl3"; the midpoint median of ``_midpoint``, -0.0 before +0.0.
    ``block`` is never written: a single pairwise row is sorted up front,
    a block's pairwise rows one chunk at a time into a new array, so the
    call's working memory is the buffer.  Each chunk, each row that misses
    a band (``_needed``, ``_band_misses``) and each row whose middle sums
    overflow, with halved values, goes through one select step: counted in
    (``_count_middle``) when the plan caches no index and the row is the
    call's only one or too long to share the buffer, else filled into the
    buffer and selected at its ranks.  Values past the largest double round
    to infinities without a warning: a call of more than one row runs under
    one ``np.errstate(over="ignore")``, and a single row only when the ends
    of its sorted row reach ``_SAFE_PAIRS`` or, for "mad", its centre
    reaches ``_SAFE_CENTRE``.  Rows too short for the kind, of no values or
    no pair, are a ``ValueError`` that names the kind and n.
    """
    rows, n = block.shape
    unsorted = block  # the zero rule's signs: numpy's sort may swap -0.0 and +0.0
    quiet = rows > 1
    if rows == 1 and kind in _PAIR_KINDS:
        block = np.sort(block, axis=1)
        quiet = n > 0 and max(-block.item(0, 0), block.item(0, n - 1)) >= _SAFE_PAIRS
    if quiet and np.geterr()["over"] != "ignore":
        with np.errstate(over="ignore"):
            return _row_medians(unsorted, kind)
    hl = kind in ("hl1", "hl2", "hl3")
    # Halving is monotone, so the Hodges-Lehmann sums are selected and only
    # the two middle ones halved: the same doubles as halving every pair.
    half = 0.5 if hl else 1.0
    if kind not in _PAIR_KINDS:
        plan, count = None, False
        m, ranks = n, ((n - 1) // 2, n // 2)
    else:
        plan = _pair_plan(n, kind)
        m, ranks = plan.size, plan.ranks
        count = plan.index is None and (rows == 1 or m > _BUFFER_PAIRS)
        if plan.index is None and not count:
            plan = plan._replace(index=_pair_index(plan))
    try:
        step = 1 if count else _BUFFER_PAIRS // m or 1
    except ZeroDivisionError:  # m = n = 0: _pair_plan rejected short pair rows
        raise ValueError(f"{kind} needs rows of at least 1 value, got n={n}") from None
    # the rows of the whole chunks that teach the first band (see _needed)
    learned = -(-_LEARN_ROWS // step) * step
    learn = plan is not None and not count and m >= _BAND_PAIRS and rows >= _BAND_CHUNKS * learned
    if count:
        buf = None
    elif rows >= _NETWORK_BLOCK and m <= _NETWORK_ROW:
        # column-major, which tells _fill_pairs and _select_middles that a
        # sorting network selects in it, and makes each column it compares
        # contiguous
        step = min(step, _NETWORK_CHUNK)
        buf = np.empty((m, min(rows, step))).T
    elif learn:
        flat = np.empty(_BUFFER_PAIRS)
        buf = flat[:step * m].reshape(step, m)
    else:
        buf = np.empty((min(rows, step), m))

    def select(part, sel=plan):
        # the middle values of the rows of part among sel's values: floats
        # for the call's only row, else arrays, a chunk of one row's too
        if count:
            lo, hi = _count_middle(part[0], plan)
        else:
            # a part that fills the buffer, as a single row does, takes it
            # whole: a slice of it would cost a view per call
            pairs = (flat[:len(part) * sel.size].reshape(len(part), -1) if sel is not plan
                     else buf if len(part) == len(buf) else buf[:len(part)])
            _fill_pairs(part, sel, pairs)
            lo, hi = _select_middles(pairs, ranks if sel is plan else sel.ranks)
        if rows > 1 and len(part) == 1:
            return np.array([lo]), np.array([hi])
        return lo, hi

    out = np.empty(rows)
    sel, bounds = plan, None
    start = 0
    while start < rows:
        chunk = block[start:start + (step if sel is plan else _BUFFER_PAIRS // sel.size)]
        if rows > 1 and plan is not None:
            chunk = np.sort(chunk, axis=1)
        medians = out[start:start + len(chunk)]
        lo, hi = select(chunk, sel)
        if kind == "mad":
            # Deviations from the median, formed from the chunk, since a
            # network leaves in the buffer only the values it reads.  None
            # is -0.0 after abs, so the sign of a zero median does not
            # matter.  Only a median of _SAFE_CENTRE or more lets one pass
            # the largest double; it then rounds to an infinity without a
            # warning, as a block runs quiet and a single row checks.
            _midpoint(lo, hi, 1.0, medians)
            centre = medians.item(0) if len(chunk) == 1 else medians[:, None]
            pairs = buf if len(chunk) == len(buf) else buf[:len(chunk)]
            if rows > 1 or abs(centre) < _SAFE_CENTRE:
                np.subtract(chunk, centre, out=pairs)
            else:
                with np.errstate(over="ignore"):
                    np.subtract(chunk, centre, out=pairs)
            np.abs(pairs, out=pairs)
            # the deviations already fill the buffer, and numpy skips
            # select's copy of them onto themselves
            lo, hi = select(pairs)
        taught = Ellipsis  # every row
        if sel is not plan:
            taught = _band_misses(chunk, plan, sel, lo, hi)
            # select those rows again with the plan, in the buffer that
            # holds the band's values, so lo and hi leave it first
            lo, hi = lo.copy(), hi.copy()
            for r in range(0, taught.size, step):
                again = taught[r:r + step]
                lo[again], hi[again] = select(chunk[again])
        if learn and len(chunk[taught]):
            # the rows selected with the plan teach the band: every row
            # until the learned ones, then each row that misses the band,
            # or every row while no band holds both middle ranks; a band
            # taught no wider is the same band
            bounds = _needed(plan, chunk[taught], lo[taught], hi[taught], bounds)
            if start + len(chunk) >= learned:
                band = _narrow(plan, *bounds)
                sel = plan if band is None else band._replace(index=_pair_index(band))
        zeros, infinite = _midpoint(lo, hi, half, medians)
        if hl:
            # a middle pair sum passed the largest double, though its half
            # does not: select again among the sums of halved values, with
            # the plan
            for r in infinite:
                _midpoint(*select(0.5 * chunk[r:r + 1]), 1.0, medians[r:r + 1])
        if kind == "median" or hl:
            # Sorting and partitioning treat -0.0 and +0.0 as equal and may
            # write either for the other, so a median of zeros is ranked by
            # counting the negative values of the unsorted row.  A halved
            # sum is negative or -0.0 exactly when the sum is.
            for r in zeros:
                middle = _multiset_size(kind, n) // 2  # the upper middle rank
                medians[r] = -0.0 if middle < _negatives(unsorted[start + r], kind) else 0.0
        start += len(chunk)
    # |x_i - x_j| is never -0.0, but +0.0 - -0.0 of sorted values can be
    return np.abs(out, out=out) if kind == "shamos" else out


def _midpoint(lo, hi, half: float, out: np.ndarray):
    """Write the median of each row whose middle values are ``lo <= hi``
    into ``out``: ``0.5 * (lo + hi)`` of the values scaled by ``half``;
    return the rows of zero middle values and the rows of infinite median.
    One row's middle values are floats, equal when there is one middle
    rank, and its rows are () or (0,); a block's are arrays, one array when
    there is one middle rank.  ``lo + hi`` overflows only when both exceed
    half the largest double, and then ``0.5 * lo + 0.5 * hi`` is the same
    correctly rounded midpoint; the median stays infinite only when a
    middle value is.  A row's floats never warn, and a block's arrays come
    from inside ``_row_medians``' quiet block, so their sums round to an
    infinity without a warning there."""
    if isinstance(hi, float):
        lo, hi = half * lo, half * hi
        mid = hi if lo == hi else 0.5 * (lo + hi)
        if abs(mid) == math.inf:
            out[0] = mid = 0.5 * lo + 0.5 * hi
            return (), (0,) if abs(mid) == math.inf else ()
        out[0] = mid
        return (0,) if lo == hi == 0 else (), ()
    one = lo is hi
    hi = half * hi
    lo = hi if one else half * lo
    out[:] = hi if one else 0.5 * (lo + hi)
    over = np.isinf(out)
    infinite = ()
    if np.count_nonzero(over):
        out[over] = 0.5 * lo[over] + 0.5 * hi[over]
        infinite = np.flatnonzero(np.isinf(out))
    return np.flatnonzero((lo == 0) & (hi == 0)), infinite


def _select_middles(values: np.ndarray, ranks: tuple[int, int]):
    """The values at the two ``ranks`` of each row, (lo, hi): floats for a
    single row, else arrays, one array for both when the ranks are equal.

    The method depends on the row count and the row length m only.  A
    single row is sorted up to ``_SORT_SINGLE_ROW`` values and partitioned
    beyond.  A block's rows, when ``values`` is column-major (as
    ``_row_medians`` allocates it for blocks of ``_NETWORK_BLOCK`` rows or
    more of up to ``_NETWORK_ROW`` values), go through the pruned sorting
    network of ``_network``, one ``np.minimum`` or ``np.maximum`` per
    comparator over a whole column; other block rows are sorted up to
    ``_SORT_ROW`` values and partitioned beyond.  A partition places the
    upper middle rank, the lower one being the max of the left part.
    Overwrites ``values``, which afterwards need not hold the rows' values;
    the arrays returned may be views of it or of the network's scratch row."""
    rows, m = values.shape
    low, k = ranks
    if rows == 1:
        # one row, as from the scalar API: Python floats cost less than
        # 1-element arrays
        if m <= _SORT_SINGLE_ROW:
            values.sort()
            lo = values.item(0, low)
        else:
            values.partition(k, axis=1)
            lo = values.item(0, k) if low == k else values[0, :k].max().item()
        return lo, values.item(0, k)
    if not values.flags.c_contiguous:
        # column-major; with one value per row a buffer is C-contiguous too,
        # and such rows need no network
        columns = list(values.T)
        _run_network(_network(m, (low, k)), columns, np.empty(rows))
        lo, hi = columns[low], columns[k]
    elif m <= _SORT_ROW:
        values.sort(axis=1)
        lo, hi = values[:, low], values[:, k]
    else:
        # numpy selects one kth with a vectorised quickselect but several
        # with a scalar introselect, which costs more than a max-reduce call
        values.partition(k, axis=1)
        hi = values[:, k]
        lo = hi if low == k else np.maximum.reduce(values[:, :k], axis=1)
    return (hi, hi) if low == k else (lo, hi)


@lru_cache(maxsize=None)
def _network(m: int, wires: tuple[int, ...]) -> tuple[tuple[int, int, bool, bool], ...]:
    """Batcher's odd-even merge sort of m wires (Batcher 1968; Knuth, TAOCP
    Vol. 3, 5.3.4), pruned to the comparators that reach ``wires``: each as
    (a, b, lo, hi), a < b, where ``lo`` tells whether the min left on wire
    a is read later and ``hi`` whether the max left on wire b is.  It is
    the network of the next power of two without the wires from m on, which
    padding with +inf would never move; ``wires = tuple(range(m))`` keeps
    all of it."""
    comparators = []
    p = 1
    while p < m:
        d = p
        while d:
            for j in range(d % p, m - d, 2 * d):
                for i in range(j, min(j + d, m - d)):
                    if i // (2 * p) == (i + d) // (2 * p):
                        comparators.append((i, i + d))
            d //= 2
        p *= 2
    read = set(wires)
    kept = []
    for a, b in reversed(comparators):
        if a in read or b in read:
            kept.append((a, b, a in read, b in read))
            read |= {a, b}
    return tuple(reversed(kept))


def _run_network(network, columns: list, spare: np.ndarray) -> None:
    """Apply ``network`` to all rows at once: ``columns[w]`` holds wire w
    of every row, and afterwards ``columns`` lists the arrays that hold the
    wires.  A comparator writes its min into ``spare``, an array of the
    same length, and the min's old array becomes the spare, so no column is
    copied; one of its outputs that is never read is not formed."""
    for a, b, lo, hi in network:
        x, y = columns[a], columns[b]
        if lo and hi:
            np.minimum(x, y, out=spare)
            np.maximum(x, y, out=y)
            columns[a], spare = spare, x
        elif lo:
            np.minimum(x, y, out=x)
        else:
            np.maximum(x, y, out=y)


def _row_estimates(estimator: Estimator, rows: np.ndarray, consistent: bool = True):
    """``estimator`` of each row of a (rows, n) block, as an array, or of one
    sample, a 1-d array, as a float; a scale is consistent unless
    ``consistent`` is false.  The order-statistic estimators are the
    ``_row_medians`` of their kind; the mean and the standard deviation sum
    one sample exactly and a block by numpy's row reductions, but a block
    row whose sum or variance passes the largest double is summed exactly.
    A scale times its consistency constant past the largest double rounds
    to an infinity without a warning: one sample's as a Python float, a
    block's in one quiet step."""
    kind = estimator._kind
    if kind is not None:
        c = estimator._consistency if consistent else 1.0
        if rows.ndim == 1:
            # a Python float rounds past the largest double without a warning
            return _row_medians(rows[None, :], kind).item() * c
        with np.errstate(over="ignore"):
            return _row_medians(rows, kind) * c
    if rows.ndim == 1:
        return _fsum_mean(rows, rows.size) if estimator.is_location else _sample_sd(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        out = rows.mean(axis=1) if estimator.is_location else rows.std(axis=1, ddof=1)
    for r in np.flatnonzero(~np.isfinite(out)):
        out[r] = _row_estimates(estimator, rows[r])
    if not estimator.is_location:
        tied = np.flatnonzero(out <= _TIES * np.abs(rows[:, 0]))
        if tied.size:
            values = rows[tied]
            out[tied[values.min(axis=1) == values.max(axis=1)]] = 0.0
    return out


def _fsum_sd(arr: np.ndarray) -> float:
    """Standard deviation (n-1 denominator) of one sample, summed exactly."""
    dev = arr - _fsum_mean(arr, arr.size)
    # squared with libm's pow, as ``d ** 2`` of each scalar is: ``dev * dev``
    # (an array's ``dev ** 2``) differs from it in the last bit for a few
    # values, and the scalar loop is the reference
    return math.sqrt(_fsum_mean(np.float_power(dev, 2.0), arr.size - 1))


def _sample_sd(arr: np.ndarray) -> float:
    """``_fsum_sd``, 0 for a constant sample and finite whenever the
    standard deviation is."""
    if math.hypot(*arr.tolist()) < _SAFE_SQUARES:
        s = _fsum_sd(arr)
    else:
        with np.errstate(over="ignore"):
            s = _fsum_sd(arr)
        if s == math.inf:
            # the variance passed the largest double, though the standard
            # deviation may not: compute it for the data scaled by 2**-600
            s = _fsum_sd(arr * 2.0 ** -600) * 2.0 ** 600
    return 0.0 if s <= _TIES * abs(arr.item(0)) and arr.min() == arr.max() else s


def hodges_lehmann(values: Iterable[float], variant: str = "hl1") -> float:
    """Median of pairwise averages (X_i + X_j)/2.

    Parameters
    ----------
    values : array-like
        Sample observations.  ``hl1`` needs n >= 2 (no pairs otherwise);
        ``hl2``/``hl3`` are defined from n = 1.
    variant : {"hl1", "hl2", "hl3"}
        Which index pairs enter the multiset (see module docstring).
    """
    variant = str(variant).lower()
    if variant not in ("hl1", "hl2", "hl3"):
        raise ValueError(f"unknown Hodges-Lehmann variant: {variant!r}")
    return _estimate(Estimator(variant), values)


def hl1(values: Iterable[float]) -> float:
    """Median of averages over distinct pairs i < j."""
    return _estimate(Estimator.HL1, values)


def hl2(values: Iterable[float]) -> float:
    """Median of Walsh averages (pairs i <= j)."""
    return _estimate(Estimator.HL2, values)


def hl3(values: Iterable[float]) -> float:
    """Median of averages over all ordered pairs (i, j)."""
    return _estimate(Estimator.HL3, values)


def mad(values: Iterable[float], consistent: bool = True) -> float:
    """Median absolute deviation from the sample median.

    With ``consistent=True`` the result is divided by the normal third
    quartile so it estimates sigma under a normal population.
    """
    return _estimate(Estimator.MAD, values, _check_flag("consistent", consistent))


def shamos(values: Iterable[float], consistent: bool = True) -> float:
    """Median of all pairwise absolute differences |X_i - X_j|, i < j.

    With ``consistent=True`` the result is scaled (by ~1.048358) to be
    consistent for sigma under a normal population.  The result is
    infinite only when the middle difference itself exceeds the largest
    double, as for ``[-1.7e308, 1.7e308]``.
    """
    return _estimate(Estimator.SHAMOS, values, _check_flag("consistent", consistent))


def std_dev(values: Iterable[float], unbiased_c4: bool = False) -> float:
    """Sample standard deviation (n-1 denominator).

    With ``unbiased_c4=True`` the result is divided by c4(n) so its
    expectation is sigma under a normal population.  The result is finite
    whenever the standard deviation is, even past a variance of the
    largest double, as for ``[1e200, -1e200, 0.0]``.
    """
    if _check_flag("unbiased_c4", unbiased_c4):
        from .factors import _unbiased

        return _unbiased(Estimator.STD, values)
    return _estimate(Estimator.STD, values)
