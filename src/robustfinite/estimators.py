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

Each estimator's facts live on its ``Estimator`` member, and
``_row_estimates``, which reads them, is the one path of the scalar
functions, the simulator and the control charts; ``factors`` maps each
scale estimator to its unbiasing factor and variance.

The six order-statistic estimators (median, mad, shamos, hl1, hl2, hl3)
share one median kernel, ``_row_medians``, over the rows of a 2-d array:
the scalar functions are 1-row calls of it, and the simulator and the
control charts call it on blocks.  It selects in one reused buffer of about
2 MB per chunk of rows: O(n) memory per row for the median and the MAD,
O(n^2) for the pairwise estimators.  Those sort each row and form only the
pairs whose rank bounds leave them within reach of the two middle ranks, as
X + Y selection (Johnson and Mizoguchi 1978) and the fast Qn and Sn (Croux
and Rousseeuw 1992) do: about 45% of the values of the Hodges-Lehmann
variants (for hl3, of its n^2 ordered pairs) and 90% of those of shamos.
A long pairwise row is not filled when it is the call's only row, as in
the scalar API from n of about 270 (hl3, shamos) or 380 (hl1, hl2) on, or
too long to share the buffer: ``_count_middle`` selects its two middle
values by counting in its sorted pair matrix, in O(n log n) time and O(n)
memory.  Blocks of shorter rows, as in the simulator and the control
charts, keep the buffer.  A pair value past the largest double rounds to
an infinity without a warning.

The mean and the standard deviation have two kernels: ``math.fsum`` for one
sample in the scalar API, and numpy's row reductions for a block, which the
simulator and the control charts use.  The two may differ in the last bit,
and both are finite whenever the true value is.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

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

# Up to this many values, one row is sorted; longer rows and blocks select
# the upper middle value and take the lower one as the max of the left part.
# A pairwise row of a sorted sample is made of runs already sorted by i, and
# sorting it stays cheaper than selecting up to about 700 values (measured
# on _fill_pairs output of hl1, hl2, hl3 and shamos at n = 14..78).
_SHORT_ROW = 128
_SHORT_PAIRS = 700

# _count_middle samples this many of the pairs left in a round, takes the
# pivots this many sample ranks either side of the one expected at the
# middle, and forms the pairs once at most _GATHER are left.
_SAMPLE = 2048
_MARGIN = 64
_GATHER = 4096


# Third quartile of N(0,1), the double nearest Phi^-1(0.75).
NORMAL_Q3 = 0.6744897501960817


class Estimator(str, enum.Enum):
    """Names of the estimators handled by the factor tables and simulator,
    each with its facts: ``is_location`` (else a scale), ``min_n``, the
    smallest sample size it is defined for, its ``_row_medians`` kind (None
    for the mean and the standard deviation) and the constant that makes it
    consistent for sigma at the normal.  Members pickle by value, the name."""

    def __new__(cls, name: str, is_location: bool, min_n: int, kind: str | None,
                consistency: float = 1.0):
        member = str.__new__(cls, name)
        member._value_ = name
        member.is_location = is_location
        member.min_n = min_n
        member._kind = kind
        member._consistency = consistency
        return member

    MEAN = "mean", True, 1, None
    MEDIAN = "median", True, 1, "median"
    HL1 = "hl1", True, 2, "hl1"
    HL2 = "hl2", True, 1, "hl2"
    HL3 = "hl3", True, 1, "hl3"
    STD = "std", False, 2, None
    MAD = "mad", False, 2, "mad", 1.0 / NORMAL_Q3  # ~1.4826
    SHAMOS = "shamos", False, 2, "shamos", 1.0 / (math.sqrt(2.0) * NORMAL_Q3)  # ~1.048358

    def __str__(self) -> str:  # argparse-friendly
        return self.value

    @property
    def is_scale(self) -> bool:
        return not self.is_location


# The _row_medians kinds whose values are pairs of observations.
_PAIR_KINDS = ("shamos", "hl1", "hl2", "hl3")

# Below _SAFE_PAIRS in magnitude no pair value, nor one plus or minus an
# observation (_count_below), passes the largest double.  The Euclidean norm
# of a sample bounds every |x_i|; below _SAFE_SQUARES no deviation from the
# mean, its square or the sum of the squares does.
_SAFE_PAIRS = 2.0 ** 1022
_SAFE_SQUARES = 2.0 ** 510

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


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum``: the one check of every
    size, count and seed.  Anything else (a float, a string, a bool) is a
    ``ValueError`` that names the input, where ``int()`` would truncate or
    parse it silently."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


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


def _multiset_size(kind: str, n: int) -> int:
    """How many values ``_row_medians`` takes the median of in a row of n:
    n, or the pairs i < j (shamos, hl1), i <= j (hl2) or all (i, j) (hl3)."""
    return {"median": n, "mad": n, "shamos": n * (n - 1) // 2, "hl1": n * (n - 1) // 2,
            "hl2": n * (n + 1) // 2, "hl3": n * n}[kind]


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
    """The pairs ``_row_medians`` forms of a sorted row, and the ranks of the
    two middle values among them."""

    kind: str
    size: int                 # values formed per row, hl3's twins twice
    ranks: tuple[int, int]    # ranks of the two middle values among them
    middle: int               # rank of the upper one among all the values
    starts: np.ndarray        # pairs (i, j), i < j, formed for
    stops: np.ndarray         # starts[i] <= j < stops[i]
    diagonal: range           # pairs (i, i) formed, for hl2 and hl3
    index: tuple | None       # _pair_index(plan), while it is small


# A plan of at most this many values caches its index, 512 KB of indices,
# so the 256 plans hold at most 128 MB.  Larger ones build it once per
# ``_row_medians`` call of several rows that share the buffer; a single row,
# or one too long for the buffer, is counted in without an index.
_CACHED_INDEX = 1 << 15


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
    O(n); the cache holds every (n, kind) of a typical session.
    """
    first = 1 if kind in ("shamos", "hl1") else 0
    m = _multiset_size(kind, n)
    lo_rank, hi_rank = (m - 1) // 2, m // 2
    i = np.arange(n)

    def first_j(cond):
        # the smallest j >= i + first with cond(j), n if none (cond holds
        # from some j on)
        lo, hi = i + first, np.full(n, n)
        while np.count_nonzero(lo < hi):
            mid = (lo + hi) // 2
            ok = cond(mid) | (lo == hi)
            lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
        return lo

    starts = first_j(lambda j: _pair_counts(kind, n, i, j)[1] <= m - lo_rank)
    stops = first_j(lambda j: _pair_counts(kind, n, i, j)[0] > hi_rank + 1)
    below = starts - i - first
    if kind == "hl3":
        below = 2 * below - (below > 0)
    shift = int(below.sum())
    diagonal = range(0)
    if not first:
        kept = np.flatnonzero((starts == i) & (stops > i))
        if kept.size:
            diagonal = range(kept[0], kept[-1] + 1)
        starts = np.maximum(starts, i + 1)
        stops = np.maximum(stops, starts)
    size = int((stops - starts).sum()) * (2 if kind == "hl3" else 1) + len(diagonal)
    plan = _PairPlan(kind, size, (lo_rank - shift, hi_rank - shift), hi_rank,
                     starts, stops, diagonal, None)
    if size <= _CACHED_INDEX:
        plan = plan._replace(index=_pair_index(plan))
    # every caller gets these arrays from the cache
    for a in (starts, stops, *(plan.index or ())):
        a.flags.writeable = False
    return plan


def _pair_index(plan: _PairPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How many values a plan forms with each x_i as first operand, and the
    columns (i, j) of their operands, grouped by i: the diagonal pair (i, i)
    if formed, then the pairs i < j, twice for hl3: about 45% of the values
    of the Hodges-Lehmann variants (for hl3, of its n^2 ordered pairs) and
    90% of those of shamos.  Only asked for while one row's values fit the
    buffer, so the columns take at most 4 MB."""
    n = plan.starts.size
    pairs = plan.stops - plan.starts
    diagonal = np.zeros(n, dtype=np.intp)
    diagonal[plan.diagonal.start:plan.diagonal.stop] = 1
    counts = diagonal + pairs * (2 if plan.kind == "hl3" else 1)
    i = np.repeat(np.arange(n), counts)
    # place among the pairs i < j of i, -1 for the diagonal one
    at = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts + diagonal, counts)
    return counts, i, np.where(at < 0, i, plan.starts[i] + at % np.maximum(pairs, 1)[i])


def _fill_pairs(rows: np.ndarray, plan: _PairPlan | None, index,
                out: np.ndarray) -> None:
    """Write the values whose median is taken of each row into the same row
    of ``out``: the row itself for median and mad, and for the pairwise
    kinds the values of ``plan``'s pairs of sorted rows, ``S[j] - S[i]`` for
    shamos and the sums ``S[i] + S[j]``, not yet halved, for the
    Hodges-Lehmann variants.  ``index`` is ``_pair_index(plan)``: rows too
    long to share the buffer are never filled, ``_count_middle`` selects in
    them without forming their pairs.
    """
    if plan is None:
        out[...] = rows
        return
    op = np.subtract if plan.kind == "shamos" else np.add
    counts, i, j = index
    if len(rows) == 1:
        # one row, as from the scalar API: indexing it costs less than take
        # and repeat, which are faster on many rows
        row = rows[0]
        op(row[j], row[i], out=out[0])
    else:
        np.take(rows, j, axis=1, out=out, mode="clip")
        op(out, np.repeat(rows, counts, axis=1), out=out)


def _pair_values(s: np.ndarray, kind: str, i, j):
    """The values of the pairs (i, j) of a sorted row ``s``, formed as
    ``_fill_pairs`` forms them."""
    return s[j] - s[i] if kind == "shamos" else s[j] + s[i]


def _count_below(s: np.ndarray, kind: str, t: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray) -> np.ndarray:
    """How many of the pairs (i, j), ``starts[i] <= j < stops[i]``, of a
    sorted row ``s`` have a value below each pivot ``t[a]`` (``[a, 0, i]``)
    and at most ``t[a]`` (``[a, 1, i]``).

    Rounding is monotone, so the values of each i grow with j, and both
    bounds start where ``s[j]`` passes ``t - s[i]`` (``t + s[i]`` for
    shamos).  That difference is rounded too, and values equal to the pivot
    lie between the two bounds, so each bound is then moved over whole runs
    of equal ``s[j]`` until the rounded pair values on its two sides agree
    with it."""
    i = np.arange(s.size)
    u = t[:, None] + s if kind == "shamos" else t[:, None] - s
    at = np.repeat(np.searchsorted(s, u)[:, None], 2, axis=1)
    np.clip(at, starts, stops, out=at)
    t = t[:, None, None]
    strict = np.array([True, False])[:, None]  # count v < t, or v <= t
    while True:
        v = _pair_values(s, kind, i, at - 1)
        back = (at > starts) & ((v > t) | (v == t) & strict)
        v = _pair_values(s, kind, i, np.minimum(at, s.size - 1))
        ahead = (at < stops) & ((v < t) | (v == t) & ~strict)
        if not (back.any() or ahead.any()):
            return at - starts
        lo = np.broadcast_to(starts, at.shape)
        hi = np.broadcast_to(stops, at.shape)
        at[back] = np.maximum(lo[back], np.searchsorted(s, s[at[back] - 1], "left"))
        at[ahead] = np.minimum(hi[ahead], np.searchsorted(s, s[at[ahead]], "right"))


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
    pivots from a systematic sample of the pairs in the windows,
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
    """
    kind = plan.kind
    n = s.size
    i = np.arange(n)
    first = 1 if kind in ("shamos", "hl1") else 0
    starts = plan.starts.copy()
    starts[plan.diagonal.start:plan.diagonal.stop] = i[plan.diagonal.start:plan.diagonal.stop]
    stops = plan.stops
    low, k = plan.ranks
    twins = kind == "hl3"

    def weigh(c):
        # how many values the first c pairs of each window stand for
        if not twins:
            return c.sum(axis=-1)
        return 2 * c.sum(axis=-1) - np.count_nonzero((starts == i) & (c > 0), axis=-1)

    sure = False  # the next pivot must cut a quarter of the pairs
    while True:
        sizes = stops - starts
        ends = np.cumsum(sizes)
        total = int(ends[-1])
        if total <= _GATHER:
            rows = np.repeat(i, sizes)
            cols = np.arange(total) - np.repeat(ends - sizes - starts, sizes)
            values = _pair_values(s, kind, rows, cols)
            pool = np.concatenate([values, values[cols != rows]]) if twins else values
            upper = np.partition(pool, k).item(k)
            below = np.bincount(rows[values < upper], minlength=n)
            break
        if sure:
            pivots = _middle_of_windows(s, kind, starts, sizes)
        else:
            f = (2 * np.arange(_SAMPLE) + 1) * total // (2 * _SAMPLE)
            r = np.searchsorted(ends, f, "right")
            sample = _pair_values(s, kind, r, f - ends[r] + sizes[r] + starts[r])
            centre = (k + 0.5) / int(weigh(sizes)) * _SAMPLE
            picks = np.clip([math.floor(centre - _MARGIN), math.floor(centre + _MARGIN)],
                            0, _SAMPLE - 1)
            sample.partition(picks)
            pivots = np.unique(sample[picks])
        counts = _count_below(s, kind, pivots, starts, stops)
        lt, le = weigh(counts).T.tolist()
        hit = [a for a in range(len(pivots)) if lt[a] <= k < le[a]]
        if hit:
            upper = pivots.item(hit[0])
            below = counts[hit[0], 0]
            break
        after = [a for a in range(len(pivots)) if le[a] <= k]
        before = [a for a in range(len(pivots)) if k < lt[a]]
        if before:
            stops = starts + counts[before[0], 0]
        if after:
            k -= le[after[-1]]
            low -= le[after[-1]]
            starts = starts + counts[after[-1], 1]
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


def _row_medians(block: np.ndarray, kind: str,
                 raw: np.ndarray | None = None) -> np.ndarray:
    """Median of the values of each row of a (rows, n) float array: the row
    itself for "median", ``|x_i - median|`` for "mad" and ``|x_i - x_j|``
    for "shamos" (both unscaled), ``0.5 * (x_i + x_j)`` for "hl1", "hl2"
    and "hl3".  Each is the midpoint median of ``_midpoint``, with -0.0
    ranked before +0.0.  The pairwise kinds sort each row.  Rows are handled
    in chunks whose values fill one reused buffer, selected in place; the
    pairwise kinds form only the pairs ``_pair_plan`` keeps, and a row whose
    plan caches no index is counted in by ``_count_middle`` instead when it
    is the only row or too long to share the buffer.  Where the sorted rows'
    extremes reach ``_SAFE_PAIRS``, a pair value past the largest double is
    rounded to an infinity without a warning.  ``raw`` holds the unsorted
    rows when ``block`` is given already sorted.
    """
    rows, n = block.shape
    if raw is None:
        raw = block
        if kind in _PAIR_KINDS:
            block = np.sort(block, axis=1)
            if rows == 1:
                low, high = block.item(0, 0), block.item(0, n - 1)
            else:
                low, high = block[:, 0].min(), block[:, -1].max()
            if max(-low, high) >= _SAFE_PAIRS:
                with np.errstate(over="ignore"):
                    return _row_medians(block, kind, raw)
    hl = kind in ("hl1", "hl2", "hl3")
    # Halving is monotone, so the Hodges-Lehmann sums are selected and only
    # the two middle ones halved: the same doubles as halving every pair.
    half = 0.5 if hl else 1.0
    if kind not in _PAIR_KINDS:
        plan, index, count = None, None, False
        m, ranks, middle = n, ((n - 1) // 2, n // 2), n // 2
        short = _SHORT_ROW
    else:
        plan = _pair_plan(n, kind)
        m, ranks, middle = plan.size, plan.ranks, plan.middle
        short = _SHORT_PAIRS
        index = plan.index
        count = index is None and (rows == 1 or m > _BUFFER_PAIRS)
        if index is None and not count:
            index = _pair_index(plan)
    step = 1 if count else _BUFFER_PAIRS // m or 1
    buf = None if count else np.empty((min(rows, step), m))
    out = np.empty(rows)
    for start in range(0, rows, step):
        chunk = block[start:start + step]
        medians = out[start:start + len(chunk)]
        if count:
            zeros, infinite = _midpoint(*_count_middle(chunk[0], plan), half, medians)
        else:
            pairs = buf[:len(chunk)]
            _fill_pairs(chunk, plan, index, pairs)
            if kind == "mad":
                # deviations from the median, in place: none is -0.0 after
                # abs, so the sign of a zero median does not matter
                _select_medians(pairs, ranks, 1.0, short, medians)
                pairs -= medians[:, None]
                np.abs(pairs, out=pairs)
            zeros, infinite = _select_medians(pairs, ranks, half, short, medians)
        if hl:
            # a middle pair sum passed the largest double, though its half
            # does not: select again among the sums of halved values
            for r in infinite:
                again = 0.5 * chunk[r]
                if count:
                    _midpoint(*_count_middle(again, plan), 1.0, medians[r:r + 1])
                else:
                    _fill_pairs(again[None, :], plan, index, pairs[r:r + 1])
                    _select_medians(pairs[r:r + 1], ranks, 1.0, short, medians[r:r + 1])
        if kind == "median" or hl:
            # Sorting and partitioning treat -0.0 and +0.0 as equal and may
            # write either for the other, so a median of zeros is ranked by
            # counting the negative values of the unsorted row.  A halved
            # sum is negative or -0.0 exactly when the sum is.
            for r in zeros:
                medians[r] = -0.0 if middle < _negatives(raw[start + r], kind) else 0.0
    # |x_i - x_j| is never -0.0, but +0.0 - -0.0 of sorted values can be
    return np.abs(out, out=out) if kind == "shamos" else out


def _midpoint(lo: float, hi: float, half: float, out: np.ndarray):
    """Write the median of one row whose middle values are ``lo <= hi``,
    equal when there is one middle rank, into ``out[0]``: ``0.5 * (lo +
    hi)`` of the values scaled by ``half``; return the rows, () or (0,), of
    zero middle values and of infinite median.  ``lo + hi`` overflows only
    when both exceed half the largest double, and then ``0.5 * lo + 0.5 *
    hi`` is the same correctly rounded midpoint; the median stays infinite
    only when a middle value is."""
    lo, hi = half * lo, half * hi
    mid = hi if lo == hi else 0.5 * (lo + hi)
    if abs(mid) == math.inf:
        out[0] = mid = 0.5 * lo + 0.5 * hi
        return (), (0,) if abs(mid) == math.inf else ()
    out[0] = mid
    return (0,) if lo == hi == 0 else (), ()


def _select_medians(values: np.ndarray, ranks: tuple[int, int], half: float,
                    short: int, out: np.ndarray):
    """Write each row's median into ``out``: the value at the two equal
    ``ranks``, or the midpoint of the values at the two ranks, each scaled
    by ``half``; return the rows whose middle values are zeros and the rows
    whose median is infinite, as ``_midpoint`` does.  A single row of at
    most ``short`` values is sorted, others are selected in.  Reorders the
    rows in place."""
    rows, m = values.shape
    low, k = ranks
    if rows == 1:
        # one row, as from the scalar API: Python floats cost less than
        # 1-element arrays, and numpy sorts a short row faster than it
        # selects in it
        if m <= short:
            values.sort()
            lo = values.item(0, low)
        else:
            values.partition(k, axis=1)
            lo = values.item(0, k) if low == k else values[0, :k].max().item()
        return _midpoint(lo, values.item(0, k), half, out)
    # numpy selects one kth with a vectorised quickselect but several with a
    # scalar introselect, which costs more than a max-reduce call
    values.partition(k, axis=1)
    hi = half * values[:, k]
    lo = hi if low == k else half * np.maximum.reduce(values[:, :k], axis=1)
    with np.errstate(over="ignore"):
        out[:] = hi if low == k else 0.5 * (lo + hi)
    over = np.isinf(out)
    infinite = ()
    if np.count_nonzero(over):
        out[over] = 0.5 * lo[over] + 0.5 * hi[over]
        infinite = np.flatnonzero(np.isinf(out))
    return np.flatnonzero((lo == 0) & (hi == 0)), infinite


def _row_estimates(estimator: Estimator, rows: np.ndarray, consistent: bool = True):
    """``estimator`` of each row of a (rows, n) block, as an array, or of one
    sample, a 1-d array, as a float; a scale is consistent unless
    ``consistent`` is false.  The order-statistic estimators are the
    ``_row_medians`` of their kind; the mean and the standard deviation sum
    one sample exactly and a block by numpy's row reductions, but a block
    row whose sum or variance passes the largest double is summed exactly."""
    kind = estimator._kind
    if kind is not None:
        if rows.ndim == 1:
            raw = _row_medians(rows[None, :], kind).item()
        else:
            raw = _row_medians(rows, kind)
        return raw * estimator._consistency if consistent else raw
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
    return _estimate(Estimator.MAD, values, consistent)


def shamos(values: Iterable[float], consistent: bool = True) -> float:
    """Median of all pairwise absolute differences |X_i - X_j|, i < j.

    With ``consistent=True`` the result is scaled (by ~1.048358) to be
    consistent for sigma under a normal population.  The result is
    infinite only when the middle difference itself exceeds the largest
    double, as for ``[-1.7e308, 1.7e308]``.
    """
    return _estimate(Estimator.SHAMOS, values, consistent)


def std_dev(values: Iterable[float], unbiased_c4: bool = False) -> float:
    """Sample standard deviation (n-1 denominator).

    With ``unbiased_c4=True`` the result is divided by c4(n) so its
    expectation is sigma under a normal population.  The result is finite
    whenever the standard deviation is, even past a variance of the
    largest double, as for ``[1e200, -1e200, 0.0]``.
    """
    if unbiased_c4:
        from .factors import _unbiased

        return _unbiased(Estimator.STD, values)
    return _estimate(Estimator.STD, values)
