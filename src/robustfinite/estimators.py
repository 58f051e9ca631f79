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

The six order-statistic estimators (median, mad, shamos, hl1, hl2, hl3)
share one median kernel, ``_row_medians``, over the rows of a 2-d array:
the scalar functions are 1-row calls of it, and the simulator and the
control charts call it on blocks through ``_row_estimates``.  It selects in
one reused buffer of about 2 MB per chunk of rows: O(n) memory per row for
the median and the MAD, O(n^2) for the pairwise estimators.

The mean and the standard deviation have two kernels: ``math.fsum`` for one
sample in the scalar API, and numpy's row reductions for a block in
``_row_estimates``, which the simulator and the control charts call.  The
two may differ in the last bit.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import Iterable

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

# Pairwise estimators still hold all O(n^2) pairs of one row at once (a
# chunk of rows shares one buffer of _BUFFER_PAIRS pairs, but a single row
# larger than that gets a buffer of its own); beyond this the memory cost is
# unreasonable and callers get an explicit size-limit error.
PAIR_LIMIT = 10_000

# Values (pairs, for the pairwise estimators) per chunk buffer: 2 MB of
# doubles, small enough to stay in cache while a chunk is built and selected.
_BUFFER_PAIRS = 1 << 18

# Up to this many values, one row is sorted; longer rows and blocks select
# the upper middle value and take the lower one as the max of the left part.
_SHORT_ROW = 128


class Estimator(str, enum.Enum):
    """Names of the estimators handled by the factor tables and simulator."""

    MEAN = "mean"
    MEDIAN = "median"
    HL1 = "hl1"
    HL2 = "hl2"
    HL3 = "hl3"
    STD = "std"
    MAD = "mad"
    SHAMOS = "shamos"

    def __str__(self) -> str:  # argparse-friendly
        return self.value

    @property
    def is_location(self) -> bool:
        return self in (Estimator.MEAN, Estimator.MEDIAN,
                        Estimator.HL1, Estimator.HL2, Estimator.HL3)

    @property
    def is_scale(self) -> bool:
        return not self.is_location

    @property
    def min_n(self) -> int:
        """Smallest sample size the estimator is defined for."""
        if self in (Estimator.HL1, Estimator.STD, Estimator.MAD, Estimator.SHAMOS):
            return 2
        return 1


# Third quartile of N(0,1), the double nearest Phi^-1(0.75); the scale
# constants make the MAD and the median of pairwise absolute differences
# consistent for sigma at the normal.
NORMAL_Q3 = 0.6744897501960817
MAD_SCALE = 1.0 / NORMAL_Q3                             # ~1.4826
PAIR_DIFF_SCALE = 1.0 / (math.sqrt(2.0) * NORMAL_Q3)    # ~1.048358

# The Euclidean norm of a sample bounds every |x_i|.  Below _SAFE_SUMS no
# pair sum x_i + x_j passes the largest double; below _SAFE_SQUARES no
# deviation from the mean, its square or the sum of the squares does.
_SAFE_SUMS = 2.0 ** 1022
_SAFE_SQUARES = 2.0 ** 510

# Estimators whose value is a median over pairs of observations.
_PAIRWISE = (Estimator.SHAMOS, Estimator.HL1, Estimator.HL2, Estimator.HL3)

# Estimator.min_n by name, for the scalar API: reading enum members costs
# about 1 us a call, a large share of a small-sample estimate.
_MIN_N = {e.value: e.min_n for e in Estimator}


def _as_sample(values: Iterable[float], min_n: int = 1) -> np.ndarray:
    """Validate and convert input to a finite 1-d float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"sample must be 1-d, got an array of shape {arr.shape}")
    if arr.size < min_n:
        raise ValueError(f"sample of size {arr.size} given; need at least {min_n}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValueError("sample contains NaN or infinite values")
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
    arr = _as_sample(values)
    k = _check_int("k", k)
    if not 0 <= k < arr.size:
        raise ValueError(f"k={k} out of range for sample of size {arr.size}")
    value = float(np.partition(arr, k)[k])
    return _zero_at_rank(arr, k) if value == 0 else value


def _zero_at_rank(values: np.ndarray, k: int) -> float:
    """The zero at rank k (0-based) when -0.0 ranks before +0.0.

    Partitioning treats -0.0 and +0.0 as equal and may return either, so
    the sign is counted instead: -0.0 when more than k values are negative
    or -0.0.
    """
    below = np.count_nonzero(values < 0) + np.count_nonzero(np.signbit(values) & (values == 0))
    return -0.0 if k < below else 0.0


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
    arr = _as_sample(values)
    return _fsum_mean(arr, arr.size)


def median(values: Iterable[float]) -> float:
    """Sample median: middle order statistic, or the average of the two
    middle order statistics when the size is even."""
    return _row_medians(_as_sample(values)[None, :], "median").item()


def _check_pair_limit(name: str, n: int) -> None:
    if n > PAIR_LIMIT:
        raise ValueError(
            f"size limit: pairwise estimator {name} supports n <= {PAIR_LIMIT}, got n={n}"
        )


@lru_cache(maxsize=32)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices (i, j) of the pairs i < j, followed by the diagonal
    i == j that hl2 adds.  Only asked for while one row's pairs fit the
    buffer, so an entry is at most about 4 MB."""
    i, j = np.triu_indices(n, k=1)
    d = np.arange(n)
    return np.concatenate([i, d]), np.concatenate([j, d])


def _fill_pairs(rows: np.ndarray, kind: str, out: np.ndarray) -> None:
    """Write the values whose median is taken of each row into the same row
    of ``out``: the row itself for median and mad, ``S[j] - S[i]`` (i < j)
    of sorted rows for shamos, and for the Hodges-Lehmann variants the pair
    sums ``x_i + x_j`` (i < j for hl1, then the diagonal for hl2, every
    ordered pair for hl3), not yet halved.
    """
    if kind in ("median", "mad"):
        out[...] = rows
        return
    r, n = rows.shape
    m = out.shape[1]
    if kind == "hl3":
        np.add(rows[:, :, None], rows[:, None, :], out=out.reshape(r, n, n))
        return
    op = np.subtract if kind == "shamos" else np.add
    if m <= _BUFFER_PAIRS:
        i, j = _pair_index(n)
        np.take(rows, j[:m], axis=1, out=out, mode="clip")
        op(out, np.take(rows, i[:m], axis=1, mode="clip"), out=out)
    else:
        # a row this long fills a chunk alone and gets no index arrays
        at = 0
        for i in range(n - 1):
            op(rows[:, i + 1:], rows[:, i, None], out=out[:, at:at + n - 1 - i])
            at += n - 1 - i
        if kind == "hl2":
            np.add(rows, rows, out=out[:, at:])


def _row_medians(block: np.ndarray, kind: str) -> np.ndarray:
    """Median of the values of each row of a (rows, n) float array: the row
    itself for "median", ``|x_i - median|`` for "mad" and ``|x_i - x_j|``
    for "shamos" (both unscaled), ``0.5 * (x_i + x_j)`` for "hl1", "hl2"
    and "hl3".  Each is the midpoint median of ``_select_medians``, with -0.0
    ranked before +0.0.  Rows are handled in chunks whose values fill one
    reused buffer, selected in place.
    """
    rows, n = block.shape
    upper = n * (n - 1) // 2
    m = (n if kind in ("median", "mad") else n * n if kind == "hl3"
         else upper + n if kind == "hl2" else upper)
    hl = kind in ("hl1", "hl2", "hl3")
    # Halving is monotone, so the Hodges-Lehmann sums are selected and only
    # the two middle ones halved: the same doubles as halving every pair.
    half = 0.5 if hl else 1.0
    # Differences need sorted rows, except the one difference of n = 2,
    # whose absolute value is the same either way.  Sums need no sorting,
    # but the sums of a sorted row too long to share the buffer partition
    # about three times faster.  The median and the MAD stay O(n).
    raw = block
    if (kind == "shamos" and n > 2) or (hl and m > _BUFFER_PAIRS):
        block = np.sort(block, axis=1)
    step = _BUFFER_PAIRS // m or 1
    buf = np.empty((min(rows, step), m))
    out = np.empty(rows)
    for start in range(0, rows, step):
        chunk = block[start:start + step]
        pairs = buf[:len(chunk)]
        medians = out[start:start + len(chunk)]
        _fill_pairs(chunk, kind, pairs)
        if kind == "mad":
            # deviations from the median, in place: none is -0.0 after abs,
            # so the sign of a zero median does not matter
            _select_medians(pairs, 1.0, medians)
            pairs -= medians[:, None]
            np.abs(pairs, out=pairs)
        zeros, infinite = _select_medians(pairs, half, medians)
        if hl:
            # a middle pair sum passed the largest double, though its half
            # does not: select again among the sums of halved values
            for r in infinite:
                again = pairs[r:r + 1]
                _fill_pairs(0.5 * raw[start + r:start + r + 1], kind, again)
                _select_medians(again, 1.0, medians[r:r + 1])
        if kind == "median" or hl:
            # Sorting and partitioning treat -0.0 and +0.0 as equal and may
            # write either for the other, so a median of zeros is ranked on
            # values formed afresh from the unsorted row.  A halved sum is
            # negative or -0.0 exactly when the sum is.
            for r in zeros:
                again = pairs[r:r + 1]
                _fill_pairs(raw[start + r:start + r + 1], kind, again)
                medians[r] = _zero_at_rank(again, m // 2)
    # |x_i - x_j| is never -0.0, but +0.0 - -0.0 of sorted values can be
    return np.abs(out, out=out) if kind == "shamos" else out


def _select_medians(values: np.ndarray, half: float, out: np.ndarray):
    """Write each row's median into ``out``: the middle value, or ``0.5 *
    (lo + hi)`` of the two middle values, each scaled by ``half``; return
    the rows whose middle values are zeros and the rows whose median is
    infinite.  Reorders the rows in place.  ``lo + hi`` overflows only when
    both exceed half the largest double, and then ``0.5 * lo + 0.5 * hi`` is
    the same correctly rounded midpoint; the median stays infinite only
    when a middle value is."""
    rows, m = values.shape
    k = m // 2
    if rows == 1:
        # one row, as from the scalar API: Python floats cost less than
        # 1-element arrays, and numpy sorts a short row faster than it
        # selects in it
        if m <= _SHORT_ROW:
            values.sort()
            lo = values.item(0, (m - 1) // 2)
        else:
            values.partition(k, axis=1)
            lo = values.item(0, k) if m % 2 else values[0, :k].max().item()
        lo, hi = half * lo, half * values.item(0, k)
        mid = hi if m % 2 else 0.5 * (lo + hi)
        if abs(mid) == math.inf:
            out[0] = mid = 0.5 * lo + 0.5 * hi
            return (), (0,) if abs(mid) == math.inf else ()
        out[0] = mid
        return (0,) if lo == hi == 0 else (), ()
    # numpy selects one kth with a vectorised quickselect but several with a
    # scalar introselect, which costs more than a max-reduce call
    values.partition(k, axis=1)
    hi = half * values[:, k]
    lo = hi if m % 2 else half * np.maximum.reduce(values[:, :k], axis=1)
    with np.errstate(over="ignore"):
        out[:] = hi if m % 2 else 0.5 * (lo + hi)
    over = np.isinf(out)
    infinite = ()
    if np.count_nonzero(over):
        out[over] = 0.5 * lo[over] + 0.5 * hi[over]
        infinite = np.flatnonzero(np.isinf(out))
    return np.flatnonzero((lo == 0) & (hi == 0)), infinite


def _row_estimates(estimator: Estimator, block: np.ndarray) -> np.ndarray:
    """Estimator value (scales consistent) per row of a (rows, n) block."""
    if estimator == Estimator.MEAN:
        return block.mean(axis=1)
    if estimator == Estimator.STD:
        return block.std(axis=1, ddof=1)
    if estimator == Estimator.MAD:
        return _row_medians(block, "mad") * MAD_SCALE
    if estimator == Estimator.SHAMOS:
        return _row_medians(block, "shamos") * PAIR_DIFF_SCALE
    if estimator == Estimator.MEDIAN or estimator in _PAIRWISE:
        return _row_medians(block, estimator.value)
    raise ValueError(f"unsupported estimator {estimator}")


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
    arr = _as_sample(values, _MIN_N[variant])
    _check_pair_limit(variant, arr.size)
    if math.hypot(*arr.tolist()) < _SAFE_SUMS:
        return _row_medians(arr[None, :], variant).item()
    # a pair sum may pass the largest double, and the kernel then selects
    # again among the sums of halved values
    with np.errstate(over="ignore"):
        return _row_medians(arr[None, :], variant).item()


def hl1(values: Iterable[float]) -> float:
    """Median of averages over distinct pairs i < j."""
    return hodges_lehmann(values, "hl1")


def hl2(values: Iterable[float]) -> float:
    """Median of Walsh averages (pairs i <= j)."""
    return hodges_lehmann(values, "hl2")


def hl3(values: Iterable[float]) -> float:
    """Median of averages over all ordered pairs (i, j)."""
    return hodges_lehmann(values, "hl3")


def mad(values: Iterable[float], consistent: bool = True) -> float:
    """Median absolute deviation from the sample median.

    With ``consistent=True`` the result is divided by the normal third
    quartile so it estimates sigma under a normal population.
    """
    arr = _as_sample(values, _MIN_N["mad"])
    raw = _row_medians(arr[None, :], "mad").item()
    return raw * MAD_SCALE if consistent else raw


def shamos(values: Iterable[float], consistent: bool = True) -> float:
    """Median of all pairwise absolute differences |X_i - X_j|, i < j.

    With ``consistent=True`` the result is scaled (by ~1.048358) to be
    consistent for sigma under a normal population.  The result is
    infinite only when the middle difference itself exceeds the largest
    double, as for ``[-1.7e308, 1.7e308]``.
    """
    arr = _as_sample(values, _MIN_N["shamos"])
    _check_pair_limit("shamos", arr.size)
    raw = _row_medians(arr[None, :], "shamos").item()
    return raw * PAIR_DIFF_SCALE if consistent else raw


def _sample_sd(arr: np.ndarray) -> float:
    """Standard deviation (n-1 denominator) of one sample, summed exactly."""
    dev = arr - _fsum_mean(arr, arr.size)
    # squared with libm's pow, as ``d ** 2`` of each scalar is: ``dev * dev``
    # (an array's ``dev ** 2``) differs from it in the last bit for a few
    # values, and the scalar loop is the reference
    return math.sqrt(_fsum_mean(np.float_power(dev, 2.0), arr.size - 1))


def std_dev(values: Iterable[float], unbiased_c4: bool = False) -> float:
    """Sample standard deviation (n-1 denominator).

    With ``unbiased_c4=True`` the result is divided by c4(n) so its
    expectation is sigma under a normal population.  The result is finite
    whenever the standard deviation is, even past a variance of the
    largest double, as for ``[1e200, -1e200, 0.0]``.
    """
    arr = _as_sample(values, _MIN_N["std"])
    if math.hypot(*arr.tolist()) < _SAFE_SQUARES:
        s = _sample_sd(arr)
    else:
        with np.errstate(over="ignore"):
            s = _sample_sd(arr)
        if s == math.inf:
            # the variance passed the largest double, though the standard
            # deviation may not: compute it for the data scaled by 2**-600
            s = _sample_sd(arr * 2.0 ** -600) * 2.0 ** 600
    if unbiased_c4:
        from .factors import c4

        s /= c4(arr.size)
    return s
