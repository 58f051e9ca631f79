"""The shared median kernel against a pure-Python brute force.

The reference forms every value exactly as each estimator defines it (the
observations, their absolute deviations from the median, or the pair
values), sorts all of them (-0.0 before +0.0) and takes the midpoint median.
Every comparison is at ``float.hex`` equality, so signed zeros count.
"""

import math
import tracemalloc

import numpy as np
import pytest

from robustfinite import estimators as est
from robustfinite.estimators import _BUFFER_PAIRS, _row_medians

KINDS = ("median", "mad", "shamos", "hl1", "hl2", "hl3")
MIN_N = {"median": 1, "mad": 2, "shamos": 2, "hl1": 2, "hl2": 1, "hl3": 1}
SCALAR = {
    "median": est.median,
    "mad": lambda x: est.mad(x, consistent=False),
    "shamos": lambda x: est.shamos(x, consistent=False),
    "hl1": est.hl1,
    "hl2": est.hl2,
    "hl3": est.hl3,
}


def reference_pairs(x, kind):
    n = len(x)
    if kind == "median":
        return list(x)
    if kind == "mad":
        centre = reference_median(x, "median")
        return [abs(a - centre) for a in x]
    if kind == "shamos":
        return [abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)]
    if kind == "hl3":
        return [0.5 * (x[i] + x[j]) for i in range(n) for j in range(n)]
    first = 1 if kind == "hl1" else 0
    return [0.5 * (x[i] + x[j]) for i in range(n) for j in range(i + first, n)]


def reference_median(x, kind):
    v = sorted(reference_pairs([float(a) for a in x], kind),
               key=lambda a: (a, math.copysign(1.0, a)))
    m = len(v)
    if m % 2:
        return v[m // 2]
    lo, hi = v[m // 2 - 1], v[m // 2]
    mid = 0.5 * (lo + hi)
    # lo + hi overflows only when halving each first is exact
    return 0.5 * lo + 0.5 * hi if math.isinf(mid) else mid


def samples(rng, n):
    """Continuous values, heavy ties, signed zeros and +-1e300 magnitudes;
    sorted, reverse-sorted and constant rows; and ties around the middle,
    so that pairs equal to a middle value lie on both sides of the window
    of pairs the kernel forms."""
    yield rng.normal(size=n)
    yield rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=n)
    yield rng.choice([-0.0, 0.0], size=n)
    yield rng.choice([-1e300, -0.0, 0.0, 1e300, 3.0], size=n)
    yield rng.integers(-3, 4, size=n) * 1e300
    yield np.sort(rng.normal(size=n))
    yield -np.sort(rng.normal(size=n))
    yield np.full(n, rng.normal())
    z = rng.normal(size=n)
    yield np.where(np.abs(z) < 0.7, 0.25, z)
    yield rng.permutation(np.repeat([1.0, 2.0], [n // 2, n - n // 2]))


@pytest.mark.parametrize("kind", KINDS)
def test_small_n_matches_brute_force(kind):
    rng = np.random.default_rng(2024)
    for n in range(MIN_N[kind], 41):
        xs = list(samples(rng, n))
        if n == 2:  # every ordered pair of signed zeros and ones
            xs += [np.array([a, b]) for a in (-1.0, -0.0, 0.0, 1.0)
                   for b in (-1.0, -0.0, 0.0, 1.0)]
        wants = [reference_median(x, kind).hex() for x in xs]
        for x, want in zip(xs, wants):
            assert _row_medians(x[None, :], kind)[0].hex() == want, (kind, list(x))
            assert SCALAR[kind](x).hex() == want, (kind, list(x))
        assert [v.hex() for v in _row_medians(np.array(xs), kind)] == wants, (kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_block_across_chunks_matches_brute_force(kind):
    rng = np.random.default_rng(7)
    n = 60
    pairs = n if kind in ("median", "mad") else est._pair_plan(n, kind).size
    step = _BUFFER_PAIRS // pairs
    rows = 2 * step + 7  # three chunks, the last one partial
    block = rng.normal(size=(rows, n))
    block[::5] = np.round(block[::5])  # ties in every fifth row
    got = _row_medians(block, kind)
    assert got.shape == (rows,)
    for row, value in zip(block, got):
        assert value.hex() == reference_median(row, kind).hex()


@pytest.mark.parametrize("kind", KINDS)
def test_row_larger_than_buffer_matches_brute_force(kind):
    # one row holds more values than the buffer: n for the median and the
    # MAD, which do not apply PAIR_LIMIT, and otherwise the pairs the plan
    # keeps, about 45% of n^2/2 for hl1 and hl2, 45% of n^2 for hl3 and 90%
    # of n^2/2 for shamos
    linear = kind in ("median", "mad")
    n = _BUFFER_PAIRS + 3 if linear else 1100 if kind in ("hl1", "hl2") else 800
    assert (n if linear else est._pair_plan(n, kind).size) > _BUFFER_PAIRS
    rng = np.random.default_rng(11)
    x = np.round(rng.normal(size=n), 2)
    want = reference_median(x, kind).hex()
    assert _row_medians(x[None, :], kind)[0].hex() == want
    assert SCALAR[kind](x).hex() == want


@pytest.mark.parametrize("kind", KINDS)
def test_permutation_invariance(kind):
    rng = np.random.default_rng(5)
    # the last sample's median is the -0.0 at ranks 11 and 12
    for x in (rng.normal(size=23), rng.choice([-0.0, 0.0, 1.0, -1.0], size=24),
              np.array([-1.0] * 5 + [-0.0] * 8 + [0.0] * 4 + [1.0] * 7)):
        block = np.array([rng.permutation(x) for _ in range(30)])
        got = _row_medians(block, kind)
        assert {v.hex() for v in got} == {reference_median(x, kind).hex()}


def test_shamos_of_signed_zeros_is_positive_zero():
    assert est.shamos([-0.0, 0.0, 0.0]).hex() == "0x0.0p+0"
    assert est.shamos([0.0, -0.0]).hex() == "0x0.0p+0"


def test_finite_sample_has_finite_median():
    """The midpoint of two middle values near the largest double is formed
    without overflow, and an odd count takes the middle value as it is."""
    big = 1.7e308
    assert est.median([big]) == big
    assert est.median([big] * 3) == big
    assert est.median([big, big]) == big
    assert est.median([-1.5e308, -big]).hex() == (-0.5 * 1.5e308 - 0.5 * big).hex()
    assert est.mad([big, big, 1.0]) == 0.0
    block = np.array([[big, big, 1.0, 1.5e308], [1.0, -big, -big, -1.5e308]])
    want = [(0.5 * big + 0.5 * 1.5e308).hex(), (-0.5 * big - 0.5 * 1.5e308).hex()]
    assert [v.hex() for v in _row_medians(block, "median")] == want
    assert [v.hex() for v in _row_medians(block[:, :3], "median")] == [
        big.hex(), (-big).hex()]
    assert list(_row_medians(block[:, :3], "mad")) == [0.0, 0.0]
    # A pair sum past the largest double: the Hodges-Lehmann medians select
    # again among the sums of halved values (numpy warns of the first fill).
    with np.errstate(over="ignore"):
        assert est.hl2([big]) == est.hl3([big]) == est.hl1([big, big]) == big
        # the 3rd and 4th of the six averages, whose sum overflows too
        lo, hi = 0.5 * big + 0.5 * 1.0, 0.5 * 1.5e308 + 0.5 * big
        assert est.hl1([1.5e308, big, big, 1.0]).hex() == (0.5 * lo + 0.5 * hi).hex()
        block = np.array([[big, big, 1.5e308], [1.0, -big, -big]])
        assert [v.hex() for v in _row_medians(block, "hl1")] == [
            (0.5 * big + 0.5 * 1.5e308).hex(), (0.5 * (1.0 - big)).hex()]
        for kind in ("hl2", "hl3"):
            got = _row_medians(block, kind)
            assert np.isfinite(got).all(), kind
            assert [v.hex() for v in got] == [SCALAR[kind](x).hex() for x in block]


PAIRWISE = ("shamos", "hl1", "hl2", "hl3")


def brute_pairs(n, kind):
    """Every value of the kind's multiset as its pair (i, j), i <= j, of a
    sorted row: hl3 lists each pair i < j twice."""
    if kind == "hl3":
        return [(min(a, b), max(a, b)) for a in range(n) for b in range(n)]
    first = 1 if kind in ("shamos", "hl1") else 0
    return [(i, j) for i in range(n) for j in range(i + first, n)]


def dominated(p, q, kind):
    """Whether the values of pairs p (columns) are certainly <= those of
    pairs q (rows), as a (len(q), len(p)) array."""
    (pi, pj), (qi, qj) = (np.array(p).T[:, None, :], np.array(q).T[:, :, None])
    if kind == "shamos":  # S[j] - S[i] grows as the interval widens
        return (qi <= pi) & (pj <= qj)
    return (pi <= qi) & (pj <= qj)


@pytest.mark.parametrize("kind", PAIRWISE)
def test_rank_bounds_match_brute_force(kind):
    """P and S of every pair against a count over the dominance order, and
    the plan's kept pairs against the brute-force rule: one contiguous range
    of j for each i, and ranks lowered by the values dropped below."""
    for n in range(MIN_N[kind], 41):
        values = brute_pairs(n, kind)
        m = len(values)
        lo_rank, hi_rank = (m - 1) // 2, m // 2
        distinct = sorted(set(values))
        copies = np.array([values.count(p) for p in distinct])
        # the pair itself once; its hl3 twin, an equal value, not at all
        other = ~np.array([[p == q for p in values] for q in distinct])
        want_p = 1 + (dominated(values, distinct, kind) & other).sum(axis=1)
        want_s = 1 + (dominated(distinct, values, kind).T & other).sum(axis=1)
        i, j = np.array(distinct).T
        got_p, got_s = est._pair_counts(kind, n, i, j)
        assert got_p.tolist() == want_p.tolist(), (kind, n)
        assert got_s.tolist() == want_s.tolist(), (kind, n)
        below = want_s > m - lo_rank
        keep = ~below & (want_p <= hi_rank + 1)
        shift = int(copies[below].sum())
        plan = est._pair_plan(n, kind)
        assert plan.ranks == (lo_rank - shift, hi_rank - shift), (kind, n)
        assert plan.middle == hi_rank
        assert plan.size == copies[keep].sum(), (kind, n)
        kept = [p for p, k in zip(distinct, keep) if k]
        for row in range(n):
            js = [q[1] for q in kept if q[0] == row and q[1] > row]
            assert js == list(range(plan.starts[row], plan.stops[row])), (kind, n, row)
        assert [q[0] for q in kept if q[0] == q[1]] == list(plan.diagonal), (kind, n)


def test_kept_pairs_at_n_100():
    # the Hodges-Lehmann kernels form at most 46% of the multiset, shamos 91%
    for kind, full in (("hl1", 4950), ("hl2", 5050), ("hl3", 10000), ("shamos", 4950)):
        share = est._pair_plan(100, kind).size / full
        assert share <= (0.91 if kind == "shamos" else 0.46), (kind, share)


# The first n at which each kind's plan is too large to cache its index, so
# that a single row of it is counted in rather than filled.
COUNTED_FROM = {"shamos": 269, "hl1": 377, "hl2": 376, "hl3": 267}


@pytest.fixture
def counted(monkeypatch):
    """The number of rows ``_count_middle`` has selected in."""
    calls = []

    def spy(s, plan):
        calls.append(s.size)
        return count_middle(s, plan)

    count_middle = est._count_middle
    monkeypatch.setattr(est, "_count_middle", spy)
    return calls


def sorted_reference(x, kind, halved=False):
    """``reference_median`` with numpy, for rows too long for pure Python:
    every pair value formed as the estimator defines it (as the sum of the
    halved values with ``halved``, exact where ``x_i + x_j`` overflows),
    sorted, and the signs of middle zeros read from the count of negative
    values and -0.0."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if kind == "hl3":
        i, j = np.divmod(np.arange(n * n), n)
    else:
        i, j = np.triu_indices(n, 1 if kind in ("shamos", "hl1") else 0)
    if kind == "shamos":
        v = np.abs(x[i] - x[j])
    else:
        v = 0.5 * x[i] + 0.5 * x[j] if halved else 0.5 * (x[i] + x[j])
    negatives = np.count_nonzero(np.signbit(v))
    v.sort()
    m = v.size

    def at(r):
        value = float(v[r])
        return (-0.0 if r < negatives else 0.0) if value == 0 else value

    lo, hi = at((m - 1) // 2), at(m // 2)
    mid = 0.5 * (lo + hi)
    return 0.5 * lo + 0.5 * hi if math.isinf(mid) else mid


@pytest.mark.parametrize("kind", PAIRWISE)
def test_counted_row_matches_brute_force(kind, counted):
    n = COUNTED_FROM[kind]
    assert est._pair_plan(n - 1, kind).size <= est._CACHED_INDEX < est._pair_plan(n, kind).size
    rng = np.random.default_rng(13)
    for x in samples(rng, n):
        want = reference_median(x, kind).hex()
        assert _row_medians(x[None, :], kind)[0].hex() == want, (kind, list(x))
        assert SCALAR[kind](x).hex() == want, (kind, list(x))
    assert counted == [n] * 20


@pytest.mark.parametrize("kind", PAIRWISE)
def test_counted_long_row_matches_sorted_pairs(kind, counted):
    rng = np.random.default_rng(17)
    x = rng.standard_t(2, 2000)
    x[::97] *= 25.0
    assert SCALAR[kind](x).hex() == sorted_reference(x, kind).hex()
    assert counted == [2000]


@pytest.mark.parametrize("kind", ("hl1", "hl2", "hl3"))
def test_counted_row_near_largest_double(kind, counted):
    # every middle pair sum passes the largest double, though its half does
    # not: the row is counted in again with its values halved
    rng = np.random.default_rng(19)
    n = COUNTED_FROM[kind] + 30
    for x in (rng.uniform(0.6, 1.0, n) * 1.7e308, rng.uniform(-1.0, -0.6, n) * 1.7e308,
              rng.choice([-1.7e308, 1.0, 1.5e308, 1.7e308], n, p=[0.1, 0.05, 0.4, 0.45])):
        with np.errstate(over="ignore"):
            want = sorted_reference(x, kind, halved=True)
        assert math.isfinite(want)
        assert SCALAR[kind](x).hex() == want.hex(), kind
    assert counted == [n, n] * 3


@pytest.mark.parametrize("kind", PAIRWISE)
def test_counted_row_matches_filled_block(kind, counted):
    # a block of two rows shares the buffer and is filled; one row alone is
    # counted in
    n = 500
    assert est._CACHED_INDEX < est._pair_plan(n, kind).size <= _BUFFER_PAIRS
    rng = np.random.default_rng(23)
    for x in samples(rng, n):
        with np.errstate(over="ignore"):
            filled = _row_medians(np.array([x, x[::-1]]), kind)
            assert not counted
            got = _row_medians(x[None, :], kind)[0]
        assert counted.pop() == n
        assert [v.hex() for v in filled] == [got.hex()] * 2, (kind, list(x))


@pytest.mark.parametrize("kind", PAIRWISE)
def test_counted_ties_take_little_memory(kind):
    """Rows of one or two values hold runs of equal pairs larger than the
    rows: the pivot whose run holds the middle rank ends the counting, and
    no round forms those runs."""
    n = 2000
    rng = np.random.default_rng(29)
    for x in (np.full(n, 0.7), rng.permutation(np.repeat([1.0, 2.0], n // 2))):
        want = SCALAR[kind](x)  # the plan is cached before tracing
        tracemalloc.start()
        try:
            got = SCALAR[kind](x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == want.hex()
        assert peak < 1 << 20, (kind, peak)


@pytest.mark.parametrize("kind", PAIRWISE)
def test_counting_in_many_rounds_matches_filled_block(kind, monkeypatch):
    """Tiny samples and margins make the pivots miss the middle rank, hit
    its neighbours and fall back on the windows' weighted median, which the
    default sizes seldom do; the filled block is the reference."""
    monkeypatch.setattr(est, "_SAMPLE", 8)
    monkeypatch.setattr(est, "_MARGIN", 1)
    monkeypatch.setattr(est, "_GATHER", 8)
    fallbacks = []

    def spy(*args):
        fallbacks.append(1)
        return middle_of_windows(*args)

    middle_of_windows = est._middle_of_windows
    monkeypatch.setattr(est, "_middle_of_windows", spy)
    rng = np.random.default_rng(31)
    n = 400
    for x in [*samples(rng, n), rng.integers(-6, 7, n) * 0.5, rng.standard_cauchy(n)]:
        with np.errstate(over="ignore"):
            filled = _row_medians(np.array([x, x]), kind)
            got = _row_medians(x[None, :], kind)[0]
        assert [v.hex() for v in filled] == [got.hex()] * 2, (kind, list(x))
    assert fallbacks
