"""The shared median kernel against a pure-Python brute force.

The reference forms every value exactly as each estimator defines it (the
observations, their absolute deviations from the median, or the pair
values), sorts all of them (-0.0 before +0.0) and takes the midpoint median.
Every comparison is at ``float.hex`` equality, so signed zeros count.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from robustfinite import estimators as est, spc
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


def values_per_row(kind, n):
    """m, the number of values a block row of n observations selects in."""
    return n if kind in ("median", "mad") else est._pair_plan(n, kind).size


def boundary_sizes(kind):
    """Sample sizes whose m sits on either side of each limit that picks a
    row's selection (sorting network, then row sort or partition of a block
    row and of a single row): m equal to the limit and to the limit + 1
    where some n gives them, as for the median and the MAD, else the
    nearest m on each side."""
    sizes = set()
    for limit in (est._NETWORK_ROW, est._SORT_ROW, est._SORT_SINGLE_ROW):
        ns = range(MIN_N[kind], limit + 2 if kind in ("median", "mad") else 60)
        m = {n: values_per_row(kind, n) for n in ns}
        sizes.add(max((n for n in ns if m[n] <= limit), key=m.get))
        sizes.add(min((n for n in ns if m[n] > limit), key=m.get))
    return sorted(sizes)


@pytest.fixture
def networks(monkeypatch):
    """The row count of each block ``_run_network`` has selected in."""
    calls = []

    def spy(network, columns, spare):
        calls.append(len(spare))
        return run_network(network, columns, spare)

    run_network = est._run_network
    monkeypatch.setattr(est, "_run_network", spy)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_small_n_matches_brute_force(kind, networks):
    """Single rows, the scalar API and short blocks, and the same rows
    repeated into blocks of one row less than the sorting network asks for
    and of just enough rows, at every n to 40 and at the sizes on either
    side of each strategy limit."""
    rng = np.random.default_rng(2024)
    for n in [*range(MIN_N[kind], 41), *(n for n in boundary_sizes(kind) if n > 40)]:
        xs = list(samples(rng, n))
        if n == 2:  # every ordered pair of signed zeros and ones
            xs += [np.array([a, b]) for a in (-1.0, -0.0, 0.0, 1.0)
                   for b in (-1.0, -0.0, 0.0, 1.0)]
        wants = [reference_median(x, kind).hex() for x in xs]
        for x, want in zip(xs, wants):
            assert _row_medians(x[None, :], kind)[0].hex() == want, (kind, list(x))
            assert SCALAR[kind](x).hex() == want, (kind, list(x))
        assert [v.hex() for v in _row_medians(np.array(xs), kind)] == wants, (kind, n)
        copies = -(-est._NETWORK_BLOCK // len(xs))
        for rows in (est._NETWORK_BLOCK - 1, est._NETWORK_BLOCK):
            networks.clear()
            got = _row_medians(np.array(xs * copies)[:rows], kind)
            assert [v.hex() for v in got] == (wants * copies)[:rows], (kind, n, rows)
            # a row of one value is selected without a network
            network = (rows >= est._NETWORK_BLOCK
                       and 1 < values_per_row(kind, n) <= est._NETWORK_ROW)
            assert networks == ([rows] * (2 if kind == "mad" else 1) if network else []), (kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_block_across_chunks_matches_brute_force(kind):
    """n = 60 in three chunks, the last one partial; and, at the largest n
    whose rows a sorting network takes, one column-major chunk of
    ``_NETWORK_CHUNK`` rows followed by a partial one of 7 rows or of a
    single row."""
    rng = np.random.default_rng(7)
    small = max(n for n in boundary_sizes(kind)
                if values_per_row(kind, n) <= est._NETWORK_ROW)
    for n, chunks, last in ((60, 2, 7), (small, 1, 7), (small, 1, 1)):
        step = _BUFFER_PAIRS // values_per_row(kind, n)
        if n == small:
            step = min(step, est._NETWORK_CHUNK)
        rows = chunks * step + last
        block = rng.normal(size=(rows, n))
        block[::5] = np.round(block[::5])  # ties in every fifth row
        got = _row_medians(block, kind)
        assert got.shape == (rows,)
        for row, value in zip(block, got):
            assert value.hex() == reference_median(row, kind).hex(), (kind, n, rows)


@pytest.mark.parametrize("kind", KINDS)
def test_network_chunk_boundaries_are_bit_exact(kind, networks):
    """Blocks of two whole network chunks and a last one of fewer rows than
    a network takes, at every n whose rows a network selects in: normal
    rows, rounded ties, mixed-sign zeros and values near the largest
    double.  The medians equal, bit for bit, those of the same rows in
    1000-row pieces, which are sorted instead."""
    rng = np.random.default_rng(83)
    chunk, last = est._NETWORK_CHUNK, 700
    rows = 2 * chunk + last
    for n in range(MIN_N[kind], est._NETWORK_ROW + 1):
        m = values_per_row(kind, n)
        if m > est._NETWORK_ROW:
            continue
        block = rng.normal(size=(rows, n))
        block[1::4] = np.round(block[1::4])
        block[2::4] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=block[2::4].shape)
        block[3::4] = rng.choice([-1.7e308, -1e308, -0.0, 0.0, 1.5e308, 1.7e308],
                                 size=block[3::4].shape)
        networks.clear()
        want = np.concatenate([_row_medians(block[r:r + 1000], kind)
                               for r in range(0, rows, 1000)])
        assert networks == [], (kind, n)
        got = _row_medians(block, kind)
        assert got.tobytes() == want.tobytes(), (kind, n)
        # a row of one value is selected without a network
        chunks = [c for c in (chunk, chunk, last) for _ in range(1 + (kind == "mad"))]
        assert networks == (chunks if m > 1 else []), (kind, n)


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
    # the third sample's median is the -0.0 at ranks 11 and 12, the fourth's
    # the -0.0 at rank 4; the others sit on either side of each strategy
    # limit, in blocks long enough for the sorting network
    for x in (rng.normal(size=23), rng.choice([-0.0, 0.0, 1.0, -1.0], size=24),
              np.array([-1.0] * 5 + [-0.0] * 8 + [0.0] * 4 + [1.0] * 7),
              np.array([-1.0, -1.0, -0.0, -0.0, -0.0, 0.0, 0.0, 1.0, 1.0]),
              *(rng.choice([-0.0, 0.0, 1.0, -1.0], size=n) for n in boundary_sizes(kind))):
        if x.size < MIN_N[kind]:
            continue
        block = np.array([rng.permutation(x) for _ in range(est._NETWORK_BLOCK)])
        got = _row_medians(block, kind)
        assert {v.hex() for v in got} == {reference_median(x, kind).hex()}, (kind, x.size)


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


def network_columns(block, wires):
    """The rows of ``block`` after ``_network(m, wires)``, applied as the
    kernel applies it: to the columns of a column-major copy."""
    rows, m = block.shape
    values = np.array(block.T).T
    columns = list(values.T)
    est._run_network(est._network(m, wires), columns, np.empty(rows))
    return np.array(columns).T


@pytest.mark.parametrize("m", range(1, est._NETWORK_ROW + 1))
def test_network_selects_and_sorts(m):
    """The full network sorts, and each pruned one leaves the sorted values
    on the wires it keeps, on random, tied, signed-zero and infinite rows
    and on every row of zeros and ones, which proves it for all inputs (the
    0-1 principle; Knuth, TAOCP Vol. 3, 5.3.4).  Minimum and maximum may
    swap -0.0 and +0.0, so zeros compare equal here; the kernel ranks a
    zero median by counting signs."""
    rng = np.random.default_rng(37)
    shape = (200, m)
    blocks = (rng.normal(size=shape), rng.integers(-1, 2, shape) * 1.0,
              rng.choice([-0.0, 0.0, 1.0], shape), rng.choice([-np.inf, -1.0, -0.0, np.inf], shape),
              ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1) * 1.0)
    full = tuple(range(m))
    if m in (2, 4, 8):  # Batcher's network of 2**p wires, unpruned
        assert len(est._network(m, full)) == {2: 1, 4: 5, 8: 19}[m]
    for block in blocks:
        want = np.sort(block, axis=1)
        assert np.array_equal(network_columns(block, full), want), m
        for low in range(m):
            for k in range(low, m):
                got = network_columns(block, (low, k))
                assert np.array_equal(got[:, [low, k]], want[:, [low, k]]), (m, low, k)


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
    of j for each i, the diagonal pair (i, i) in it exactly when it starts
    at i, and ranks lowered by the values dropped below."""
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
        assert plan.size == copies[keep].sum(), (kind, n)
        kept = [p for p, k in zip(distinct, keep) if k]
        for row in range(n):
            js = [q[1] for q in kept if q[0] == row]
            assert js == list(range(plan.starts[row], plan.stops[row])), (kind, n, row)


def narrowings(rng, kind, widths):
    """(low, high) places of windows of ``widths`` to narrow them to: mostly
    whole windows, some cut at either end or empty, and on hl2 and hl3,
    whose windows may start at their diagonal pair, windows of i and i + 2
    that keep it with one of i + 1 that drops it."""
    n = widths.size
    for _ in range(40):
        low = rng.integers(0, widths + 1) * (rng.random(n) < 0.3)
        high = widths - rng.integers(0, widths - low + 1) * (rng.random(n) < 0.3)
        if kind in ("hl2", "hl3") and n >= 3:
            i = rng.integers(0, n - 2)
            low[i:i + 3] = 0, 1, 0
            high[i:i + 3] = np.maximum(high[i:i + 3], 1)
        yield low, high


@pytest.mark.parametrize("kind", PAIRWISE)
def test_narrow_matches_brute_force(kind):
    """``_narrow`` of the whole pair matrix and of the plan, and the pairs
    ``_pair_index`` lists of it, against the multiset enumerated pair by
    pair, hl3's pairs i < j twice and each diagonal pair once: the size,
    the ranks lowered by the values below, None where a middle rank falls
    outside, and each pair (i, j) as often as the multiset holds it."""
    rng = np.random.default_rng(71)
    made = refused = gaps = 0
    for n in range(1, 13):
        values = brute_pairs(n, kind)
        m = len(values)
        i = np.arange(n)
        whole = est._PairPlan(kind=kind, size=m, ranks=((m - 1) // 2, m // 2),
                              starts=i + (kind in ("shamos", "hl1")), stops=np.full(n, n),
                              index=None)
        plans = [whole] + ([est._pair_plan(n, kind)] if n >= MIN_N[kind] else [])
        for plan in plans:
            widths = plan.stops - plan.starts
            for low, high in narrowings(rng, kind, widths):
                first, last = plan.starts + low, plan.starts + high
                want = sorted(p for p in values if first[p[0]] <= p[1] < last[p[0]])
                shift = sum(plan.starts[a] <= b < first[a] for a, b in values)
                ranks = (plan.ranks[0] - shift, plan.ranks[1] - shift)
                band = est._narrow(plan, low, high)
                if ranks[0] < 0 or ranks[1] >= len(want):
                    assert band is None, (kind, n, low, high)
                    refused += 1
                    continue
                made += 1
                assert (band.size, band.ranks) == (len(want), ranks)
                counts, a, b = est._pair_index(band)
                assert counts.tolist() == np.bincount(a, minlength=n).tolist()
                assert np.all(np.diff(a) >= 0)  # grouped by i
                assert sorted(zip(a.tolist(), b.tolist())) == want, (kind, n, low, high)
                # diagonal pairs kept at i and i + 2 but not at i + 1
                diagonal = [(d, d) in want for d in range(n)]
                gaps += any(diagonal[d] > diagonal[d + 1] < diagonal[d + 2] for d in range(n - 2))
    assert made and refused
    assert gaps or kind in ("shamos", "hl1")


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


@pytest.mark.parametrize("kind, n", [("hl1", 1100), ("hl2", 1100), ("hl3", 800), ("shamos", 800)])
def test_counted_block_row_with_overflowing_middle_sums(kind, n, counted):
    """Rows too long to share the buffer are counted in within a block too:
    a normal row as the scalar call gives it, and a row whose middle sums
    pass the largest double, though their halves do not, counted in again
    with its values halved."""
    assert est._pair_plan(n, kind).size > _BUFFER_PAIRS
    rng = np.random.default_rng(53)
    block = np.array([rng.normal(size=n), rng.uniform(0.6, 1.0, n) * 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _row_medians(block, kind)
    assert counted == [n] * (2 if kind == "shamos" else 3)
    assert got[0].hex() == SCALAR[kind](block[0]).hex()
    with np.errstate(over="ignore"):
        want = sorted_reference(block[1], kind, halved=kind != "shamos")
    assert math.isfinite(want)
    assert got[1].hex() == want.hex(), kind


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


def brute_counts(s, kind, t, starts, stops):
    """How many pair values of each i's window lie below and at most each
    pivot, formed and compared one window at a time."""
    below = np.zeros((t.size, s.size), dtype=int)
    upto = np.zeros_like(below)
    for i in range(s.size):
        j = np.arange(starts[i], stops[i])
        v = s[j] - s[i] if kind == "shamos" else s[j] + s[i]
        below[:, i] = (v < t[:, None]).sum(axis=1)
        upto[:, i] = (v <= t[:, None]).sum(axis=1)
    return below, upto


def counting_rows(rng, n):
    """Sorted rows for the counting core: continuous values, runs of tied
    observations, signed zeros, distinct values whose sums round alike, and
    values whose pair sums and differences round to +-inf."""
    for x in (rng.normal(size=n), rng.integers(-3, 4, n) * 0.5,
              rng.choice([-1.0, -0.0, 0.0, 1.0], n), 2.0 ** 53 + rng.integers(0, 16, n),
              rng.uniform(-1, 1, n) * 1.7e308, rng.uniform(0.6, 1.0, n) * 1.7e308,
              rng.choice([-1.7e308, -0.0, 1.5e308, 1.7e308], n)):
        yield np.sort(x)


@pytest.mark.parametrize("kind", PAIRWISE)
def test_count_below_matches_brute_force(kind):
    """``_count_below`` on windows clipped at both ends, empty ones and the
    plan's, at pivots that are exact pair values, lie between them, beyond
    every one, are signed zeros or infinities."""
    rng = np.random.default_rng(61)
    for n in (1, 2, 17, 40):
        for s in counting_rows(rng, n):
            ends = np.sort(rng.integers(0, n + 1, (2, n)), axis=0)
            layouts = [tuple(ends), (np.zeros(n, int), np.full(n, n))]
            if n > 1:
                plan = est._pair_plan(n, kind)
                layouts.append((plan.starts, plan.stops))
            with np.errstate(over="ignore"):
                values = np.unique(np.subtract.outer(s, s) if kind == "shamos"
                                   else np.add.outer(s, s))
                exact = rng.choice(values, 6)
                between = (0.5 * values[:-1] + 0.5 * values[1:])[:4]
            pivots = [*exact, *between, -0.0, 0.0, math.inf, -math.inf,
                      values[0] - 1.0, values[-1] + 1.0]
            for starts, stops in layouts:
                for t in (np.array(pivots[:1]), np.sort(rng.choice(pivots, 2, replace=False)),
                          np.array(pivots)):
                    with np.errstate(over="ignore"):
                        want = brute_counts(s, kind, t, starts, stops)
                        got = est._count_below(s, kind, t, starts, stops)
                    for g, w in zip(got, want):
                        assert g.tolist() == w.tolist(), (kind, n, list(s), list(t))


def test_sample_positions_match_search():
    """The closed-form places of the systematic sample among windows laid
    end to end are those ``np.searchsorted`` finds, over random layouts with
    empty windows and the windows of plans, at sample sizes below and above
    the pairs in the windows."""
    rng = np.random.default_rng(67)
    layouts = []
    for n in (1, 2, 7, 100, 3000):
        for _ in range(5):
            sizes = rng.integers(0, rng.choice([2, 9, n + 1]), n) * (rng.random(n) < 0.7)
            if sizes.any():
                starts = rng.integers(0, n, n)
                layouts.append((starts, starts + sizes))
    for kind, n in (("shamos", 2000), ("hl3", 10_000)):
        plan = est._pair_plan(n, kind)
        layouts.append((plan.starts, plan.stops))
    for starts, stops in layouts:
        sizes = stops - starts
        ends = np.cumsum(sizes)
        total = int(ends[-1])
        for count in {1, 3, 2048, *((total, total + 5) if total < 10_000 else ())}:
            f = (2 * np.arange(count) + 1) * total // (2 * count)
            r = np.searchsorted(ends, f, "right")
            i, j = est._sample_pairs(count, ends, stops)
            assert i.tolist() == r.tolist(), (total, count)
            assert j.tolist() == (f - ends[r] + sizes[r] + starts[r]).tolist(), (total, count)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_overflow_does_not_warn(kind, counted):
    # Pair values and deviations past the largest double round to
    # infinities without a RuntimeWarning, in the scalar API and in filled
    # blocks, counted rows and sorting networks alike, and the medians stay
    # those of the rounded values.  Blocks of up to 40 values per row are
    # also repeated into one long enough for the sorting network.
    rng = np.random.default_rng(29)
    pairwise = kind in PAIRWISE
    sizes = [2, 5, 40, *([COUNTED_FROM[kind] + 1] if pairwise else []), *boundary_sizes(kind)]
    blocks = []
    for n in sizes:
        block = rng.uniform(-1, 1, (2, n)) * 1.7e308
        block[1, : n // 2] = np.abs(block[1, : n // 2])
        with np.errstate(over="ignore"):
            blocks.append((block, [
                (sorted_reference(x, kind, halved=kind != "shamos") if pairwise
                 else reference_median(x, kind)).hex() for x in block]))
    copies = est._NETWORK_BLOCK // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "shamos":
            x = np.random.default_rng(0).uniform(-1, 1, 100) * 1.7e308
            assert est.shamos(x) == 1.0990932061473503e+308
        for block, want in blocks:
            assert [v.hex() for v in _row_medians(block, kind)] == want, kind
            assert [_row_medians(x[None, :], kind)[0].hex() for x in block] == want, kind
            assert [SCALAR[kind](x).hex() for x in block] == want, kind
            if block.shape[1] <= 40:
                got = _row_medians(np.tile(block, (copies, 1)), kind)
                assert [v.hex() for v in got] == want * copies, (kind, block.shape)
    assert counted == ([COUNTED_FROM[kind] + 1] * 4 if pairwise else [])


def test_mad_and_consistent_scales_do_not_warn_near_largest_double():
    """A MAD deviation, or a scale times its consistency constant, past the
    largest double rounds to an infinity without a RuntimeWarning, and the
    results keep their values."""
    x = np.random.default_rng(0).uniform(-1, 1, 100) * 1.7e308
    series = spc.SubgroupSeries(np.random.default_rng(0).uniform(-1, 1, (20, 5)) * 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert est.mad(x) == 1.3021667705181217e+308
        mad = spc.chart_limits(series, "mad-c5")
        shamos = spc.chart_limits(series, "shamos-c6")
        # the same subgroups in a block tall enough for the sorting network
        copies = est._NETWORK_BLOCK // 20 + 1
        tall = est._row_estimates(est.Estimator.MAD, np.tile(series.data, (copies, 1)))
        assert [v.hex() for v in tall] == [v.hex() for v in series.mads] * copies
    assert [mad.center.hex(), mad.ucl.hex(), mad.lcl.hex(), mad.three_sigma] == [
        "0x1.7619f6201b43bp+1020", "0x1.a285b37a12ff1p+1023", "-0x1.44ff35f20c2e3p+1023", math.inf]
    assert [shamos.center.hex(), shamos.ucl, shamos.lcl, shamos.three_sigma] == [
        "0x1.7619f6201b43bp+1020", math.inf, -math.inf, math.inf]


def band_from(kind):
    """The smallest n whose plan keeps enough pairs for a block to select
    in a band."""
    return next(n for n in range(2, 200) if est._pair_plan(n, kind).size >= est._BAND_PAIRS)


def learned_rows(kind, n):
    """The rows of the whole chunks a block selects with the plan and
    learns its first band from, and the fewest rows of a block that
    selects in a band."""
    step = est._BUFFER_PAIRS // values_per_row(kind, n)
    learned = -(-est._LEARN_ROWS // step) * step
    return learned, est._BAND_CHUNKS * learned


@pytest.fixture
def bands(monkeypatch):
    """(rows, misses) of each chunk a band has selected in."""
    calls = []

    def spy(rows, plan, band, lo, hi):
        misses = band_misses(rows, plan, band, lo, hi)
        calls.append((len(rows), misses.size))
        return misses

    band_misses = est._band_misses
    monkeypatch.setattr(est, "_band_misses", spy)
    return calls


def without_band(block, kind, monkeypatch):
    """``_row_medians`` with every chunk selected from the whole plan."""
    with monkeypatch.context() as patch:
        patch.setattr(est, "_BAND_CHUNKS", math.inf)
        return _row_medians(block, kind)


def band_block(rng, kind, n):
    """Normal rows, the first chunk's among them, then in later chunks rows
    shifted, scaled by 1e3, with one or three gross outliers, heavy ties,
    signed zeros, +-1e300 and Cauchy draws; the last chunk is partial."""
    rows = 4103
    x = rng.normal(size=(rows, n))
    first = learned_rows(kind, n)[0]
    later = np.array_split(np.arange(first, rows), 9)
    x[later[0]] += 50.0
    x[later[1]] *= 1e3
    x[later[2], 0] = 1e9
    x[later[3], :3] = -1e9
    x[later[4]] = rng.integers(-3, 4, size=(len(later[4]), n))
    x[later[5]] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(len(later[5]), n))
    x[later[6]] = rng.choice([-0.0, 0.0], size=(len(later[6]), n))
    x[later[7]] = rng.choice([-1e300, -0.0, 0.0, 1e300, 3.0], size=(len(later[7]), n))
    x[later[8]] = rng.standard_cauchy(size=(len(later[8]), n))
    return x, first, [part[::max(1, len(part) // 4)] for part in later]


@pytest.mark.parametrize("kind", PAIRWISE)
def test_band_matches_whole_plan(kind, bands, monkeypatch):
    """Blocks of several chunks, whose later rows need other pairs than the
    first chunk's, at the n just below the band, the first n of the band
    and n = 100: every row as from the whole plan, and sampled rows of each
    family as the sorted pairs give them.  Rows miss the band on both sides
    and are selected again."""
    rng = np.random.default_rng(41)
    for n in (band_from(kind) - 1, band_from(kind), 100):
        bands.clear()
        block, first, sampled = band_block(rng, kind, n)
        got = _row_medians(block, kind)
        assert [v.hex() for v in got] == [v.hex() for v in without_band(block, kind, monkeypatch)]
        for r in [0, *np.concatenate(sampled)]:
            assert got[r].hex() == sorted_reference(block[r], kind).hex(), (kind, n, r)
        if n < band_from(kind):
            assert not bands, (kind, n)
        else:
            assert sum(rows for rows, _ in bands) == len(block) - first, (kind, n)
            assert sum(misses for _, misses in bands) > 0, (kind, n)


@pytest.mark.parametrize("kind", PAIRWISE)
def test_band_block_with_overflowing_rows(kind, bands, monkeypatch):
    """Rows in band chunks whose pair values pass the largest double: no
    warning, and the Hodges-Lehmann rows whose middle sums overflow are
    selected again from the whole plan among the sums of halved values."""
    rng = np.random.default_rng(43)
    n = 100
    block = rng.normal(size=(2348, n))
    huge = [2043, 2148, len(block) - 1]
    block[huge[0]] = rng.uniform(0.6, 1.0, n) * 1.7e308
    block[huge[1]] = -block[huge[0]][::-1]
    block[huge[2]] = rng.choice([-1.7e308, 1.0, 1.5e308, 1.7e308], n, p=[0.1, 0.05, 0.4, 0.45])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _row_medians(block, kind)
    assert sum(rows for rows, _ in bands) == len(block) - learned_rows(kind, n)[0]
    assert [v.hex() for v in got] == [v.hex() for v in without_band(block, kind, monkeypatch)]
    with np.errstate(over="ignore"):
        for r in huge:
            want = sorted_reference(block[r], kind, halved=kind != "shamos")
            assert got[r].hex() == want.hex(), (kind, r)
            assert math.isfinite(want) or kind == "shamos"


@pytest.mark.parametrize("kind", PAIRWISE)
def test_band_only_in_large_blocks(kind, bands, networks):
    """A 4096 x 100 block and the smallest block of rows of 100 that may
    select in a band do; a single row, a block of one row too few, a block
    whose plan keeps too few pairs and a sorting network's block do not."""
    rng = np.random.default_rng(47)
    _row_medians(rng.normal(size=(4096, 100)), kind)
    assert sum(rows for rows, _ in bands) > 3000
    learned, fewest = learned_rows(kind, 100)
    bands.clear()
    _row_medians(rng.normal(size=(fewest, 100)), kind)
    assert sum(rows for rows, _ in bands) == fewest - learned
    bands.clear()
    small = next(n for n in range(2, 20) if 1 < values_per_row(kind, n) <= est._NETWORK_ROW)
    for block in (rng.normal(size=(1, 100)), rng.normal(size=(fewest - 1, 100)),
                  rng.normal(size=(4096, band_from(kind) - 1)), rng.normal(size=(4096, small))):
        _row_medians(block, kind)
    assert not bands
    assert networks == [4096]


@pytest.mark.parametrize("kind", PAIRWISE)
def test_band_holds_both_middle_ranks(kind):
    """The band of whole windows is the plan itself, with the same pairs,
    and has no pairs below or above it that a row could miss; and no band
    is made that leaves a middle rank below or above it."""
    plan = est._pair_plan(100, kind)
    every = plan.stops - plan.starts
    none = np.zeros_like(every)
    whole = est._narrow(plan, none, every)
    assert (whole.size, whole.ranks) == (plan.size, plan.ranks)
    assert np.array_equal(whole.starts, plan.starts)
    assert np.array_equal(whole.stops, plan.stops)
    assert all(np.array_equal(a, b) for a, b in zip(est._pair_index(whole), plan.index))
    rows = np.sort(np.random.default_rng(0).normal(size=(3, 100)), axis=1)
    unbounded = est._band_misses(rows, plan, whole, np.full(3, -np.inf), np.full(3, np.inf))
    assert unbounded.size == 0
    assert est._narrow(plan, every, every) is None
    assert est._narrow(plan, none, none) is None
    # every pair of the first half of the i below the band, of the second
    # half above it: the ranks fall outside on one side or the other
    half = np.arange(every.size) < every.size // 2
    assert est._narrow(plan, np.where(half, every, 0), np.where(half, every, 0)) is None


@pytest.mark.parametrize("kind", PAIRWISE)
def test_band_chunk_of_one_row_that_misses(kind, bands, monkeypatch):
    """Copies of one row learn a narrow band that no copy misses; the last
    chunk holds one other row alone, which misses it."""
    rng = np.random.default_rng(53)
    n = 100
    x = rng.normal(size=n)
    first = learned_rows(kind, n)[0]
    _row_medians(np.tile(x, (4096, 1)), kind)
    step = bands[0][0]
    assert all(misses == 0 for _, misses in bands)
    block = np.tile(x, (first + -(-(4096 - first) // step) * step + 1, 1))
    block[-1] = rng.standard_cauchy(size=n)
    bands.clear()
    got = _row_medians(block, kind)
    assert bands[-1] == (1, 1), (kind, bands[-3:])
    assert [v.hex() for v in got] == [v.hex() for v in without_band(block, kind, monkeypatch)]
    assert got[-1].hex() == sorted_reference(block[-1], kind).hex()


@pytest.mark.parametrize("kind", PAIRWISE)
@pytest.mark.parametrize("per_chunk", [1, 3])
def test_band_learned_over_chunks_of_few_rows(kind, per_chunk, bands, monkeypatch):
    """A buffer that holds one or three rows of the plan, as for n of about
    550 to 1100: the first band is learned over many chunks of one or three
    rows, and every row is as from the whole plan."""
    n = 100
    monkeypatch.setattr(est, "_BUFFER_PAIRS", per_chunk * values_per_row(kind, n) + 1)
    first, fewest = learned_rows(kind, n)
    assert first == -(-est._LEARN_ROWS // per_chunk) * per_chunk
    block, first, sampled = band_block(np.random.default_rng(59), kind, n)
    got = _row_medians(block, kind)
    assert sum(rows for rows, _ in bands) == len(block) - first
    assert sum(misses for _, misses in bands) > 0
    assert [v.hex() for v in got] == [v.hex() for v in without_band(block, kind, monkeypatch)]
    for r in [0, *np.concatenate(sampled)]:
        assert got[r].hex() == sorted_reference(block[r], kind).hex(), (kind, r)


@pytest.mark.parametrize("estimator", list(est.Estimator))
def test_no_kernel_writes_into_its_input(estimator, networks, bands, counted):
    """``_row_estimates`` of one row and of blocks that select with the
    plan, in a band, through the sorting network and by counting: each
    input comes back bit for bit, signed zeros too.  The control charts and
    the contamination experiment read their samples again after scoring
    them, so a kernel that sorted its rows in place would change results."""
    kind = estimator._kind
    pairwise = kind in PAIRWISE
    small = next(n for n in range(2, 20)
                 if kind is None or 1 < values_per_row(kind, n) <= est._NETWORK_ROW)
    long = 800 if kind in ("shamos", "hl3") else 1100
    rng = np.random.default_rng(71)
    for shape in ((50,), (COUNTED_FROM.get(kind, 300),), (64, 50), (4096, 100),
                  (est._NETWORK_BLOCK, small), (est._NETWORK_CHUNK + est._NETWORK_BLOCK, small),
                  (2, long)):
        x = rng.normal(size=shape)
        x[..., ::7] = rng.choice([-0.0, 0.0, 1.0], size=x[..., ::7].shape)
        given = x.copy()
        est._row_estimates(estimator, x)
        assert x.tobytes() == given.tobytes(), (estimator, shape)
    assert (sum(rows for rows, _ in bands) > 0) == pairwise
    assert counted == ([COUNTED_FROM[kind], long, long] if pairwise else [])
    # the block of two network chunks follows the one of a single chunk
    chunks = [est._NETWORK_BLOCK, est._NETWORK_CHUNK, est._NETWORK_BLOCK]
    assert networks == {None: [], "mad": [c for c in chunks for _ in (0, 1)]}.get(kind, chunks)


@pytest.mark.parametrize("kind", PAIRWISE)
def test_block_memory_stays_below_the_block(kind):
    """A 4096 x 200 normal block, 6.25 MB, is sorted one chunk at a time,
    so the call's traced peak stays below the block's own size."""
    block = np.random.default_rng(79).normal(size=(4096, 200))
    _row_medians(block[:64], kind)  # the plan is cached before tracing
    tracemalloc.start()
    try:
        _row_medians(block, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block.nbytes == 6.25 * 2 ** 20, (kind, peak)


@pytest.mark.parametrize("kind", KINDS)
def test_network_memory_stays_below_2_mb(kind, networks):
    """Tall blocks of short rows, as the control charts and the
    contamination experiment score, go through the sorting network in
    chunks of at most ``_NETWORK_CHUNK`` rows, so one call's traced peak
    stays below 2 MB: 40,960 x 5 and 100,000 x 2 normal blocks, for every
    kind whose rows a network selects in."""
    rng = np.random.default_rng(89)
    for rows, n in ((40_960, 5), (100_000, 2)):
        if not 1 < values_per_row(kind, n) <= est._NETWORK_ROW:
            continue
        block = rng.normal(size=(rows, n))
        _row_medians(block[:64], kind)  # the plan is cached before tracing
        networks.clear()
        tracemalloc.start()
        try:
            _row_medians(block, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert networks, (kind, rows, n)
        assert peak < 2 * 2 ** 20, (kind, rows, n, peak)


@pytest.mark.parametrize("kind", PAIRWISE)
def test_needed_matches_brute_force(kind):
    """``_needed`` on sorted rows of integers, where no rounding decides, at
    each row's middle values and half a unit and one unit outside them:
    each i's fewest pairs of its window below the lower value and most up
    to the upper one over the rows, widened by the margin and clipped to
    the window; a block taught in two parts as in one."""
    rng = np.random.default_rng(67)
    for n in (53, 74, 100):
        plan = est._pair_plan(n, kind)
        i, j = np.array(brute_pairs(n, kind)).T
        for rows in (1, 7):
            block = np.sort(rng.integers(-30, 31, size=(rows, n)), axis=1).astype(float)
            values = np.sort(block[:, j] - block[:, i] if kind == "shamos"
                             else block[:, j] + block[:, i], axis=1)
            m = values.shape[1]
            for d in (0.0, 0.5, 1.0):
                lo, hi = values[:, (m - 1) // 2] - d, values[:, m // 2] + d
                counts = [brute_counts(s, kind, np.array([a, b]), plan.starts, plan.stops)
                          for s, a, b in zip(block, lo, hi)]
                low = np.min([below[0] for below, _ in counts], axis=0) - est._BAND_MARGIN
                high = np.max([upto[1] for _, upto in counts], axis=0) + est._BAND_MARGIN
                want = np.maximum(low, 0), np.minimum(high, plan.stops - plan.starts)
                got = est._needed(plan, block, lo, hi)
                assert [g.tolist() for g in got] == [w.tolist() for w in want], (kind, n, rows, d)
                if rows > 1:
                    first = est._needed(plan, block[:3], lo[:3], hi[:3])
                    parts = est._needed(plan, block[3:], lo[3:], hi[3:], first)
                    assert [p.tolist() for p in parts] == [w.tolist() for w in want]


@pytest.mark.parametrize("kind", KINDS)
def test_block_of_no_rows_has_no_medians(kind):
    """A block of no rows gives an empty array, for the pairwise kinds as
    for the median, with no row to sort or to read the ends of."""
    got = _row_medians(np.ones((0, 5)), kind)
    assert got.shape == (0,) and got.dtype == float


@pytest.mark.parametrize("kind", ["shamos", "hl1"])
@pytest.mark.parametrize("rows", [1, 3])
def test_pairless_rows_are_a_named_error(kind, rows):
    """A row of one value has no pair i < j: the error names the kind and n."""
    with pytest.raises(ValueError, match=rf"^{kind} needs rows of at least 2 values, got n=1$"):
        _row_medians(np.ones((rows, 1)), kind)


@pytest.mark.parametrize("kind", ["median", "mad"])
@pytest.mark.parametrize("rows", [1, 3])
def test_empty_rows_are_a_named_error(kind, rows):
    """A row of no values has no median: the error names the kind and n."""
    with pytest.raises(ValueError, match=rf"^{kind} needs rows of at least 1 value, got n=0$"):
        _row_medians(np.ones((rows, 0)), kind)


@pytest.mark.parametrize("kind", ["shamos", "hl1", "hl2", "hl3"])
@pytest.mark.parametrize("rows", [1, 3])
def test_empty_pair_rows_are_a_named_error(kind, rows):
    """A row of no values has no pair, in a single row as in a block."""
    least = {"shamos": "2 values", "hl1": "2 values", "hl2": "1 value", "hl3": "1 value"}[kind]
    with pytest.raises(ValueError, match=rf"^{kind} needs rows of at least {least}, got n=0$"):
        _row_medians(np.ones((rows, 0)), kind)
