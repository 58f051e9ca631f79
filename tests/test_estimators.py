import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustfinite.estimators import (
    PAIR_LIMIT,
    Estimator,
    hl1,
    hl2,
    hl3,
    hodges_lehmann,
    mad,
    mean,
    median,
    select_kth,
    shamos,
    std_dev,
)
from robustfinite.factors import (
    c4,
    unbiased_mad,
    unbiased_mad_sq,
    unbiased_shamos,
    unbiased_shamos_sq,
)

from conftest import close_rel

# expected values below were derived by hand or from an independent
# high-precision quantile/gamma evaluation before the implementation existed
MAD_123_CONSISTENT = 1.482602218505602       # 1 / (normal third quartile)
SHAMOS_01_CONSISTENT = 1.0483580825075305    # 1 / (sqrt(2) * third quartile)
SQRT_PI = 1.7724538509055159

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)
scale_samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=30
)
shifts = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
scales = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).filter(
    lambda a: abs(a) > 1e-3
)


class TestPointValues:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([5]) == 5
        assert mean([1, 2, 3, 4]) == 2.5

    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 100]) == 2.5
        assert median([7]) == 7

    def test_hl_variants(self):
        assert hl1([1, 2, 3]) == 2
        assert hl2([5]) == 5
        assert hl1([0, 1, 2, 9]) == 3  # any 4-point hl1 equals the mean
        assert hl2([1, 2, 3]) == 2  # multiset {1, 1.5, 2, 2, 2.5, 3}
        assert hl3([5]) == 5

    def test_mad(self):
        assert mad([1, 2, 3]) == pytest.approx(MAD_123_CONSISTENT, abs=1e-15)
        assert mad([1, 2, 3]) == pytest.approx(1.4826, abs=1e-4)  # rounded constant
        assert mad([3.5] * 7) == 0
        assert mad([1, 2, 3], consistent=False) == 1

    def test_shamos(self):
        assert shamos([0, 1]) == pytest.approx(SHAMOS_01_CONSISTENT, abs=1e-15)
        assert shamos([0, 1]) == pytest.approx(1.048358, abs=1e-4)
        assert shamos([2.5, 2.5, 2.5]) == 0
        assert shamos([0, 1, 3], consistent=False) == 2  # differences {1, 3, 2}

    def test_std_dev(self):
        assert std_dev([0, 2]) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert std_dev([4, 4, 4]) == 0
        assert std_dev([0, 2], unbiased_c4=True) == pytest.approx(SQRT_PI, rel=1e-12)

    def test_sum_past_largest_double(self):
        # the exact sum overflows, the mean does not: no OverflowError
        big = 1.7e308
        assert mean([big, big]) == big
        assert mean([big] * 5 + [-big]) == pytest.approx(big / 6 * 4, rel=1e-15)
        assert std_dev([big, big]) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_std_dev_past_largest_variance(self):
        # the variance passes the largest double, the standard deviation
        # does not: finite, and no RuntimeWarning
        for x, sd in (([1e154, -1e154], math.sqrt(2) * 1e154),
                      ([1e200, -1e200, 0.0], 1e200),
                      ([1.7e308, -1e308, -1e308], math.sqrt(2.43) * 1e308)):
            assert std_dev(x) == pytest.approx(sd, rel=1e-15)
            assert std_dev(x, unbiased_c4=True) == pytest.approx(sd / c4(len(x)), rel=1e-15)
        assert std_dev([1.7e308, -1.7e308]) == math.inf
        assert std_dev([1.7e308, -1.7e308], unbiased_c4=True) == math.inf
        # a finite variance keeps the bits of the scalar loop
        for x in ([1e160, 1e160], [1.5e154, 1.2e154, 1.4e154], [3e153, -2e153, 1.0]):
            mu = math.fsum(x) / len(x)
            want = math.sqrt(math.fsum((v - mu) ** 2 for v in x) / (len(x) - 1))
            assert std_dev(x).hex() == want.hex()

    @pytest.mark.filterwarnings("error")
    def test_hodges_lehmann_near_largest_double_does_not_warn(self):
        big = 1.7e308
        assert hl2([big]) == hl3([big]) == hl1([big, big]) == big
        assert hl1([1.5e308, big, big, 1.0]) == pytest.approx(1.225e308, rel=1e-15)
        assert hl2([-big, -big, 1.0]) == pytest.approx(-0.75 * big, rel=1e-15)
        assert hl3([-big, -big, 1.0]) == pytest.approx(-0.5 * big, rel=1e-15)

    def test_select_kth(self):
        assert select_kth([3, 1, 2], 1) == 2
        assert select_kth([5], 0) == 5
        assert select_kth([4, 4, 4, 1], 2) == 4


class TestValidation:
    def test_empty_sample_rejected(self):
        for fn in (mean, median, hl2, hl3):
            with pytest.raises(ValueError):
                fn([])

    def test_non_finite_rejected(self):
        for bad in ([1.0, math.nan, 2.0], [1.0, math.inf], [-math.inf]):
            with pytest.raises(ValueError):
                median(bad)

    def test_min_sizes(self):
        with pytest.raises(ValueError):
            hl1([1.0])  # empty pair set
        for fn in (mad, shamos, std_dev):
            with pytest.raises(ValueError):
                fn([1.0])

    def test_pair_size_limit(self):
        big = np.zeros(PAIR_LIMIT + 1)
        with pytest.raises(ValueError, match="size limit"):
            hl3(big)
        with pytest.raises(ValueError, match="size limit"):
            shamos(big)

    def test_two_dimensional_input_rejected(self):
        fns = (mean, median, hl1, hl2, hl3, mad, shamos, std_dev,
               lambda x: hodges_lehmann(x, "hl2"), lambda x: select_kth(x, 0),
               unbiased_mad, unbiased_shamos, unbiased_mad_sq, unbiased_shamos_sq)
        for fn in fns:
            for bad in (np.ones((3, 4)), [[1, 2], [3, 4]]):
                with pytest.raises(ValueError, match=r"1-d.*shape \(\d, \d\)"):
                    fn(bad)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            hodges_lehmann([1, 2], "hl4")

    def test_select_kth_range(self):
        with pytest.raises(ValueError):
            select_kth([1, 2], 2)
        with pytest.raises(ValueError):
            select_kth([1, 2], -1)
        for k in (0.5, "1", True):
            with pytest.raises(ValueError, match=rf"^k must be an integer, got {k!r}$"):
                select_kth([1, 2], k)


def test_select_kth_matches_sorting():
    rng = np.random.default_rng(20240811)
    for size in (1, 2, 3, 10, 137, 1000):
        x = rng.normal(size=size)
        x[rng.integers(0, size, size=size // 3 or 1)] = 0.25  # inject ties
        full = np.sort(x)
        for k in {0, size // 2, size - 1}:
            assert select_kth(x, k) == full[k]


def test_signed_zero_order_statistics_ignore_input_order():
    # -0.0 ranks before +0.0, so the sign of a zero result is fixed
    rng = np.random.default_rng(3)
    for negatives, positives in ((5, 5), (6, 5), (5, 6), (1, 1), (64, 63)):
        x = np.array([-0.0] * negatives + [0.0] * positives)
        want_median = -0.0 if negatives > x.size // 2 else 0.0
        for _ in range(50):
            p = rng.permutation(x)
            assert median(p).hex() == want_median.hex()
            for k in range(0, x.size, max(1, x.size // 10)):
                assert select_kth(p, k).hex() == (-0.0 if k < negatives else 0.0).hex()
    # a zero next to a nonzero middle value keeps the midpoint rule
    assert median([-1.0, -0.0, 0.0, 2.0]).hex() == (0.0).hex()
    assert median([-1.0, -0.0, -0.0, 2.0]).hex() == (-0.0).hex()


_LOCATION_FNS = [mean, median, hl2, hl3]
_LOCATION_FNS_N2 = [hl1]


@given(samples, shifts)
@example(values=[1e6, 735434.0, -870662.0, -864933.0], b=3.9409290538974584e-10)
@settings(max_examples=200)
def test_location_equivariance(values, b):
    shifted_values = [v + b for v in values]
    # shifting by b rounds each value to its own ulp, so a small estimate of
    # large values moves by more than ulp(b): closeness is judged relative
    # to the magnitudes actually involved, as in the scale test below
    magnitude = max(abs(v) for v in shifted_values + [b])
    for fn in _LOCATION_FNS + (_LOCATION_FNS_N2 if len(values) >= 2 else []):
        base = fn(values)
        shifted = fn(shifted_values)
        assert close_rel(shifted, base + b, rel=1e-12, scale=magnitude)


@given(scale_samples, scales, shifts)
@settings(max_examples=200)
def test_scale_equivariance(values, a, b):
    transformed_values = [a * v + b for v in values]
    # shifting by b rounds away structure below ulp(b), so closeness is
    # judged relative to the magnitudes actually involved
    magnitude = max(abs(v) for v in transformed_values + [b])
    for fn in (mad, shamos, std_dev):
        base = fn(values)
        transformed = fn(transformed_values)
        assert close_rel(transformed, abs(a) * base, rel=1e-12, scale=magnitude)


@given(samples, st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_permutation_invariance_exact(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    fns = [mean, median, hl2, hl3]
    if len(values) >= 2:
        fns += [hl1, mad, shamos, std_dev]
    for fn in fns:
        assert fn(values) == fn(shuffled)


def test_std_dev_keeps_the_loop_bits():
    # the reference squares each deviation as a scalar, with pow; x * x
    # differs from it in the last bit for some x, which these samples catch
    rng = np.random.default_rng(3)
    for _ in range(3000):
        x = rng.normal(size=int(rng.integers(2, 31))) * 10.0 ** rng.integers(-5, 6)
        mu = math.fsum(x) / x.size
        want = math.sqrt(math.fsum((v - mu) ** 2 for v in x) / (x.size - 1))
        assert std_dev(x).hex() == want.hex(), list(x)


def test_constant_sample_has_zero_std():
    # sum / n of n copies of v need not be v, so without the tie check these
    # come out as a few ulps of v, for both kernels
    from robustfinite.estimators import _row_estimates

    rng = np.random.default_rng(8)
    values = rng.uniform(49.0, 51.0, 3000).tolist() + [50.446374572364014, 0.0, -0.0]
    for v in values:
        for n in (2, 3, 7):
            assert std_dev([v] * n) == 0.0, (v, n)
    for n in (2, 3, 7):
        block = np.repeat(np.array(values)[:, None], n, axis=1)
        assert not _row_estimates(Estimator.STD, block).any(), n
    # a sample whose spread is a single ulp is not constant, and keeps it
    assert std_dev([1.0, 1.0 + 2.0 ** -52]) == 2.0 ** -52
    got = _row_estimates(Estimator.STD, np.array([[1.0, 1.0 + 2.0 ** -52, 1.0]]))
    assert got[0] > 0


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4))
@settings(max_examples=300)
def test_hl1_equals_mean_for_size_four(values):
    assert close_rel(hl1(values), mean(values), rel=1e-12)


@given(samples)
@settings(max_examples=200)
def test_location_estimates_within_range(values):
    lo, hi = min(values), max(values)
    for fn in [median, hl2, hl3] + ([hl1] if len(values) >= 2 else []):
        v = fn(values)
        assert lo - 1e-9 * max(1, abs(lo)) <= v <= hi + 1e-9 * max(1, abs(hi))


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=25),
    st.integers(min_value=0),
)
@settings(max_examples=150)
def test_mad_resists_heavy_corruption(values, seed):
    """Replacing up to floor((n-1)/2) points with 1e12 cannot push the MAD
    beyond what the clean order statistics allow."""
    n = len(values)
    k = (n - 1) // 2
    rng = np.random.default_rng(seed)
    corrupt_at = rng.choice(n, size=k, replace=False)
    corrupted = np.array(values, dtype=float)
    corrupted[corrupt_at] = 1e12
    bound = (max(values) - min(values)) * 1.482602218505602
    assert mad(corrupted) <= bound * (1 + 1e-9) + 1e-9


def test_estimator_enum_properties():
    assert Estimator("mad").is_scale and not Estimator("mad").is_location
    assert Estimator.HL1.min_n == 2 and Estimator.HL3.min_n == 1
    assert {e.value for e in Estimator} == {
        "mean", "median", "hl1", "hl2", "hl3", "std", "mad", "shamos"
    }


SCALAR_FUNCTIONS = {"mean": mean, "median": median, "hl1": hl1, "hl2": hl2, "hl3": hl3,
                    "std": std_dev, "mad": mad, "shamos": shamos}


@pytest.mark.parametrize("estimator", list(Estimator))
def test_scalar_function_takes_min_n(estimator):
    fn = SCALAR_FUNCTIONS[estimator.value]
    n = estimator.min_n
    with pytest.raises(ValueError, match=f"size {n - 1} given; need at least {n}"):
        fn([2.5] * (n - 1))
    assert fn([2.5] * n) == (2.5 if estimator.is_location else 0.0)
    # the process pool sends members to its workers
    assert pickle.loads(pickle.dumps(estimator)) is estimator


@pytest.mark.filterwarnings("error")
def test_block_mean_and_std_near_largest_double():
    # A row whose sum or variance passes the largest double is computed
    # again from scaled values, as the scalar functions do; the other rows
    # keep numpy's bits.
    from robustfinite.estimators import _row_estimates

    big = 1.7e308
    block = np.random.default_rng(5).normal(size=(7, 5))
    block[2] = big
    block[4] = [big, 1.5e308, -1e308, 1.2e308, big]
    block[5] = [1e200, -1e200, 0.0, 1.0, 2.0]
    block[6, 1] = -big
    for estimator, scalar, rows in ((Estimator.MEAN, mean, [2, 4]),
                                    (Estimator.STD, std_dev, [2, 4, 5, 6])):
        with np.errstate(all="ignore"):
            want = (block.mean(axis=1) if estimator.is_location
                    else block.std(axis=1, ddof=1))
        want[rows] = [scalar(block[r]) for r in rows]
        assert np.isfinite(want).all()
        assert _row_estimates(estimator, block).tolist() == want.tolist(), estimator
