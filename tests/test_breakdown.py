import csv
import math
from importlib import resources

import numpy as np
import pytest

from robustfinite import estimators
from robustfinite.breakdown import (
    BreakdownResult,
    breakdown_hl1,
    breakdown_hl2,
    breakdown_hl3,
    breakdown_median,
    breakdown_oracle,
    breakdown_point,
    breakdown_table,
)
from robustfinite.estimators import Estimator

ASYMPTOTE_PAIRWISE = 1.0 - 1.0 / math.sqrt(2.0)


def _golden_rows():
    path = resources.files("robustfinite") / "data" / "breakdown_table.csv"
    with path.open() as f:
        return list(csv.DictReader(f))


class TestClosedForms:
    def test_median_spot_values(self):
        assert breakdown_median(10).epsilon_n == 0.4
        assert breakdown_median(3).as_fraction() == (1, 3)
        assert breakdown_median(1).k_star == 0

    def test_hl3_spot_values(self):
        assert breakdown_hl3(5).epsilon_n == 0.2
        assert breakdown_hl3(10).epsilon_n == 0.2
        assert breakdown_hl3(2).k_star == 0

    def test_hl1_spot_values(self):
        assert breakdown_hl1(7).as_fraction() == (1, 7)
        assert breakdown_hl1(4).k_star == 0  # hl1 = mean at n = 4
        assert breakdown_hl1(50).epsilon_n == 0.28

    def test_hl2_spot_values(self):
        assert breakdown_hl2(7).as_fraction() == (2, 7)
        assert breakdown_hl2(10).epsilon_n == 0.3
        assert breakdown_hl2(3).k_star == 0

    def test_estimator_aliases(self):
        # the MAD breaks down like the median; the pairwise-difference scale
        # estimator breaks down like hl1
        assert breakdown_point(17, "mad").k_star == breakdown_median(17).k_star
        assert breakdown_point(17, "shamos").k_star == breakdown_hl1(17).k_star

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            breakdown_median(0)
        with pytest.raises(ValueError):
            breakdown_hl1(1)
        with pytest.raises(ValueError):
            breakdown_point(4, "mean")

    def test_result_fraction_is_exact(self):
        r = breakdown_hl2(41)
        assert r.epsilon_n == r.k_star / r.n
        with pytest.raises(ValueError):
            BreakdownResult(5, Estimator.MEDIAN, 6)


def test_golden_table_reproduced_exactly():
    rows = breakdown_table(50)
    golden = _golden_rows()
    assert len(rows) == len(golden) == 49
    for row, gold in zip(rows, golden):
        assert row["n"] == int(gold["n"])
        for col in ("median_mad", "hl1_shamos", "hl2", "hl3"):
            assert f"{row[col]:.7f}" == gold[col], (row["n"], col)


def test_breakdown_table_bounds():
    assert len(breakdown_table(2)) == 1
    assert breakdown_table(2)[0] == {
        "n": 2, "median_mad": 0.0, "hl1_shamos": 0.0, "hl2": 0.0, "hl3": 0.0
    }
    with pytest.raises(ValueError):
        breakdown_table(1)


@pytest.mark.parametrize("estimator", ["median", "hl1", "hl2", "hl3"])
def test_closed_form_matches_oracle_up_to_500(estimator):
    start = 2 if estimator == "hl1" else 1
    for n in range(start, 501):
        closed = breakdown_point(n, estimator)
        oracle = breakdown_oracle(n, estimator)
        assert closed.k_star == oracle.k_star, (estimator, n)


def test_closed_form_names_the_estimator_asked_for():
    """The whole result equals the oracle's, the estimator too: the MAD and
    the pairwise-difference scale estimator share the closed forms of the
    median and hl1, not their labels."""
    for estimator in ("median", "hl1", "hl2", "hl3", "mad", "shamos"):
        start = 2 if estimator in ("hl1", "shamos") else 1
        for n in range(start, 61):
            assert breakdown_point(n, estimator) == breakdown_oracle(n, estimator), (estimator, n)


def test_oracle_spot_values():
    assert breakdown_oracle(5, "hl3").k_star == 1
    assert breakdown_oracle(10, "median").k_star == 4
    for est in ("median", "hl1", "hl2", "hl3", "mad", "shamos"):
        assert breakdown_oracle(2, est).k_star == 0


def test_hl_ordering():
    # eps(hl2) >= eps(hl3) >= eps(hl1) for every n
    for n in range(2, 501):
        e1 = breakdown_hl1(n).epsilon_n
        e2 = breakdown_hl2(n).epsilon_n
        e3 = breakdown_hl3(n).epsilon_n
        assert e2 >= e3 >= e1, n


def test_approach_to_asymptotes():
    for n in range(2, 501):
        assert abs(breakdown_median(n).epsilon_n - 0.5) <= 1.5 / n + 1e-15
        for fn in (breakdown_hl1, breakdown_hl2, breakdown_hl3):
            assert abs(fn(n).epsilon_n - ASYMPTOTE_PAIRWISE) <= 3.0 / n + 1e-15


def test_one_sided_bounds():
    # the median never reaches 1/2; the pairwise family never exceeds the
    # asymptote by more than 1/n
    for n in range(1, 501):
        assert breakdown_median(n).epsilon_n < 0.5
        for fn in (breakdown_hl2, breakdown_hl3):
            assert fn(n).epsilon_n <= ASYMPTOTE_PAIRWISE + 1.0 / n
        if n >= 2:
            assert breakdown_hl1(n).epsilon_n <= ASYMPTOTE_PAIRWISE + 1.0 / n


def test_median_parity_pattern():
    for k in range(1, 200):
        assert breakdown_median(2 * k + 1).k_star == k
        assert breakdown_median(2 * k).k_star == k - 1


ORDER_STATISTIC = ("median", "hl1", "hl2", "hl3", "mad", "shamos")


@pytest.mark.parametrize("name", ORDER_STATISTIC)
def test_kernels_explode_exactly_past_the_breakdown_point(name):
    """k values of a normal sample replaced by 1e300 * (1..k): the estimate
    stays below 1e200 exactly while k <= k*."""
    estimate = getattr(estimators, name)
    x = np.random.default_rng(13).normal(size=40)
    for n in range(2, 41):
        k_star = breakdown_point(n, name).k_star
        for k in range(n + 1):
            y = x[:n].copy()
            y[:k] = 1e300 * np.arange(1, k + 1)
            assert (abs(estimate(y)) < 1e200) == (k <= k_star), (n, k)


def test_scales_implode_when_the_copies_hold_the_middle():
    """k values replaced by copies of a clean one: the MAD is 0.0 exactly
    when the k + 1 equal values are a majority, which at odd n is one
    replacement before the MAD's explosion point, and shamos exactly when
    their C(k + 1, 2) zero differences are a majority of the C(n, 2)."""
    x = np.random.default_rng(13).normal(size=40)
    for n in range(2, 41):
        pairs = math.comb(n, 2)
        for k in range(n):
            y = x[:n].copy()
            y[:k] = y[k]
            assert (estimators.mad(y) == 0.0) == (k + 1 >= n // 2 + 1), (n, k)
            zero_pairs = math.comb(k + 1, 2)
            assert (estimators.shamos(y) == 0.0) == (zero_pairs >= pairs // 2 + 1), (n, k)
