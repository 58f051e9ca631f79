import math
import warnings

import numpy as np
import pytest

from robustfinite import spc
from robustfinite.calibration import BLOCK_SIZE, _block_rng
from robustfinite.estimators import mad as scalar_mad
from robustfinite.estimators import mean as scalar_mean
from robustfinite.estimators import shamos as scalar_shamos
from robustfinite.estimators import std_dev as scalar_std
from robustfinite.factors import c4, c5, c6
from robustfinite.spc import (
    CHART_METHODS,
    _experiment_block,
    _three_sigma_estimates,
    EXPERIMENT_METHODS,
    ChartLimits,
    SubgroupSeries,
    a3,
    a5,
    a6,
    chart_limits,
    contamination_experiment,
    points_out_of_control,
    read_subgroups,
)

A3_AT_5 = 1.4272992929222166  # 3 / (c4(5) * sqrt(5)), independent gamma oracle


def _normal_series(k=10, n=5, mu=5.0, seed=0):
    rng = np.random.default_rng(seed)
    return SubgroupSeries(mu + rng.normal(size=(k, n)))


class TestChartFactors:
    def test_a3_oracle_value(self):
        assert a3(5) == pytest.approx(A3_AT_5, abs=1e-12)

    def test_factor_identities(self):
        for n in (2, 5, 17, 60):
            assert a5(n) / a3(n) == pytest.approx(c4(n) / c5(n), rel=1e-12)
            assert a6(n) / a3(n) == pytest.approx(c4(n) / c6(n), rel=1e-12)

    def test_a6_below_a3(self):
        # c6 > 1 > c4, so the pairwise-difference factor is always tighter
        for n in range(2, 101):
            assert a6(n) < a3(n)


class TestSubgroupSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"size n >= 2, got shape \(0, 5\)"):
            SubgroupSeries(np.zeros((0, 5)))
        with pytest.raises(ValueError, match=r"size n >= 2, got shape \(3, 1\)"):
            SubgroupSeries(np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"k x n matrix, got an array of shape \(5,\)"):
            SubgroupSeries(np.zeros(5))
        with pytest.raises(ValueError, match=r"shape \(2, 3, 4\)"):
            SubgroupSeries(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match=r"first nan at \(row 0, column 1\)"):
            SubgroupSeries([[1.0, math.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"first -inf at \(row 2, column 0\)"):
            SubgroupSeries([[1.0, 2.0], [0.0, 1.0], [-math.inf, math.nan]])

    def test_statistics_cache(self):
        s = _normal_series(k=4, n=6)
        assert s.k == 4 and s.n == 6
        assert s.means.shape == (4,)
        assert s.mads[2] == pytest.approx(scalar_mad(s.data[2]), rel=1e-12)

    def test_row_statistics_match_scalar_estimators(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 5, 8):
            data = rng.normal(size=(50, n))
            data[::4] = np.round(data[::4])  # ties
            s = SubgroupSeries(data)
            assert np.array_equal(s.mads, [scalar_mad(row) for row in data])
            assert np.array_equal(s.shamoses, [scalar_shamos(row) for row in data])

    def test_robust_chart_limits_match_scalar_loop(self):
        s = _normal_series(k=40, n=7, seed=3)
        scale = {"mad-c5": (a5, scalar_mad), "shamos-c6": (a6, scalar_shamos)}
        for method, (factor, fn) in scale.items():
            half = factor(s.n) * float(np.array([fn(row) for row in s.data]).mean())
            limits = chart_limits(s, method)
            assert limits.ucl == float(s.means.mean()) + half
            assert limits.three_sigma == math.sqrt(s.n) * half

    def test_std_chart_limits_match_scalar_loop(self):
        # the chart's row standard deviations sum with numpy, the scalar
        # std_dev exactly: the limits agree to the last bits
        rng = np.random.default_rng(17)
        for k, n in [(1, 5), (1, 2), (30, 2), (40, 7), (200, 5), (25, 30)]:
            for scale in (1e-3, 1.0, 1e4):
                z = rng.normal(size=(k, n))
                z[::3] = np.round(z[::3], 1)  # ties
                s = SubgroupSeries(50.0 + scale * z)
                half = a3(n) * float(np.array([scalar_std(row) for row in s.data]).mean())
                limits = chart_limits(s, "std-c4")
                center = float(s.means.mean())
                assert limits.center == center
                for got, want in ((limits.ucl, center + half), (limits.lcl, center - half),
                                  (limits.three_sigma, math.sqrt(n) * half)):
                    assert abs(got - want) <= 1e-15 * abs(want), (k, n, scale)


class TestChartLimits:
    def test_zero_spread(self):
        limits = chart_limits(SubgroupSeries(np.zeros((1, 5))), "std-c4")
        assert limits.center == limits.ucl == limits.lcl == 0.0
        assert limits.three_sigma == 0.0

    def test_constant_subgroups_have_zero_spread(self):
        # the row mean of seven copies of this value is not the value
        v = 50.446374572364014
        for method in ("std-c4", "mad-c5", "shamos-c6"):
            limits = chart_limits(SubgroupSeries(np.full((3, 7), v)), method)
            assert limits.three_sigma == 0.0, method
            assert limits.ucl == limits.lcl == v, method

    def test_identical_subgroups_mad_method(self):
        row = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        series = SubgroupSeries(np.tile(row, (6, 1)))
        limits = chart_limits(series, "mad-c5")
        n = row.size
        expected = math.sqrt(n) * a5(n) * scalar_mad(row)
        assert limits.three_sigma == pytest.approx(expected, rel=1e-12)

    def test_symmetric_limits(self):
        series = _normal_series()
        for method in CHART_METHODS:
            limits = chart_limits(series, method)
            assert limits.ucl - limits.center == pytest.approx(
                limits.center - limits.lcl, rel=1e-12)
            assert limits.ucl > limits.lcl
            assert limits.three_sigma == pytest.approx(
                math.sqrt(series.n) * (limits.ucl - limits.center), rel=1e-12)

    def test_shift_equivariance(self):
        series = _normal_series(seed=3)
        shifted = SubgroupSeries(series.data + 11.25)
        for method in CHART_METHODS:
            a = chart_limits(series, method)
            b = chart_limits(shifted, method)
            assert b.center == pytest.approx(a.center + 11.25, rel=1e-12)
            assert b.three_sigma == pytest.approx(a.three_sigma, rel=1e-12)

    def test_scale_equivariance(self):
        series = _normal_series(seed=4)
        scaled = SubgroupSeries(series.data * 2.5)
        for method in CHART_METHODS:
            a = chart_limits(series, method)
            b = chart_limits(scaled, method)
            assert b.center == pytest.approx(2.5 * a.center, rel=1e-12)
            assert b.ucl - b.lcl == pytest.approx(2.5 * (a.ucl - a.lcl), rel=1e-12)
            assert b.three_sigma == pytest.approx(2.5 * a.three_sigma, rel=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            chart_limits(_normal_series(), "range-d2")

    def test_phase2_screening(self):
        limits = ChartLimits(center=0.0, ucl=1.0, lcl=-1.0, method="std-c4",
                             three_sigma=math.sqrt(5))
        series = SubgroupSeries(np.array([[0.1] * 5, [3.0] * 5, [-2.0] * 5]))
        flags = points_out_of_control(limits, series)
        assert flags.tolist() == [False, True, True]


class TestReadSubgroups:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "subgroups.csv"
        path.write_text("# phase-I data\nx1,x2,x3\n1,2,3\n4,5,6\n")
        series = read_subgroups(path)
        assert series.k == 2 and series.n == 3
        assert series.data[1].tolist() == [4.0, 5.0, 6.0]

    def test_headerless(self, tmp_path):
        path = tmp_path / "subgroups.csv"
        path.write_text("1,2\n3,4\n")
        assert read_subgroups(path).k == 2

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "subgroups.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="ragged"):
            read_subgroups(path)

    def test_non_numeric_body_rejected(self, tmp_path):
        path = tmp_path / "subgroups.csv"
        path.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(ValueError, match="line 2"):
            read_subgroups(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "subgroups.csv"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_subgroups(path)


class TestContaminationExperiment:
    def test_deterministic_and_worker_invariant(self):
        kwargs = dict(k=4, n=5, delta_grid=(0, 20), replications=500,
                      master_seed=42)
        a = contamination_experiment(worker_count=1, **kwargs)
        b = contamination_experiment(worker_count=2, **kwargs)
        assert a == b

    def test_merged_moments_match_one_pass(self):
        # two blocks, the second one partial
        k, n, mu, sigma, reps, seed = 4, 5, 5.0, 1.0, 5000, 9
        assert BLOCK_SIZE < reps < 2 * BLOCK_SIZE
        rows = contamination_experiment(k=k, n=n, mu=mu, sigma=sigma,
                                        delta_grid=(0, 20), replications=reps,
                                        master_seed=seed, worker_count=1)
        base = np.concatenate([
            # domain 1: the contamination experiment's substreams
            mu + sigma * _block_rng(seed, 1, k * n, b).standard_normal((size, k, n))
            for b, size in enumerate((BLOCK_SIZE, reps - BLOCK_SIZE))])
        for d in (0.0, 20.0):
            data = base.copy()
            data[:, 0, :1] += d
            estimates = _three_sigma_estimates(data)
            for row in (r for r in rows if r["delta"] == d):
                est = estimates[row["method"]]
                assert row["reps"] == reps
                assert row["bias"] + 3.0 * sigma == pytest.approx(est.mean(), rel=1e-12)
                assert row["variance"] == pytest.approx(np.var(est, ddof=1), rel=1e-12)

    @pytest.mark.parametrize("k, n, corrupt_count, size", [
        (1, 2, 1, 300), (1, 2, 2, 257), (4, 7, 0, 1000), (3, 5, 5, 999),
        (10, 5, 1, BLOCK_SIZE)])
    def test_block_matches_full_recompute(self, k, n, corrupt_count, size):
        # each delta's estimates equal the six estimates computed from
        # scratch on a fully corrupted copy of the block's draws
        mu, sigma, seed = 5.0, 1.5, 11
        deltas = (0.0, -4.5, -0.0, 20.0, 20.0, 0.25)
        estimates = _experiment_block(_block_rng(seed, 1, k * n, 0), size, k, n,
                                      mu, sigma, deltas, corrupt_count)
        base = mu + sigma * _block_rng(seed, 1, k * n, 0).standard_normal((size, k, n))
        m = len(EXPERIMENT_METHODS)
        assert len(estimates) == m * len(deltas)
        for i, d in enumerate(deltas):
            data = base.copy()
            data[:, 0, :corrupt_count] += d
            expected = list(_three_sigma_estimates(data).values())
            assert all(np.array_equal(got, want) for got, want
                       in zip(estimates[i * m:(i + 1) * m], expected, strict=True))

    def test_methods_in_the_order_the_estimates_come(self):
        x = _block_rng(3, 1, 10, 0).standard_normal((50, 2, 5))
        assert list(_three_sigma_estimates(x)) == list(EXPERIMENT_METHODS)
        assert EXPERIMENT_METHODS == ("std", "unbiased-std", "mad", "unbiased-mad",
                                      "shamos", "unbiased-shamos")

    def test_block_recomputes_only_the_corrupted_subgroup(self, monkeypatch):
        original = spc._row_estimates
        rows = []

        def counting(estimator, block):
            rows.append(block.shape[0])
            return original(estimator, block)

        monkeypatch.setattr(spc, "_row_estimates", counting)
        size, k, n = 300, 10, 5
        _experiment_block(_block_rng(1, 1, k * n, 0), size, k, n, 5.0, 1.0,
                          (0.0, 10.0, -0.0, 20.0), 1)
        # std, MAD and Shamos: size*k clean rows once, then size rows per
        # nonzero delta
        assert rows == [size * k] * 3 + [size] * 6

    def test_block_leaves_its_sample_unchanged(self):
        # the kernels score a view of the drawn sample, and the block then
        # shifts a copy of its first subgroups: the sample must still hold
        # the values as drawn, scaled and shifted, in every row's order
        size, k, n, seed = 128, 10, 5, 5
        drawn = []

        class Draw:
            def standard_normal(self, shape):
                drawn.append(_block_rng(seed, 1, k * n, 0).standard_normal(shape))
                return drawn[-1]

        _experiment_block(Draw(), size, k, n, 5.0, 1.5, (0.0, 20.0), 2)
        want = 5.0 + 1.5 * _block_rng(seed, 1, k * n, 0).standard_normal((size, k, n))
        assert len(drawn) == 1
        assert drawn[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, value", [("k", 0), ("k", -2), ("n", 1), ("n", 0)])
    def test_too_few_subgroups_or_observations(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} \(.* got {value}$"):
            contamination_experiment(replications=100, master_seed=0,
                                     worker_count=1, **{name: value})

    def test_row_schema(self):
        rows = contamination_experiment(k=3, n=4, delta_grid=(0,),
                                        replications=200, master_seed=1)
        assert len(rows) == len(EXPERIMENT_METHODS)
        assert set(rows[0]) == {"delta", "method", "bias", "variance", "mse", "reps"}
        for row in rows:
            assert row["mse"] == pytest.approx(
                row["bias"] ** 2 + row["variance"], rel=1e-12)
            assert row["reps"] == 200

    def test_unbiasing_improves_bias_when_clean(self):
        rows = {(r["delta"], r["method"]): r
                for r in contamination_experiment(delta_grid=(0,),
                                                  replications=4000,
                                                  master_seed=2)}
        for raw, unbiased in (("std", "unbiased-std"), ("mad", "unbiased-mad"),
                              ("shamos", "unbiased-shamos")):
            assert abs(rows[(0.0, unbiased)]["bias"]) < abs(rows[(0.0, raw)]["bias"])

    def test_robust_methods_survive_corruption(self):
        rows = {(r["delta"], r["method"]): r
                for r in contamination_experiment(delta_grid=(10, 30),
                                                  replications=4000,
                                                  master_seed=3)}
        for d in (10.0, 30.0):
            for method in ("mad", "unbiased-mad", "shamos", "unbiased-shamos"):
                assert abs(rows[(d, method)]["bias"]) < 0.7
            assert rows[(d, "std")]["bias"] > 0.9
        assert rows[(30.0, "std")]["bias"] > rows[(10.0, "std")]["bias"]

    def test_corrupt_count_zero_is_clean(self):
        rows = contamination_experiment(delta_grid=(0, 40), replications=300,
                                        master_seed=4, corrupt_count=0)
        by_delta = {}
        for r in rows:
            by_delta.setdefault(r["method"], {})[r["delta"]] = r["bias"]
        for method, values in by_delta.items():
            assert values[0.0] == values[40.0]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(sigma=-1.0), r"^sigma \(.* got -1.0$"),
        (dict(sigma=0.0), r"^sigma \(.* got 0.0$"),
        (dict(sigma=math.inf), r"^sigma \(.* got inf$"),
        (dict(sigma=math.nan), r"^sigma \(.* got nan$"),
        (dict(mu=math.inf), r"^mu \(.* got inf$"),
        (dict(mu=-math.nan), r"^mu \(.* got nan$"),
        (dict(delta_grid=(0, math.nan)), r"^delta_grid .* got nan$"),
        (dict(delta_grid=(10, -math.inf)), r"^delta_grid .* got -inf$"),
        (dict(delta_grid=()), r"^delta_grid .* got none$"),
        (dict(corrupt_count=6), r"^corrupt_count .* got 6$"),
        (dict(corrupt_count=-1), r"^corrupt_count .* got -1$"),
        (dict(k=2.5), r"^k \(subgroups\) must be an integer, got 2.5$"),
        (dict(n=4.5), r"^n \(subgroup size\) must be an integer, got 4.5$"),
        (dict(corrupt_count=0.5), r"^corrupt_count must be an integer, got 0.5$"),
        (dict(replications=150.5), r"^replications must be an integer, got 150.5$"),
        (dict(replications=99), r"^replications must be at least 100, got 99$"),
        (dict(replications="200"), r"^replications must be an integer, got '200'$"),
        (dict(k=True), r"^k \(subgroups\) must be an integer, got True$"),
        (dict(delta_grid="010"), r"^delta_grid must be an iterable of shifts, got '010'$"),
        (dict(delta_grid=5), r"^delta_grid must be an iterable of shifts, got 5$"),
        (dict(delta_grid=(0, "10")), r"^delta_grid shift must be a real number, got '10'$"),
        (dict(mu="5"), r"^mu \(process mean\) must be a real number, got '5'$"),
        (dict(sigma="1"), r"^sigma \(process standard deviation\) must be a real number, "
                          r"got '1'$"),
        (dict(sigma=True), r"^sigma \(.* must be a real number, got True$"),
    ])
    def test_invalid_input_is_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            contamination_experiment(**{**dict(n=5, replications=100, master_seed=0,
                                               worker_count=1), **kwargs})

    def test_validation(self):
        with pytest.raises(ValueError):
            contamination_experiment(replications=50)
        with pytest.raises(ValueError):
            contamination_experiment(n=5, corrupt_count=6, replications=200)


def test_chart_limits_near_largest_double():
    # Subgroup sums, variances and pair differences and the sum of the
    # subgroup means pass the largest double, though the limits do not:
    # they follow the scalar functions, and nothing warns.
    big = 1.7e308
    data = np.random.default_rng(4).uniform(0.8, 1.0, (20, 5)) * big
    data[:, 0] *= -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tied = chart_limits(SubgroupSeries(np.full((3, 2), big)), "std-c4")
        assert tied.center == tied.ucl == tied.lcl == pytest.approx(big, rel=1e-15)
        assert tied.three_sigma == 0.0
        center = scalar_mean([scalar_mean(row) for row in data])
        for method, scale, unbias in (("std-c4", scalar_std, c4),
                                      ("shamos-c6", scalar_shamos, c6)):
            limits = chart_limits(SubgroupSeries(data), method)
            want = 3.0 * scalar_mean([scale(row) for row in data]) / unbias(5)
            assert limits.center == pytest.approx(center, rel=1e-14), method
            assert limits.three_sigma == pytest.approx(want, rel=1e-14), method
