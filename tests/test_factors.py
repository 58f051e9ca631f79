import csv
import math
from importlib import resources

import pytest

from robustfinite.breakdown import (
    breakdown_hl1,
    breakdown_hl2,
    breakdown_hl3,
    breakdown_median,
    breakdown_oracle,
    breakdown_point,
    breakdown_table,
)
from robustfinite.factors import (
    MAD_BIAS_HAYES,
    MAD_BIAS_WILLIAMS,
    SHAMOS_BIAS_HAYES,
    SHAMOS_BIAS_WILLIAMS,
    BiasModel,
    asymptotic_relative_efficiency,
    c4,
    c5,
    c6,
    factor_set,
    load_table,
    mad_bias,
    normalized_variance,
    relative_efficiency,
    shamos_bias,
    unbiased_mad,
    unbiased_mad_sq,
    unbiased_shamos,
    unbiased_shamos_sq,
    v5,
    v6,
    variance_model_eval,
)

# independent pre-build oracles (direct gamma-function evaluation)
C4_AT_2 = 0.7978845608028654   # sqrt(2/pi)
C4_AT_10 = 0.9726592741215884


def _read_data_csv(name):
    """Read a packaged table with the csv module, independent of load_table."""
    path = resources.files("robustfinite") / "data" / f"{name}.csv"
    with path.open() as f:
        return list(csv.DictReader(f))


class TestC4:
    def test_known_values(self):
        assert c4(2) == pytest.approx(C4_AT_2, abs=1e-13)
        assert c4(10) == pytest.approx(C4_AT_10, abs=1e-13)

    def test_against_direct_gamma(self):
        # math.gamma overflows past ~171, which is exactly why the
        # implementation goes through log-gamma; compare where both exist
        for n in range(2, 171):
            direct = math.sqrt(2.0 / (n - 1)) * math.gamma(n / 2) / math.gamma((n - 1) / 2)
            assert c4(n) == pytest.approx(direct, rel=1e-12)

    def test_monotone_in_unit_interval_no_overflow(self):
        prev = 0.0
        for n in range(2, 10_001):
            value = c4(n)
            assert 0.0 < value < 1.0
            assert value > prev
            prev = value

    def test_asymptotic_variance_match(self):
        # 1 - c4(n)^2 ~ 1/(2n) within 2% from n = 100 on
        for n in (100, 300, 1000, 10_000):
            assert (1 - c4(n) ** 2) * 2 * n == pytest.approx(1.0, rel=0.02)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            c4(1)


class TestTables:
    def test_bias_table_round_trip(self):
        for row in _read_data_csv("bias_table"):
            n = int(row["n"])
            assert 1.0 + float(row["mad_bias"]) == c5(n)
            assert 1.0 + float(row["shamos_bias"]) == c6(n)

    def test_bias_table_spot_values(self):
        assert c5(2) == 1.0 - 0.1633880
        assert c6(3) == 1.0 + 0.2989400
        assert mad_bias(100) == -0.0077614

    def test_factor_bounds_for_tabulated_n(self):
        for n in range(2, 101):
            assert c5(n) < 1.0 < c6(n)
            assert v5(n) > 0.0 and v6(n) > 0.0

    def test_v5_definition_at_2(self):
        assert v5(2) == 1.1000 * (1 - c4(2) ** 2)

    def test_tables_are_read_only(self):
        # load_table caches one table for every caller: writing to it would
        # change the factors for the rest of the process
        table = load_table("bias_table")
        with pytest.raises(TypeError):
            table[5]["mad_bias"] = 0.5
        with pytest.raises(TypeError):
            table[5] = {"mad_bias": 0.5}
        assert c5(5) == 0.821875

    def test_load_table_unknown(self):
        with pytest.raises(ValueError):
            load_table("no_such_table")


class TestBiasModels:
    def test_published_model_columns_to_1e_minus_6(self):
        for row in _read_data_csv("bias_large_table"):
            n = int(row["n"])
            assert MAD_BIAS_HAYES.evaluate(n) == pytest.approx(
                float(row["mad_hayes"]), abs=1e-6)
            assert MAD_BIAS_WILLIAMS.evaluate(n) == pytest.approx(
                float(row["mad_williams"]), abs=1e-6)
            assert SHAMOS_BIAS_HAYES.evaluate(n) == pytest.approx(
                float(row["shamos_hayes"]), abs=1e-6)
            assert SHAMOS_BIAS_WILLIAMS.evaluate(n) == pytest.approx(
                float(row["shamos_williams"]), abs=1e-6)

    def test_model_spot_values(self):
        assert MAD_BIAS_WILLIAMS.evaluate(109) == pytest.approx(-0.0070753, abs=1e-6)
        assert SHAMOS_BIAS_HAYES.evaluate(200) == pytest.approx(
            0.414253297 / 200 + 0.442396799 / 200**2, abs=0)
        assert SHAMOS_BIAS_HAYES.evaluate(200) == pytest.approx(0.0020823, abs=1e-6)

    def test_models_vanish_at_infinity(self):
        for model in (MAD_BIAS_HAYES, MAD_BIAS_WILLIAMS,
                      SHAMOS_BIAS_HAYES, SHAMOS_BIAS_WILLIAMS):
            assert model.evaluate(math.inf) == pytest.approx(0.0, abs=1e-12)
            assert abs(model.evaluate(1e7)) < 1e-6

    def test_eval_form_mismatch(self):
        with pytest.raises(ValueError):
            BiasModel("cubic", "mad", (1.0, 2.0))

    @pytest.mark.parametrize("n", [0, -1, -0.5, math.nan, -math.inf, True, "5"])
    def test_n_not_positive_is_named(self, n):
        for model in (MAD_BIAS_HAYES, MAD_BIAS_WILLIAMS):
            with pytest.raises(ValueError, match=rf"^n must be positive, got {n!r}$"):
                model.evaluate(n)

    @pytest.mark.parametrize("coefficients", [
        (1.0,), (1.0, 2.0, 3.0), (1.0, math.nan), (math.inf, 1.0), (1.0, "2"), None, 1.0,
        (True, False), (1.0, True)])
    def test_coefficients_must_be_two_finite_numbers(self, coefficients):
        for form in ("hayes", "williams"):
            with pytest.raises(ValueError, match=r"^model coefficients must be two finite"):
                BiasModel(form, "bias", coefficients)

    def test_table_model_seam_is_continuous(self):
        assert abs(c5(101) - c5(100)) < 0.002
        assert abs(c6(101) - c6(100)) < 0.002


class TestFactorSet:
    def test_table_source(self):
        fs = factor_set(2)
        assert fs.source == "table"
        assert fs.c5 == 0.8366120 and fs.c6 == 1.1831500

    def test_model_source(self):
        fs = factor_set(109)
        assert fs.source == "hayes-model"
        assert fs.c5 == 1.0 + MAD_BIAS_HAYES.evaluate(109)
        fs_w = factor_set(109, model="williams")
        assert fs_w.source == "williams-model"
        assert fs_w.c5 == 1.0 + MAD_BIAS_WILLIAMS.evaluate(109)

    def test_gap_sizes_use_models(self):
        # n = 101..108 is not tabulated anywhere; always model-evaluated
        fs = factor_set(105)
        assert fs.source == "hayes-model"
        assert fs.c5 == 1.0 + MAD_BIAS_HAYES.evaluate(105)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            factor_set(1)

    @pytest.mark.parametrize("n", [50, 150])
    @pytest.mark.parametrize("fn", [mad_bias, shamos_bias, c5, c6, factor_set])
    def test_unknown_bias_model_is_named(self, fn, n):
        # inside the tables too, where the model would not be used
        with pytest.raises(ValueError, match="bias model must be 'hayes' or "
                                             "'williams', got 'Hayes'"):
            fn(n, "Hayes")

    def test_model_range_keeps_factor_bounds(self):
        for n in (101, 150, 500, 2000, 100_000):
            fs = factor_set(n)
            assert fs.c5 < 1.0 < fs.c6
            assert fs.v5 > 0.0 and fs.v6 > 0.0
        # both factors drift toward 1 as n grows
        assert abs(factor_set(100_000).c5 - 1) < abs(factor_set(101).c5 - 1)
        assert abs(factor_set(100_000).c6 - 1) < abs(factor_set(101).c6 - 1)


class TestUnbiasedEstimators:
    def test_unbiased_mad_oracle(self):
        # (0.5 / third quartile) / c5(2), derived before the build
        assert unbiased_mad([0, 1]) == pytest.approx(0.8860751570056382, abs=1e-12)

    def test_unbiased_shamos_oracle(self):
        assert unbiased_shamos([0, 1]) == pytest.approx(0.8860736867747374, abs=1e-12)

    def test_constant_sample(self):
        assert unbiased_mad([4.0] * 6) == 0.0
        assert unbiased_shamos([4.0] * 6) == 0.0
        assert unbiased_mad_sq([4.0] * 6) == 0.0
        assert unbiased_shamos_sq([4.0] * 6) == 0.0

    def test_sq_denominator_definition(self):
        n = 2
        denom = v5(n) + c5(n) ** 2
        assert unbiased_mad_sq([0, 1]) == pytest.approx(
            (0.5 / 0.6744897501960817) ** 2 / denom, rel=1e-12)

    def test_sq_scales_quadratically(self):
        x = [0.3, 1.7, -2.2, 0.9, 4.1]
        for fn in (unbiased_mad_sq, unbiased_shamos_sq):
            assert fn([7 * v for v in x]) == pytest.approx(49 * fn(x), rel=1e-12)


class TestRelativeEfficiency:
    def test_table_values(self):
        assert relative_efficiency("median", 10) == 0.7229
        assert relative_efficiency("hl1", 4) == 1.0
        assert relative_efficiency("median", 1) == 1.0

    def test_degenerate_ones(self):
        for est in ("median", "hl2", "hl3"):
            assert relative_efficiency(est, 1) == 1.0
            assert relative_efficiency(est, 2) == 1.0

    def test_baselines_are_one(self):
        assert relative_efficiency("mean", 17) == 1.0
        assert relative_efficiency("std", 17) == 1.0

    def test_undefined_cells_raise(self):
        for est in ("hl1", "mad", "shamos"):
            with pytest.raises(ValueError):
                relative_efficiency(est, 1)

    def test_model_range(self):
        assert relative_efficiency("median", 101) == pytest.approx(
            1.0 / variance_model_eval("median", 101), rel=1e-12)

    def test_are_constants(self):
        assert asymptotic_relative_efficiency("median") == pytest.approx(2 / math.pi)
        assert asymptotic_relative_efficiency("hl1") == pytest.approx(3 / math.pi)
        assert asymptotic_relative_efficiency("mad") == 0.37
        assert asymptotic_relative_efficiency("shamos") == 0.863


class TestVarianceModels:
    def test_asymptotic_constants(self):
        assert variance_model_eval("median", math.inf) == 1.5700
        assert variance_model_eval("hl1", math.inf) == 1.0472
        assert variance_model_eval("mad", math.inf) == 2.7027
        assert variance_model_eval("shamos", math.inf) == 1.15875

    def test_hl3_near_table(self):
        model = variance_model_eval("hl3", 200)
        assert model == pytest.approx(1.0472 + 0.2022 / 200 + 0.4343 / 200**2, abs=0)
        assert model == pytest.approx(1.0486, abs=0.002)  # tabulated value

    def test_parity_split(self):
        odd = variance_model_eval("median", 101)
        even = variance_model_eval("median", 102)
        assert odd == 1.5700 - 0.6589 / 101 - 0.943 / 101**2
        assert even == 1.5700 - 2.1950 / 102 + 1.929 / 102**2
        assert variance_model_eval("mad", 101) != variance_model_eval("mad", 102)

    def test_large_n_tables_within_model_tolerance(self):
        # the published models were fitted to these simulated values
        for row in _read_data_csv("nvar_large_table"):
            n = int(row["n"])
            for est, column in (("hl1", "hl1"), ("hl2", "hl2"), ("hl3", "hl3"),
                                ("shamos", "shamos_ratio")):
                assert variance_model_eval(est, n) == pytest.approx(
                    float(row[column]), abs=0.006), (n, est)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            variance_model_eval("median", 100)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 101.5$"):
            variance_model_eval("median", 101.5)
        with pytest.raises(ValueError):
            variance_model_eval("mean", 200)

    def test_normalized_variance_forms(self):
        assert normalized_variance("median", 25, 0.06) == pytest.approx(1.5, rel=1e-12)
        assert normalized_variance("mad", 10, 0.1) == pytest.approx(
            0.1 / (1 - c4(10) ** 2), rel=1e-12)


@pytest.mark.parametrize("n, message", [(1.0, "an integer, got 1.0"),
                                        (2.5, "an integer, got 2.5"),
                                        (0, "at least 1, got 0")])
def test_normalized_variance_checks_n(n, message):
    # a location estimator's n is checked as a scale's is by c4
    with pytest.raises(ValueError, match=rf"^n must be {message}$"):
        normalized_variance("median", n, 1.0)


@pytest.mark.parametrize("value", [5.7, "7"])
@pytest.mark.parametrize("call", [
    breakdown_median, breakdown_hl1, breakdown_hl2, breakdown_hl3,
    lambda n: breakdown_point(n, "median"), lambda n: breakdown_oracle(n, "hl1"),
    breakdown_table, c4, c5, c6, v5, v6, mad_bias, shamos_bias, factor_set,
    lambda n: relative_efficiency("hl2", n),
], ids=["breakdown_median", "breakdown_hl1", "breakdown_hl2", "breakdown_hl3",
        "breakdown_point", "breakdown_oracle", "breakdown_table", "c4", "c5", "c6",
        "v5", "v6", "mad_bias", "shamos_bias", "factor_set", "relative_efficiency"])
def test_sample_size_must_be_an_integer(call, value):
    # a float is not truncated and a string is not parsed: both name the size
    with pytest.raises(ValueError, match=rf"^n(_max)? must be an integer, got {value!r}$"):
        call(value)
