"""The input checks of ``_facts``, through the public functions that use
them: numpy integers are sizes, numpy bools and floats are not."""

import re

import numpy as np
import pytest

from robustfinite import breakdown, calibration, factors
from robustfinite._facts import _check_int


@pytest.mark.parametrize("n", [np.int64(5), np.int32(5), np.uint8(5)],
                         ids=["int64", "int32", "uint8"])
def test_numpy_integer_sizes_are_accepted(n):
    assert factors.c4(n) == factors.c4(5)
    assert breakdown.breakdown_point(n, "hl1") == breakdown.breakdown_point(5, "hl1")
    config = calibration.SimulationConfig("mad", (n, 7), master_seed=1, replications=100)
    assert config.n_values == (5, 7) and type(config.n_values[0]) is int


@pytest.mark.parametrize("value", [np.True_, np.float64(5.0), True, 5.0, "5"],
                         ids=["numpy-bool", "numpy-float", "bool", "float", "str"])
def test_other_sizes_are_named_errors(value):
    message = rf"^n must be an integer, got {re.escape(repr(value))}$"
    factors.c4(np.int64(5))   # a cached equal key must not let a float through
    with pytest.raises(ValueError, match=message):
        factors.c4(value)
    with pytest.raises(ValueError, match=message):
        breakdown.breakdown_point(value, "hl1")
    with pytest.raises(ValueError, match=rf"^n \(sample size\) must be an integer, "
                                         rf"got {re.escape(repr(value))}$"):
        calibration.SimulationConfig("mad", (value,), master_seed=1, replications=100)


def test_check_int_keeps_the_minimum_and_returns_a_plain_int():
    assert type(_check_int("n", np.int64(3), 2)) is int
    with pytest.raises(ValueError, match=r"^n must be at least 4, got 3$"):
        _check_int("n", np.int32(3), 4)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        _check_int("seed", np.int64(-1), 0)
