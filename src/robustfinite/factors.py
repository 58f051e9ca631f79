"""Finite-sample unbiasing and variance factors.

Dividing an estimator by its finite-sample expectation at N(0,1) makes it
unbiased for sigma.  The factors are:

    c4(n)  sample standard deviation   analytic (gamma-function ratio)
    c5(n)  consistent MAD              1 + tabulated bias for n <= 100,
    c6(n)  consistent pairwise scale   1 + fitted bias model for n > 100

The per-n biases, normalized variances, and relative efficiencies for
n <= 100 ship as CSV tables under ``data/`` (values exactly as tabulated,
4 or 7 decimals); beyond the tables, published regression models in 1/n
take over.  ``factor_set`` bundles everything for one n and records which
source supplied each value.

``_UNBIASING`` and ``_VARIANCES`` are the one map from a scale estimator to
its unbiasing factor and variance; its other facts live on its
``Estimator`` member.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .estimators import Estimator, _check_int, _row_estimates, _sample

__all__ = [
    "c4",
    "FactorSet",
    "factor_set",
    "BiasModel",
    "MAD_BIAS_HAYES",
    "MAD_BIAS_WILLIAMS",
    "SHAMOS_BIAS_HAYES",
    "SHAMOS_BIAS_WILLIAMS",
    "mad_bias",
    "shamos_bias",
    "c5",
    "c6",
    "v5",
    "v6",
    "unbiased_mad",
    "unbiased_shamos",
    "unbiased_mad_sq",
    "unbiased_shamos_sq",
    "relative_efficiency",
    "asymptotic_relative_efficiency",
    "variance_model_eval",
    "normalized_variance",
    "load_table",
    "TABLE_N_MAX",
]

TABLE_N_MAX = 100

_TABLE_ROWS = {
    "bias_table": range(2, 101),
    "nvar_table": range(1, 101),
    "re_table": range(1, 101),
    "bias_large_table": None,   # selected n in 109..500
    "nvar_large_table": None,
    "breakdown_table": range(2, 51),
}


@lru_cache(maxsize=None)
def load_table(name: str) -> dict[int, dict[str, float]]:
    """Load a packaged data table as {n: {column: value}}; NA becomes NaN.

    Validates the expected row set (or strictly increasing n for the
    selected-n tables) so a damaged data file fails loudly at first use.
    """
    if name not in _TABLE_ROWS:
        raise ValueError(f"unknown table {name!r}")
    path = resources.files("robustfinite") / "data" / f"{name}.csv"
    table: dict[int, dict[str, float]] = {}
    with path.open() as f:
        for row in csv.DictReader(f):
            n = int(row.pop("n"))
            table[n] = {
                k: (math.nan if v == "NA" else float(v)) for k, v in row.items()
            }
    expected = _TABLE_ROWS[name]
    ns = list(table)
    if expected is not None and ns != list(expected):
        raise ValueError(f"table {name} has unexpected n values")
    if expected is None and (ns != sorted(ns) or len(ns) != len(set(ns))):
        raise ValueError(f"table {name} n values not strictly increasing")
    return table


@lru_cache(maxsize=None)
def c4(n: int) -> float:
    """Unbiasing factor for the sample standard deviation:
    sqrt(2/(n-1)) * Gamma(n/2) / Gamma((n-1)/2).

    Evaluated through log-gamma differences, so it neither overflows nor
    loses accuracy for large n.
    """
    n = _check_int("n", n, 2)
    return math.sqrt(2.0 / (n - 1)) * math.exp(
        math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)
    )


@dataclass(frozen=True)
class BiasModel:
    """A fitted bias-versus-n regression model.

    form "hayes"    : value = p/n + q/n^2,  coefficients (p, q)
    form "williams" : value = amp * n**(-exponent),  coefficients (amp, exponent)
    """

    form: str
    target: str
    coefficients: tuple[float, float]
    rss: float | None = None

    def __post_init__(self) -> None:
        if self.form not in ("hayes", "williams"):
            raise ValueError(f"unknown model form {self.form!r}")

    def evaluate(self, n: float) -> float:
        a, b = self.coefficients
        if self.form == "hayes":
            return a / n + b / (n * n)
        return a * n ** (-b)


# Published large-n bias models (least-squares fits to the n > 100 grid).
MAD_BIAS_HAYES = BiasModel("hayes", "mad", (-0.76213, -0.86413))
MAD_BIAS_WILLIAMS = BiasModel("williams", "mad", (-0.804168866, 1.008922))
SHAMOS_BIAS_HAYES = BiasModel("hayes", "shamos", (0.414253297, 0.442396799))
SHAMOS_BIAS_WILLIAMS = BiasModel("williams", "shamos", (0.435760656, 1.0084443))

_BIAS_MODELS = {
    ("mad", "hayes"): MAD_BIAS_HAYES,
    ("mad", "williams"): MAD_BIAS_WILLIAMS,
    ("shamos", "hayes"): SHAMOS_BIAS_HAYES,
    ("shamos", "williams"): SHAMOS_BIAS_WILLIAMS,
}


def _bias(estimator: Estimator, n: int, model: str) -> float:
    n = _check_int("n", n, 2)
    if n <= TABLE_N_MAX:
        return load_table("bias_table")[n][f"{estimator.value}_bias"]
    return _BIAS_MODELS[(estimator.value, model)].evaluate(n)


def mad_bias(n: int, model: str = "hayes") -> float:
    """Finite-sample bias of the consistent MAD at N(0,1): table value for
    n <= 100, fitted model beyond."""
    return _bias(Estimator.MAD, n, model)


def shamos_bias(n: int, model: str = "hayes") -> float:
    """Finite-sample bias of the consistent pairwise scale estimator."""
    return _bias(Estimator.SHAMOS, n, model)


def c5(n: int, model: str = "hayes") -> float:
    """Unbiasing factor for the consistent MAD: 1 + bias."""
    return 1.0 + mad_bias(n, model)


def c6(n: int, model: str = "hayes") -> float:
    """Unbiasing factor for the consistent pairwise scale estimator."""
    return 1.0 + shamos_bias(n, model)


# Normalized-variance models for n > 100: constant + p/n + q/n^2, where the
# constant is the asymptotic value (reciprocal asymptotic efficiency).  The
# median and MAD were fitted separately for odd and even n; the rest use a
# single model.
_VARIANCE_MODELS = {
    ("median", 1): (1.5700, -0.6589, -0.943),
    ("median", 0): (1.5700, -2.1950, 1.929),
    ("hl1", None): (1.0472, 0.1127, 0.8365),
    ("hl2", None): (1.0472, 0.2923, 0.2258),
    ("hl3", None): (1.0472, 0.2022, 0.4343),
    ("mad", 1): (2.7027, 0.2996, -149.357),
    ("mad", 0): (2.7027, -2.417, -153.010),
    ("shamos", None): (1.15875, 2.822, 12.238),
}


def variance_model_eval(estimator: Estimator | str, n: float) -> float:
    """Fitted normalized variance for an integer n > 100 (n may be
    ``math.inf``).

    Returns n*Var for location estimators and Var/(1 - c4(n)^2) for scale
    estimators, per the published models.
    """
    est = Estimator(estimator)
    if n != math.inf:
        n = _check_int("n", n)
    if not n > TABLE_N_MAX:
        raise ValueError(f"variance models apply for n > {TABLE_N_MAX}, got {n}")
    key = (est.value, None)
    if key not in _VARIANCE_MODELS:
        # parity-split models; at n = inf the 1/n terms vanish either way
        parity = 1 if math.isinf(n) else n % 2
        key = (est.value, parity)
    if key not in _VARIANCE_MODELS:
        raise ValueError(f"no variance model for {est}")
    c, p, q = _VARIANCE_MODELS[key]
    if math.isinf(n):
        return c
    return c + p / n + q / (n * n)


def _variance(estimator: Estimator, n: int) -> float:
    n = _check_int("n", n, 2)
    if n <= TABLE_N_MAX:
        ratio = load_table("nvar_table")[n][f"{estimator.value}_ratio"]
    else:
        ratio = variance_model_eval(estimator, n)
    return ratio * (1.0 - c4(n) ** 2)


def v5(n: int) -> float:
    """Variance of the consistent MAD at N(0,1) for a sample of size n."""
    return _variance(Estimator.MAD, n)


def v6(n: int) -> float:
    """Variance of the consistent pairwise scale estimator at N(0,1)."""
    return _variance(Estimator.SHAMOS, n)


# Each scale estimator's unbiasing factor at the normal (model "hayes"
# beyond the tables), and the variance of the consistent robust ones.
_UNBIASING = {Estimator.STD: c4, Estimator.MAD: c5, Estimator.SHAMOS: c6}
_VARIANCES = {Estimator.MAD: v5, Estimator.SHAMOS: v6}


@dataclass(frozen=True)
class FactorSet:
    """Per-n bundle of unbiasing factors and scale-estimator variances."""

    n: int
    c4: float
    c5: float
    c6: float
    v5: float
    v6: float
    source: str  # "table", "hayes-model", or "williams-model"


def factor_set(n: int, model: str = "hayes") -> FactorSet:
    """All factors for one sample size.

    For n <= 100 every value comes from the embedded tables; beyond that the
    bias and variance regression models take over (``model`` selects the
    hayes or williams bias form; variance models are hayes-form only).
    """
    n = _check_int("n", n, 2)
    source = "table" if n <= TABLE_N_MAX else f"{model}-model"
    return FactorSet(
        n=n,
        c4=c4(n),
        c5=c5(n, model),
        c6=c6(n, model),
        v5=v5(n),
        v6=v6(n),
        source=source,
    )


def _unbiased(estimator: Estimator, values, squared: bool = False) -> float:
    """The consistent scale ``estimator`` of one sample divided by its
    unbiasing factor, or with ``squared`` its square divided by the expected
    square, variance plus factor squared."""
    arr = _sample(estimator, values)
    value, factor = _row_estimates(estimator, arr), _UNBIASING[estimator](arr.size)
    if squared:
        return value ** 2 / (_VARIANCES[estimator](arr.size) + factor ** 2)
    return value / factor


def unbiased_mad(values) -> float:
    """MAD rescaled to be unbiased for sigma at the normal: mad/c5(n)."""
    return _unbiased(Estimator.MAD, values)


def unbiased_shamos(values) -> float:
    """Pairwise scale estimator rescaled to be unbiased: shamos/c6(n)."""
    return _unbiased(Estimator.SHAMOS, values)


def unbiased_mad_sq(values) -> float:
    """Unbiased estimator of sigma^2: mad^2 / (v5(n) + c5(n)^2)."""
    return _unbiased(Estimator.MAD, values, squared=True)


def unbiased_shamos_sq(values) -> float:
    """Unbiased estimator of sigma^2: shamos^2 / (v6(n) + c6(n)^2)."""
    return _unbiased(Estimator.SHAMOS, values, squared=True)


def relative_efficiency(estimator: Estimator | str, n: int) -> float:
    """Efficiency relative to the baseline at N(0,1).

    The baseline is the sample mean (variance 1/n) for location estimators
    and the sample standard deviation (variance 1 - c4(n)^2) for scale
    estimators, so the value is the reciprocal of the normalized variance.
    Table values are returned verbatim for n <= 100.
    """
    est = Estimator(estimator)
    n = _check_int("n", n, 2 if est == Estimator.STD else 1)
    if est in (Estimator.MEAN, Estimator.STD):
        return 1.0
    if n <= TABLE_N_MAX:
        value = load_table("re_table")[n][est.value]
        if math.isnan(value):
            raise ValueError(f"relative efficiency of {est} undefined at n={n}")
        return value
    return 1.0 / variance_model_eval(est, n)


def asymptotic_relative_efficiency(estimator: Estimator | str) -> float:
    """Limit of the relative efficiency as n grows."""
    est = Estimator(estimator)
    are = {
        Estimator.MEAN: 1.0,
        Estimator.STD: 1.0,
        Estimator.MEDIAN: 2.0 / math.pi,
        Estimator.HL1: 3.0 / math.pi,
        Estimator.HL2: 3.0 / math.pi,
        Estimator.HL3: 3.0 / math.pi,
        Estimator.MAD: 0.37,
        Estimator.SHAMOS: 0.863,
    }
    return are[est]


def normalized_variance(estimator: Estimator | str, n: int, variance: float) -> float:
    """Convert a raw estimator variance at N(0,1) to its normalized form:
    n*Var for location, Var/(1 - c4(n)^2) for scale."""
    est = Estimator(estimator)
    if est.is_location:
        return n * variance
    return variance / (1.0 - c4(n) ** 2)
