"""Robust Shewhart-chart factors and limits.

An x-bar chart estimates mu +- 3*sigma/sqrt(n) from k subgroups of size n.
The half-width factor is 3/(c*sqrt(n)) where c unbiases the chosen scale
estimator: c4 for the subgroup standard deviation, c5 for the subgroup MAD,
c6 for the subgroup pairwise-difference scale.  The robust variants keep
working when the data used to set the limits is contaminated;
``contamination_experiment`` measures exactly that by corrupting one
observation and tracking bias/variance/MSE of the three-sigma estimate.
A shift moves only the corrupted subgroup, so each replication block
computes the clean subgroups' scales once and recomputes only that
subgroup for every delta.

Every subgroup mean and scale is a row of ``_row_estimates``, and the
chart scales and their factors are those of ``factors._UNBIASING``.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calibration import _CONTAMINATION_DOMAIN, _run_blocks
from ._facts import Estimator, _check_int, _check_real
from .estimators import _row_estimates
from .factors import _UNBIASING, c4, c5, c6

__all__ = [
    "a3",
    "a5",
    "a6",
    "SubgroupSeries",
    "ChartLimits",
    "chart_limits",
    "points_out_of_control",
    "read_subgroups",
    "contamination_experiment",
    "CHART_METHODS",
    "EXPERIMENT_METHODS",
]

# A chart method is named "<scale>-<factor>", its scale one of _UNBIASING.
CHART_METHODS = ("std-c4", "mad-c5", "shamos-c6")

# raw/unbiased pairs measured by the contamination experiment, in the order
# _estimates_from_scales emits them
EXPERIMENT_METHODS = tuple(name for estimator in _UNBIASING
                           for name in (estimator.value, f"unbiased-{estimator.value}"))


def a3(n: int) -> float:
    """x-bar chart half-width factor from subgroup standard deviations."""
    return 3.0 / (c4(n) * math.sqrt(n))


def a5(n: int) -> float:
    """x-bar chart half-width factor from subgroup MADs."""
    return 3.0 / (c5(n) * math.sqrt(n))


def a6(n: int) -> float:
    """x-bar chart half-width factor from subgroup pairwise-difference scales."""
    return 3.0 / (c6(n) * math.sqrt(n))


@dataclass(frozen=True)
class SubgroupSeries:
    """k subgroups of constant size n, as a (k, n) matrix."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"subgroup data must be a k x n matrix, "
                             f"got an array of shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError(f"need k >= 1 subgroups of size n >= 2, got shape {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            row, col = np.argwhere(~finite)[0].tolist()
            raise ValueError(f"subgroup data contains NaN or infinite values, "
                             f"first {arr[row, col]} at (row {row}, column {col})")
        object.__setattr__(self, "data", arr)

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @cached_property
    def means(self) -> np.ndarray:
        return _row_estimates(Estimator.MEAN, self.data)

    @cached_property
    def stds(self) -> np.ndarray:
        return _row_estimates(Estimator.STD, self.data)

    @cached_property
    def mads(self) -> np.ndarray:
        return _row_estimates(Estimator.MAD, self.data)

    @cached_property
    def shamoses(self) -> np.ndarray:
        return _row_estimates(Estimator.SHAMOS, self.data)


@dataclass(frozen=True)
class ChartLimits:
    """Center line and control limits of an x-bar chart."""

    center: float
    ucl: float
    lcl: float
    method: str
    three_sigma: float


def chart_limits(series: SubgroupSeries, method: str = "std-c4") -> ChartLimits:
    """Estimate x-bar chart limits center +- factor(n) * mean subgroup scale.

    ``three_sigma`` is the implied sigma-level estimate sqrt(n) * half-width.
    """
    if method not in CHART_METHODS:
        raise ValueError(f"method must be one of {CHART_METHODS}, got {method!r}")
    n = series.n
    estimator = Estimator(method.partition("-")[0])
    scales = _row_estimates(estimator, series.data)
    # the mean scale and the center line, averaged as rows are: without overflow
    s_bar, center = _row_estimates(Estimator.MEAN, np.stack([scales, series.means])).tolist()
    half = 3.0 / (_UNBIASING[estimator](n) * math.sqrt(n)) * s_bar
    return ChartLimits(
        center=center,
        ucl=center + half,
        lcl=center - half,
        method=method,
        three_sigma=math.sqrt(n) * half,
    )


def points_out_of_control(limits: ChartLimits, series: SubgroupSeries) -> np.ndarray:
    """Phase-II screening: which subgroup means fall outside the limits."""
    means = series.means
    return (means > limits.ucl) | (means < limits.lcl)


def read_subgroups(path) -> SubgroupSeries:
    """Read subgroups from CSV: one row per subgroup, optional header,
    ``#`` comment lines ignored."""
    rows: list[list[float]] = []
    header_allowed = True
    with open(path, newline="") as f:
        for lineno, record in enumerate(csv.reader(f), start=1):
            if not record or record[0].lstrip().startswith("#"):
                continue
            cells = [c.strip() for c in record if c.strip() != ""]
            if not cells:
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise ValueError(f"line {lineno}: non-numeric subgroup entry") from None
            header_allowed = False
            rows.append(values)
    if not rows:
        raise ValueError("no subgroup rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged subgroup rows: sizes {sorted(widths)}")
    return SubgroupSeries(np.array(rows))


# ---------------------------------------------------------------------------
# contamination experiment


def _subgroup_scales(data: np.ndarray) -> list[np.ndarray]:
    """Each scale of _UNBIASING of every subgroup of a (reps, k, n) array, as
    a (reps, k) array.  A subgroup's scales depend on its own n values only."""
    reps, k, n = data.shape
    rows = data.reshape(-1, n)
    return [_row_estimates(estimator, rows).reshape(reps, k) for estimator in _UNBIASING]


def _estimates_from_scales(n: int, scales: list[np.ndarray]) -> dict[str, np.ndarray]:
    """Per-replication three-sigma estimates from the (reps, k) subgroup
    scales of _subgroup_scales, one entry per method in EXPERIMENT_METHODS."""
    out = {}
    for (estimator, unbias), scale in zip(_UNBIASING.items(), scales):
        s_bar = scale.mean(axis=1)
        out[estimator.value] = 3.0 * s_bar
        out[f"unbiased-{estimator.value}"] = 3.0 * s_bar / unbias(n)
    return out


def _three_sigma_estimates(data: np.ndarray) -> dict[str, np.ndarray]:
    """Per-replication three-sigma estimates for a (reps, k, n) array,
    computed from scratch."""
    return _estimates_from_scales(data.shape[2], _subgroup_scales(data))


def _experiment_block(rng: np.random.Generator, size: int, k: int, n: int,
                      mu: float, sigma: float, deltas: tuple[float, ...],
                      corrupt_count: int) -> list[np.ndarray]:
    """The per-replication three-sigma estimates of one block, for every
    delta and, within it, every method in EXPERIMENT_METHODS.

    A shift moves subgroup 1 only, so the clean block's scales are computed
    once and each nonzero delta recomputes column 0 alone."""
    base = rng.standard_normal((size, k, n))
    base *= sigma
    base += mu
    clean = _subgroup_scales(base)
    out = []
    for d in deltas:
        scales = clean
        if d != 0.0 and corrupt_count:
            first = base[:, :1].copy()
            first[:, 0, :corrupt_count] += d
            scales = [s.copy() for s in clean]
            for s, column in zip(scales, _subgroup_scales(first)):
                s[:, :1] = column
        out += _estimates_from_scales(n, scales).values()
    return out


def contamination_experiment(k: int = 10, n: int = 5, mu: float = 5.0,
                             sigma: float = 1.0,
                             delta_grid=(0, 10, 20, 30, 40, 50),
                             replications: int = 10_000,
                             master_seed: int = 0,
                             corrupt_count: int = 1,
                             worker_count: int | str = "auto") -> list[dict]:
    """Bias/variance/MSE of three-sigma estimates under one-cell corruption.

    Each replication draws k subgroups of size n from N(mu, sigma^2); for
    every delta in ``delta_grid`` the first ``corrupt_count`` observations of
    subgroup 1 are shifted by delta before any statistic is computed, and the
    six estimates of 3*sigma are recorded.  Returns one row per
    (delta, method) with empirical bias, variance, and MSE (bias^2 +
    variance) relative to 3*sigma.  ``k``, ``n``, ``corrupt_count`` and
    ``replications`` must be integers, with k >= 1, n >= 2, corrupt_count
    in 0..n and at least 100 replications; ``mu``, ``sigma`` and every delta
    must be finite real numbers, ``sigma`` positive, and ``delta_grid`` a
    non-empty iterable of them, not a string.

    The std, MAD and Shamos scales of all k subgroups are computed once per
    replication block; each nonzero delta recomputes only the corrupted
    subgroup 1.  Every scale of a subgroup depends on that subgroup alone,
    so the result is the same as recomputing all k subgroups per delta.

    Deterministic for a fixed seed: the simulation engine's block runner
    draws replication block b from the substream ``(master_seed, 1, k*n,
    b)`` (domain 1 is this experiment's) and merges the per-block moments
    in block order, so the worker count never changes the result.
    """
    k = _check_int("k (subgroups)", k, 1)
    n = _check_int("n (subgroup size)", n, 2)
    corrupt_count = _check_int("corrupt_count", corrupt_count)
    if not 0 <= corrupt_count <= n:
        raise ValueError(f"corrupt_count must be in 0..{n}, got {corrupt_count}")
    _check_real("mu (process mean)", mu)
    _check_real("sigma (process standard deviation)", sigma)
    if not math.isfinite(mu):
        raise ValueError(f"mu (process mean) must be finite, got {mu}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma (process standard deviation) must be finite "
                         f"and positive, got {sigma}")
    if isinstance(delta_grid, (str, bytes)) or not isinstance(delta_grid, Iterable):
        raise ValueError(f"delta_grid must be an iterable of shifts, got {delta_grid!r}")
    deltas = tuple(_check_real("delta_grid shift", d) for d in delta_grid)
    if not deltas:
        raise ValueError("delta_grid must hold at least one shift, got none")
    for d in deltas:
        if not math.isfinite(d):
            raise ValueError(f"delta_grid shifts must be finite, got {d}")
    cell = (k * n, (k, n, mu, sigma, deltas, corrupt_count))
    moments = _run_blocks(_experiment_block, _CONTAMINATION_DOMAIN,
                          {"experiment": cell}, replications, master_seed,
                          worker_count)["experiment"]

    target = 3.0 * sigma
    rows = []
    keys = [(d, method) for d in deltas for method in EXPERIMENT_METHODS]
    for (d, method), mom in zip(keys, moments):
        bias = mom.mean - target
        rows.append({
            "delta": d,
            "method": method,
            "bias": bias,
            "variance": mom.variance,
            "mse": bias * bias + mom.variance,
            "reps": mom.count,
        })
    return rows
