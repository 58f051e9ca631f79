"""Finite-sample breakdown points of the median/MAD, the three
Hodges-Lehmann variants, and the pairwise-difference scale estimator.

The breakdown point used here is the replacement version: eps_n = k*/n where
k* is the largest number of observations that can be made arbitrarily bad
while the estimator stays bounded.  Closed forms are evaluated in exact
integer arithmetic (``math.isqrt``), so eps_n is an exact rational k*/n, and
an independent counting oracle re-derives k* by exhaustive search.

Asymptotically eps_n tends to 1/2 for the median/MAD and 1 - 1/sqrt(2)
(about 0.293) for the pairwise estimators, but small-sample values differ
noticeably; ``breakdown_table`` tabulates them.

Every n passes ``_facts._check_int``, the package's one integer check:
a float or a string is an error that names n, never truncated to a size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._facts import Estimator, _check_int, _multiset_size

__all__ = [
    "BreakdownResult",
    "breakdown_median",
    "breakdown_hl1",
    "breakdown_hl2",
    "breakdown_hl3",
    "breakdown_point",
    "breakdown_oracle",
    "breakdown_table",
]


@dataclass(frozen=True)
class BreakdownResult:
    """Exact finite-sample breakdown point eps_n = k_star / n."""

    n: int
    estimator: Estimator
    k_star: int

    def __post_init__(self) -> None:
        if not 0 <= self.k_star <= self.n:
            raise ValueError(f"k_star={self.k_star} outside 0..{self.n}")

    @property
    def epsilon_n(self) -> float:
        return self.k_star / self.n

    def as_fraction(self) -> tuple[int, int]:
        return (self.k_star, self.n)


def _floor_n_minus_sqrt(n: int, d: int) -> int:
    """floor(n - sqrt(d)) for integers d >= 0, exactly."""
    s = math.isqrt(d)
    return n - s if s * s == d else n - s - 1


def _floor_half_odd_minus_sqrt(a: int, f4: int) -> int:
    """floor(a/2 - sqrt(f4)/2) for odd a and integer f4 >= 0, exactly."""
    t = math.isqrt(f4)
    # sqrt(f4) lies in [t, t+1); the enclosed integer interval pins the floor
    return (a - t) // 2 if t * t == f4 else (a - 1 - t) // 2


def breakdown_median(n: int) -> BreakdownResult:
    """Median breakdown: k* = floor((n-1)/2), the paper's MAD column too,
    which counts explosion only: the MAD implodes one replacement earlier
    at every odd n, ``mad([1, 1, 4])`` and ``mad([1, 1, 1, 4, 9])`` are 0.0."""
    n = _check_int("n", n, 1)
    return BreakdownResult(n, Estimator.MEDIAN, (n - 1) // 2)


def breakdown_hl3(n: int) -> BreakdownResult:
    """hl3 breakdown: k* = floor(n - sqrt(n^2 - floor((n^2-1)/2)))."""
    n = _check_int("n", n, 1)
    k = _floor_n_minus_sqrt(n, n * n - (n * n - 1) // 2)
    return BreakdownResult(n, Estimator.HL3, k)


def breakdown_hl1(n: int) -> BreakdownResult:
    """hl1 breakdown via the (2n-1) quadratic; needs n >= 2.  Also applies
    to the pairwise-difference scale estimator (same pair structure)."""
    n = _check_int("n", n, 2)
    m = (n * n - n - 2) // 4
    k = _floor_half_odd_minus_sqrt(2 * n - 1, 4 * n * n - 4 * n + 1 - 8 * m)
    return BreakdownResult(n, Estimator.HL1, k)


def breakdown_hl2(n: int) -> BreakdownResult:
    """hl2 breakdown via the (n+1/2) quadratic."""
    n = _check_int("n", n, 1)
    m = (n * n + n - 2) // 4
    k = _floor_half_odd_minus_sqrt(2 * n + 1, 4 * n * n + 4 * n + 1 - 8 * m)
    return BreakdownResult(n, Estimator.HL2, k)


_CLOSED_FORMS = {
    Estimator.MEDIAN: breakdown_median,
    Estimator.MAD: breakdown_median,
    Estimator.HL1: breakdown_hl1,
    Estimator.HL2: breakdown_hl2,
    Estimator.HL3: breakdown_hl3,
    Estimator.SHAMOS: breakdown_hl1,
}


def breakdown_point(n: int, estimator: Estimator | str) -> BreakdownResult:
    """Closed-form breakdown point for any supported estimator, labelled
    with that estimator where it shares another's closed form."""
    est = Estimator(estimator)
    if est not in _CLOSED_FORMS:
        raise ValueError(f"no breakdown point defined for {est}")
    return replace(_CLOSED_FORMS[est](n), estimator=est)


def breakdown_oracle(n: int, estimator: Estimator | str) -> BreakdownResult:
    """Brute-force breakdown point from the counting argument, independent
    of the closed forms.

    Corrupting k observations corrupts some number of the estimator's order
    statistics; the estimator survives while the corrupted count stays within
    what a median of that many values tolerates, i.e. at most
    floor((N-1)/2) of the N pair statistics.  k* is found by trying every k.
    """
    est = Estimator(estimator)
    n = _check_int("n", n, 2 if est in (Estimator.HL1, Estimator.SHAMOS) else 1)
    if est._kind is None:
        raise ValueError(f"no breakdown oracle for {est}")
    # the statistics left clean are those of the n - k clean observations
    total = _multiset_size(est._kind, n)
    tolerable = (total - 1) // 2
    k_star = max(k for k in range(n + 1)
                 if total - _multiset_size(est._kind, n - k) <= tolerable)
    return BreakdownResult(n, est, k_star)


def breakdown_table(n_max: int) -> list[dict]:
    """Breakdown points for n = 2..n_max, one row per n.

    Columns mirror the grouping in which estimators share a value:
    median/MAD, hl1/pairwise-difference scale, hl2, hl3.
    """
    n_max = _check_int("n_max", n_max, 2)
    rows = []
    for n in range(2, n_max + 1):
        rows.append(
            {
                "n": n,
                "median_mad": breakdown_median(n).epsilon_n,
                "hl1_shamos": breakdown_hl1(n).epsilon_n,
                "hl2": breakdown_hl2(n).epsilon_n,
                "hl3": breakdown_hl3(n).epsilon_n,
            }
        )
    return rows
