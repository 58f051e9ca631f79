"""Each estimator's facts and the package's input checks, without numpy.

``Estimator`` names the estimators and carries their facts; ``_check_int``,
``_check_real`` and ``_check_flag`` are the one check of every size, real
number and flag.  ``factors`` and ``breakdown`` need nothing more, so the
``factors`` and ``breakdown`` subcommands start without numpy.
"""

from __future__ import annotations

import enum
import math
from numbers import Integral, Real

# Third quartile of N(0,1), the double nearest Phi^-1(0.75).
NORMAL_Q3 = 0.6744897501960817


class Estimator(str, enum.Enum):
    """Names of the estimators handled by the factor tables and simulator,
    each with its facts: ``is_location`` (else a scale), ``min_n``, the
    smallest sample size it is defined for, its ``_row_medians`` kind (None
    for the mean and the standard deviation) and the constant that makes it
    consistent for sigma at the normal.  Members pickle by value, the name."""

    def __new__(cls, name: str, is_location: bool, min_n: int, kind: str | None,
                consistency: float = 1.0):
        member = str.__new__(cls, name)
        member._value_ = name
        member.is_location = is_location
        member.min_n = min_n
        member._kind = kind
        member._consistency = consistency
        return member

    MEAN = "mean", True, 1, None
    MEDIAN = "median", True, 1, "median"
    HL1 = "hl1", True, 2, "hl1"
    HL2 = "hl2", True, 1, "hl2"
    HL3 = "hl3", True, 1, "hl3"
    STD = "std", False, 2, None
    MAD = "mad", False, 2, "mad", 1.0 / NORMAL_Q3  # ~1.4826
    SHAMOS = "shamos", False, 2, "shamos", 1.0 / (math.sqrt(2.0) * NORMAL_Q3)  # ~1.048358

    def __str__(self) -> str:  # argparse-friendly
        return self.value

    @property
    def is_scale(self) -> bool:
        return not self.is_location


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum``: the one check of every
    size, count and seed.  A numpy integer passes as an ``Integral``;
    anything else (a float, a string, a bool) is a ``ValueError`` that names
    the input, where ``int()`` would truncate or parse it silently."""
    # the plain int first: the Integral check costs about a microsecond
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: not a bool, which ``float()``
    would take as 1.0 or 0.0, nor a string, which it would parse."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_real(name: str, value) -> float:
    """``value`` as a float if it is a real number (``_is_real``); anything
    else is a ``ValueError`` that names the input."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_flag(name: str, value) -> bool:
    """``value`` if it is a bool; anything else, a numpy bool or a string
    too, is a ``ValueError`` that names the flag, where ``if value`` would
    take any truthy value as True."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return value


# The pairwise kinds whose pairs are i < j only, without the diagonal (i, i).
_OFF_DIAGONAL = ("shamos", "hl1")


def _multiset_size(kind: str, n: int) -> int:
    """How many values ``_row_medians`` takes the median of in a row of n:
    n, or the pairs i < j (shamos, hl1), i <= j (hl2) or all (i, j) (hl3)."""
    return {"median": n, "mad": n, "shamos": n * (n - 1) // 2, "hl1": n * (n - 1) // 2,
            "hl2": n * (n + 1) // 2, "hl3": n * n}[kind]
