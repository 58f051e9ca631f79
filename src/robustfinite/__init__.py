"""Robust location/scale estimation with finite-sample corrections.

Submodules
----------
estimators  : median, Hodges-Lehmann variants, MAD, pairwise-difference
              scale, standard deviation
breakdown   : exact finite-sample breakdown points plus a counting oracle
factors     : c4/c5/c6 unbiasing factors, variances, relative efficiencies
calibration : seeded parallel Monte Carlo engine and bias-model fitters
spc         : robust x-bar chart factors, limits, contamination experiment
cli         : command-line front end (``robustfinite`` entry point)
_facts      : each estimator's facts and the input checks, without numpy

The public names below are imported from their submodule on first access
(PEP 562), so ``import robustfinite`` loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("BreakdownResult", "breakdown_hl1", "breakdown_hl2", "breakdown_hl3",
                     "breakdown_median", "breakdown_oracle", "breakdown_point",
                     "breakdown_table"), "breakdown"),
    **dict.fromkeys(("FitInput", "SimulationConfig", "SimulationResult", "fit_hayes",
                     "fit_williams", "regenerate_table", "simulate"), "calibration"),
    "Estimator": "_facts",
    **dict.fromkeys(("hl1", "hl2", "hl3", "hodges_lehmann", "mad", "mean", "median",
                     "select_kth", "shamos", "std_dev"), "estimators"),
    **dict.fromkeys(("BiasModel", "FactorSet", "asymptotic_relative_efficiency", "c4",
                     "c5", "c6", "factor_set", "relative_efficiency", "unbiased_mad",
                     "unbiased_mad_sq", "unbiased_shamos", "unbiased_shamos_sq", "v5",
                     "v6", "variance_model_eval"), "factors"),
    **dict.fromkeys(("ChartLimits", "SubgroupSeries", "a3", "a5", "a6", "chart_limits",
                     "contamination_experiment", "points_out_of_control",
                     "read_subgroups"), "spc"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import a public name's submodule on first access, or a submodule
    itself, and keep the name here so later lookups skip this."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
