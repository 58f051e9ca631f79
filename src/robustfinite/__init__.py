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
"""

from .breakdown import (
    BreakdownResult,
    breakdown_hl1,
    breakdown_hl2,
    breakdown_hl3,
    breakdown_median,
    breakdown_oracle,
    breakdown_point,
    breakdown_table,
)
from .calibration import (
    FitInput,
    SimulationConfig,
    SimulationResult,
    fit_hayes,
    fit_williams,
    regenerate_table,
    simulate,
)
from .estimators import (
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
from .factors import (
    BiasModel,
    FactorSet,
    asymptotic_relative_efficiency,
    c4,
    c5,
    c6,
    factor_set,
    relative_efficiency,
    unbiased_mad,
    unbiased_mad_sq,
    unbiased_shamos,
    unbiased_shamos_sq,
    v5,
    v6,
    variance_model_eval,
)
from .spc import (
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

__version__ = "0.1.0"
