"""Statistical runtime monitors for fairness properties of Markovian streams.

The package provides a small specification language for quantitative
properties of observation streams, streaming monitors with pointwise and
time-uniform confidence guarantees for both fully and partially observed
chains, exact model-based oracles, and experiment drivers.
"""

from .bounds import (DeltaBudget, baseline_union_interval, ci_mc_pointwise,
                     ci_mc_uniform, ci_pomc_pointwise, ci_pomc_uniform,
                     naive_uniform_lift, split_delta)
from .errors import (ConfigError, EvaluationError, FairmonError, ModelError,
                     SpecSyntaxError, SpecValidationError)
from .intervals import UNBOUNDED, UNIT, Interval
from .markov import (MixingBound, ObservationModel, StationaryDistribution,
                     mixing_time_bound, simulate, simulate_states,
                     stationary_distribution, truth_value, truth_value_bse,
                     truth_value_pse)
from .mc import DivisionMonitor, MCMonitorDivFree, build_mc_monitor
from .pomc import INCONCLUSIVE, CompositeMonitor, Verdict, build_pomc_monitor

__version__ = "0.1.0"

__all__ = [
    "DeltaBudget", "baseline_union_interval", "ci_mc_pointwise",
    "ci_mc_uniform", "ci_pomc_pointwise", "ci_pomc_uniform",
    "naive_uniform_lift", "split_delta",
    "ConfigError", "EvaluationError", "FairmonError", "ModelError",
    "SpecSyntaxError", "SpecValidationError",
    "UNBOUNDED", "UNIT", "Interval",
    "MixingBound", "ObservationModel", "StationaryDistribution",
    "mixing_time_bound", "simulate", "simulate_states",
    "stationary_distribution", "truth_value", "truth_value_bse",
    "truth_value_pse",
    "DivisionMonitor", "MCMonitorDivFree", "build_mc_monitor",
    "INCONCLUSIVE", "CompositeMonitor", "Verdict", "build_pomc_monitor",
]
