from .models import (admission_mc, hypercube_pomc, lending_mc, lending_pomc,
                     social_burden_text, two_state)
from .runners import (ExperimentReport, PomcSeriesEvaluator,
                      fig3_ratio_series, fig4_uniform_series,
                      nonconvergent_block_stream, run_coverage,
                      run_named_experiment, run_nonconvergent, soak_registers,
                      timing_table)

__all__ = [
    "admission_mc", "hypercube_pomc", "lending_mc", "lending_pomc",
    "social_burden_text", "two_state",
    "ExperimentReport", "PomcSeriesEvaluator", "fig3_ratio_series",
    "fig4_uniform_series", "nonconvergent_block_stream", "run_coverage",
    "run_named_experiment", "run_nonconvergent", "soak_registers",
    "timing_table",
]
