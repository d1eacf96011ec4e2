"""Benchmark harness (Section 6).

* :mod:`repro.bench.stats` — the measurement methodology: start-up
  performance per Georges et al. (discard the first sample, mean of the
  rest with a 95% confidence interval using the standard normal
  z-statistic), plus relative-overhead arithmetic;
* :mod:`repro.bench.harness` — experiment runners producing the data
  behind every table and figure of the paper's evaluation;
* :mod:`repro.bench.tables` — renderers that print the paper-style rows
  (``python -m repro.bench.tables <experiment>``).

The renderers are the one route to each paper artefact; everything
else timed is the end-to-end benchmark under ``benchmarks/e2e/``.
EXPERIMENTS.md records paper-vs-measured for each experiment.
"""

from repro.bench.stats import Measurement, measure, relative_overhead
from repro.bench.harness import (
    LOCAL_KERNELS,
    run_local_kernel,
    overhead_table,
    scaling_series,
    distributed_comparison,
    model_choice_comparison,
    edge_count_table,
)

__all__ = [
    "Measurement",
    "measure",
    "relative_overhead",
    "LOCAL_KERNELS",
    "run_local_kernel",
    "overhead_table",
    "scaling_series",
    "distributed_comparison",
    "model_choice_comparison",
    "edge_count_table",
]
