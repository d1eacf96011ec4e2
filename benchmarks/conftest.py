"""Shared configuration for the three pytest-benchmark files that remain
(``bench_obs.py``, ``bench_tracing.py``, ``bench_predict.py`` — each
says in its docstring why ``benchmarks/e2e/`` does not cover it yet).

They use ``pedantic`` mode with a small fixed round count.  The paper's
tables and figures are rendered by ``python -m repro.bench.tables
<exp>``; everything else timed is a ``benchmarks/e2e/`` metric.
"""

from __future__ import annotations

import pytest

#: Rounds per benchmark; bump for tighter confidence at the cost of time.
ROUNDS = 3
WARMUP_ROUNDS = 1


@pytest.fixture
def bench(benchmark):
    """A pedantic-mode wrapper: fixed rounds, one warm-up, one iteration
    per round (the workloads manage their own internal repetition)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn,
            args=args,
            kwargs=kwargs,
            rounds=ROUNDS,
            warmup_rounds=WARMUP_ROUNDS,
            iterations=1,
        )

    return run
