"""A clocked-variable pipeline: the Sieve of Eratosthenes (Section 6.3).

Demonstrates the dynamic-barrier-creation regime: one task and one
clocked variable per pipeline stage, created as primes are needed — the
opposite of the SPMD programs, and the reason Armus selects its graph
model per check rather than committing to the WFG.

The example runs the sieve under *avoidance* with the adaptive model and
prints what the verifier saw: how many checks ran, the average graph
size, and which models were used.

Run::

    python examples/pipeline_sieve.py [limit]
"""

import sys

from repro.core.selection import GraphModel
from repro.runtime.verifier import ArmusRuntime, VerificationMode
from repro.workloads.course.se import run_se


def main(limit: int = 60) -> None:
    runtime = ArmusRuntime(
        mode=VerificationMode.AVOIDANCE, model=GraphModel.AUTO
    ).start()
    try:
        result = run_se(runtime, limit=limit)
    finally:
        runtime.stop()

    print(f"primes up to {limit}: {result.details['primes']} stages, all valid")
    stats = runtime.stats
    print(f"verification checks: {stats.checks}")
    print(f"average analysis-graph edges: {stats.mean_edges:.1f}")
    hist = {m.value: n for m, n in stats.model_counts.items()}
    print(f"graph models used: {hist}")
    print(f"deadlocks found: {stats.cycles_found} (the pipeline is clean)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 60)
