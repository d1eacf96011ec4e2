"""Figure 7: distributed deadlock detection overhead.

Each HPCC kernel runs on a 4-place cluster, unchecked versus with every
site publishing and checking (200 ms period, the paper's setting).  The
paper reports *no statistical evidence* of overhead; expect the checked
and unchecked timings to be statistically indistinguishable.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import HPCC_KERNELS, _run_distributed, make_cluster

N_PLACES = 4


@pytest.fixture(scope="module")
def clusters():
    """Long-lived clusters: site start/stop stays out of the timed
    region, as in the paper's deployment (the tool runs alongside)."""
    plain = make_cluster(N_PLACES, checked=False)
    monitored = make_cluster(N_PLACES, checked=True)
    yield {False: plain, True: monitored}
    monitored.stop()


@pytest.mark.parametrize("checked", (False, True), ids=("unchecked", "checked"))
@pytest.mark.parametrize("kernel", sorted(HPCC_KERNELS))
def test_distributed_detection(bench, clusters, kernel: str, checked: bool):
    result = bench(
        _run_distributed, kernel, N_PLACES, checked, clusters[checked]
    )
    assert result.validated
