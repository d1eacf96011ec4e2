"""The incremental checker's per-epoch cache answers like a fresh check.

A detection monitor polling a standing deadlock asks the same question
at the same epoch over and over; :class:`IncrementalChecker` answers
the repeats from its cache.  A cached answer must be indistinguishable
from the from-scratch checker's, both in what it returns and in what it
records into :class:`~repro.core.checker.CheckStats`.
"""

from __future__ import annotations

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.events import waiting_on
from repro.core.incremental import IncrementalChecker
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaMergeState, encode_bucket, make_snapshot

#: Two tasks, each waiting on the phaser the other still holds back.
CROSSED = {
    "t1": waiting_on("p", 1, p=1, q=0),
    "t2": waiting_on("q", 1, q=1, p=0),
}
ENGINES = (DeadlockChecker, IncrementalChecker)


def accounting(checker) -> tuple:
    stats = checker.stats
    return (stats.model_counts, stats.edges_total, stats.cycles_found,
            stats.sg_aborts)


@pytest.mark.parametrize("model", list(GraphModel), ids=lambda m: m.value)
def test_polled_deadlock_is_counted_under_the_model_analysed(model):
    """Repeats served from the cache count under the report's model and
    edge count — under AUTO that is the SG, not the maintained WFG."""
    seen = []
    for engine in ENGINES:
        checker = engine(model=model)
        for task, status in CROSSED.items():
            checker.set_blocked(task, status)
        reports = [checker.check() for _ in range(4)]
        assert reports[0] is not None
        seen.append((reports, accounting(checker)))
    assert seen[0] == seen[1]
    (_, (model_counts, _, cycles, _)), _ = seen
    assert sum(model_counts.values()) == cycles == 4


def merged_crossed_pair(engine):
    """The crossed pair fed through the distributed merge view, one
    task per site (the view is the checker's ``snapshot_source``)."""
    checker = engine()
    view = DeltaMergeState(checker)
    assert checker.snapshot_source == view.merged_snapshot
    for site, task in (("A", "t1"), ("B", "t2")):
        view.apply_obj(site, make_snapshot(
            1, encode_bucket({task: CROSSED[task]}), site))
    return checker


def test_failed_revalidation_is_not_the_epochs_answer():
    """A revalidating check of a merged view confirms the cycle it
    found, and answers like the plain check at the same epoch, on both
    engines: the merged snapshot holds the very status objects the
    store holds, so ``is_current`` recognises every one of them."""
    answers = []
    for engine in ENGINES:
        checker = merged_crossed_pair(engine)
        answers.append([
            checker.check(revalidate=True),
            checker.check(),
            checker.check(revalidate=True),
            checker.check(),
        ])
    assert answers[0] == answers[1]
    first = answers[1][0]
    assert first is not None and first.tasks == ("t1", "t2")
    assert all(answer == first for answer in answers[1])
