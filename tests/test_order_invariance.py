"""A report is a function of the blocked set (Definitions 3.1/3.2).

A deadlock is a property of the *set* of blocked statuses, so no order
the statuses reach a checker in — record order, a codec's member
order, a delta's ``set`` key order, site order — may change a byte of
the report.  Two metamorphic tests pin that:

* every corpus member replays to the same ``report_to_obj`` bytes as
  its other-codec twin (``loads(dumps(trace, other))``), under both
  engines, detection and avoidance, and every graph model;
* permuting a snapshot's statuses, a publication's ``set`` keys and
  the site order leaves the reports of ``DeadlockChecker``,
  ``IncrementalChecker`` and a ``DeltaMergeState``-fed checker
  byte-identical to ``check(snapshot=…)`` of the unpermuted snapshot.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checker import DeadlockChecker
from repro.core.dependency import DependencySnapshot
from repro.core.events import BlockedStatus, Event
from repro.core.incremental import IncrementalChecker
from repro.core.selection import GraphModel
from repro.distributed.delta import DeltaMergeState, encode_bucket, make_snapshot
from repro.trace.codec import dumps, load_trace, loads
from repro.trace.events import RecordKind, report_to_obj
from repro.trace.parallel import discover_traces
from repro.trace.replay import AVOIDANCE, DETECTION, replay

CORPUS = Path(__file__).parent / "trace" / "corpus"
ENGINES = (DeadlockChecker, IncrementalChecker)


def report_bytes(reports) -> str:
    return json.dumps([None if r is None else report_to_obj(r) for r in reports])


# ---------------------------------------------------------------------------
# codec twins
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path", discover_traces(CORPUS), ids=lambda p: p.name)
def test_codec_twin_replays_to_the_same_reports(path):
    trace = load_trace(path)
    twin = loads(dumps(trace, "jsonl" if path.suffix == ".trace" else "binary"))
    # Avoidance vets single blocks; it refuses site publications.
    publishes = any(r.kind is RecordKind.PUBLISH_DELTA for r in trace.records)
    modes = (DETECTION,) if publishes else (DETECTION, AVOIDANCE)
    for incremental, mode, model in product((True, False), modes, GraphModel):
        runs = [
            report_bytes(replay(t, mode=mode, model=model,
                                incremental=incremental).reports)
            for t in (trace, twin)
        ]
        assert runs[0] == runs[1], (incremental, mode, model)


# ---------------------------------------------------------------------------
# permuted statuses, set keys and sites
# ---------------------------------------------------------------------------
@st.composite
def placed_statuses(draw):
    """``(statuses, site_of, orders)``: a small blocked set, each task's
    site, and the permutations to feed it in."""
    n_tasks = draw(st.integers(2, 6))
    n_phasers = draw(st.integers(1, 4))
    statuses = {}
    for i in range(n_tasks):
        registered = {
            f"p{p}": draw(st.integers(0, 2))
            for p in range(n_phasers) if draw(st.booleans())
        }
        waits = frozenset(
            Event(f"p{draw(st.integers(0, n_phasers - 1))}", draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 2)))
        )
        statuses[f"t{i}"] = BlockedStatus(waits=waits, registered=registered)
    tasks = list(statuses)
    site_of = {t: f"s{draw(st.integers(0, 2))}" for t in tasks}
    sites = sorted(set(site_of.values()))
    orders = (
        draw(st.permutations(tasks)),  # statuses, and each bucket's set keys
        draw(st.permutations(sites)),  # sites
    )
    return statuses, site_of, orders


def merged_reports(engine, model, statuses, site_of, task_order, site_order):
    """Publish each site's bucket (``set`` keys in ``task_order``, sites
    in ``site_order``), check; re-publish every bucket in the reverse
    key order as a checkpoint, check again."""
    checker = engine(model=model)
    view = DeltaMergeState(checker)
    reports = []
    for seq, order in enumerate((task_order, task_order[::-1]), start=1):
        for site in site_order:
            bucket = {t: statuses[t] for t in order if site_of[t] == site}
            view.apply_obj(site, make_snapshot(seq, encode_bucket(bucket), site))
        view.raise_on_conflict()
        reports.append(checker.check())
    return reports


@given(placed_statuses())
@settings(max_examples=150, deadline=None)
def test_reports_do_not_follow_arrival_order(case):
    statuses, site_of, (task_order, site_order) = case
    permuted = DependencySnapshot(statuses={t: statuses[t] for t in task_order})
    for model in GraphModel:
        expected = report_bytes([
            DeadlockChecker(model=model).check(
                snapshot=DependencySnapshot(statuses=statuses))
        ])
        assert report_bytes([
            DeadlockChecker(model=model).check(snapshot=permuted)
        ]) == expected, model
        for engine in ENGINES:
            checker = engine(model=model)
            checker.apply_batch([("set", t, statuses[t]) for t in task_order])
            assert report_bytes([checker.check()]) == expected, (engine, model)
            for report in merged_reports(engine, model, statuses, site_of,
                                         task_order, site_order):
                assert report_bytes([report]) == expected, (engine, model)
