"""The report wire form: ``report_to_obj``/``report_from_obj``.

The one form a checker service ships to its clients — provenance with
interned origins.  Pinned here: the round trip is the identity for
every report shape the stack produces, and hostile input fails typed.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.checker import DeadlockChecker
from repro.core.dependency import DependencySnapshot
from repro.core.events import waiting_on
from repro.core.selection import GraphModel
from repro.distributed.delta import encode_bucket, make_snapshot
from repro.obs.tracing import OriginTracker, attach_provenance
from repro.trace import events as ev
from repro.trace.events import (
    TraceFormatError,
    report_from_obj,
    report_to_obj,
)

RING = 5


def ring_statuses():
    return {
        f"t{i}": waiting_on(
            f"c{i}", 1, **{f"c{i}": 1, f"c{(i - 1) % RING}": 0}
        )
        for i in range(RING)
    }


def enriched_report(model: GraphModel, origins: str):
    """A ring report under ``model`` whose statuses arrived as local
    blocks, one site's snapshot ``publish_delta``, or two sites'."""
    statuses = ring_statuses()
    tracker = OriginTracker()
    if origins == "block":
        for seq, (task, status) in enumerate(statuses.items()):
            tracker.observe(ev.block(seq, task, status))
    elif origins == "one_site":
        tracker.observe(ev.publish_delta(
            4, "s0", make_snapshot(1, encode_bucket(statuses), "tok")))
    else:
        tasks = list(statuses)
        head = {t: statuses[t] for t in tasks[:-1]}
        tail = {tasks[-1]: statuses[tasks[-1]]}
        tracker.observe(ev.publish_delta(
            7, "s0", make_snapshot(3, encode_bucket(head), "tokA")))
        tracker.observe(ev.publish_delta(
            8, "s1", make_snapshot(1, encode_bucket(tail), "tokB")))
    report = DeadlockChecker(model=model).check(
        snapshot=DependencySnapshot(statuses=statuses)
    )
    assert report is not None and report.model_used is model
    enriched, _ = attach_provenance(report, tracker, statuses)
    return enriched


@pytest.mark.parametrize("origins", ["block", "one_site", "two_sites"])
@pytest.mark.parametrize("model", [GraphModel.WFG, GraphModel.SG])
def test_round_trip_is_identity(model, origins):
    report = enriched_report(model, origins)
    obj = report_to_obj(report)
    assert report_from_obj(obj) == report
    assert report_from_obj(json.loads(json.dumps(obj))) == report
    kinds = {o.kind for e in report.provenance
             for o in (e.source_origin, e.target_origin)}
    assert kinds == {"block" if origins == "block" else "publish_delta"}
    # Origins are interned: as many as distinct publishing records.
    distinct = {"block": RING, "one_site": 1, "two_sites": 2}[origins]
    assert len(obj["provenance"]["origins"]) == distinct
    assert len(obj["provenance"]["edges"]) == len(report.cycle) - 1


def test_unenriched_report_round_trips_without_provenance():
    report = enriched_report(GraphModel.WFG, "block").without_provenance()
    obj = report_to_obj(report)
    assert "provenance" not in obj and report_from_obj(obj) == report


def _mutations():
    def drop(key):
        return lambda obj: obj.pop(key)

    def put(path, value):
        def mutate(obj):
            for key in path[:-1]:
                obj = obj[key]
            obj[path[-1]] = value
        return mutate

    edge = ("provenance", "edges", 0)
    return [
        ("missing tasks", drop("tasks")),
        ("missing cycle", drop("cycle")),
        ("unknown model", put(("model",), "petri")),
        ("bad vertex tag", put(("cycle", 0), ["x", "t0"])),
        ("provenance is a list", put(("provenance",), [])),
        ("provenance is a string", put(("provenance",), "edges")),
        ("no origins", put(("provenance",), {"edges": []})),
        ("no edges", put(("provenance",), {"origins": []})),
        ("origins not a list", put(("provenance", "origins"), 3)),
        ("edges not a list", put(("provenance", "edges"), 3)),
        ("origin not an object", put(("provenance", "origins", 0), [1])),
        ("origin without ordinal",
         put(("provenance", "origins", 0), {"kind": "block"})),
        ("edge not a list", put(edge, 7)),
        ("edge too short", put(edge, ["a", "b", "a", "b", 0])),
        ("edge too long", put(edge, ["a", "b", "a", "b", 0, 0, 0])),
        ("index out of range", put(edge + (4,), 99)),
        ("negative index", put(edge + (5,), -1)),
        ("string index", put(edge + (4,), "0")),
        ("float index", put(edge + (5,), 0.0)),
        ("null index", put(edge + (4,), None)),
    ]


@pytest.mark.parametrize(
    "mutate", [pytest.param(m, id=name) for name, m in _mutations()]
)
def test_malformed_report_raises_typed(mutate):
    obj = copy.deepcopy(
        report_to_obj(enriched_report(GraphModel.WFG, "publish_delta"))
    )
    report_from_obj(obj)  # well-formed before the mutation
    mutate(obj)
    with pytest.raises(TraceFormatError):
        report_from_obj(obj)


@pytest.mark.parametrize("bad", [[], None, "report", 7, [["tasks", []]]])
def test_non_mapping_report_raises_typed(bad):
    with pytest.raises(TraceFormatError):
        report_from_obj(bad)
