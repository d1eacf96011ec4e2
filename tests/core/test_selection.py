"""Graph-model selection tests: fixed modes and the adaptive threshold."""

from __future__ import annotations

from repro.core.cycles import has_cycle
from repro.core.dependency import ResourceDependency
from repro.core.events import BlockedStatus, Event, waiting_on
from repro.core.selection import GraphModel, build_graph


def spmd_snapshot(n_tasks: int, skew: bool = True):
    """Many tasks, one barrier (SG-friendly)."""
    dep = ResourceDependency()
    for i in range(n_tasks):
        phase = 2 if (skew and i % 2) else 1
        dep.set_blocked(f"t{i}", waiting_on("bar", phase, bar=phase))
    return dep.snapshot()


def forkjoin_snapshot(n_tasks: int):
    """One event per task (WFG-friendly futures ring)."""
    dep = ResourceDependency()
    for i in range(n_tasks):
        dep.set_blocked(
            f"t{i}",
            BlockedStatus(
                waits=frozenset({Event(f"f{(i + 1) % n_tasks}", 1)}),
                registered={f"f{i}": 0},
            ),
        )
    return dep.snapshot()


class TestFixedModes:
    def test_fixed_wfg(self):
        out = build_graph(spmd_snapshot(8), GraphModel.WFG)
        assert out.model_used is GraphModel.WFG
        assert out.edge_count == out.graph.edge_count

    def test_fixed_sg(self):
        out = build_graph(spmd_snapshot(8), GraphModel.SG)
        assert out.model_used is GraphModel.SG


class TestAdaptive:
    def test_spmd_stays_on_sg(self):
        """Many tasks, one barrier: SG has ~1 edge, far under 2x tasks."""
        out = build_graph(spmd_snapshot(16), GraphModel.AUTO)
        assert out.model_used is GraphModel.SG
        assert not out.sg_aborted
        assert out.edge_count <= 2

    def test_forkjoin_ring_may_stay_sg_when_sparse(self):
        """The futures ring has exactly one SG edge per task — right at
        the threshold boundary, it must not abort (threshold is strict
        'more than')."""
        out = build_graph(forkjoin_snapshot(8), GraphModel.AUTO)
        assert out.model_used is GraphModel.SG

    def test_dense_fan_aborts_to_wfg(self):
        """A task registered with many lagging phasers emits an SG edge
        per (impeded, waited) pair; crossing 2x tasks aborts to WFG."""
        dep = ResourceDependency()
        # One waiter per phaser, and one straggler registered with all of
        # them at phase 0 — the straggler alone emits k^2-ish SG edges.
        k = 8
        for i in range(k):
            dep.set_blocked(f"w{i}", waiting_on(f"p{i}", 1, **{f"p{i}": 1}))
        dep.set_blocked(
            "straggler",
            BlockedStatus(
                waits=frozenset({Event("p0", 1)}),
                registered={f"p{i}": 0 for i in range(1, k)},
            ),
        )
        out = build_graph(dep.snapshot(), GraphModel.AUTO, threshold_factor=0.5)
        assert out.model_used is GraphModel.WFG
        assert out.sg_aborted

    def test_threshold_factor_controls_abort(self):
        snap = forkjoin_snapshot(8)
        loose = build_graph(snap, GraphModel.AUTO, threshold_factor=10.0)
        tight = build_graph(snap, GraphModel.AUTO, threshold_factor=0.1)
        assert loose.model_used is GraphModel.SG
        assert tight.model_used is GraphModel.WFG

    def test_cycle_answer_identical_across_modes(self):
        for snap in (spmd_snapshot(12), forkjoin_snapshot(12)):
            answers = {
                mode: has_cycle(build_graph(snap, mode).graph)
                for mode in (GraphModel.WFG, GraphModel.SG, GraphModel.AUTO)
            }
            assert len(set(answers.values())) == 1, answers

    def test_empty_snapshot(self):
        out = build_graph(ResourceDependency().snapshot(), GraphModel.AUTO)
        assert out.edge_count == 0
