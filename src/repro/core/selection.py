"""Graph-model selection: fixed WFG, fixed SG, or adaptive (Section 5.1).

State-of-the-art tools commit to the WFG.  Armus selects the model per
check, according to the monitored concurrency constraints: the adaptive
mode *tries to build an SG first; if during the construction it reaches a
size threshold, it builds a WFG instead*.  The threshold is reached when,
at any point, there are more SG edges than ``threshold_factor`` times the
number of tasks processed so far (the paper uses a factor of 2, obtained
experimentally on the available benchmarks).

The scalability rationale (Proposition 4.2): cycle detection is
O(V + E) ≤ O(V^2 + V), with V = tasks for the WFG and V = events for the
SG.  SPMD programs have many tasks and few barriers (SG wins); fork/join
and future-style programs can have as many barriers as tasks (WFG wins);
the ratio can change during execution, so the choice is made per check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.dependency import DependencySnapshot
from repro.core.graphs import DiGraph, build_sg, build_wfg, iter_sg_edges

#: Default SG-abort threshold factor (Section 5.1: "more SG-edges than
#: twice the number of tasks processed thus far").
DEFAULT_THRESHOLD_FACTOR = 2.0

class GraphModel(enum.Enum):
    """Which graph model the checker uses for cycle detection."""

    WFG = "wfg"
    SG = "sg"
    AUTO = "auto"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GraphBuildResult:
    """Outcome of building the analysis graph for one check.

    Attributes
    ----------
    graph:
        The graph handed to cycle detection.
    model_used:
        The concrete model built (never :attr:`GraphModel.AUTO`).
    edge_count:
        Number of edges in ``graph`` — the quantity reported in Table 3.
    sg_aborted:
        In adaptive mode, whether SG construction hit the threshold and
        fell back to the WFG.
    """

    graph: DiGraph
    model_used: GraphModel
    edge_count: int
    sg_aborted: bool = False


def build_graph(
    snapshot: DependencySnapshot,
    model: GraphModel = GraphModel.AUTO,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
) -> GraphBuildResult:
    """Build the analysis graph for ``snapshot`` under ``model``.

    In :attr:`GraphModel.AUTO` mode, SG construction is attempted first
    and abandoned for the WFG once the edge count exceeds
    ``threshold_factor * tasks_processed`` (checked after each task's
    edges are added, mirroring the incremental construction in Armus).
    """
    if model is GraphModel.WFG:
        g = build_wfg(snapshot)
        return GraphBuildResult(g, GraphModel.WFG, g.edge_count)
    if model is GraphModel.SG:
        g = build_sg(snapshot)
        return GraphBuildResult(g, GraphModel.SG, g.edge_count)
    if model is not GraphModel.AUTO:  # pragma: no cover - defensive
        raise ValueError(f"unknown graph model: {model!r}")

    sg = _try_build_sg(snapshot, threshold_factor)
    if sg is not None:
        return GraphBuildResult(sg, GraphModel.SG, sg.edge_count)
    wfg = build_wfg(snapshot)
    return GraphBuildResult(wfg, GraphModel.WFG, wfg.edge_count, sg_aborted=True)


def _try_build_sg(
    snapshot: DependencySnapshot, threshold_factor: float
) -> Optional[DiGraph]:
    """Incrementally build the SG; return ``None`` on threshold abort.

    The awaited-by-phaser index makes each task's contribution
    O(its registrations), not O(all awaited events) — the difference
    between quadratic and linear checks on thousand-task snapshots.
    The edge *set* per task is unchanged, so threshold decisions are
    identical to the unindexed construction.
    """
    g = DiGraph()
    awaited = snapshot.awaited_index()
    for events in awaited.values():
        for e in events:
            g.add_vertex(e)
    tasks_processed = 0
    edges = 0
    for status in snapshot.statuses.values():
        tasks_processed += 1
        for e1, e2 in iter_sg_edges(status, awaited):
            if not g.has_edge(e1, e2):
                edges += 1
                g.add_edge(e1, e2)
        if edges > threshold_factor * tasks_processed:
            return None
    return g
