"""Experiment runners for every table and figure of the evaluation.

Each function reproduces the *data* behind one experiment; the renderers
in :mod:`repro.bench.tables` print them in the paper's layout.  The
mapping (see DESIGN.md's per-experiment index):

====================  =====================================
paper artefact        runner
====================  =====================================
Table 1               ``overhead_table(mode="detection")``
Table 2               ``overhead_table(mode="avoidance")``
Figure 6 (a-f)        ``scaling_series``
Figure 7              ``distributed_comparison``
Figures 8 and 9       ``model_choice_comparison``
Table 3               ``edge_count_table``
ablation D1           ``representation_ablation``
ablation D2           ``threshold_ablation``
====================  =====================================

Sizes are laptop-scale; the **shape** of the results (who wins, where
overheads grow, which model each benchmark favours) is the reproduction
target, not the absolute numbers — see EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.stats import Measurement, measure, relative_overhead
from repro.core.selection import GraphModel
from repro.distributed.places import Cluster
from repro.runtime.verifier import ArmusRuntime, VerificationMode
from repro.workloads.common import WorkloadResult, make_runtime
from repro.workloads.course import KERNELS as COURSE_KERNELS
from repro.workloads.hpcc import KERNELS as HPCC_KERNELS
from repro.workloads.jgf import run_rt
from repro.workloads.npb import run_bt, run_cg, run_ft, run_mg, run_sp

# ---------------------------------------------------------------------------
# local kernels (Tables 1-2, Figure 6): fixed problem class, task sweep
# ---------------------------------------------------------------------------
LOCAL_KERNELS: Dict[str, Callable[[ArmusRuntime, int], WorkloadResult]] = {
    "BT": lambda rt, n: run_bt(rt, n_tasks=n, size=16, steps=4),
    "CG": lambda rt, n: run_cg(rt, n_tasks=n, side=10, iterations=40),
    "FT": lambda rt, n: run_ft(rt, n_tasks=n, size=32, steps=3),
    "MG": lambda rt, n: run_mg(rt, n_tasks=n, levels=4, cycles=2),
    "RT": lambda rt, n: run_rt(rt, n_tasks=n, width=32, height=24, frames=1),
    "SP": lambda rt, n: run_sp(rt, n_tasks=n, size=16, steps=4),
}

#: Paper thread sweep is 2..64; the quick profile stops at 8.
QUICK_TASKS: Tuple[int, ...] = (2, 4, 8)
FULL_TASKS: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)


def run_local_kernel(
    name: str,
    mode: str = "off",
    n_tasks: int = 4,
    model: GraphModel = GraphModel.AUTO,
    interval_s: float = 0.1,
) -> WorkloadResult:
    """One validated run of a local kernel under a verification mode."""
    runtime = make_runtime(mode, model=model, interval_s=interval_s)
    try:
        return LOCAL_KERNELS[name](runtime, n_tasks)
    finally:
        runtime.stop()


def overhead_table(
    mode: str,
    task_counts: Sequence[int] = QUICK_TASKS,
    samples: int = 5,
    kernels: Optional[Sequence[str]] = None,
    model: GraphModel = GraphModel.AUTO,
) -> Dict[str, Dict[int, float]]:
    """Tables 1 and 2: relative overhead (%) per kernel per task count."""
    names = list(kernels) if kernels else list(LOCAL_KERNELS)
    out: Dict[str, Dict[int, float]] = {}
    for name in names:
        row: Dict[int, float] = {}
        for n in task_counts:
            base = measure(
                lambda: run_local_kernel(name, "off", n),
                samples=samples,
                label=f"{name}/off/{n}",
            )
            checked = measure(
                lambda: run_local_kernel(name, mode, n, model=model),
                samples=samples,
                label=f"{name}/{mode}/{n}",
            )
            row[n] = relative_overhead(base, checked)
        out[name] = row
    return out


def scaling_series(
    task_counts: Sequence[int] = QUICK_TASKS,
    samples: int = 5,
    kernels: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[int, Measurement]]]:
    """Figure 6: execution time per kernel x mode x task count."""
    names = list(kernels) if kernels else list(LOCAL_KERNELS)
    out: Dict[str, Dict[str, Dict[int, Measurement]]] = {}
    for name in names:
        out[name] = {}
        for mode in ("off", "detection", "avoidance"):
            series: Dict[int, Measurement] = {}
            for n in task_counts:
                series[n] = measure(
                    lambda: run_local_kernel(name, mode, n),
                    samples=samples,
                    label=f"{name}/{mode}/{n}",
                )
            out[name][mode] = series
    return out


# ---------------------------------------------------------------------------
# distributed (Figure 7)
# ---------------------------------------------------------------------------
def make_cluster(n_places: int, checked: bool) -> Cluster:
    """A cluster configured like the paper's deployment: detection every
    200 ms, publishing every 50 ms; ``checked=False`` leaves the site
    loops stopped (the unchecked baseline)."""
    cluster = Cluster(
        n_places,
        check_interval_s=0.2,  # the paper's distributed detection period
        publish_interval_s=0.05,
    )
    if checked:
        cluster.start()
    return cluster


def _run_distributed(
    name: str, n_places: int, checked: bool, cluster: Optional[Cluster] = None
) -> WorkloadResult:
    """One validated distributed-kernel run.

    When ``cluster`` is given it must already be configured; otherwise a
    throwaway one is built (tests).  Timing-sensitive callers pass a
    long-lived cluster so that site start/stop never lands in the timed
    region — the tool runs *alongside* the application, as deployed.
    """
    kernel = HPCC_KERNELS[name]
    if cluster is not None:
        return kernel(cluster)
    cluster = make_cluster(n_places, checked)
    try:
        return kernel(cluster)
    finally:
        if checked:
            cluster.stop()


def distributed_comparison(
    n_places: int = 4,
    samples: int = 5,
    kernels: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, object]]:
    """Figure 7: unchecked vs distributed-detection execution time.

    The paper's claim is the *absence of statistical evidence* of
    overhead: the result records whether the two confidence intervals
    overlap.  The checked cluster's publishing/checking loops run for
    the whole measurement (start/stop excluded from the timed region).
    """
    names = list(kernels) if kernels else list(HPCC_KERNELS)
    out: Dict[str, Dict[str, object]] = {}
    plain = make_cluster(n_places, checked=False)
    monitored = make_cluster(n_places, checked=True)
    try:
        for name in names:
            base = measure(
                lambda: _run_distributed(name, n_places, False, plain),
                samples=samples,
                label=f"{name}/unchecked",
            )
            checked = measure(
                lambda: _run_distributed(name, n_places, True, monitored),
                samples=samples,
                label=f"{name}/checked",
            )
            out[name] = {
                "unchecked": base,
                "checked": checked,
                "overhead_pct": relative_overhead(base, checked),
                "ci_overlap": base.overlaps(checked),
            }
    finally:
        monitored.stop()
    return out


# ---------------------------------------------------------------------------
# graph-model choice (Figures 8-9, Table 3)
# ---------------------------------------------------------------------------
COURSE_SIZES: Dict[str, dict] = {
    "SE": {"limit": 50},
    "FI": {"n": 16},
    "FR": {"n": 9},
    "BFS": {"n_nodes": 48},
    "PS": {"n_tasks": 32},
    # Beyond the paper's five: point-to-point phaser synchronisation
    # (Shirako et al.), the cited WFG-favourable regime.
    "PT2PT": {"n_tasks": 16},
}

#: The selection modes compared in Figures 8-9 and Table 3.
SELECTIONS: Dict[str, Optional[GraphModel]] = {
    "Unchecked": None,
    "Auto": GraphModel.AUTO,
    "SG": GraphModel.SG,
    "WFG": GraphModel.WFG,
}


def run_course_kernel(
    name: str,
    mode: str = "off",
    model: GraphModel = GraphModel.AUTO,
    interval_s: float = 0.02,
) -> Tuple[WorkloadResult, ArmusRuntime]:
    """One run of a course program; returns the runtime for its stats.

    The detection interval is shortened so the short-running course
    programs still receive several detection passes per run (the paper's
    programs run for seconds; ours for tens of milliseconds).
    """
    runtime = make_runtime(mode, model=model, interval_s=interval_s)
    try:
        result = COURSE_KERNELS[name](runtime, **COURSE_SIZES[name])
    finally:
        runtime.stop()
    return result, runtime


def model_choice_comparison(
    mode: str,
    samples: int = 5,
    kernels: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Measurement]]:
    """Figures 8 (mode="avoidance") and 9 (mode="detection")."""
    names = list(kernels) if kernels else list(COURSE_KERNELS)
    out: Dict[str, Dict[str, Measurement]] = {}
    for name in names:
        out[name] = {}
        for label, model in SELECTIONS.items():
            if model is None:
                fn = lambda: run_course_kernel(name, "off")
            else:
                fn = lambda m=model: run_course_kernel(name, mode, model=m)
            out[name][label] = measure(
                fn, samples=samples, label=f"{name}/{label}/{mode}"
            )
    return out


def edge_count_table(
    samples: int = 3,
    kernels: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Table 3: per benchmark per selection mode — average edge count
    (from avoidance-mode checks, which see every blocked state) and the
    relative overheads of avoidance and detection.

    The *SG* and *WFG* rows are graph sizes: a fixed model builds its
    graph on every check.  The *Auto* row is **edges examined per
    check**: an adaptive avoidance check that the store's search
    accepts builds no graph and records the index edges it walked
    (:meth:`repro.core.dependency.ResourceDependency.vet_block`); only
    refusals and full-graph fallbacks record a built graph's size."""
    names = list(kernels) if kernels else list(COURSE_KERNELS)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in names:
        base = measure(
            lambda: run_course_kernel(name, "off"),
            samples=samples,
            label=f"{name}/off",
        )
        out[name] = {}
        for label, model in SELECTIONS.items():
            if model is None:
                continue
            _result, runtime = run_course_kernel(name, "avoidance", model=model)
            edges = runtime.stats.mean_edges
            avoid = measure(
                lambda m=model: run_course_kernel(name, "avoidance", model=m),
                samples=samples,
                label=f"{name}/{label}/avoid",
            )
            detect = measure(
                lambda m=model: run_course_kernel(name, "detection", model=m),
                samples=samples,
                label=f"{name}/{label}/detect",
            )
            out[name][label] = {
                "edges": edges,
                "avoidance_pct": relative_overhead(base, avoid),
                "detection_pct": relative_overhead(base, detect),
            }
    return out


# ---------------------------------------------------------------------------
# ablations (DESIGN.md D1-D2)
# ---------------------------------------------------------------------------
def representation_ablation(n_tasks: int = 8, steps: int = 50) -> Dict[str, int]:
    """D1: bookkeeping traffic of the event-based representation versus
    the membership-tracking baseline, on the SYNC microbenchmark shape.

    The membership tracker pays one global operation per register,
    arrive, block and unblock; the event-based representation pays only
    per block/unblock.  Returns the operation counts.
    """
    from repro.core.baseline import MembershipTracker

    tracker = MembershipTracker()
    tracker.create("bar")
    for t in range(n_tasks):
        tracker.register("bar", f"t{t}")
    for _step in range(steps):
        for t in range(n_tasks):
            tracker.block(f"t{t}", "bar")
            tracker.arrive("bar", f"t{t}")
        # The barrier released everyone (the tracker unblocked them in
        # _maybe_release), but instrumented tasks still emit the unblock
        # notification on wake-up.
        for t in range(n_tasks):
            tracker.unblock(f"t{t}")
    membership_ops = tracker.ops

    # Event-based: one set_blocked + one clear per task per step.
    event_ops = 2 * n_tasks * steps
    return {
        "membership_ops": membership_ops,
        "event_ops": event_ops,
        "ratio": membership_ops / event_ops if event_ops else 0.0,
    }


def threshold_ablation(
    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    kernels: Sequence[str] = ("PS", "FI"),
    samples: int = 3,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """D2: sweep the adaptive SG-abort threshold factor.

    PS (SG-friendly) should be insensitive; FI (WFG-friendly) should pay
    with growing SG edge counts as the threshold loosens.
    """
    out: Dict[str, Dict[float, Dict[str, float]]] = {}
    for name in kernels:
        out[name] = {}
        for factor in factors:
            def run() -> None:
                runtime = ArmusRuntime(
                    mode=VerificationMode.AVOIDANCE,
                    model=GraphModel.AUTO,
                    threshold_factor=factor,
                )
                runtime.start()
                try:
                    COURSE_KERNELS[name](runtime, **COURSE_SIZES[name])
                finally:
                    runtime.stop()
                run.edges = runtime.stats.mean_edges  # type: ignore[attr-defined]

            timing = measure(run, samples=samples, label=f"{name}/f={factor}")
            out[name][factor] = {
                "mean_s": timing.mean,
                "edges": getattr(run, "edges", 0.0),
            }
    return out
