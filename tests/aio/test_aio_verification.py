"""Verified asyncio runs: avoidance, detection, recording, and the
ISSUE's ≥1000-task acceptance scenario.

The acceptance criterion, verbatim: an asyncio scenario with ≥ 1000
tasks runs to a verified deadlock report (avoidance and detection
modes), and its recorded trace replays byte-identically to the live
report through ``python -m repro.trace replay``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio.scenarios import crossed_pair, phaser_ring
from repro.core.report import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    DeadlockError,
)
from repro.runtime.verifier import ArmusRuntime, VerificationMode
from repro.trace.cli import main as trace_cli
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay

#: The acceptance floor.
N_TASKS = 1000


def run_ring(runtime, n_tasks):
    """Drive a ring to termination; returns per-task outcomes."""

    async def main():
        tasks = phaser_ring(runtime, n_tasks)
        outcomes = []
        for t in tasks:
            try:
                await t.wait(60)
                outcomes.append("clean")
            except DeadlockError as err:
                outcomes.append(err)
        return outcomes

    return asyncio.run(main())


class TestSmallRing:
    def test_detection_reports_full_cycle(self):
        runtime = ArmusRuntime(
            mode=VerificationMode.DETECTION, interval_s=0.02
        ).start()
        try:
            outcomes = run_ring(runtime, 40)
        finally:
            runtime.stop()
        assert len(runtime.reports) == 1
        assert len(runtime.reports[0].tasks) == 40
        assert any(isinstance(o, DeadlockDetectedError) for o in outcomes)

    def test_avoidance_refuses_knot_closing_block(self):
        runtime = ArmusRuntime(mode=VerificationMode.AVOIDANCE).start()
        try:
            outcomes = run_ring(runtime, 40)
        finally:
            runtime.stop()
        avoided = [o for o in outcomes if isinstance(o, DeadlockAvoidedError)]
        assert len(avoided) == 1
        assert avoided[0].report.avoided
        # Everyone else unwinds cleanly once the doomed task deregisters.
        assert outcomes.count("clean") == 39

    def test_crossed_pair_avoidance_is_deterministic(self):
        runtime = ArmusRuntime(mode=VerificationMode.AVOIDANCE).start()
        try:

            async def main():
                t1, t2 = crossed_pair(runtime)
                await t1.wait(10)
                with pytest.raises(DeadlockAvoidedError):
                    await t2.wait(10)

            asyncio.run(main())
        finally:
            runtime.stop()
        assert len(runtime.reports) == 1


class TestRecordedRing:
    """Live aio runs record the standard trace format; offline replay
    reproduces the live verdict and report."""

    @pytest.mark.parametrize("mode", ["detection", "avoidance"])
    def test_replay_matches_live_report(self, tmp_path, mode):
        recorder = TraceRecorder(
            meta={"scenario": "aio-ring", "expect_deadlock": True}
        )
        runtime = ArmusRuntime(
            mode=VerificationMode(mode), interval_s=0.02, recorder=recorder
        ).start()
        try:
            run_ring(runtime, 30)
        finally:
            runtime.stop()
        assert len(runtime.reports) == 1
        for suffix in (".jsonl", ".trace"):
            path = recorder.save(tmp_path / f"ring{suffix}")
            outcome = replay(path, mode=mode)
            assert [r.describe() for r in outcome.reports] == [
                runtime.reports[0].describe()
            ]


class TestThousandTaskAcceptance:
    def _run(self, mode, tmp_path, capsys):
        recorder = TraceRecorder(
            meta={"scenario": f"aio-ring-{N_TASKS}", "expect_deadlock": True}
        )
        runtime = ArmusRuntime(
            mode=VerificationMode(mode),
            interval_s=0.05,
            recorder=recorder,
        ).start()
        try:
            outcomes = run_ring(runtime, N_TASKS)
        finally:
            runtime.stop()
        # Every task terminated; at least one observed the report.
        assert len(outcomes) == N_TASKS
        assert any(isinstance(o, DeadlockError) for o in outcomes)
        assert len(runtime.reports) == 1
        live = runtime.reports[0]

        # Offline: the recorded trace replays to the same report...
        path = recorder.save(tmp_path / "ring.trace")
        outcome = replay(path, mode=mode)
        assert [r.describe() for r in outcome.reports] == [live.describe()]

        # ...and the CLI's replay output carries it byte-identically.
        assert trace_cli(["replay", str(path), "--mode", mode]) == 0
        assert live.describe() in capsys.readouterr().out
        return live

    def test_detection_thousand_tasks(self, tmp_path, capsys):
        live = self._run("detection", tmp_path, capsys)
        assert len(live.tasks) == N_TASKS

    def test_avoidance_thousand_tasks(self, tmp_path, capsys):
        live = self._run("avoidance", tmp_path, capsys)
        assert live.avoided
        assert len(live.tasks) == N_TASKS

