"""Shared fixtures: isolated runtimes with guaranteed teardown.

Deadlock tests intentionally block threads; every runtime is created
through the ``runtime_factory`` fixture so monitors are stopped and
detection is fast regardless of test outcome.  Threads themselves are
daemons and cannot outlive the process.
"""

from __future__ import annotations

import pytest

from repro.core.selection import GraphModel
from repro.runtime.phaser import Phaser
from repro.runtime.verifier import ArmusRuntime, VerificationMode


@pytest.fixture
def runtime_factory():
    """Create runtimes with a fast detection period; stop them all
    afterwards."""
    created = []

    def make(
        mode: str = "off",
        model: GraphModel = GraphModel.AUTO,
        interval_s: float = 0.02,
        **kwargs,
    ) -> ArmusRuntime:
        runtime = ArmusRuntime(
            mode=VerificationMode(mode),
            model=model,
            interval_s=interval_s,
            **kwargs,
        )
        runtime.start()
        created.append(runtime)
        return runtime

    yield make
    for runtime in created:
        runtime.stop()


@pytest.fixture
def detection_runtime(runtime_factory):
    return runtime_factory("detection")


@pytest.fixture
def avoidance_runtime(runtime_factory):
    return runtime_factory("avoidance")


@pytest.fixture
def off_runtime(runtime_factory):
    return runtime_factory("off")


@pytest.fixture
def predicate_evaluations(monkeypatch):
    """Count the predicate evaluations of every phaser wait built from
    now on: one list item per evaluation (``list.append`` is atomic
    across threads)."""
    evaluations: list = []
    build = Phaser._await_spec

    def counted(self, phase=None):
        spec = build(self, phase)
        predicate = spec.predicate

        def wrapped() -> bool:
            evaluations.append(None)
            return predicate()

        spec.predicate = wrapped
        return spec

    monkeypatch.setattr(Phaser, "_await_spec", counted)
    return evaluations
