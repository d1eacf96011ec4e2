"""Multi-process corpus prediction with deterministic merging.

The predict caller of :func:`repro.trace.parallel.run_corpus`: one
worker predicts over one trace file, and everything a golden pins
(per-file outcomes, predictions, rendered provenance, non-volatile
metrics) is byte-identical for any ``processes`` value — only
``duration_s`` changes.  Pinned by the predict CLI golden, which CI
diffs between ``--parallel 1`` and ``--parallel 4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from repro.predict.candidates import MAX_CANDIDATES
from repro.predict.engine import PREDICTED, PredictResult, Predictor
from repro.trace.codec import PathLike, load_trace
from repro.trace.parallel import CorpusEntry, CorpusResult, run_corpus


@dataclass
class PredictEntry(CorpusEntry):
    """One file's prediction outcome inside a corpus run; the expected
    verdict is ``expect_prediction`` (the NearMiss family stamps it)."""

    expect_key = "expect_prediction"

    @property
    def observed(self) -> bool:
        return self.result.outcome == PREDICTED


@dataclass
class CorpusPredictResult(CorpusResult):
    """The merged outcome of predicting over a corpus."""

    entry_type = PredictEntry

    @property
    def candidates_scanned(self) -> int:
        return sum(e.result.candidates_scanned for e in self.entries)

    @property
    def confirmed(self) -> int:
        return sum(len(e.result.confirmed) for e in self.entries)

    @property
    def refuted(self) -> int:
        return sum(e.result.refuted for e in self.entries)


def _predict_one(args: Tuple[str, int]) -> Tuple[dict, PredictResult]:
    """Worker body: predict over one file; module-level picklable."""
    path, max_candidates = args
    trace = load_trace(path)
    predictor = Predictor(max_candidates=max_candidates)
    return dict(trace.header.meta), predictor.predict(trace)


def predict_corpus(
    sources: Union[PathLike, Sequence[PathLike]],
    max_candidates: int = MAX_CANDIDATES,
    processes: int = 1,
) -> CorpusPredictResult:
    """Predict over every trace under ``sources``.

    ``processes <= 1`` is the serial reference; any N merges to the
    identical result (minus wall clock).
    """
    return run_corpus(
        sources,
        _predict_one,
        lambda path: (path, max_candidates),
        CorpusPredictResult(processes=max(1, processes)),
    )


__all__ = ["CorpusPredictResult", "PredictEntry", "predict_corpus"]
