"""Measurement methodology (Section 6, "start-up performance").

The paper follows Georges, Buytaert & Eeckhout (OOPSLA'07): take 31
samples of the execution time, discard the first (JIT/warm-up), report
the mean of the remaining 30 with a 95% confidence interval computed
with the standard normal z-statistic.  We keep the method and make the
sample count a parameter (the quick profiles use fewer samples; the
full profile restores 31).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List

#: z-value for a two-sided 95% confidence interval.
Z_95 = 1.959963984540054


@dataclass
class Measurement:
    """Mean execution time with a 95% confidence interval."""

    label: str
    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def std(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((s - mu) ** 2 for s in self.samples) / (n - 1))

    @property
    def ci95(self) -> float:
        """Half-width of the 95% CI (z-statistic, as in the paper)."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        return Z_95 * self.std / math.sqrt(n)

    def overlaps(self, other: "Measurement") -> bool:
        """Whether the two CIs overlap — the paper's criterion for "no
        statistical evidence of an execution overhead" (Figure 7)."""
        lo1, hi1 = self.mean - self.ci95, self.mean + self.ci95
        lo2, hi2 = other.mean - other.ci95, other.mean + other.ci95
        return hi1 >= lo2 and hi2 >= lo1

    def __str__(self) -> str:
        return f"{self.label}: {self.mean * 1e3:.1f}ms ±{self.ci95 * 1e3:.1f}"


def measure(
    fn: Callable[[], object],
    samples: int = 31,
    discard_first: bool = True,
    label: str = "",
) -> Measurement:
    """Time ``fn`` per the start-up methodology.

    ``samples`` counts *collected* runs; with ``discard_first`` (the
    default, as in the paper) one extra run happens first and is thrown
    away.
    """
    if discard_first:
        fn()
    out = Measurement(label=label)
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        out.samples.append(time.perf_counter() - t0)
    return out


def relative_overhead(base: Measurement, checked: Measurement) -> float:
    """Relative runtime overhead in percent (Tables 1-3 report these;
    negative values are measurement noise, which the paper also shows)."""
    if base.mean == 0.0:
        return 0.0
    return (checked.mean - base.mean) / base.mean * 100.0
