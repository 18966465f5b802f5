"""Multi-seed statistics for simulation studies.

One seed is an anecdote.  These helpers run a measurement across seeds
and report mean, standard deviation and a Student-t confidence interval
-- the minimum honest reporting for any number that goes in a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence


@dataclass(frozen=True)
class SeedSweepResult:
    """Aggregate of one metric measured across seeds."""

    values: tuple
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (f"{self.mean:.4g} +/- {self.ci_half_width:.2g} "
                f"({self.confidence:.0%} CI, n={self.n})")


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> SeedSweepResult:
    """Student-t confidence interval for the mean of ``values``."""
    if len(values) < 2:
        raise ValueError("need at least two values for an interval")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(variance)
    # Deferred: importing scipy.stats costs ~1 s and ~55 MiB; no simulation run needs it.
    from scipy import stats as scipy_stats

    t_crit = float(scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1))
    half = t_crit * std / math.sqrt(n)
    return SeedSweepResult(
        values=tuple(values),
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        confidence=confidence,
    )


def seed_sweep(
    measure: Callable[[int], float],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> SeedSweepResult:
    """Run ``measure(seed)`` for each seed and aggregate.

    >>> result = seed_sweep(lambda s: float(s % 3), seeds=range(6))
    >>> result.n
    6
    """
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")
    values: List[float] = [float(measure(seed)) for seed in seeds]
    return confidence_interval(values, confidence)


def overlapping(a: SeedSweepResult, b: SeedSweepResult) -> bool:
    """Do two confidence intervals overlap?  (A non-overlap is the
    usual quick screen for 'this difference is probably real'.)"""
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high
