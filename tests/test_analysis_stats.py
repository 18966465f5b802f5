"""Unit tests for multi-seed statistics."""

import pytest

from repro.analysis.stats import (
    SeedSweepResult,
    confidence_interval,
    overlapping,
    seed_sweep,
)


class TestConfidenceInterval:
    def test_mean_and_symmetry(self):
        result = confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert result.mean == 3.0
        assert result.ci_low < 3.0 < result.ci_high
        assert (3.0 - result.ci_low) == pytest.approx(result.ci_high - 3.0)

    def test_zero_variance_collapses(self):
        result = confidence_interval([7.0, 7.0, 7.0])
        assert result.std == 0.0
        assert result.ci_low == result.ci_high == 7.0

    def test_more_samples_tighter_interval(self):
        wide = confidence_interval([1.0, 5.0])
        narrow = confidence_interval([1.0, 5.0] * 10)
        assert narrow.ci_half_width < wide.ci_half_width

    def test_higher_confidence_wider(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert confidence_interval(values, 0.99).ci_half_width > (
            confidence_interval(values, 0.90).ci_half_width
        )

    def test_student_t_critical_value(self):
        # std of 1..5 is sqrt(2.5); t(0.975, df=4) = 2.7764451051977934.
        result = confidence_interval([1, 2, 3, 4, 5])
        assert result.ci_half_width == pytest.approx(1.9632431614775572, rel=1e-12)
        # std of (1, 2, 3) is 1; t(0.995, df=2) = 9.924843200918287.
        result = confidence_interval([1.0, 2.0, 3.0], confidence=0.99)
        assert result.ci_half_width == pytest.approx(
            9.924843200918287 / (3 ** 0.5), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.0)


class TestSeedSweep:
    def test_runs_measure_per_seed(self):
        seen = []

        def measure(seed):
            seen.append(seed)
            return float(seed)

        result = seed_sweep(measure, seeds=[1, 2, 3])
        assert seen == [1, 2, 3]
        assert result.mean == 2.0
        assert result.n == 3

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            seed_sweep(lambda s: 0.0, seeds=[1])

    def test_simulation_sweep_end_to_end(self):
        """p50 latency of a low-load system is seed-stable: a tight CI
        around delivery + service."""
        from repro.api import quick_run
        from repro.workload.service import Fixed

        def p50(seed):
            return quick_run(system="cfcfs", n_cores=8, rate_rps=1e5,
                             n_requests=2_000, seed=seed,
                             service=Fixed(500.0)).latency.p50

        result = seed_sweep(p50, seeds=[1, 2, 3, 4])
        assert result.mean == pytest.approx(530.0, abs=5.0)
        assert result.ci_half_width < 5.0


class TestOverlap:
    def _fixed(self, low, high):
        mid = (low + high) / 2
        return SeedSweepResult((low, high), mid, 0.0, low, high, 0.95)

    def test_overlapping_intervals(self):
        assert overlapping(self._fixed(1, 3), self._fixed(2, 4))
        assert overlapping(self._fixed(2, 4), self._fixed(1, 3))

    def test_disjoint_intervals(self):
        assert not overlapping(self._fixed(1, 2), self._fixed(3, 4))
