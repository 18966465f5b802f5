"""Unit and property tests for queue-pattern classification (Sec. VI)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    MigrationPlan,
    Pattern,
    classify_pattern,
    migrate_size,
    migration_plan,
)


class TestClassification:
    def test_hill(self):
        # Longest exceeds second-longest by more than Bulk.
        assert classify_pattern([30, 30, 70, 30], 16) is Pattern.HILL

    def test_walkthrough_example_is_hill(self):
        # Sec. VI walk-through: Bulk=40, q=[30,30,70,30] -> Hill.
        # (70 - 30 = 40 is not > 40, so use the paper's spirit with a
        # slightly deeper peak.)
        assert classify_pattern([30, 30, 75, 30], 40) is Pattern.HILL

    def test_valley(self):
        assert classify_pattern([50, 50, 50, 10], 16) is Pattern.VALLEY

    def test_pairing_gradual_slope(self):
        # No neighbouring gap exceeds Bulk (so neither Hill nor Valley),
        # but the overall spread does: gradual imbalance -> Pairing.
        q = [60, 50, 40, 30]
        assert classify_pattern(q, 16) is Pattern.PAIRING

    def test_hill_takes_precedence_over_gradient(self):
        # The paper's rules check Hill first: a peak more than Bulk above
        # the runner-up is a Hill even on an otherwise gradual slope.
        assert classify_pattern([80, 60, 40, 20], 16) is Pattern.HILL

    def test_balanced(self):
        assert classify_pattern([50, 52, 49, 51], 16) is Pattern.BALANCED

    def test_single_queue_is_balanced(self):
        assert classify_pattern([100], 16) is Pattern.BALANCED

    def test_invalid_bulk(self):
        with pytest.raises(ValueError):
            classify_pattern([1, 2], 0)


class TestMigrationPlan:
    def test_hill_peak_scatters_to_shortest(self):
        q = [30, 30, 70, 30]
        plan = migration_plan(q, self_index=2, bulk=16, concurrency=4)
        assert plan.pattern is Pattern.HILL
        assert set(plan.destinations) == {0, 1, 3}

    def test_hill_non_peak_does_nothing(self):
        q = [30, 30, 70, 30]
        plan = migration_plan(q, self_index=0, bulk=16, concurrency=4)
        assert plan.destinations == []

    def test_hill_concurrency_caps_destinations(self):
        q = [10, 10, 70, 10, 10]
        plan = migration_plan(q, self_index=2, bulk=16, concurrency=2)
        assert len(plan.destinations) == 2
        # The two shortest are preferred.
        assert set(plan.destinations) <= {0, 1, 3, 4}

    def test_valley_everyone_feeds_the_dip(self):
        q = [50, 50, 50, 10]
        for idx in (0, 1, 2):
            plan = migration_plan(q, self_index=idx, bulk=16, concurrency=4)
            assert plan.destinations == [3]
        assert migration_plan(q, 3, 16, 4).destinations == []

    def test_pairing_matches_ranks(self):
        q = [60, 50, 40, 30]
        assert migration_plan(q, 0, 16, 4).destinations == [3]
        assert migration_plan(q, 1, 16, 4).destinations == [2]
        # Bottom-half queues don't send.
        assert migration_plan(q, 3, 16, 4).destinations == []

    def test_threshold_breach_triggers_without_pattern(self):
        q = [50, 52, 49, 51]  # balanced
        plan = migration_plan(q, self_index=1, bulk=16, concurrency=2,
                              threshold=40.0)
        assert plan.destinations != []
        assert 1 not in plan.destinations

    def test_no_trigger_below_threshold_when_balanced(self):
        q = [50, 52, 49, 51]
        plan = migration_plan(q, 1, 16, 2, threshold=100.0)
        assert plan.destinations == []

    def test_validation(self):
        with pytest.raises(ValueError):
            migration_plan([1, 2], self_index=5, bulk=16, concurrency=1)
        with pytest.raises(ValueError):
            migration_plan([1, 2], 0, 16, 0)


class TestMigrateSize:
    def test_bulk_split_across_concurrency(self):
        assert migrate_size(40, 4) == 10  # walk-through example
        assert migrate_size(16, 8) == 2

    def test_at_least_one(self):
        assert migrate_size(4, 8) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            migrate_size(0, 1)


@settings(max_examples=150, deadline=None)
@given(
    q=st.lists(st.integers(0, 500), min_size=2, max_size=16),
    bulk=st.integers(1, 64),
    concurrency=st.integers(1, 8),
)
def test_plan_invariants(q, bulk, concurrency):
    """Properties of any plan: no self-destinations, destination count
    bounded by concurrency, and classification agrees across managers."""
    patterns = set()
    for idx in range(len(q)):
        plan = migration_plan(q, idx, bulk, concurrency)
        assert idx not in plan.destinations
        assert len(plan.destinations) <= max(concurrency, 1)
        assert len(set(plan.destinations)) == len(plan.destinations)
        patterns.add(classify_pattern(q, bulk))
    assert len(patterns) == 1  # all managers classify identically


def _reference_migration_plan(q, self_index, bulk, concurrency,
                              threshold=float("inf")):
    """``migration_plan`` as it was before the balanced short-circuit:
    always ranks the vector and classifies from the ranking."""
    n = len(q)
    ranked = sorted(range(n), key=q.__getitem__, reverse=True)
    longest, second_longest = q[ranked[0]], q[ranked[1]]
    shortest, second_shortest = q[ranked[-1]], q[ranked[-2]]
    if longest - second_longest > bulk:
        pattern = Pattern.HILL
    elif second_shortest - shortest > bulk:
        pattern = Pattern.VALLEY
    elif longest - shortest > bulk:
        pattern = Pattern.PAIRING
    else:
        pattern = Pattern.BALANCED
    threshold_hit = q[self_index] > threshold

    if pattern is Pattern.HILL:
        if ranked[0] == self_index:
            dests = [i for i in reversed(ranked) if i != self_index]
            return MigrationPlan(pattern, dests[:concurrency])
    elif pattern is Pattern.VALLEY:
        lowest = ranked[-1]
        if self_index != lowest:
            return MigrationPlan(pattern, [lowest])
        return MigrationPlan(pattern, [])
    elif pattern is Pattern.PAIRING:
        pairs = min(concurrency, n // 2)
        for rank in range(pairs):
            src = ranked[rank]
            dst = ranked[n - 1 - rank]
            if src == self_index and src != dst and q[src] > q[dst]:
                return MigrationPlan(pattern, [dst])

    if threshold_hit:
        dests = [i for i in reversed(ranked) if i != self_index]
        return MigrationPlan(pattern, dests[:concurrency])
    return MigrationPlan(pattern, [])


@settings(max_examples=400, deadline=None)
@given(
    q=st.lists(st.integers(0, 60), min_size=2, max_size=16),
    concurrency=st.integers(1, 8),
    data=st.data(),
)
def test_balanced_short_circuit_matches_reference(q, concurrency, data):
    """The O(n) balanced short-circuit returns exactly the plan the
    full ranking did, for every threshold including the boundary ones.
    ``bulk`` is drawn around the vector's spread half the time, so the
    ``spread == bulk`` edge is exercised."""
    spread = max(q) - min(q)
    bulk = data.draw(
        st.one_of(st.integers(1, 64),
                  st.integers(max(1, spread - 1), max(1, spread + 1))),
        label="bulk",
    )
    self_index = data.draw(st.integers(0, len(q) - 1), label="self_index")
    own = q[self_index]
    threshold = data.draw(
        st.one_of(
            st.sampled_from([float("inf"), own, own - 1, own + 1]),
            st.floats(-1.0, 70.0, allow_nan=False),
        ),
        label="threshold",
    )
    assert migration_plan(q, self_index, bulk, concurrency, threshold) == (
        _reference_migration_plan(q, self_index, bulk, concurrency, threshold)
    )
