"""Queue-length pattern classification (Sec. VI).

Every period, each manager looks at the synchronized queue-length
vector ``q`` and classifies it:

* **Hill** -- the longest queue towers over the second longest by more
  than ``Bulk``: the peak manager scatters work to the shorter queues.
* **Valley** -- the shortest queue undercuts the second shortest by
  more than ``Bulk``: every other manager sends one MIGRATE to fill it.
* **Pairing** -- a gradual slope (spread > ``Bulk`` without a single
  peak/dip): the i-th longest queue pairs with the i-th shortest.
* **Balanced** -- nothing to do.

Because ``q`` is synchronized via UPDATE broadcasts, all managers
classify identically and the per-manager plans compose into a global
migration round without any central coordinator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence


class Pattern(enum.Enum):
    """Queue-length vector shapes the runtime classifies."""
    HILL = "hill"
    VALLEY = "valley"
    PAIRING = "pairing"
    BALANCED = "balanced"


@dataclass(frozen=True)
class MigrationPlan:
    """What one manager should do this period.

    ``destinations`` is the ``QD`` vector of Algorithm 1: the manager
    sends one MIGRATE of ``Bulk / Concurrency`` descriptors to each
    entry (subject to the line-8 guard, applied later against live
    queue lengths).
    """

    pattern: Pattern
    destinations: List[int]

    @property
    def migrates(self) -> int:
        return len(self.destinations)


def classify_pattern(q: Sequence[int], bulk: int) -> Pattern:
    """Classify a queue-length vector (identical on every manager)."""
    if bulk <= 0:
        raise ValueError(f"bulk must be positive, got {bulk}")
    if len(q) < 2:
        return Pattern.BALANCED
    return _classify_ranked(q, _ranked(q), bulk)


def _classify_ranked(q: Sequence[int], ranked: Sequence[int], bulk: int) -> Pattern:
    """Classification given the longest-first index ranking.

    Split out so :func:`migration_plan` can classify from the ranking it
    already computed instead of sorting the vector a second time.
    ``q[ranked[i]]`` *is* ``sorted(q, reverse=True)[i]``, so the result
    is identical to :func:`classify_pattern`.
    """
    longest, second_longest = q[ranked[0]], q[ranked[1]]
    shortest, second_shortest = q[ranked[-1]], q[ranked[-2]]
    if longest - second_longest > bulk:
        return Pattern.HILL
    if second_shortest - shortest > bulk:
        return Pattern.VALLEY
    if longest - shortest > bulk:
        return Pattern.PAIRING
    return Pattern.BALANCED


def _ranked(q: Sequence[int]) -> List[int]:
    """Queue indices sorted longest-first, index as tiebreak (stable and
    identical across managers)."""
    # sort is stable, so reverse=True on the value key keeps ascending
    # index order within equal values -- same ordering as the tuple key
    # (-q[i], i), without building a tuple per element.
    return sorted(range(len(q)), key=q.__getitem__, reverse=True)


def migration_plan(
    q: Sequence[int],
    self_index: int,
    bulk: int,
    concurrency: int,
    threshold: float = float("inf"),
) -> MigrationPlan:
    """Algorithm 1's ``predict()``: this manager's destinations.

    Triggers when either (1) the local queue exceeds the threshold ``T``
    or (2) the vector matches a pattern.  Destinations are capped at
    ``concurrency`` concurrent flows.
    """
    if not 0 <= self_index < len(q):
        raise ValueError(f"self_index {self_index} out of range for {len(q)} queues")
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    n = len(q)
    if n < 2:
        return MigrationPlan(Pattern.BALANCED, [])
    if bulk <= 0:
        raise ValueError(f"bulk must be positive, got {bulk}")
    # HILL, VALLEY and PAIRING each need two entries more than ``bulk``
    # apart, so a spread within ``bulk`` is BALANCED; below the threshold
    # that means nothing to send -- the common tick, decided in O(n)
    # without ranking the vector.
    if q[self_index] <= threshold and max(q) - min(q) <= bulk:
        return MigrationPlan(Pattern.BALANCED, [])
    ranked = _ranked(q)
    pattern = _classify_ranked(q, ranked, bulk)
    threshold_hit = q[self_index] > threshold

    if pattern is Pattern.HILL:
        if ranked[0] == self_index:
            dests = [i for i in reversed(ranked) if i != self_index]
            return MigrationPlan(pattern, dests[:concurrency])
        # Not the peak: still honour a threshold breach below.
    elif pattern is Pattern.VALLEY:
        lowest = ranked[-1]
        if self_index != lowest:
            return MigrationPlan(pattern, [lowest])
        return MigrationPlan(pattern, [])
    elif pattern is Pattern.PAIRING:
        # The i-th longest queue pairs with the i-th shortest; only the
        # top half (and at most `concurrency` pairs) send.
        pairs = min(concurrency, n // 2)
        for rank in range(pairs):
            src = ranked[rank]
            dst = ranked[n - 1 - rank]
            if src == self_index and src != dst and q[src] > q[dst]:
                return MigrationPlan(pattern, [dst])
        # fall through to threshold check

    if threshold_hit:
        dests = [i for i in reversed(ranked) if i != self_index]
        return MigrationPlan(pattern, dests[:concurrency])
    return MigrationPlan(pattern, [])


def migrate_size(bulk: int, concurrency: int) -> int:
    """Descriptors per MIGRATE message: ``S = Bulk / Concurrency``
    (at least one)."""
    if bulk <= 0 or concurrency <= 0:
        raise ValueError("bulk and concurrency must be positive")
    return max(1, bulk // concurrency)
