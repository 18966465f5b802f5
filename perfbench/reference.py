"""Host-speed reference: fixed pure-Python work timed in every round.

The host this benchmark was written on (a 2-vCPU KVM guest sharing its
machine) runs the same Python code up to 1.7x slower for minutes at a
time.  Wall-time metrics of one run swing by ~30 % with those regimes,
far beyond any useful regression bound.  ``run.py`` therefore has
each round time :func:`reference_s` in its own process twice -- before
it imports the package, and right after the simulation -- and rescales
the round's host times to a nominal host speed.  (The worker reads its
peak RSS before the second call: the table kernel allocates ~30 MB.)

The reference is two kernels whose slowdowns bracket the simulator's:
a small-footprint event loop (heap + random draws + dict updates,
slowed more than the simulator by the slow regimes) and a loop over a
large table of slotted objects (slowed less).  Their geometric mean
tracks the simulator's regime shifts; on the host above it cut the
run-to-run spread of simulated requests per second (quartile distance
over median, ten 35-second runs) from ~30 % to 2.5-7.6 %.  Nothing
here touches the package under test, so a change to ``src/`` cannot
move the reference.
"""

from __future__ import annotations

import heapq
import math
import random
import time

#: A typical ``reference_s()`` on the host above (seconds).
#: Only a scale: rescaled host times read as if measured at this speed.
NOMINAL_S = 0.2


def _event_loop(n: int = 40_000) -> int:
    """A tiny 4-server queue simulation on a binary heap."""
    rng = random.Random(12345)
    heap = [(0.0, 0, "arrival")]
    seq = 1
    busy = 0
    waiting = []
    done = 0
    totals = {}
    while done < n:
        t, _, kind = heapq.heappop(heap)
        if kind == "arrival":
            heapq.heappush(heap, (t + rng.expovariate(1.0), seq, "arrival"))
            seq += 1
            if busy < 4:
                busy += 1
                heapq.heappush(heap, (t + rng.expovariate(0.3), seq, "done"))
                seq += 1
            else:
                waiting.append(t)
        else:
            done += 1
            totals[done % 97] = totals.get(done % 97, 0.0) + t
            if waiting:
                waiting.pop(0)
                heapq.heappush(heap, (t + rng.expovariate(0.3), seq, "done"))
                seq += 1
            else:
                busy -= 1
    return done


class _Row:
    __slots__ = ("key", "value", "touched")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = float(key)
        self.touched = -1


def _table_walk(n: int = 60_000, size: int = 200_000) -> float:
    """Heap-ordered random updates over a table of ~25 MB: too large
    for the caches, which is what makes its slowdowns differ from the
    event loop's."""
    rng = random.Random(7)
    rows = [_Row(i) for i in range(size)]
    heap = [(rng.random(), i, rows[i]) for i in range(0, size, 97)]
    heapq.heapify(heap)
    acc = 0.0
    for k in range(n):
        t, _, row = heapq.heappop(heap)
        row.value += t
        row.touched = k
        other = rows[rng.randrange(size)]
        acc += other.value
        heapq.heappush(heap, (t + rng.random(), size + k, other))
    return acc


def reference_s() -> float:
    """Geometric mean of the two kernels' wall times (seconds)."""
    times = []
    for kernel in (_event_loop, _table_walk):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return math.sqrt(times[0] * times[1])


if __name__ == "__main__":
    print(f"reference_s = {reference_s():.4f} s (nominal {NOMINAL_S} s)")
