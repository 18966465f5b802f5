"""The discrete-event simulation engine.

A :class:`Simulator` owns a binary-heap event queue and a monotonically
advancing clock.  Everything in the reproduction -- NIC arrivals, core
completions, NoC message deliveries, the Altocumulus runtime's periodic
ticks -- is an event scheduled on one shared simulator, so causal
ordering across subsystems falls out of the single clock.

Design notes
------------
* Events at equal timestamps fire in scheduling (FIFO) order; a sequence
  number breaks heap ties deterministically, which keeps whole simulations
  reproducible for a fixed seed.
* Cancellation is lazy: a cancelled event stays in the heap but is skipped
  when popped.  This keeps :meth:`Simulator.cancel` O(1), which matters
  because preemptive schedulers cancel completion events frequently.  When
  dead entries come to dominate the heap the simulator compacts it in
  place (see :meth:`Simulator.cancel`), so pathological cancel-heavy
  workloads cannot grow the heap without bound.
* Callbacks run synchronously inside :meth:`Simulator.run` or
  :meth:`Simulator.step`.  A callback may schedule further events
  (including at the current time) but must not schedule into the past,
  and must not call ``run`` or ``step`` itself.

Fast-path engineering (all behavior-preserving)
-----------------------------------------------
The event kernel is the hottest code in the repository -- every simulated
nanosecond flows through it -- so an event costs one small list and one
heap push and pop, and nothing else:

* **The heap entry is the handle.**  An event is the list
  ``[time, seq, fn, args]`` that sits in the heap, and
  :meth:`Simulator.schedule` returns that list as the :data:`Event`
  handle.  ``heapq``'s C implementation orders entries by ``time`` and
  then ``seq``; sequence numbers are unique, so ``fn`` is never compared.
* **One state slot.**  :meth:`Simulator.run` and :meth:`Simulator.step`
  clear the ``fn`` slot just before they call the callback, and
  :meth:`Simulator.cancel` clears it too, so ``fn is None`` means "fired
  or cancelled" and a second cancel, or a cancel after firing, returns at
  once.  A fired entry has already left the heap when its slot is
  cleared, so any entry popped with ``fn is None`` was cancelled.
  Handles are never reused: a handle kept after its event fired cannot
  reach a later event.
* **Monomorphic run loop.**  :meth:`Simulator.run` binds the heap and
  ``heappop`` to locals and inlines the pop path rather than calling
  :meth:`step` per event.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

#: Compaction policy: rebuild the heap once at least this many cancelled
#: entries exist *and* they outnumber the live ones.
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised on invalid simulator operations (e.g. scheduling in the past)."""


#: The opaque handle :meth:`Simulator.schedule` returns: the heap entry
#: ``[time, seq, fn, args]`` itself.  Callers only pass it to
#: :meth:`Simulator.cancel`.
Event = List[Any]


class Simulator:
    """A nanosecond-resolution discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(10.0, hits.append, "a")
    >>> _ = sim.schedule(5.0, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Event] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: Cancelled events still sitting in the heap (exact count).
        self._dead: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        entry = [self.now + delay, seq, fn, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} (now = {self.now}); time is monotonic"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, fn, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice, or after it has fired,
        is a harmless no-op.

        O(1): the entry's callback slot is cleared and the entry is reaped
        when it reaches the top -- or, once dead entries are numerous *and*
        outnumber live ones, by an immediate in-place compaction, keeping
        cancel-heavy simulations (preemptive schedulers) from accumulating
        unbounded garbage.
        """
        if event[2] is None:
            return
        event[2] = None
        dead = self._dead + 1
        self._dead = dead
        if dead >= _COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: :meth:`run` binds the heap list to a local, so
        compaction (triggered by ``cancel`` inside a callback) must mutate
        the same list object rather than rebind ``self._heap``.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if the heap is empty.

        Like :meth:`run`, not reentrant: calling it from inside a callback
        raises :class:`SimulationError` instead of firing the next event
        early and moving the clock under the running callback.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        heap = self._heap
        while heap:
            entry = heappop(heap)
            fn = entry[2]
            if fn is None:
                self._dead -= 1
                continue
            entry[2] = None
            self.now = entry[0]
            self._events_processed += 1
            self._running = True
            try:
                fn(*entry[3])
            finally:
                self._running = False
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, the clock passes ``until``, or
        ``max_events`` callbacks have executed.

        ``until`` is inclusive: an event scheduled exactly at ``until``
        still fires.

        Clock-advance contract: the clock is clamped forward to ``until``
        only when every event at or before ``until`` actually ran -- the
        heap drained, or the next pending event lies beyond ``until`` --
        so periodic processes observe a consistent end time.  When the
        run is cut short, by :meth:`stop` or by the ``max_events``
        budget, the clock stays at the last executed event: pending work
        at or before ``until`` has *not* happened, and pretending time
        passed it would let callers mistake a truncated run for a
        completed one.  ``max_events`` takes precedence when the budget
        is exhausted exactly as the heap drains.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        limit_hit = False
        # Local bindings for the hot loop.
        heap = self._heap
        pop = heappop
        horizon = until if until is not None else float("inf")
        budget = max_events if max_events is not None else -1
        try:
            while heap:
                if self._stopped:
                    break
                if executed == budget:
                    limit_hit = True
                    break
                entry = heap[0]
                fn = entry[2]
                if fn is None:
                    pop(heap)
                    self._dead -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                entry[2] = None
                self.now = time
                self._events_processed += 1
                fn(*entry[3])
                executed += 1
            else:
                # Loop fell through: drained.  A drained heap still
                # counts as limit-exhausted when the last executed event
                # spent the budget.
                limit_hit = executed == budget >= 0
            if until is not None and not self._stopped and not limit_hit:
                if self.now < until:
                    self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been requested for the active run."""
        return self._stopped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still in the heap, *including* lazily-cancelled
        entries that have not been reaped yet.

        Cancellation only clears an entry's callback (see :meth:`cancel`),
        so this gauges heap memory, not future work.  Use
        :attr:`pending_active` for the number of events that will
        actually fire.
        """
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Number of live (non-cancelled) events awaiting execution."""
        return len(self._heap) - self._dead

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far."""
        return self._events_processed

    def register_metrics(self, registry, prefix: str = "sim") -> None:
        """Expose clock and heap state as bound telemetry gauges.

        The instruments read live attributes at snapshot time; nothing
        is added to the event loop itself.
        """
        registry.gauge(f"{prefix}.now_ns", fn=lambda: self.now)
        registry.counter(
            f"{prefix}.events_processed", fn=lambda: self._events_processed
        )
        registry.gauge(f"{prefix}.heap_pending", fn=lambda: len(self._heap))
        registry.gauge(
            f"{prefix}.heap_pending_active",
            fn=lambda: len(self._heap) - self._dead,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.1f}ns pending={self.pending}>"
