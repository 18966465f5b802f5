"""Process-wide telemetry capture context.

Systems are built deep inside experiment drivers and the sweep runner,
so there is no clean constructor path to hand them a trace sink.
Instead a module-global *active capture* is swapped in by the
:func:`capture` context manager; systems pick it up at construction via
:func:`trace_sink`, and :func:`repro.api.run_workload` reports each
finished run's registry snapshot via :func:`record_run`.

When no capture is active (the default), :func:`trace_sink` returns the
shared :data:`~repro.telemetry.trace.NULL_SINK` and :func:`record_run`
is a cheap no-op -- the disabled path allocates nothing.

Captures only see runs executed in-process: the parallel sweep runner's
worker processes have their own (inactive) globals and cached points
never execute, which is why the CLI forces ``--jobs 1 --no-cache`` when
``--trace``/``--metrics-out`` is requested.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.telemetry.trace import NULL_SINK, NullSink, TraceSink

Sink = Union[NullSink, TraceSink]


class Capture:
    """State collected while a :func:`capture` context is active."""

    def __init__(self, trace: Sink, collect_metrics: bool) -> None:
        self.trace = trace
        #: One entry per completed ``run_workload`` call:
        #: ``{"system": name, "metrics": registry snapshot}``.
        self.runs: List[Dict[str, Any]] = [] if collect_metrics else None

    def record_run(self, system_name: str,
                   snapshot: Dict[str, Any]) -> None:
        if self.runs is not None:
            self.runs.append({"system": system_name, "metrics": snapshot})


_active: Optional[Capture] = None


def trace_sink() -> Sink:
    """The sink newly constructed systems should record into."""
    return _active.trace if _active is not None else NULL_SINK


def record_run(system_name: str, snapshot: Dict[str, Any]) -> None:
    """Report a finished run's metrics snapshot to the active capture."""
    if _active is not None:
        _active.record_run(system_name, snapshot)


@contextmanager
def capture(
    trace: Optional[Sink] = None,
    collect_metrics: bool = False,
) -> Iterator[Capture]:
    """Activate a telemetry capture for the duration of the block.

    ``trace`` is the sink systems built inside the block will record
    into (``None`` keeps tracing disabled).  With ``collect_metrics``,
    every run's registry snapshot is appended to ``capture.runs``.
    Captures do not nest: re-entering replaces the active capture until
    the inner block exits.
    """
    global _active
    cap = Capture(trace if trace is not None else NULL_SINK, collect_metrics)
    previous = _active
    _active = cap
    try:
        yield cap
    finally:
        _active = previous


__all__ = ["Capture", "capture", "record_run", "trace_sink"]
