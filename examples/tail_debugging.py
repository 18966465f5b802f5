#!/usr/bin/env python3
"""Debugging a latency tail with per-request phase marks.

Percentiles tell you a tail exists; phase marks tell you *why*.  This
example runs an 8-core Altocumulus server under a dispersive workload
inside a :func:`~repro.telemetry.capture` with a
:class:`~repro.telemetry.TraceSink`, then prints the phase marks of the
slowest requests: each mark is the instant the request entered that
phase, so the gap before the next mark is the time spent in it.

Usage::

    python examples/tail_debugging.py
"""

from repro.api import build_system, run_workload
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import TraceSink, capture
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Bimodal


def main() -> None:
    service = Bimodal(500.0, 200_000.0, 0.005)  # 0.5% x 200 us longs
    with capture(trace=TraceSink(capacity=500_000)) as cap:
        sim, streams = Simulator(), RandomStreams(31)
        system = build_system("altocumulus", sim, streams, 8)
        result = run_workload(
            system, sim, streams,
            PoissonArrivals(0.6 * 8 / service.mean * 1e9), service,
            n_requests=30_000,
        )
    print(f"p50 = {result.latency.p50 / 1000:.2f} us, "
          f"p99 = {result.latency.p99 / 1000:.2f} us, "
          f"max = {result.latency.maximum / 1000:.2f} us\n")
    print("The three slowest requests, phase by phase:\n")
    marks = cap.trace.marks_by_request()
    slowest = sorted(result.requests, key=lambda r: r.latency, reverse=True)
    for request in slowest[:3]:
        print(f"request #{request.req_id} on core {request.core_id} "
              f"(service {request.service_time / 1000:.2f} us, "
              f"{request.latency / 1000:.2f} us end to end)")
        t0 = marks[request.req_id][0][1]
        for phase, t in marks[request.req_id]:
            print(f"  +{(t - t0) / 1000:10.3f} us  {phase}")
        print()
    print(
        "Reading the marks: a short's long gap between 'netrx_queue' and\n"
        "'dispatch' is time spent waiting for a free worker while 200 us\n"
        "requests held the cores; a gap between 'worker_queue' and\n"
        "'service' is head-of-line blocking behind a long request that\n"
        "was already queued on the same worker."
    )


if __name__ == "__main__":
    main()
