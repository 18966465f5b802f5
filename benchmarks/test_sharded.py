"""Datacenter-tier benchmark: the serial fabric.

One fig_datacenter-shaped workload (skewed tenant mix, shortest-wait
inter-rack steering, 4 racks x 4 servers x 8 cores at 70% load, 40k
requests) on the plain engine.  It is the datacenter tier's entry in the
bench trajectory and in ``make bench-gate``.
"""

from __future__ import annotations

from repro.api import run_workload
from repro.experiments.fig_datacenter import (
    CORES_PER_SERVER,
    LOAD_FRACTION,
    N_RACKS,
    N_SERVERS,
    SERVICE_NS,
    datacenter_builder,
    tenant_pool,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Exponential

N_REQUESTS = 40_000
SEED = 3
RATE_RPS = (
    LOAD_FRACTION * N_RACKS * N_SERVERS * CORES_PER_SERVER / SERVICE_NS * 1e9
)


def _run():
    sim, streams = Simulator(), RandomStreams(SEED)
    return run_workload(
        datacenter_builder(sim, streams, mix="skewed"),
        sim,
        streams,
        PoissonArrivals(RATE_RPS),
        Exponential(SERVICE_NS),
        n_requests=N_REQUESTS,
        connections=tenant_pool("skewed"),
    )


# The name predates the serial engine being the only one; it is kept
# because the committed BENCH_*.json baselines (and so the bench gate)
# key on it.
def test_bench_sharded_datacenter_serial(benchmark):
    """The serial datacenter fabric, end to end."""
    result = benchmark.pedantic(_run, rounds=2, iterations=1)
    assert result.latency.count > 0
