"""One simulation of one benchmark workload, in a process of its own.

Run by ``run.py``; prints one JSON object as its last stdout line::

    python3 perfbench/worker.py --workload ac-light --seed 1 --traced 0 \
        --spawned-at <time.monotonic() of the parent just before spawn>

The simulation uses only the package's public API.  ``--traced 1``
installs :mod:`spans` before anything is built; the simulated outputs
must not change.  Host times are wall-clock seconds of this process;
the host-speed reference (:mod:`reference`) is timed before the package
is imported and again when the simulation ends, and excluded from them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import reference

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Requests per simulation (jobs on ``dc-fanout``, 4 sub-requests
#: each), sized so one untraced simulation runs a few host seconds.
N_REQUESTS = {"ac-light": 20_000, "dc-fanout": 8_000, "kvs-hotkey": 15_000}


def _ac_light(seed: int, n: int):
    from repro.api import quick_run

    return quick_run("altocumulus", n_cores=64, rate_rps=16e6,
                     mean_service_ns=1000, n_requests=n, seed=seed)


def _dc_fanout(seed: int, n: int):
    from repro.api import quick_run
    from repro.workload.jobs import FixedDegree, JobShape

    return quick_run("datacenter", n_cores=64, rate_rps=12e6, n_requests=n,
                     seed=seed, jobs=JobShape(fanout=FixedDegree(4)))


def _kvs_hotkey(seed: int, n: int):
    from repro.api import run_workload
    from repro.core.config import AltocumulusConfig
    from repro.core.scheduler import AltocumulusSystem
    from repro.experiments.common import real_world_arrivals
    from repro.kvs.ownership import KvsSpec
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.workload.service import Fixed

    sim = Simulator()
    streams = RandomStreams(seed)
    system = AltocumulusSystem(sim, streams, AltocumulusConfig(
        n_groups=4, group_size=8, threshold_mode="fixed", fixed_threshold=2.0,
    ))
    spec = KvsSpec(mode="dcrew", d=2, multiversion=True, mix="hot_key",
                   scan_fraction=0.002, hot_key_fraction=0.25)
    # The store's op mix overrides each request's service time.
    return run_workload(system, sim, streams,
                        arrivals=real_world_arrivals(12e6),
                        service=Fixed(100.0), n_requests=n, kvs=spec)


WORKLOADS: Dict[str, Callable[[int, int], Any]] = {
    "ac-light": _ac_light,
    "dc-fanout": _dc_fanout,
    "kvs-hotkey": _kvs_hotkey,
}


class RunClock:
    """Times ``Simulator.run`` (first entry, total duration), reads the
    peak RSS when it returns, then times the host-speed reference."""

    def __init__(self) -> None:
        self.first_entry = None
        self.run_s = 0.0
        self.rss_mib = 0.0
        self.ref_after_s = 0.0

    def install(self) -> None:
        from repro.sim.engine import Simulator

        inner = Simulator.run
        clock = self

        def run(sim, *args, **kwargs):
            t0 = time.monotonic()
            if clock.first_entry is None:
                clock.first_entry = t0
            try:
                return inner(sim, *args, **kwargs)
            finally:
                clock.run_s += time.monotonic() - t0
                clock.rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
                clock.ref_after_s = reference.reference_s()

        Simulator.run = run


def _sum(metrics: Dict[str, Any], suffix: str) -> float:
    """Sum every instrument named ``suffix`` or ending in ``.suffix``."""
    return sum(v for k, v in metrics.items()
               if k == suffix or k.endswith("." + suffix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _leaves(system) -> List[Any]:
    for attr in ("racks", "servers"):
        members = getattr(system, attr, None)
        if members:
            return [leaf for m in members for leaf in _leaves(m)]
    return [system]


def simulated_ledger(result) -> Dict[str, float]:
    """Per-layer counts and simulated-time figures; they repeat exactly
    for a seed.  Ratios with a zero base read 0."""
    m = result.metrics
    done = m["system.completed"]
    ticks = sum(rt.ticks for leaf in _leaves(result.system)
                for rt in getattr(leaf, "runtimes", ()))
    noc_msgs = _sum(m, "noc.messages")
    # From the requests, not the store counters: building the dataset
    # also writes to the store.
    sets = sum(r.kind.value == "set" for r in result.requests)
    imbalance = [v for k, v in m.items()
                 if k.endswith("cluster.imbalance_index")]
    if result.jobs is not None:
        jobs_ratio = _ratio(result.jobs.completed, result.jobs.count)
    else:
        jobs_ratio = _ratio(done, m["system.offered"])
    return {
        "sim.events_per_req": _ratio(m["sim.events_processed"], done),
        "hw.noc_msgs_per_req": _ratio(noc_msgs, done),
        "hw.updates_per_req": _ratio(_sum(m, "updates_sent"), done),
        "hw.noc_wait_ns_per_msg": _ratio(_sum(m, "noc.latency_ns_total"),
                                         noc_msgs),
        "core.ticks_per_req": _ratio(ticks, done),
        "core.migrates_per_req": _ratio(_sum(m, "migrates_sent"), done),
        "core.descriptor_accept_ratio": _ratio(
            _sum(m, "descriptors_accepted"), _sum(m, "descriptors_sent")),
        "schedulers.sched_ns_per_op": _ratio(
            _sum(m, "system.scheduling_ns"), _sum(m, "system.scheduling_ops")),
        "workload.jobs_completed_ratio": jobs_ratio,
        "cluster.steer_refreshes_per_req": _ratio(
            _sum(m, "cluster.steer_refreshes"), done),
        "cluster.tor_wait_ns_per_req": _ratio(
            _sum(m, "cluster.switch.queue_wait_ns"), done),
        "cluster.imbalance_index": _ratio(sum(imbalance), len(imbalance)),
        "datacenter.spine_wait_ns_per_req": _ratio(
            _sum(m, "datacenter.spine.queue_wait_ns"), done),
        "kvs.waits_per_admission": _ratio(
            _sum(m, "kvs.ownership.read_waits")
            + _sum(m, "kvs.ownership.write_waits"),
            _sum(m, "kvs.ownership.admissions")),
        "kvs.wait_ns_per_admission": _ratio(
            _sum(m, "kvs.ownership.wait_ns"),
            _sum(m, "kvs.ownership.admissions")),
        "kvs.stale_read_ratio": _ratio(_sum(m, "kvs.ownership.stale_reads"),
                                       _sum(m, "kvs.ownership.mv_reads")),
        "kvs.set_frac": _ratio(sets, len(result.requests)),
    }


def conservation(result) -> List[str]:
    """Violations of completed + dropped == offered at every tier, and
    of jobs completed + dropped == jobs emitted."""
    bad = []
    m = result.metrics
    for key, offered in m.items():
        if not (key == "system.offered" or key.endswith(".system.offered")):
            continue
        tier = key[: -len("offered")]
        done = m[tier + "completed"] + m[tier + "dropped"]
        if done != offered:
            bad.append(f"{tier[:-1]}: completed+dropped={done} != "
                       f"offered={offered}")
    jobs = result.jobs
    if jobs is not None and jobs.completed + jobs.dropped != jobs.count:
        bad.append(f"jobs: completed+dropped={jobs.completed + jobs.dropped}"
                   f" != emitted={jobs.count}")
    return bad


def fingerprint(result) -> Dict[str, float]:
    lat = result.latency
    job_lat = result.jobs.latency if result.jobs is not None else lat
    return {
        "measured": lat.count,
        "p50_ns": lat.p50,
        "p99_ns": lat.p99,
        "max_ns": lat.maximum,
        "job_p99_ns": job_lat.p99,
        "events": result.metrics["sim.events_processed"],
    }


#: Random draws of the workload generator (arrival gaps, service times,
#: fan-out degrees), matched by method name over all overrides.
_DRAWS = (".next_gap", ".next_gaps", ".sample", ".sample_many")


def host_layer_metrics(folded: Dict[str, Any], offered: int) -> Dict[str, float]:
    """Host-time per-layer metrics from a folded span set."""
    total = folded["total_ns"]
    calls = folded["calls"]
    self_ns = folded["self_ns"]
    incl_ns = folded["incl_ns"]

    def per_call_us(name: str) -> float:
        return _ratio(incl_ns[name], calls[name]) / 1e3

    def self_s(*suffixes: str) -> float:
        # Summed self time of every override of the named methods: the
        # inclusive time of the outermost calls, since these entry
        # points nest only into each other.
        return sum(v for n, v in self_ns.items() if n.endswith(suffixes)) / 1e9

    out = {f"{layer}.self_frac": _ratio(ns, total)
           for layer, ns in folded["layer_self_ns"].items()
           if layer not in ("telemetry", "analysis")}
    out.update({
        "core.tick_us": per_call_us("ManagerRuntime.tick"),
        "workload.draw_us": _ratio(self_s(*_DRAWS), offered) * 1e6,
        "cluster.pick_us": per_call_us("SteeringPolicy.pick_server"),
        "kvs.execute_us": per_call_us("MicaWorkload.execute"),
        "kvs.admit_us": per_call_us("OwnershipTable.admit"),
        "telemetry.snapshot_s": self_s(".snapshot"),
        "analysis.summarize_s": self_s("summarize_latencies"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    # Before the package is imported: its time is not set-up time.
    t0 = time.monotonic()
    ref_before_s = reference.reference_s()
    ref_call_s = time.monotonic() - t0

    recorder = None
    if args.traced:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
    clock = RunClock()
    clock.install()
    result = WORKLOADS[args.workload](args.seed, N_REQUESTS[args.workload])

    m = result.metrics
    out: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": clock.first_entry - args.spawned_at - ref_call_s,
        "run_s": clock.run_s,
        "ref_s": [ref_before_s, clock.ref_after_s],
        "rss_mib": clock.rss_mib,
        "offered": m["system.offered"],
        "completed": m["system.completed"],
        "dropped": m["system.dropped"],
        "fingerprint": fingerprint(result),
        "conservation": conservation(result),
        "ledger": simulated_ledger(result),
    }
    if recorder is not None:
        folded = recorder.fold()
        out["spans"] = folded["spans"]
        out["span_requests"] = folded["requests"]
        out["calls"] = folded["calls"]
        out["host"] = host_layer_metrics(folded, m["system.offered"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
