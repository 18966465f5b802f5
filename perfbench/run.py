"""Simulator benchmark: host speed and simulated tail, plus a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ac-light --seed 1 --seconds 30 --trace 0

Each *round* is one fresh single-threaded process (``worker.py``) that
builds one workload through the public API and runs one seeded
simulation.  Rounds repeat until ``--seconds`` have passed; host-time
metrics are medians over rounds.  ``--trace 0`` runs untraced rounds and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics.  Every round's output
is checked (see :func:`check`); the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The simulated numbers come from an unvalidated model: no accuracy
figure is reported.  See ``perfbench/README.md`` for why each workload
was chosen and which metric should move which.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
FINGERPRINTS = HERE / "fingerprints.json"

WORKLOADS = ("ac-light", "dc-fanout", "kvs-hotkey")

#: Minimum rounds per run, whatever ``--seconds`` says: medians need
#: three values, and the exact-count ledger needs two runs to compare.
MIN_UNTRACED = {0: 3, 1: 2}
MIN_TRACED = {0: 0, 1: 1}

#: A run must end within 180 s: no round may outlive this budget.
RUN_BUDGET_S = 170.0

#: Units of every printed metric.
UNITS: Dict[str, str] = {
    "sim_req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "job_p99_us": "us",
    "completed_frac": "ratio",
    "sim.events_per_req": "count",
    "sim.ns_per_event": "ns",
    "hw.noc_msgs_per_req": "count",
    "hw.updates_per_req": "count",
    "hw.noc_wait_ns_per_msg": "ns",
    "core.ticks_per_req": "count",
    "core.tick_us": "us",
    "core.migrates_per_req": "count",
    "core.descriptor_accept_ratio": "ratio",
    "schedulers.sched_ns_per_op": "ns",
    "workload.draw_us": "us",
    "workload.jobs_completed_ratio": "ratio",
    "cluster.pick_us": "us",
    "cluster.steer_refreshes_per_req": "count",
    "cluster.tor_wait_ns_per_req": "ns",
    "cluster.imbalance_index": "ratio",
    "datacenter.spine_wait_ns_per_req": "ns",
    "kvs.execute_us": "us",
    "kvs.admit_us": "us",
    "kvs.waits_per_admission": "count",
    "kvs.wait_ns_per_admission": "ns",
    "kvs.stale_read_ratio": "ratio",
    "kvs.set_frac": "ratio",
    "telemetry.snapshot_s": "s",
    "analysis.summarize_s": "s",
    "trace.overhead_frac": "ratio",
}
for _layer in ("sim", "hw", "core", "schedulers", "workload", "cluster",
               "datacenter", "kvs"):
    UNITS[f"{_layer}.self_frac"] = "ratio"

#: Layer coverage: metrics that must read 0, and metrics that must read
#: more than 0, on each workload (whichever the run measured).
COVERAGE: Dict[str, Dict[str, tuple]] = {
    "ac-light": {
        "zero": ("core.migrates_per_req", "cluster.steer_refreshes_per_req",
                 "cluster.tor_wait_ns_per_req", "kvs.set_frac",
                 "kvs.waits_per_admission", "cluster.self_frac",
                 "datacenter.self_frac", "kvs.self_frac", "cluster.pick_us",
                 "kvs.execute_us", "kvs.admit_us"),
        "positive": ("hw.noc_msgs_per_req", "hw.updates_per_req",
                     "core.ticks_per_req", "core.tick_us"),
    },
    "dc-fanout": {
        "zero": ("hw.noc_msgs_per_req", "hw.updates_per_req",
                 "core.ticks_per_req", "core.migrates_per_req",
                 "kvs.set_frac", "kvs.self_frac"),
        "positive": ("cluster.steer_refreshes_per_req",
                     "cluster.tor_wait_ns_per_req",
                     "datacenter.spine_wait_ns_per_req", "cluster.self_frac",
                     "datacenter.self_frac", "cluster.pick_us"),
    },
    "kvs-hotkey": {
        "zero": ("cluster.steer_refreshes_per_req",
                 "cluster.tor_wait_ns_per_req", "cluster.self_frac",
                 "datacenter.self_frac", "cluster.pick_us"),
        "positive": ("core.migrates_per_req", "hw.noc_msgs_per_req",
                     "kvs.set_frac", "kvs.waits_per_admission",
                     "kvs.self_frac", "kvs.execute_us", "kvs.admit_us"),
    },
}


def spawn(workload: str, seed: int, traced: int,
          timeout: float) -> Dict[str, Any]:
    """Run one round in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--seed", str(seed), "--traced", str(traced),
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(
            f"{workload} round (traced={traced}) exited "
            f"{proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rescale(rounds: List[dict]) -> None:
    """Rescale each round's host times to the nominal host speed.

    A round's slowdown is the geometric mean of the reference times its
    worker measured right before and after ``Simulator.run``, over
    :data:`reference.NOMINAL_S`.
    """
    for r in rounds:
        slowdown = statistics.geometric_mean(r["ref_s"]) / NOMINAL_S
        r["slowdown"] = slowdown
        r["raw_run_s"] = r["run_s"]
        r["run_s"] /= slowdown
        r["setup_s"] /= slowdown
        for name in r.get("host", {}):
            if name.endswith(("_us", "_s")):
                r["host"][name] /= slowdown


def check(workload: str, seed: int, untraced: List[dict],
          traced: List[dict], metrics: Dict[str, float]) -> List[str]:
    """Every reason the run's outputs are wrong (empty when correct)."""
    rounds = untraced + traced
    problems = [f"round {i}: {v}" for i, r in enumerate(rounds)
                for v in r["conservation"]]
    base = untraced[0]
    for i, r in enumerate(rounds[1:], 1):
        if r["fingerprint"] != base["fingerprint"]:
            problems.append(f"round {i} fingerprint {r['fingerprint']} != "
                            f"round 0 {base['fingerprint']}")
        unstable = sorted(k for k, v in r["ledger"].items()
                          if v != base["ledger"][k])
        if unstable:
            problems.append(f"round {i}: counts not repeated exactly: "
                            + ", ".join(unstable))
    for i, r in enumerate(traced[1:], 1):
        moved = sorted(k for k, v in r["calls"].items()
                       if v != traced[0]["calls"][k])
        if moved:
            problems.append(f"traced round {i}: span counts not repeated "
                            "exactly: " + ", ".join(moved))
    for r in traced:
        if r["span_requests"] != r["offered"]:
            problems.append(f"spans carry {r['span_requests']} request ids, "
                            f"{r['offered']} requests offered")
    recorded = _recorded().get(workload, {}).get(str(seed))
    if recorded is not None and recorded != base["fingerprint"]:
        problems.append(f"fingerprint {base['fingerprint']} != recorded "
                        f"{recorded} for seed {seed}")
    expect = COVERAGE[workload]
    problems += [f"{k} = {metrics[k]} on {workload}, expected 0"
                 for k in expect["zero"] if metrics.get(k, 0.0) != 0.0]
    problems += [f"{k} = {metrics[k]} on {workload}, expected > 0"
                 for k in expect["positive"]
                 if k in metrics and not metrics[k] > 0.0]
    if workload == "ac-light" and traced:
        shares = {k: v for k, v in metrics.items() if k.endswith(".self_frac")}
        tick_path = shares.pop("core.self_frac") + shares.pop("hw.self_frac")
        if tick_path <= max(shares.values()):
            problems.append(f"core+hw self share {tick_path:.3f} is not the "
                            f"largest on ac-light: {shares}")
    return problems


def _recorded() -> Dict[str, Dict[str, dict]]:
    with open(FINGERPRINTS) as f:
        return json.load(f)


def _median(rounds: List[dict], fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def end_to_end(untraced: List[dict]) -> Dict[str, float]:
    offered = sum(r["offered"] for r in untraced)
    return {
        "sim_req_per_s": _median(untraced, lambda r: r["completed"] / r["run_s"]),
        "setup_s": _median(untraced, lambda r: r["setup_s"]),
        "peak_rss_mib": _median(untraced, lambda r: r["rss_mib"]),
        "completed_frac": sum(r["completed"] for r in untraced) / offered,
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    fp = untraced[0]["fingerprint"]
    out = {
        "sim_p50_us": fp["p50_ns"] / 1e3,
        "sim_p99_us": fp["p99_ns"] / 1e3,
        "job_p99_us": fp["job_p99_ns"] / 1e3,
        **untraced[0]["ledger"],
    }
    out["sim.ns_per_event"] = _median(
        untraced, lambda r: r["run_s"] * 1e9 / r["fingerprint"]["events"])
    if traced:
        for name in traced[0]["host"]:
            out[name] = _median(traced, lambda r: r["host"][name])
        out["trace.overhead_frac"] = (
            _median(traced, lambda r: r["run_s"])
            / _median(untraced, lambda r: r["run_s"]) - 1.0
        )
    return out


def host_info() -> str:
    return (f"host: nproc={os.cpu_count()} "
            f"python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} "
            f"machine={platform.machine()} cpu={platform.processor() or '?'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's fingerprint in fingerprints.json "
                         "(after an intended change to the model)")
    args = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + args.seconds
    untraced: List[dict] = []
    traced: List[dict] = []
    rounds: List[dict] = []
    kind = 0
    while (time.monotonic() < deadline
           or len(untraced) < MIN_UNTRACED[args.trace]
           or len(traced) < MIN_TRACED[args.trace]):
        r = spawn(args.workload, args.seed, kind,
                  timeout=started + RUN_BUDGET_S - time.monotonic())
        rounds.append(r)
        (traced if kind else untraced).append(r)
        if args.trace:
            kind = 1 - kind
    rescale(rounds)

    if args.record:
        recorded = _recorded()
        recorded.setdefault(args.workload, {})[str(args.seed)] = (
            untraced[0]["fingerprint"])
        with open(FINGERPRINTS, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")

    e2e = end_to_end(untraced)
    layers = per_layer(untraced, traced)
    problems = check(args.workload, args.seed, untraced, traced,
                     {**e2e, **layers})
    if problems:
        e2e["completed_frac"] = 0.0
    reported = layers if args.trace else e2e
    attempted = sum(r["offered"] for r in rounds)
    failed = (attempted if problems
              else sum(r["offered"] - r["completed"] for r in rounds))

    fp = untraced[0]["fingerprint"]
    print(host_info())
    print(f"workload={args.workload} seed={args.seed} "
          f"rounds: {len(untraced)} untraced, {len(traced)} traced")
    print("untraced rounds, raw sim_req_per_s / host slowdown: " + " ".join(
        f"{r['completed'] / r['raw_run_s']:.0f}/{r['slowdown']:.2f}"
        for r in untraced))
    print("host times below are rescaled to the nominal host speed "
          "(see perfbench/reference.py)")
    print(f"simulated latency over {fp['measured']} measured requests; "
          f"fingerprint {json.dumps(fp, sort_keys=True)}")
    if args.trace:
        print("self_frac: time in callbacks that are not wrapped falls "
              "to sim.self_frac")
    for name, value in reported.items():
        print(f"  {name:34s} {value:>16.6g} {UNITS[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
