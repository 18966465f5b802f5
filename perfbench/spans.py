"""In-memory span tracing of the simulator's layers, from outside ``src/``.

:func:`install` wraps each layer's entry points -- the public calls
between layers and the event callbacks through which the simulator
kernel enters a layer -- so every call records one span: entry point,
start, end, parent span and the ``req_id`` of the request it carries
(``-1`` when it carries none).  Spans stay in flat typed arrays until
:meth:`SpanRecorder.fold` turns them into per-layer self time, per-entry
call counts and inclusive times.

A layer is named by the ``repro.*`` package whose code the entry point
runs, with two exceptions fixed by role rather than package: a
``SwitchCore`` method counts to ``cluster`` on a ``ToRSwitch`` and to
``datacenter`` on a ``SpineSwitch``, and the shared fabric terminal
bookkeeping counts to the tier whose instance runs it.

Self time is a span's duration minus the time its direct child spans
cover.  Work inside callbacks that are not wrapped is covered by no
child span, so it falls to the enclosing span -- at the top of the
stack, ``Simulator.run``, i.e. ``sim.self_frac``.

:func:`install` must run before the system is built: constructors bind
some callbacks (core completion, fabric hooks, request factories) as
bound methods, which only pick up the wrapper if the class attribute is
already replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Dict, List, Tuple, Union

import numpy as np

#: Layers in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "hw", "core", "schedulers", "workload", "cluster",
    "datacenter", "kvs", "telemetry", "analysis",
)

#: (layer, module, qualified name).  A layer given as a dict maps the
#: receiving instance's class name to the layer; the first value is
#: the fallback for other classes.  A ``Class.method`` entry also wraps
#: every loaded subclass that overrides the method.
Layer = Union[str, Dict[str, str]]
_SWITCH_ROLE = {"ToRSwitch": "cluster", "SpineSwitch": "datacenter"}
_FABRIC_ROLE = {"RackCluster": "cluster", "Datacenter": "datacenter"}
ENTRY_POINTS: Tuple[Tuple[Layer, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator.run"),
    ("workload", "repro.workload.generator", "LoadGenerator._emit"),
    ("workload", "repro.workload.jobs", "JobLoadGenerator._emit"),
    ("workload", "repro.workload.arrivals", "ArrivalProcess.next_gap"),
    ("workload", "repro.workload.arrivals", "ArrivalProcess.next_gaps"),
    ("workload", "repro.workload.service", "ServiceDistribution.sample"),
    ("workload", "repro.workload.service", "ServiceDistribution.sample_many"),
    ("workload", "repro.workload.jobs", "DegreeDistribution.sample_many"),
    ("workload", "repro.workload.jobs", "JobTracker._on_sub_completed"),
    ("workload", "repro.workload.jobs", "JobTracker._on_sub_dropped"),
    ("workload", "repro.workload.jobs", "JobTracker._on_sub_logical"),
    ("schedulers", "repro.schedulers.base", "RpcSystem.offer"),
    ("schedulers", "repro.schedulers.base", "RpcSystem._request_completed"),
    ("schedulers", "repro.schedulers.base", "RpcSystem._drop"),
    ("core", "repro.core.scheduler", "AltocumulusSystem._deliver"),
    ("core", "repro.core.scheduler", "AltocumulusSystem._arrive_at_worker"),
    ("core", "repro.core.scheduler", "AltocumulusSystem._after_complete"),
    ("core", "repro.core.scheduler", "AltocumulusSystem._tick_loop"),
    ("core", "repro.core.runtime", "ManagerRuntime.tick"),
    ("core", "repro.core.runtime", "ManagerRuntime.on_update"),
    ("hw", "repro.hw.cores", "Core.assign"),
    ("hw", "repro.hw.cores", "Core._finish_slice"),
    ("hw", "repro.hw.noc", "Noc.send"),
    ("hw", "repro.hw.messaging", "ManagerTileHw.broadcast_update"),
    ("hw", "repro.hw.messaging", "ManagerTileHw.send_migrate"),
    ("hw", "repro.hw.messaging", "ManagerTileHw._inject"),
    ("hw", "repro.hw.messaging", "ManagerTileHw._deliver"),
    ("hw", "repro.hw.messaging", "ManagerTileHw._drain_into_mrs"),
    ("cluster", "repro.cluster.policies", "SteeringPolicy.pick_server"),
    ("cluster", "repro.cluster.policies",
     "ShortestExpectedWaitSteering._sample"),
    ("cluster", "repro.cluster.topology", "RackCluster.offer"),
    (_SWITCH_ROLE, "repro.cluster.switch", "SwitchCore.forward"),
    (_SWITCH_ROLE, "repro.cluster.switch", "SwitchCore._tx_done"),
    (_FABRIC_ROLE, "repro.cluster.fabric", "FabricBookkeeping._member_completed"),
    (_FABRIC_ROLE, "repro.cluster.fabric", "FabricBookkeeping._member_dropped"),
    ("datacenter", "repro.datacenter.topology", "Datacenter.offer"),
    ("kvs", "repro.kvs.handlers", "MicaWorkload.request_factory"),
    ("kvs", "repro.kvs.handlers", "MicaWorkload.execute"),
    ("kvs", "repro.kvs.ownership", "OwnershipTable.admit"),
    ("telemetry", "repro.telemetry.registry", "MetricRegistry.snapshot"),
    ("analysis", "repro.analysis.metrics", "summarize_latencies"),
)

#: Modules imported before wrapping, so every subclass that overrides a
#: wrapped method exists when the class hierarchy is walked.
_PRELOAD = (
    "repro.api", "repro.cluster.topology", "repro.datacenter.topology",
    "repro.kvs.handlers",
)


class SpanRecorder:
    """Flat, append-only span storage plus the entry-point name table."""

    def __init__(self) -> None:
        #: Per entry id: (name, layer).
        self.entries: List[Tuple[str, str]] = []
        self.entry = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.req = array("q")
        #: Indices of the open spans; -1 is the root sentinel.
        self.stack: List[int] = [-1]

    def entry_id(self, name: str, layer: str) -> int:
        self.entries.append((name, layer))
        return len(self.entries) - 1

    def fold(self) -> Dict[str, object]:
        """Per-layer self time and per-entry call counts / times (ns)."""
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans still open")
        entry = np.frombuffer(self.entry, dtype=np.uint16).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        req = np.frombuffer(self.req, dtype=np.int64)
        n_entries = len(self.entries)
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        self_ns = dur - covered
        layer_index = np.array(
            [LAYERS.index(layer) for _, layer in self.entries], dtype=np.int64
        )
        layer_self = np.bincount(layer_index[entry], weights=self_ns,
                                 minlength=len(LAYERS))
        calls = np.bincount(entry, minlength=n_entries)
        entry_self = np.bincount(entry, weights=self_ns, minlength=n_entries)
        entry_incl = np.bincount(entry, weights=dur, minlength=n_entries)
        return {
            "spans": int(len(dur)),
            "total_ns": float(dur[~nested].sum()),
            "layer_self_ns": dict(zip(LAYERS, layer_self.tolist())),
            "calls": {name: int(c) for (name, _), c in zip(self.entries, calls)},
            "self_ns": {
                name: float(s) for (name, _), s in zip(self.entries, entry_self)
            },
            "incl_ns": {
                name: float(s) for (name, _), s in zip(self.entries, entry_incl)
            },
            "requests": int(np.unique(req[req >= 0]).size),
        }


def _traced(fn, rec: SpanRecorder, eids: Dict[str, int], default: int,
            req_index: int):
    """Wrap ``fn`` so each call appends one span to ``rec``."""
    clock = time.perf_counter_ns
    entries, starts, ends = rec.entry, rec.start, rec.end
    parents, reqs, stack = rec.parent, rec.req, rec.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(starts)
        entries.append(
            eids.get(type(args[0]).__name__, default) if eids else default
        )
        parents.append(stack[-1])
        reqs.append(
            getattr(args[req_index], "req_id", -1)
            if 0 <= req_index < len(args) else -1
        )
        ends.append(0)
        stack.append(i)
        starts.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[i] = clock()
            stack.pop()

    return traced


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(rec: SpanRecorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (see module doc)."""
    for module in _PRELOAD:
        importlib.import_module(module)
    for layer, module_name, qualname in ENTRY_POINTS:
        module = sys.modules[module_name]
        if isinstance(layer, dict):
            eids = {cls: rec.entry_id(f"{qualname}@{cls}", lay)
                    for cls, lay in layer.items()}
            default = next(iter(eids.values()))
        else:
            eids = {}
        if "." not in qualname:
            fn = getattr(module, qualname)
            eid = rec.entry_id(qualname, layer)
            wrapped = _traced(fn, rec, {}, eid, _request_index(fn))
            # Rebind the name in every module that imported it directly.
            for mod in list(sys.modules.values()):
                if getattr(mod, qualname, None) is fn:
                    setattr(mod, qualname, wrapped)
            continue
        cls_name, method = qualname.split(".")
        for cls in _subclasses(getattr(module, cls_name)):
            fn = cls.__dict__.get(method)
            if not inspect.isfunction(fn):
                continue
            name = f"{cls.__name__}.{method}"
            if not eids:
                default = rec.entry_id(name, layer)
            setattr(cls, method,
                    _traced(fn, rec, eids, default, _request_index(fn)))


def _request_index(fn) -> int:
    """Positional index of a ``request`` parameter, or -1."""
    params = list(inspect.signature(fn).parameters)
    return params.index("request") if "request" in params else -1
