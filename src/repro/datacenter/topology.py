"""Datacenter topology: R racks behind one spine layer.

:class:`DatacenterConfig` describes a spine-leaf fabric declaratively
(how many racks, the rack template, which inter-rack steering policy,
spine parameters, optionally a tenant mix);
:func:`build_topology` wires it into a live :class:`Datacenter` on a
shared simulator, composing :func:`repro.cluster.topology.build_rack`
per leaf.

A :class:`Datacenter` recurses the pattern the rack tier proved: it
presents the same duck interface as a single
:class:`~repro.schedulers.base.RpcSystem` (``offer`` / ``expect`` /
``shutdown`` / ``utilization`` / ``stats``), so everything built for one
server -- :func:`repro.api.run_workload`, the sweep runner, tracing,
fault plans -- drives a whole datacenter unchanged.  Request flow::

    load generator --offer--> inter-rack policy picks rack
        --> spine switch (serialization + queueing + forwarding latency)
        --> rack ingress (intra-rack policy picks server)
        --> ToR switch --> server NIC --> scheduler --> core

Fault interop: the datacenter exposes its racks as ``servers`` -- to the
fault layer, a rack is this tier's unit of failure -- so an unmodified
``server_crash`` plan downs a whole rack and health-aware inter-rack
policies route around it.  The spine is exposed as ``spine`` (not
``switch``): the ``spine_degrade``/``spine_partition`` kinds target it,
while ToR-level kinds are structurally inapplicable here and are counted
as skipped, exactly like a ToR kind against a single server.

Determinism: each rack gets RNG streams spawned from the master streams
under a stable per-rack name, and the inter-rack policy draws from the
master ``"steering"`` stream, so datacenter simulations are bit-identical
for a fixed seed regardless of rack count or process placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cluster.fabric import FabricBookkeeping
from repro.cluster.policies import (
    DEFAULT_D,
    DEFAULT_SAMPLE_PERIOD_NS,
    POLICY_NAMES,
    SteeringPolicy,
    make_policy,
)
from repro.cluster.topology import RackCluster, RackConfig, build_rack
from repro.datacenter import metrics as dc_metrics
from repro.datacenter.spine import (
    DEFAULT_SPINE_BANDWIDTH_GBPS,
    DEFAULT_SPINE_FORWARD_LATENCY_NS,
    DEFAULT_SPINE_PORT_QUEUE_DEPTH,
    SpineSwitch,
)
from repro.schedulers.base import SystemStats
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry
from repro.workload.request import Request
from repro.workload.tenants import TenantClass, TenantMix, tenant_slo_summary


@dataclass(frozen=True)
class DatacenterConfig:
    """Declarative description of one spine-leaf datacenter.

    Attributes
    ----------
    n_racks:
        Number of leaf racks under the spine.
    rack:
        The rack template (shape, per-server system, intra-rack policy,
        ToR parameters); every rack is built from it.
    policy:
        *Inter-rack* steering policy name (same registry as the rack
        tier: see :data:`repro.cluster.policies.POLICY_NAMES`).
    d, staleness_ns:
        Inter-rack power-of-d parameters: racks sampled per decision and
        how stale a cached rack-load estimate may get.
    sample_period_ns:
        RackSched-style inter-rack policy: period of the full rack-load
        sample.
    spine_links:
        Parallel physical links aggregated into each rack-facing spine
        port (the "L" of R racks x S servers under L spine links).
    spine_bandwidth_gbps, spine_forward_latency_ns, spine_port_queue_depth:
        Spine switch model (see
        :class:`repro.datacenter.spine.SpineSwitch`).
    tenants:
        Optional multi-tenant traffic classes.  When non-empty the
        datacenter accounts per-tenant SLO attainment live (instruments
        under ``tenant.<name>.*``, summary into ``stats.extra``); the
        workload should then draw connections from the matching
        :class:`~repro.workload.tenants.TenantConnectionPool`.
    """

    n_racks: int = 2
    rack: RackConfig = field(default_factory=RackConfig)
    policy: str = "shortest_wait"
    d: int = DEFAULT_D
    staleness_ns: float = 0.0
    sample_period_ns: float = DEFAULT_SAMPLE_PERIOD_NS
    spine_links: int = 1
    spine_bandwidth_gbps: float = DEFAULT_SPINE_BANDWIDTH_GBPS
    spine_forward_latency_ns: float = DEFAULT_SPINE_FORWARD_LATENCY_NS
    spine_port_queue_depth: Optional[int] = DEFAULT_SPINE_PORT_QUEUE_DEPTH
    tenants: Tuple[TenantClass, ...] = ()

    def __post_init__(self) -> None:
        if self.n_racks <= 0:
            raise ValueError(f"need at least one rack, got {self.n_racks}")
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown steering policy {self.policy!r}; "
                f"pick from {POLICY_NAMES}"
            )
        if self.spine_links <= 0:
            raise ValueError(
                f"need at least one spine link, got {self.spine_links}"
            )
        # Tolerate list input (hand-written configs) by freezing it.
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))

    @property
    def total_cores(self) -> int:
        return self.n_racks * self.rack.total_cores

    def capacity_rps(self, mean_service_ns: float) -> float:
        """Aggregate service capacity at a given mean service time."""
        return self.total_cores / mean_service_ns * 1e9


class Datacenter(FabricBookkeeping):
    """R independent racks behind one spine layer and one policy.

    Implements the system duck interface :func:`repro.api.run_workload`
    expects, so a datacenter can be driven (and cached, and fanned out
    by the sweep runner) exactly like a single server or a rack.
    Terminal accounting (``expect`` / completion and drop hooks /
    end-of-run detection) is the shared
    :class:`~repro.cluster.fabric.FabricBookkeeping`; this tier adds
    per-tenant SLO attainment via the ``_account_completion`` override.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: DatacenterConfig,
        racks: List[RackCluster],
    ) -> None:
        self.sim = sim
        self.config = config
        self.racks = racks
        #: Fault-layer duck: to the injector, a rack is this tier's
        #: "server" (unit of crash/blackhole), so unmodified FaultPlans
        #: apply with rack-granular blast radius.
        self.servers = racks
        self.name = (
            f"datacenter[{config.n_racks}x{config.rack.n_servers}"
            f"x{config.rack.system}x{config.rack.cores_per_server}"
            f"/{config.policy}]"
        )
        self.metrics = MetricRegistry()
        sim.register_metrics(self.metrics)
        self.stats = SystemStats(self.metrics)
        self.tenant_mix: Optional[TenantMix] = (
            TenantMix(config.tenants) if config.tenants else None
        )
        #: Live per-tenant accounting, updated on the completion path.
        self.tenant_completed: List[int] = (
            [0] * len(self.tenant_mix) if self.tenant_mix else []
        )
        self.tenant_slo_met: List[int] = list(self.tenant_completed)
        self.spine = SpineSwitch(
            sim,
            n_ports=config.n_racks,
            bandwidth_gbps=config.spine_bandwidth_gbps,
            forward_latency_ns=config.spine_forward_latency_ns,
            port_queue_depth=config.spine_port_queue_depth,
            spine_links=config.spine_links,
            on_drop=self._switch_dropped,
        )
        self.policy: SteeringPolicy = make_policy(
            config.policy,
            n_servers=config.n_racks,
            probe=self.outstanding,
            sim=sim,
            rng=streams.get("steering"),
            cores_per_server=config.rack.total_cores,
            d=config.d,
            staleness_ns=config.staleness_ns,
            sample_period_ns=config.sample_period_ns,
        )
        self._init_fabric()
        self._deliver = [rack.offer for rack in self.racks]
        #: Liveness view over racks; the fault injector swaps in a live
        #: HealthView (shared with ``policy.health``) when a plan is
        #: attached.
        self.health = self.policy.health
        self.spine.register_metrics(self.metrics)
        dc_metrics.register_datacenter_instruments(self, self.metrics)
        if self.tenant_mix is not None:
            dc_metrics.register_tenant_instruments(self, self.metrics)
        for i, rack in enumerate(self.racks):
            rack.completion_hooks.append(self._member_completed)
            rack.drop_hooks.append(self._member_dropped)
            self.metrics.attach_child(f"rack{i}", rack.metrics)
        self.policy.start()

    # ------------------------------------------------------------------
    # Load-generator interface (duck-compatible with RpcSystem)
    # ------------------------------------------------------------------
    def offer(self, request: Request) -> None:
        """Datacenter ingress: steer to a rack, then cross the spine."""
        self.stats.offered += 1
        rack = self.policy.pick_server(request)
        self.spine.forward(request, rack, self._deliver[rack])

    # ------------------------------------------------------------------
    # Terminal accounting (FabricBookkeeping, plus tenant attainment)
    # ------------------------------------------------------------------
    def _account_completion(self, request: Request) -> None:
        mix = self.tenant_mix
        if mix is None:
            return
        connection = request.connection
        if not 0 <= connection < mix.total_connections:
            # Workload not drawn from the tenant pool (or a synthetic
            # test request): no tenant to charge.
            return
        tenant = mix.tenant_of(connection)
        self.tenant_completed[tenant] += 1
        if request.latency <= mix.tenants[tenant].slo_ns:
            self.tenant_slo_met[tenant] += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outstanding(self, rack: int) -> float:
        """Requests in flight inside rack ``rack`` (its ToR, its servers'
        queues and cores) -- the load signal inter-rack policies probe."""
        stats = self.racks[rack].stats
        return float(stats.offered - stats.completed - stats.dropped)

    @property
    def finished_requests(self) -> List[Request]:
        """All completed requests, in per-rack (then per-server) order."""
        merged: List[Request] = []
        for rack in self.racks:
            merged.extend(rack.finished_requests)
        return merged

    def utilization(self, elapsed_ns: float) -> float:
        """Mean core utilization across every core in the datacenter."""
        if elapsed_ns <= 0:
            return 0.0
        total_cores = sum(
            len(server.cores) for rack in self.racks for server in rack.servers
        )
        if total_cores == 0:
            return 0.0
        busy = sum(
            core.busy_ns
            for rack in self.racks
            for server in rack.servers
            for core in server.cores
        )
        return busy / (elapsed_ns * total_cores)

    def shutdown(self) -> None:
        """Stop periodic machinery and distill fabric metrics into the
        ``datacenter.*`` (and ``tenant.*``) namespaces of ``stats.extra``
        so they travel with every sweep result."""
        self.policy.shutdown()
        for rack in self.racks:
            rack.shutdown()
        scoped = self.stats.scoped("datacenter")
        for key, value in dc_metrics.datacenter_summary(self).items():
            scoped.put(key, value)
        if self.tenant_mix is not None:
            tenants = self.stats.scoped("tenant")
            summary = tenant_slo_summary(self.finished_requests, self.tenant_mix)
            for name, entry in summary.items():
                for key, value in entry.items():
                    tenants.put(f"{name}.{key}", value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Datacenter {self.name} "
            f"done={self.stats.completed}/{self.stats.offered}>"
        )


def build_topology(
    sim: Simulator, streams: RandomStreams, config: DatacenterConfig
) -> Datacenter:
    """Instantiate a datacenter: R racks plus spine and inter-rack policy.

    Each rack is built from the shared template with RNG streams spawned
    under a stable per-rack name (``dc-rack-<i>``), so fingerprints are
    independent of build order and process placement.
    """
    racks = [
        build_rack(sim, streams.spawn(f"dc-rack-{i}"), config.rack)
        for i in range(config.n_racks)
    ]
    return Datacenter(sim, streams, config, racks)
