"""Unit tests for the NoC transport."""

import pytest

from repro.hw.noc import FLIT_BYTES, Noc, NocMessage
from repro.hw.topology import MeshTopology
from repro.sim.engine import Simulator
from repro.telemetry import TraceSink, capture


def make_noc(sim, **kwargs):
    return Noc(sim, MeshTopology(16), per_hop_ns=3.0, flit_ns=1.0, **kwargs)


class TestLatency:
    def test_single_flit_latency(self, sim):
        noc = make_noc(sim)
        msg = NocMessage(src=0, dst=1, payload=None, size_bytes=8)
        assert noc.latency(msg) == 3.0 + 1.0  # 1 hop + 1 flit

    def test_multi_flit_serialization(self, sim):
        noc = make_noc(sim)
        msg = NocMessage(src=0, dst=15, payload=None, size_bytes=3 * FLIT_BYTES)
        assert noc.latency(msg) == 6 * 3.0 + 3 * 1.0

    def test_zero_byte_message_still_one_flit(self, sim):
        msg = NocMessage(src=0, dst=1, payload=None, size_bytes=0)
        assert msg.flits == 1


class TestDelivery:
    def test_callback_fires_at_latency(self, sim):
        noc = make_noc(sim)
        arrived = []
        msg = NocMessage(src=0, dst=1, payload="hello")
        noc.send(msg, lambda m: arrived.append((sim.now, m.payload)))
        sim.run()
        assert arrived == [(4.0, "hello")]

    def test_endpoint_serialization_delays_bursts(self, sim):
        noc = make_noc(sim)
        times = []
        for _ in range(3):
            noc.send(NocMessage(src=0, dst=1, payload=None),
                     lambda m: times.append(sim.now))
        sim.run()
        # Same wire latency, but the ejection port drains one flit at a
        # time, so deliveries are staggered.
        assert times[0] < times[1] < times[2]

    def test_serialization_disabled(self, sim):
        noc = make_noc(sim, endpoint_serialization=False)
        times = []
        for _ in range(3):
            noc.send(NocMessage(src=0, dst=1, payload=None),
                     lambda m: times.append(sim.now))
        sim.run()
        assert times == [4.0, 4.0, 4.0]

    def test_stats_accumulate(self, sim):
        noc = make_noc(sim)
        noc.send(NocMessage(src=0, dst=1, payload=None, size_bytes=8, vnet=1),
                 lambda m: None)
        noc.send(NocMessage(src=0, dst=2, payload=None, size_bytes=8, vnet=1),
                 lambda m: None)
        sim.run()
        assert noc.stats.messages == 2
        assert noc.stats.bytes == 16
        assert noc.stats.by_vnet[1] == 2
        assert noc.stats.mean_latency_ns > 0


def _update_round(link_contention, fanout):
    """Two UPDATE rounds from tile 5 to every other tile, behind a
    MIGRATE-sized message that occupies tile 6's ejection port and the
    links toward it; sent as one :meth:`Noc.fanout` per round or as one
    :meth:`Noc.send` per destination.  Returns everything observable."""
    src, size, vnet = 5, 8, 1
    dsts = [d for d in range(16) if d != src]
    sink = TraceSink()
    with capture(trace=sink):
        sim = Simulator()
        noc = make_noc(sim, link_contention=link_contention)
    delivered = []

    def round_(qlen):
        if fanout:
            routes = [
                (d, noc.hop_ns(src, d),
                 lambda s, q, d=d: delivered.append((sim.now, d, s, q)))
                for d in dsts
            ]
            noc.fanout(src, routes, size, vnet, src, qlen)
        else:
            for d in dsts:
                noc.send(
                    NocMessage(src=src, dst=d, payload=(src, qlen),
                               size_bytes=size, vnet=vnet),
                    lambda m: delivered.append((sim.now, m.dst, *m.payload)),
                )

    sim.schedule(7.0, noc.send,
                 NocMessage(src=4, dst=6, payload=None, size_bytes=64),
                 lambda m: None)
    sim.schedule(7.0, round_, 11)
    sim.schedule(7.5, round_, 12)
    sim.run()
    instruments = {
        k: v for k, v in noc.registry.snapshot().items()
        if k in ("noc.messages", "noc.bytes", "noc.latency_ns_total",
                 "noc.by_vnet")
    }
    return (delivered, dict(noc._ejection_free), dict(noc._link_free),
            instruments, sink.infrastructure_spans(), dsts)


class TestBroadcast:
    def test_broadcast_skips_source(self):
        """An UPDATE fan-out is indistinguishable from one ``send`` per
        destination: same delivery times and order, ejection-port and
        link state, ``noc.*`` instruments and one ``noc`` trace span per
        UPDATE, with and without link contention.  Its routes cover
        every tile but the source, as a manager tile builds them."""
        for link_contention in (False, True):
            fanned = _update_round(link_contention, fanout=True)
            sent = _update_round(link_contention, fanout=False)
            assert fanned == sent
            delivered, _, _, instruments, spans, dsts = fanned
            assert sorted({d for _, d, _, _ in delivered}) == dsts
            assert len(delivered) == 2 * len(dsts)
            assert instruments["noc.messages"] == 1 + 2 * len(dsts)
            assert instruments["noc.by_vnet"] == {"0": 1, "1": 2 * len(dsts)}
            assert len([s for s in spans if s[2] == "vnet1"]) == 2 * len(dsts)
            # The MIGRATE-sized message really delays tile 6's UPDATEs.
            to_6 = [t for t, d, _, _ in delivered if d == 6]
            assert to_6[0] > 7.0 + 3.0 + 1.0

    def test_invalid_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            Noc(sim, MeshTopology(4), per_hop_ns=-1.0)


class TestLinkContention:
    def test_shared_link_serializes(self, sim):
        """Two messages crossing the same link arrive staggered when
        link contention is modelled."""
        noc = make_noc(sim, endpoint_serialization=False,
                       link_contention=True)
        times = []
        # 0 -> 2 and 0 -> 3 share the 0->1 and 1->2 links in a 4x4 mesh.
        noc.send(NocMessage(src=0, dst=3, payload="a", size_bytes=64),
                 lambda m: times.append(("a", sim.now)))
        noc.send(NocMessage(src=0, dst=3, payload="b", size_bytes=64),
                 lambda m: times.append(("b", sim.now)))
        sim.run()
        assert times[0][1] < times[1][1]

    def test_disjoint_routes_do_not_interfere(self, sim):
        noc = make_noc(sim, endpoint_serialization=False,
                       link_contention=True)
        times = {}
        noc.send(NocMessage(src=0, dst=1, payload=None),
                 lambda m: times.__setitem__("right", sim.now))
        noc.send(NocMessage(src=15, dst=14, payload=None),
                 lambda m: times.__setitem__("left", sim.now))
        sim.run()
        assert times["right"] == times["left"]

    def test_uncontended_matches_analytic_latency(self, sim):
        noc = make_noc(sim, endpoint_serialization=False,
                       link_contention=True)
        times = []
        msg = NocMessage(src=0, dst=2, payload=None, size_bytes=8)
        noc.send(msg, lambda m: times.append(sim.now))
        sim.run()
        assert times[0] == noc.latency(msg)

    def test_same_pair_fifo_order(self, sim):
        """Deterministic routing preserves per-pair ordering (Sec. V-B's
        message-ordering requirement)."""
        noc = make_noc(sim, link_contention=True)
        order = []
        for i in range(5):
            noc.send(NocMessage(src=0, dst=15, payload=i),
                     lambda m: order.append(m.payload))
        sim.run()
        assert order == [0, 1, 2, 3, 4]
