"""Unit tests for the ownership layer: dispatch disciplines,
multiversion epochs, and the KvsSpec surface."""

import pytest

from repro.kvs.ownership import (
    MIX_PRESETS,
    OWNERSHIP_MODES,
    KvsSpec,
    MultiversionAccessor,
    OwnershipTable,
)
from repro.telemetry import MetricRegistry


class TestKvsSpec:
    def test_defaults_are_valid_and_frozen(self):
        spec = KvsSpec()
        assert spec.mode == "erew"
        with pytest.raises(AttributeError):
            spec.mode = "crew"

    @pytest.mark.parametrize("mix", sorted(MIX_PRESETS))
    def test_presets_resolve(self, mix):
        params = KvsSpec(mix=mix).mix_params()
        assert set(params) == {"get_fraction", "scan_fraction",
                               "delete_fraction", "zipf_s",
                               "hot_key_fraction"}
        assert params["scan_fraction"] + params["delete_fraction"] <= 1

    def test_explicit_fields_override_preset(self):
        spec = KvsSpec(mix="hot_key", hot_key_fraction=0.25)
        assert spec.mix_params()["hot_key_fraction"] == 0.25
        # Unset fields keep the preset's values.
        assert (spec.mix_params()["zipf_s"]
                == MIX_PRESETS["hot_key"]["zipf_s"])

    @pytest.mark.parametrize("kwargs", [
        dict(mode="mesi"),
        dict(mix="nonexistent"),
        dict(mode="dcrew", d=0),
        dict(mode="erew", multiversion=True),
        dict(mode="crcw", multiversion=True),
        dict(service="dpdk"),
        dict(n_keys=0),
        dict(hot_keys=0),
        dict(max_wait_ns=-1.0),
        dict(get_fraction=1.5),
        dict(zipf_s=-0.1),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KvsSpec(**kwargs)

    def test_spec_is_hashable_and_comparable(self):
        # The runner content-hashes specs into cache keys; frozen
        # dataclass equality is what makes identical points cache-hit.
        assert KvsSpec(mode="crew") == KvsSpec(mode="crew")
        assert hash(KvsSpec(d=3)) == hash(KvsSpec(d=3))
        assert KvsSpec(mode="crew") != KvsSpec(mode="crcw")


class TestErewDiscipline:
    def test_uncontended_admit_is_free(self):
        table = OwnershipTable(2, "erew")
        assert table.admit(0, False, now=0.0, hold_ns=50.0).wait_ns == 0.0
        assert table.admit(1, True, now=0.0, hold_ns=50.0).wait_ns == 0.0

    def test_any_second_access_waits_for_the_hold(self):
        table = OwnershipTable(1, "erew")
        table.admit(0, False, now=0.0, hold_ns=100.0)
        # Reads exclude reads under EREW -- that is the whole point.
        assert table.admit(0, False, now=30.0, hold_ns=50.0).wait_ns == 70.0

    def test_waits_chain_transitively(self):
        table = OwnershipTable(1, "erew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        table.admit(0, True, now=10.0, hold_ns=100.0)  # starts at 100
        adm = table.admit(0, True, now=20.0, hold_ns=10.0)  # behind both
        assert adm.wait_ns == 180.0

    def test_hold_expires(self):
        table = OwnershipTable(1, "erew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        assert table.admit(0, True, now=150.0, hold_ns=10.0).wait_ns == 0.0


class TestCrewDiscipline:
    def test_reads_are_concurrent(self):
        table = OwnershipTable(1, "crew")
        for i in range(5):
            assert table.admit(
                0, False, now=float(i), hold_ns=100.0
            ).wait_ns == 0.0
        assert table.total_waits == 0

    def test_read_waits_for_active_writer(self):
        table = OwnershipTable(1, "crew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        assert table.admit(0, False, now=40.0, hold_ns=10.0).wait_ns == 60.0

    def test_writer_drains_admitted_readers(self):
        table = OwnershipTable(1, "crew")
        table.admit(0, False, now=0.0, hold_ns=80.0)
        table.admit(0, False, now=0.0, hold_ns=120.0)
        assert table.admit(0, True, now=50.0, hold_ns=10.0).wait_ns == 70.0

    def test_writers_serialize(self):
        table = OwnershipTable(1, "crew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        assert table.admit(0, True, now=10.0, hold_ns=10.0).wait_ns == 90.0
        assert table.max_concurrent_writers(0) == 1


class TestDcrewDiscipline:
    def test_reads_below_bound_are_free(self):
        table = OwnershipTable(1, "dcrew", d=3)
        for _ in range(3):
            assert table.admit(0, False, now=0.0, hold_ns=100.0).wait_ns == 0.0

    def test_read_past_bound_waits_for_a_slot(self):
        table = OwnershipTable(1, "dcrew", d=2)
        table.admit(0, False, now=0.0, hold_ns=60.0)
        table.admit(0, False, now=0.0, hold_ns=100.0)
        # Third reader waits for the *oldest* holder (end 60) to drain.
        assert table.admit(0, False, now=10.0, hold_ns=10.0).wait_ns == 50.0

    def test_d1_reads_serialize_like_erew(self):
        table = OwnershipTable(1, "dcrew", d=1)
        table.admit(0, False, now=0.0, hold_ns=100.0)
        assert table.admit(0, False, now=0.0, hold_ns=10.0).wait_ns == 100.0

    def test_abort_past_wait_bound(self):
        table = OwnershipTable(1, "dcrew", d=1, max_wait_ns=20.0)
        table.admit(0, False, now=0.0, hold_ns=100.0)
        adm = table.admit(0, False, now=0.0, hold_ns=10.0)
        assert adm.aborted
        assert adm.wait_ns == 0.0
        assert table.aborts == 1
        # The aborted op recorded no hold: a later read still only sees
        # the first reader.
        assert table.admit(0, False, now=100.5, hold_ns=1.0).wait_ns == 0.0


class TestCrcwDiscipline:
    def test_nothing_ever_waits(self):
        table = OwnershipTable(1, "crcw")
        for i in range(10):
            adm = table.admit(0, i % 2 == 0, now=0.0, hold_ns=1000.0)
            assert adm.wait_ns == 0.0
        assert table.total_waits == 0
        assert table.max_concurrent_writers(0) == 5  # true overlap


class TestMultiversionReads:
    def test_reads_never_wait_under_a_writer(self):
        table = OwnershipTable(1, "crew", multiversion=True)
        table.admit(0, True, now=0.0, hold_ns=100.0)
        adm = table.admit(0, False, now=40.0, hold_ns=10.0)
        assert adm.wait_ns == 0.0
        assert adm.stale_read

    def test_reads_outside_writer_hold_are_fresh(self):
        table = OwnershipTable(1, "crew", multiversion=True)
        table.admit(0, True, now=0.0, hold_ns=50.0)
        adm = table.admit(0, False, now=60.0, hold_ns=10.0)
        assert not adm.stale_read

    def test_writer_does_not_drain_mv_readers(self):
        table = OwnershipTable(1, "crew", multiversion=True)
        table.admit(0, False, now=0.0, hold_ns=500.0)
        # A multiversion writer installs a fresh version instead of
        # waiting for readers of the old one.
        assert table.admit(0, True, now=10.0, hold_ns=10.0).wait_ns == 0.0

    def test_requires_crew_or_dcrew(self):
        with pytest.raises(ValueError):
            OwnershipTable(1, "erew", multiversion=True)
        with pytest.raises(ValueError):
            OwnershipTable(1, "crcw", multiversion=True)


class TestMultiversionAccessor:
    def test_commit_advances_epoch_and_defers(self):
        mv = MultiversionAccessor()
        mv.read(now=0.0, end_ns=100.0, writer_active=False)
        mv.writer_commit(now=10.0)
        assert mv.epoch == 1
        assert mv.deferred == 1  # epoch-0 reader live until t=100

    def test_reclaim_waits_for_older_epoch_readers(self):
        mv = MultiversionAccessor()
        mv.read(now=0.0, end_ns=100.0, writer_active=False)
        mv.writer_commit(now=10.0)
        assert mv.sweep(now=50.0) == 0  # reader still active
        assert mv.sweep(now=100.5) == 1
        assert mv.deferred == 0
        assert mv.reclaimed == 1

    def test_unread_version_reclaims_immediately(self):
        mv = MultiversionAccessor()
        mv.writer_commit(now=10.0)
        assert mv.deferred == 0
        assert mv.reclaimed == 1

    def test_new_epoch_readers_do_not_block_older_commits(self):
        mv = MultiversionAccessor()
        mv.writer_commit(now=0.0)  # reclaims instantly (no readers)
        mv.read(now=1.0, end_ns=1_000.0, writer_active=False)  # epoch 1
        mv.writer_commit(now=2.0)  # superseded v1: epoch-1 reader live
        assert mv.deferred == 1
        mv.read(now=3.0, end_ns=2_000.0, writer_active=False)  # epoch 2
        # The epoch-2 reader reads the *new* version; it must not pin
        # the epoch-1 deferral past its own lifetime.
        assert mv.sweep(now=1_500.0) == 1
        assert mv.reclaimed == 2

    def test_chained_commits_reclaim_in_order(self):
        mv = MultiversionAccessor()
        for t in (0.0, 10.0, 20.0):
            mv.read(now=t, end_ns=t + 50.0, writer_active=False)
            mv.writer_commit(now=t + 1.0)
        assert mv.epoch == 3
        assert mv.sweep(now=1_000.0) == 3
        assert mv.deferred == 0
        assert mv.reclaimed == 3

    def test_epoch_bookkeeping_is_pruned(self):
        mv = MultiversionAccessor()
        for t in range(20):
            mv.read(now=float(t), end_ns=t + 1.0, writer_active=False)
            mv.writer_commit(now=t + 0.5)
        mv.sweep(now=1_000.0)
        assert not mv._epoch_end  # dead epochs dropped, no leak

    def test_instruments_surface_in_registry(self):
        registry = MetricRegistry()
        table = OwnershipTable(1, "crew", multiversion=True,
                               registry=registry)
        table.admit(0, True, now=0.0, hold_ns=100.0)
        table.admit(0, False, now=10.0, hold_ns=10.0)
        snap = registry.snapshot("kvs.ownership")
        assert snap["kvs.ownership.epoch"] == 1
        assert snap["kvs.ownership.mv_reads"] == 1
        assert snap["kvs.ownership.stale_reads"] == 1
        assert snap["kvs.ownership.admissions"] == 2


class TestTableValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            OwnershipTable(1, "mesi")

    def test_bad_partition_count_rejected(self):
        with pytest.raises(ValueError):
            OwnershipTable(0, "erew")

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            OwnershipTable(1, "dcrew", d=0)

    def test_modes_constant_is_exhaustive(self):
        assert OWNERSHIP_MODES == ("erew", "crew", "crcw", "dcrew")


def _noop_factory(request):
    """A request factory that leaves the request untouched."""


def _plain_builder(sim, streams):
    from repro.api import build_system

    return build_system("altocumulus", sim, streams, 4)


def _wired_builder(sim, streams):
    """A builder that wires its own workload: ``(system, factory)``."""
    return _plain_builder(sim, streams), _noop_factory


class TestKvsExcludesRequestFactory:
    """``kvs`` and a request factory cannot both shape the workload; the
    rule lives in ``run_workload`` and every entry route reaches it."""

    def _spec(self, builder):
        from repro.runner import PointSpec
        from repro.workload.service import Exponential

        return PointSpec(builder=builder, service=Exponential(1000.0),
                         rate_rps=1e6, n_requests=100, kvs=KvsSpec())

    def test_run_workload(self):
        from repro.api import run_workload
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams
        from repro.workload.arrivals import PoissonArrivals
        from repro.workload.service import Exponential

        sim, streams = Simulator(), RandomStreams(1)
        system = _plain_builder(sim, streams)
        with pytest.raises(ValueError, match="not both"):
            run_workload(system, sim, streams, PoissonArrivals(1e6),
                         Exponential(1000.0), n_requests=100,
                         request_factory=_noop_factory, kvs=KvsSpec())

    def test_point_spec_with_wired_builder(self):
        from repro.runner import ref
        from repro.runner.executor import execute_point

        with pytest.raises(ValueError, match="not both"):
            execute_point(self._spec(ref(_wired_builder)))
