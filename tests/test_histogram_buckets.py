"""Histogram bucketing by bisection, and the pull-published controller
read-latency histogram.

``Histogram.observe`` finds its bucket with ``bisect_left``; the
controller buckets ``mem.ctrl.read_latency_ns`` into a plain list the
same way and the ``System`` publishes it at snapshot time. Both must
agree exactly with the original linear scan and with a registry
``Histogram`` fed the same latencies.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (DeuceShredderController, DirectEncryptionController,
                        INVMMController, SecureMemoryController,
                        SilentShredderController)
from repro.core.secure_memory import SecureMemoryStats
from repro.obs import DEFAULT_LATENCY_BUCKETS_NS, Histogram, MetricsRegistry
from repro.sim import System


def linear_bucket(bounds, value):
    """The reference: the first bound the value does not exceed."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


def bucket_counts(histogram):
    """Per-bucket (non-cumulative) counts from a snapshot entry."""
    counts, previous = [], 0
    for _le, cumulative in histogram.describe()["buckets"]:
        counts.append(cumulative - previous)
        previous = cumulative
    return counts


BOUNDS = st.lists(st.floats(min_value=-1e9, max_value=1e9,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=12, unique=True).map(
                      lambda values: tuple(sorted(values)))


def values_for(bounds):
    """Any non-NaN number, with bounds themselves and their
    neighbourhood (including past the last one) drawn often."""
    return st.one_of(
        st.sampled_from(bounds),
        st.sampled_from(bounds).map(lambda b: b + 1),
        st.sampled_from(bounds).map(lambda b: b - 1),
        st.just(bounds[-1] * 2 + 1),
        st.integers(min_value=-10**12, max_value=10**12),
        st.floats(allow_nan=False))


class TestBisectMatchesLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_observe(self, data):
        bounds = data.draw(BOUNDS)
        value = data.draw(values_for(bounds))
        histogram = Histogram("t.hist", buckets=bounds)
        histogram.observe(value)
        expected = [0] * (len(bounds) + 1)
        expected[linear_bucket(bounds, value)] = 1
        assert bucket_counts(histogram) == expected

    @pytest.mark.parametrize("value", [*DEFAULT_LATENCY_BUCKETS_NS, 0.0,
                                       12800.5, float("inf")])
    def test_default_bounds_edges(self, value):
        histogram = Histogram("t.hist")
        histogram.observe(value)
        index = linear_bucket(DEFAULT_LATENCY_BUCKETS_NS, value)
        assert bucket_counts(histogram)[index] == 1


LATENCIES = st.lists(
    st.one_of(st.sampled_from(DEFAULT_LATENCY_BUCKETS_NS),
              st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
              st.integers(min_value=0, max_value=20000)),
    max_size=80)


class TestPublishedReadLatency:
    @settings(max_examples=200, deadline=None)
    @given(reads=LATENCIES)
    def test_controller_buckets_equal_a_histogram(self, reads):
        """What the collector publishes from the controller's plain
        fields equals a registry Histogram fed the same reads."""
        stats = SecureMemoryStats()
        reference = Histogram("mem.ctrl.read_latency_ns", unit="ns")
        for latency in reads:
            stats.record_read(latency)
            reference.observe(latency)
        registry = MetricsRegistry()
        registry.histogram("mem.ctrl.read_latency_ns", unit="ns").set_counts(
            stats.read_latency_buckets, stats.total_read_latency_ns)
        published = registry.snapshot()["mem.ctrl.read_latency_ns"]
        assert published == reference.describe()
        assert repr(published["sum"]) == repr(reference.describe()["sum"])

    @pytest.mark.parametrize("cls", [
        SecureMemoryController, SilentShredderController,
        DeuceShredderController, DirectEncryptionController, INVMMController,
    ], ids=lambda cls: cls.__name__)
    def test_every_controller_buckets_every_read(self, cls, tiny_config):
        """Each controller class accounts its reads through
        ``record_read``: one bucket entry per served read, a zero-filled
        read of a shredded page included."""
        config = replace(tiny_config, encryption=replace(
            tiny_config.encryption, cipher="aes"))
        controller = cls(config)
        controller.store_block(0, bytes(range(64)))
        controller.fetch_block(0)
        controller.fetch_block(64)
        reads = 2
        if isinstance(controller, SilentShredderController):
            controller.shred_page(1)
            assert controller.fetch_block(config.kernel.page_size).zero_filled
            reads += 1
        stats = controller.stats
        assert stats.read_requests == reads
        assert sum(stats.read_latency_buckets) == stats.read_requests

    def test_empty_histogram_publishes_integer_sum(self, tiny_config):
        report = System(tiny_config, shredder=True).report()
        histogram = report.metrics["mem.ctrl.read_latency_ns"]
        assert histogram["count"] == 0
        assert histogram["sum"] == 0 and type(histogram["sum"]) is int

    def test_system_run_publishes_every_read(self, tiny_config, monkeypatch):
        seen = []
        record = SecureMemoryStats.record_read

        def recording(self, latency_ns):
            seen.append(latency_ns)
            record(self, latency_ns)

        monkeypatch.setattr(SecureMemoryStats, "record_read", recording)
        system = System(tiny_config, shredder=True)
        ctx = system.new_context(0)
        base = ctx.malloc(4 * 4096)
        for offset in range(0, 4 * 4096, 64):
            ctx.store_u64(base + offset, offset)
        ctx.shred(base, 1)
        system.machine.hierarchy.flush_all()
        for offset in range(0, 4 * 4096, 64):
            ctx.load_u64(base + offset)
        report = system.report()

        reference = Histogram("mem.ctrl.read_latency_ns", unit="ns")
        for latency in seen:
            reference.observe(latency)
        assert seen and report.zero_fill_reads
        assert report.metrics["mem.ctrl.read_latency_ns"] \
            == reference.describe()
