"""The metrics registry: instruments, snapshots, deterministic merge."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (INF, Counter, Gauge, Histogram, MetricsRegistry,
                       check_name, merge_snapshots)


class TestNames:
    def test_hierarchical_names_accepted(self):
        for name in ("mem.nvm.writes", "cache.counter.hits", "a", "a_b.c_1"):
            assert check_name(name) == name

    @pytest.mark.parametrize("bad", ["", "Mem.writes", "a..b", ".a", "a.",
                                     "a-b", "a b", 7, None])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ObservabilityError):
            check_name(bad)


class TestCounter:
    def test_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x.writes", unit="ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_set_total_cannot_go_backwards(self):
        counter = MetricsRegistry().counter("x.total")
        counter.set_total(10)
        counter.set_total(10)       # idempotent republish is fine
        counter.set_total(12)
        with pytest.raises(ObservabilityError):
            counter.set_total(11)

    def test_fractional_amounts(self):
        counter = MetricsRegistry().counter("x.energy_pj", unit="pJ")
        counter.inc(0.5)
        counter.inc(0.25)
        assert counter.value == 0.75


class TestGauge:
    def test_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("x.entries")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8


class TestHistogram:
    def test_cumulative_buckets_and_overflow(self):
        histogram = MetricsRegistry().histogram("x.lat", buckets=(10, 20, 40))
        for value in (5, 15, 15, 100):
            histogram.observe(value)
        entry = histogram.describe()
        assert entry["count"] == 4
        assert entry["sum"] == 135
        assert entry["buckets"] == [[10.0, 1], [20.0, 3], [40.0, 3], [INF, 4]]

    def test_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.histogram("x.bad", buckets=(10, 10))
        with pytest.raises(ObservabilityError):
            registry.histogram("x.empty", buckets=())


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ObservabilityError):
            registry.gauge("a.b")

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc(1)
        registry.gauge("a.first").set(2.5)
        registry.histogram("m.mid", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)        # must not raise

    def test_collectors_run_at_snapshot(self):
        registry = MetricsRegistry()
        source = {"total": 0}
        registry.register_collector(
            lambda reg: reg.counter("pull.total").set_total(source["total"]))
        source["total"] = 7
        assert registry.snapshot()["pull.total"]["value"] == 7
        source["total"] = 9
        assert registry.snapshot()["pull.total"]["value"] == 9

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(5)
        registry.reset()
        assert registry.get("a.b").value == 0
        assert len(registry) == 1


class TestMerge:
    def make_snapshot(self, counter, gauge, observations):
        registry = MetricsRegistry()
        registry.counter("c.total", unit="ops").inc(counter)
        registry.gauge("g.level").set(gauge)
        histogram = registry.histogram("h.lat", buckets=(10, 20))
        for value in observations:
            histogram.observe(value)
        return registry.snapshot()

    def test_counters_add_gauges_max_histograms_add(self):
        merged = merge_snapshots(self.make_snapshot(3, 10, [5, 25]),
                                 self.make_snapshot(4, 7, [15]))
        assert merged["c.total"]["value"] == 7
        assert merged["g.level"]["value"] == 10
        assert merged["h.lat"]["count"] == 3
        assert merged["h.lat"]["buckets"] == [[10.0, 1], [20.0, 2], [INF, 3]]

    def test_merge_is_order_independent(self):
        parts = [self.make_snapshot(1, 5, [1]),
                 self.make_snapshot(2, 9, [11]),
                 self.make_snapshot(3, 2, [21])]
        forward = merge_snapshots(*parts)
        backward = merge_snapshots(*reversed(parts))
        assert json.dumps(forward, sort_keys=True) \
            == json.dumps(backward, sort_keys=True)

    def test_merge_twice_doubles(self):
        snapshot = self.make_snapshot(5, 1, [5])
        merged = merge_snapshots(snapshot, snapshot)
        assert merged["c.total"]["value"] == 10
        assert merged["h.lat"]["count"] == 2

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h.lat", buckets=(1, 2))
        other = MetricsRegistry()
        other.histogram("h.lat", buckets=(3, 4)).observe(1)
        with pytest.raises(ObservabilityError):
            registry.merge_snapshot(other.snapshot())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().merge_snapshot({"x.y": {"kind": "mystery"}})

    def test_empty_and_none_snapshots_are_neutral(self):
        base = self.make_snapshot(3, 10, [5])
        merged = merge_snapshots({}, base, {})
        assert json.dumps(merged, sort_keys=True) \
            == json.dumps(merge_snapshots(base), sort_keys=True)
        registry = MetricsRegistry()
        registry.merge_snapshot(None)       # an idle worker shipped nothing
        assert registry.snapshot() == {}

    def test_all_empty_merges_to_empty(self):
        assert merge_snapshots({}, {}) == {}
        assert merge_snapshots() == {}

    def test_gauge_max_across_three_way_merge(self):
        parts = [self.make_snapshot(1, 4, []),
                 self.make_snapshot(1, 11, []),
                 self.make_snapshot(1, 7, [])]
        for ordering in (parts, list(reversed(parts)),
                         [parts[1], parts[0], parts[2]]):
            merged = merge_snapshots(*ordering)
            assert merged["g.level"]["value"] == 11
            assert merged["c.total"]["value"] == 3

    def test_disjoint_names_union(self):
        left = MetricsRegistry()
        left.counter("only.left").inc(2)
        right = MetricsRegistry()
        right.gauge("only.right").set(5)
        merged = merge_snapshots(left.snapshot(), right.snapshot())
        assert merged["only.left"]["value"] == 2
        assert merged["only.right"]["value"] == 5
