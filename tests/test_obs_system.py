"""System-level telemetry: report-embedded snapshots reconcile with the
classic statistics, survive reset, and round-trip serialisation."""

import json

from repro.sim import System
from repro.sim.system import SystemReport


def run_workload(system, *, pages=2, shred=False):
    ctx = system.new_context(0)
    base = ctx.malloc(4096 * (pages + 1))
    for offset in range(0, 4096 * pages, 8):
        ctx.store_u64(base + offset, offset)
    for offset in range(0, 4096 * pages, 64):
        ctx.load_u64(base + offset)
    if shred and system.shredder_enabled:
        ctx.shred(base, 1)
    return system.report()


class TestReconciliation:
    """ISSUE acceptance: registry totals reconcile with SystemReport."""

    def test_controller_counters_match_report_fields(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True), shred=True)
        metrics = report.metrics
        assert metrics["mem.ctrl.data_reads"]["value"] == report.memory_reads
        assert metrics["mem.ctrl.data_writes"]["value"] == report.memory_writes
        assert metrics["mem.ctrl.zero_fill_reads"]["value"] \
            == report.zero_fill_reads
        assert metrics["core.shredder.shreds"]["value"] == report.shreds

    def test_counter_cache_metrics_match_extras(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        metrics = report.metrics
        assert metrics["cache.counter.hits"]["value"] \
            == report.extra["counter_hits"]
        assert metrics["cache.counter.misses"]["value"] \
            == report.extra["counter_misses"]

    def test_device_writes_cover_data_and_counter_traffic(self, tiny_config):
        system = System(tiny_config, shredder=True)
        report = run_workload(system, shred=True)
        metrics = report.metrics
        ctl = system.machine.controller.stats
        # Every NVM device write is a data write-back or a counter
        # write-back; nothing else touches the device in this workload.
        assert metrics["mem.nvm.writes"]["value"] \
            == ctl.data_writes + ctl.counter_writebacks

    def test_device_energy_matches_report(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        metrics = report.metrics
        assert metrics["mem.nvm.write_energy_pj"]["value"] \
            == report.write_energy_pj
        assert metrics["mem.nvm.read_energy_pj"]["value"] \
            == report.read_energy_pj

    def test_read_latency_histogram_counts_every_fetch(self, tiny_config):
        system = System(tiny_config, shredder=True)
        report = run_workload(system, shred=True)
        histogram = report.metrics["mem.ctrl.read_latency_ns"]
        ctl = system.machine.controller.stats
        assert histogram["count"] == ctl.read_requests
        assert histogram["sum"] == ctl.total_read_latency_ns


class TestDeterminism:
    def test_identical_runs_produce_identical_snapshots(self, tiny_config):
        first = run_workload(System(tiny_config, shredder=True), shred=True)
        second = run_workload(System(tiny_config, shredder=True), shred=True)
        assert json.dumps(first.metrics, sort_keys=True) \
            == json.dumps(second.metrics, sort_keys=True)

    def test_report_round_trips_metrics(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        rebuilt = SystemReport.from_dict(report.to_dict())
        assert rebuilt.metrics == report.metrics

    def test_as_dict_excludes_metrics(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        assert "metrics" not in report.as_dict()

    def test_old_documents_without_metrics_still_load(self):
        document = {"name": "legacy", "shredder": True, "extra": {}}
        report = SystemReport.from_dict(document)
        assert report.metrics == {}


class TestReset:
    def test_reset_zeroes_registry_with_stats(self, tiny_config):
        system = System(tiny_config, shredder=True)
        run_workload(system, shred=True)
        system.reset_stats()
        snapshot = system.metrics.snapshot()
        assert snapshot["mem.nvm.writes"]["value"] == 0
        assert snapshot["mem.ctrl.data_writes"]["value"] == 0
        assert snapshot["cache.counter.hits"]["value"] == 0
        assert snapshot["mem.ctrl.read_latency_ns"]["count"] == 0

    def test_stats_keep_accumulating_after_reset(self, tiny_config):
        """The registry-bound stats views stay live across reset_stats
        (replacing them used to orphan the registry's instruments)."""
        system = System(tiny_config, shredder=True)
        run_workload(system)
        system.reset_stats()
        report = run_workload(system)
        assert report.metrics["mem.ctrl.data_writes"]["value"] \
            == report.memory_writes
        assert report.memory_writes > 0 or report.memory_reads > 0


class TestMemoryStatsView:
    def test_merge_adds_per_field(self, tiny_config):
        from repro.mem.stats import MemoryStats
        first = MemoryStats()
        first.record_write(64, 256, 100.0, 10.0)
        second = MemoryStats()
        second.record_write(64, 128, 50.0, 5.0)
        second.record_read(64, 30.0, 2.0)
        first.merge(second)
        assert first.writes == 2
        assert first.reads == 1
        assert first.bits_written == 384
        assert first.write_energy_pj == 15.0

    def test_reset_zeroes_plain_fields(self):
        """MemoryStats keeps plain fields (no registry): reset zeroes
        them in place to integer 0, and recording resumes from there."""
        from repro.mem.stats import MemoryStats
        stats = MemoryStats()
        stats.record_read(64, 10.0, 1.0)
        stats.record_write(64, 256, 20.0, 2.0)
        stats.reset()
        fields = stats.snapshot()
        assert all(value == 0 for value in fields.values())
        assert type(stats.read_energy_pj) is int
        stats.record_read(64, 10.0, 1.0)
        assert (stats.reads, stats.bytes_read, stats.writes) == (1, 64, 0)
        assert stats.total_read_latency_ns == 10.0
