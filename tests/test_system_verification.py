"""System-level verification helpers: invariants, stat reset, dumps."""

import pytest

from repro.cache.coherence import CoherenceStats
from repro.config import bench_config, fast_config
from repro.errors import SimulationError
from repro.sim import System
from repro.workloads import SPEC_BENCHMARKS, multiprogrammed_tasks, spec_task


@pytest.fixture
def busy_system(timing_config):
    system = System(timing_config.with_zeroing("shred"), shredder=True,
                    name="verify")
    system.run_single(spec_task(SPEC_BENCHMARKS["GCC"].scaled(0.05)))
    return system


class TestVerifyInvariants:
    def test_clean_after_run(self, busy_system):
        busy_system.verify_invariants()

    def test_detects_counter_corruption(self, busy_system):
        cache = busy_system.machine.controller.counter_cache
        entries = list(cache.entries())
        assert entries, "run must have touched counters"
        _, counters, _ = entries[0]
        counters.minors[0] = 9999
        with pytest.raises(SimulationError):
            busy_system.verify_invariants()

    def test_detects_inclusion_violation(self, busy_system):
        hierarchy = busy_system.machine.hierarchy
        resident = hierarchy.l1[0].resident_addresses()
        assert resident
        hierarchy.l4.invalidate(resident[0])     # break inclusion by hand
        with pytest.raises(Exception):
            busy_system.verify_invariants()


class TestDirectoryResidency:
    """The directory lists exactly the cores whose L1 or L2 holds each
    block, and only blocks L4 holds."""

    def test_clean_after_multicore_run(self):
        # Private L1 victims of L2 hits used to stay listed as sharers;
        # this run ended with two such stale entries.
        system = System(bench_config(), shredder=True)
        system.run(multiprogrammed_tasks("MCF", 2, scale=0.2))
        hierarchy = system.machine.hierarchy
        assert hierarchy.directory.entries, "run must leave blocks cached"
        system.verify_invariants()

    def test_detects_private_line_dropped_behind_directory(self,
                                                           busy_system):
        hierarchy = busy_system.machine.hierarchy
        address = hierarchy.l1[0].resident_addresses()[0]
        assert hierarchy.directory.sharers_of(address) == {0}
        hierarchy.l1[0].invalidate(address)      # no directory update
        hierarchy.l2[0].invalidate(address)
        with pytest.raises(SimulationError, match="sharers"):
            busy_system.verify_invariants()

    def test_detects_entry_for_block_missing_from_l4(self, busy_system):
        hierarchy = busy_system.machine.hierarchy
        cached = set(hierarchy.l4.resident_addresses())
        address = next(a for a in range(0, 1 << 30, 64) if a not in cached)
        hierarchy.directory.read(address, 0)     # tracked, never cached
        with pytest.raises(SimulationError, match="L4 does not hold"):
            busy_system.verify_invariants()


class TestResetStats:
    def test_counters_zeroed_state_kept(self, busy_system):
        l4_lines = len(busy_system.machine.hierarchy.l4)
        assert busy_system.report().memory_writes >= 0
        busy_system.reset_stats()
        report = busy_system.report()
        assert report.memory_writes == 0
        assert report.memory_reads == 0
        assert report.pages_zeroed == 0
        assert busy_system.kernel.stats.cow_faults == 0
        # Architectural state survives: caches stay warm.
        assert len(busy_system.machine.hierarchy.l4) == l4_lines

    def test_warmup_methodology(self, timing_config):
        """Warm up, reset, measure: the section 5 procedure."""
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        system.run_single(spec_task(SPEC_BENCHMARKS["HMMER"].scaled(0.05)))
        system.reset_stats()
        ctx = system.new_context(0)
        base = ctx.malloc(4096)
        ctx.touch(base, write=True)
        report = system.report()
        assert report.shreds == 1      # only the measured window counted


class TestDirectoryStatsLifetime:
    """The directory's statistics live as long as the caches': a flush
    keeps them, a stats reset zeroes them."""

    @staticmethod
    def share_then_store(system, address):
        hierarchy = system.machine.hierarchy
        hierarchy.access(0, address, False)
        hierarchy.access(1, address, False)      # core 0 downgraded
        hierarchy.access(0, address, True)       # core 1 invalidated
        assert hierarchy.directory.stats == CoherenceStats(
            invalidations_sent=1, read_misses_served_by_owner=1)

    def test_flush_all_keeps_directory_stats(self):
        system = System(fast_config(functional=False))
        self.share_then_store(system, 0x1000)
        hierarchy = system.machine.hierarchy
        hierarchy.flush_all()
        assert hierarchy.directory.sharers_of(0x1000) == set()
        assert hierarchy.directory.stats == CoherenceStats(
            invalidations_sent=1, read_misses_served_by_owner=1)

    def test_reset_stats_zeroes_directory_stats(self):
        system = System(fast_config(functional=False))
        self.share_then_store(system, 0x2000)
        system.reset_stats()
        hierarchy = system.machine.hierarchy
        assert hierarchy.l1[0].stats.accesses == 0
        assert hierarchy.directory.stats == CoherenceStats()
        assert hierarchy.directory.sharers_of(0x2000) == {0}


class TestDumpStats:
    def test_sections_present(self, busy_system):
        text = busy_system.dump_stats()
        for section in ("[cpu]", "[caches", "[coherence]",
                        "[secure memory controller]", "[nvm device]",
                        "[kernel]"):
            assert section in text

    def test_coherence_section_reads_the_directory(self):
        system = System(fast_config(functional=False))
        TestDirectoryStatsLifetime.share_then_store(system, 0x3000)
        system.machine.hierarchy.access(1, 0x3000, False)  # owner serves
        stats = system.machine.hierarchy.directory.stats
        assert stats == CoherenceStats(invalidations_sent=1,
                                       writebacks_forced=1,
                                       read_misses_served_by_owner=2)
        lines = system.dump_stats().split("\n\n")
        section = next(s for s in lines if s.startswith("[coherence]"))
        header, _, values = section.splitlines()[1:]
        assert dict(zip(header.split(), values.split())) == {
            "invalidations_sent": "1", "ownership_transfers": "0",
            "writebacks_forced": "1", "read_misses_served_by_owner": "2"}

    def test_dump_reflects_activity(self, busy_system):
        text = busy_system.dump_stats()
        assert "shreds" in text
        assert busy_system.name in text
