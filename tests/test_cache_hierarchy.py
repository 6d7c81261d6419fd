"""The 4-level hierarchy: hit levels, latencies, inclusion, invalidation."""

from dataclasses import replace
from typing import List, Optional

import pytest

from repro.cache import CacheHierarchy
from repro.config import fast_config


class FakeMemory:
    """Deterministic memory below the hierarchy, recording traffic."""

    def __init__(self, block_size=64, latency_ns=100.0):
        self.block_size = block_size
        self.latency_ns = latency_ns
        self.fetches: List[int] = []
        self.writebacks: List[int] = []
        self.zero_pages = set()

    def miss_handler(self, address: int, now_ns: float):
        self.fetches.append(address)
        if address // 4096 in self.zero_pages:
            return bytes(self.block_size), 5.0, True
        payload = (address % 251).to_bytes(2, "little") * (self.block_size // 2)
        return payload, self.latency_ns, False

    def writeback_handler(self, address: int, data, now_ns: float) -> None:
        self.writebacks.append(address)


@pytest.fixture
def setup(tiny_config):
    memory = FakeMemory()
    hierarchy = CacheHierarchy(tiny_config, memory.miss_handler,
                               memory.writeback_handler)
    return hierarchy, memory, tiny_config


class TestHitLevels:
    def test_cold_miss_goes_to_memory(self, setup):
        hierarchy, memory, _ = setup
        hierarchy.access(0, 0x1000, False)
        assert hierarchy.memory_fetches == 1
        assert memory.fetches == [0x1000]

    def test_second_access_hits_l1(self, setup):
        hierarchy, memory, config = setup
        hierarchy.access(0, 0x1000, False)
        latency, _ = hierarchy.access(0, 0x1000, False)
        assert hierarchy.l1[0].stats.hits == 1
        assert latency == config.l1.latency_cycles
        assert len(memory.fetches) == 1

    def test_other_core_hits_shared_level(self, setup):
        hierarchy, memory, _ = setup
        hierarchy.access(0, 0x1000, False)
        hierarchy.access(1, 0x1000, False)
        assert hierarchy.l3.stats.hits + hierarchy.l4.stats.hits == 1
        assert len(memory.fetches) == 1

    def test_latency_ordering(self, setup):
        hierarchy, _, config = setup
        miss, _ = hierarchy.access(0, 0x2000, False)
        hit, _ = hierarchy.access(0, 0x2000, False)
        assert hit == config.l1.latency_cycles
        assert miss > hit

    def test_zero_filled_miss(self, setup):
        hierarchy, memory, _ = setup
        memory.zero_pages.add(1)
        _, data = hierarchy.access(0, 0x1000, False)
        assert data == bytes(64)
        assert hierarchy.zero_fills == 1
        assert hierarchy.memory_fetches == 0

    def test_block_alignment(self, setup):
        hierarchy, memory, _ = setup
        hierarchy.access(0, 0x1010, False)
        assert memory.fetches == [0x1000]


class TestFunctionalData:
    def test_store_then_load(self, setup):
        hierarchy, _, _ = setup
        payload = bytes(range(64))
        hierarchy.access(0, 0x3000, True, data=payload)
        _, data = hierarchy.access(0, 0x3000, False)
        assert data == payload

    def test_merge_store(self, setup):
        hierarchy, _, _ = setup
        hierarchy.access(0, 0x3000, True, data=bytes(64))
        hierarchy.access(0, 0x3000, True, merge=(8, b"\xff\xff"))
        _, data = hierarchy.access(0, 0x3000, False)
        assert data[8:10] == b"\xff\xff"
        assert data[:8] == bytes(8)

    def test_load_sees_other_cores_store(self, setup):
        hierarchy, _, _ = setup
        payload = b"\xab" * 64
        hierarchy.access(0, 0x3000, True, data=payload)
        _, data = hierarchy.access(1, 0x3000, False)
        assert data == payload


class TestWritebacks:
    def test_dirty_eviction_writes_back(self, setup):
        hierarchy, memory, config = setup
        # Fill one L4 set beyond capacity with dirty lines.
        sets = config.l4.num_sets
        assoc = config.l4.associativity
        addresses = [(tag * sets) * 64 for tag in range(assoc + 1)]
        for address in addresses:
            hierarchy.access(0, address, True, data=bytes(64))
        assert memory.writebacks, "an L4 dirty eviction must write back"

    def test_clean_eviction_silent(self, setup):
        hierarchy, memory, config = setup
        sets = config.l4.num_sets
        assoc = config.l4.associativity
        for tag in range(assoc + 1):
            hierarchy.access(0, (tag * sets) * 64, False)
        assert memory.writebacks == []

    def test_l4_eviction_back_invalidates(self, setup):
        hierarchy, memory, config = setup
        sets = config.l4.num_sets
        assoc = config.l4.associativity
        victim = 0
        hierarchy.access(0, victim, False)
        for tag in range(1, assoc + 1):
            hierarchy.access(0, (tag * sets) * 64, False)
        assert not hierarchy.l4.contains(victim)
        assert not hierarchy.l1[0].contains(victim)
        assert not hierarchy.l2[0].contains(victim)
        assert not hierarchy.l3.contains(victim)
        # Re-access must go to memory again.
        before = len(memory.fetches)
        hierarchy.access(0, victim, False)
        assert len(memory.fetches) == before + 1


class TestInvalidatePage:
    def test_shred_style_drop_without_writeback(self, setup):
        hierarchy, memory, config = setup
        page = 0x4000
        for offset in range(0, config.kernel.page_size, 64):
            hierarchy.access(0, page + offset, True, data=bytes(64))
        result = hierarchy.invalidate_page(page, config.kernel.page_size,
                                           writeback=False)
        assert result.blocks_invalidated == config.blocks_per_page
        assert result.blocks_written_back == 0
        assert memory.writebacks == []

    def test_baseline_invalidate_writes_dirty_back(self, setup):
        hierarchy, memory, config = setup
        page = 0x4000
        hierarchy.access(0, page, True, data=bytes(64))
        result = hierarchy.invalidate_page(page, config.kernel.page_size,
                                           writeback=True)
        assert result.blocks_written_back == 1
        assert memory.writebacks == [page]

    def test_invalidation_covers_all_cores(self, setup):
        hierarchy, memory, config = setup
        page = 0x4000
        hierarchy.access(0, page, False)
        hierarchy.access(1, page, False)
        hierarchy.invalidate_page(page, config.kernel.page_size,
                                  writeback=False)
        for core in range(config.cpu.num_cores):
            assert not hierarchy.l1[core].contains(page)
            assert not hierarchy.l2[core].contains(page)


class TestCoherenceIntegration:
    def test_write_invalidates_remote_private_copy(self, setup):
        hierarchy, memory, _ = setup
        hierarchy.access(0, 0x5000, False)
        hierarchy.access(1, 0x5000, False)
        hierarchy.access(0, 0x5000, True, data=bytes(64))
        assert not hierarchy.l1[1].contains(0x5000)
        assert not hierarchy.l2[1].contains(0x5000)
        # Core 1 refetches from the shared levels, not memory.
        before = len(memory.fetches)
        shared_hits = hierarchy.l3.stats.hits + hierarchy.l4.stats.hits
        hierarchy.access(1, 0x5000, False)
        assert (hierarchy.l3.stats.hits + hierarchy.l4.stats.hits
                == shared_hits + 1)
        assert len(memory.fetches) == before

    def test_directory_invariants_after_traffic(self, setup):
        hierarchy, _, _ = setup
        for i in range(32):
            hierarchy.access(i % 2, 0x1000 + (i % 8) * 64, i % 3 == 0,
                             data=bytes(64) if i % 3 == 0 else None)
        hierarchy.directory.check_invariants()

    def test_flush_all_writes_dirty(self, setup):
        hierarchy, memory, _ = setup
        hierarchy.access(0, 0x6000, True, data=bytes(64))
        flushed = hierarchy.flush_all()
        assert flushed == 1
        assert memory.writebacks == [0x6000]
        hierarchy.access(0, 0x6000, False)
        assert memory.fetches == [0x6000, 0x6000]


class TestDirectoryTracksPrivateResidency:
    """A core stays a sharer exactly while its L1 or L2 holds the block."""

    @staticmethod
    def two_way_private(functional):
        # One set of two ways in L1 and L2, so a third block evicts.
        one_set = {"size_bytes": 2 * 64, "associativity": 2}
        config = fast_config(functional=functional)
        return replace(config, l1=replace(config.l1, **one_set),
                       l2=replace(config.l2, **one_set))

    @pytest.mark.parametrize("functional", [False, True])
    def test_l2_hit_reports_the_l1_victim(self, functional):
        """Core 0 loads A, B, A, C, B. C's fills evict B from L1 and A
        from L2; the final L2 hit on B refills L1 over A, which then
        lives in neither private level and must leave the directory."""
        memory = FakeMemory()
        hierarchy = CacheHierarchy(self.two_way_private(functional),
                                   memory.miss_handler,
                                   memory.writeback_handler)
        a, b, c = 0x10000, 0x20000, 0x30000
        for address in (a, b, a, c, b):
            hierarchy.access(0, address, False)
        assert not hierarchy.l1[0].contains(a)
        assert not hierarchy.l2[0].contains(a)
        assert hierarchy.directory.sharers_of(a) == set()
        # So a later store from core 1 invalidates no one.
        sent = hierarchy.directory.stats.invalidations_sent
        hierarchy.access(1, a, True, data=bytes(64))
        assert hierarchy.directory.stats.invalidations_sent == sent
        hierarchy.check_inclusion()
