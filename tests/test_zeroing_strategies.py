"""The five zeroing strategies and their Table 2 feature trade-offs."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.kernel import ZeroingEngine
from repro.sim import Machine


def make_machine(tiny_config, strategy, *, shredder=None, encrypted=True):
    config = tiny_config.with_zeroing(strategy)
    if not encrypted:
        config = replace(config, encryption=replace(config.encryption,
                                                    enabled=False))
    if shredder is None:
        shredder = strategy == "shred"
    return Machine(config, shredder=shredder)


def page_blocks(machine, ppn):
    page_size = machine.config.kernel.page_size
    return range(ppn * page_size, (ppn + 1) * page_size, 64)


class TestStrategiesZeroThePage:
    @pytest.mark.parametrize("strategy,encrypted", [
        ("temporal", True), ("nontemporal", True), ("dma", True),
        ("rowclone", False), ("shred", True)])
    def test_page_reads_zero_after(self, tiny_config, strategy, encrypted):
        machine = make_machine(tiny_config, strategy, encrypted=encrypted)
        engine = ZeroingEngine(machine)
        ppn = 3
        # Dirty the page first (previous owner's data).
        for address in page_blocks(machine, ppn):
            machine.controller.store_block(address, b"\x77" * 64)
        engine.zero_page(ppn)
        machine.hierarchy.flush_all()
        for address in page_blocks(machine, ppn):
            assert machine.load(0, address)[1] == bytes(64), \
                f"{strategy}: block {address:#x} must read zero"


class TestWriteCounts:
    def test_temporal_and_nontemporal_write_memory(self, tiny_config):
        for strategy in ("nontemporal", "dma"):
            machine = make_machine(tiny_config, strategy)
            engine = ZeroingEngine(machine)
            result = engine.zero_page(2)
            assert result.memory_writes == tiny_config.blocks_per_page

    def test_shred_writes_nothing(self, tiny_config):
        machine = make_machine(tiny_config, "shred")
        engine = ZeroingEngine(machine)
        result = engine.zero_page(2)
        assert result.memory_writes == 0

    def test_rowclone_programs_cells_but_not_bus(self, tiny_config):
        machine = make_machine(tiny_config, "rowclone", encrypted=False)
        engine = ZeroingEngine(machine)
        bus_before = machine.controller.mem.channels.total_requests
        result = engine.zero_page(2)
        assert result.memory_writes == tiny_config.blocks_per_page
        assert machine.controller.mem.channels.total_requests == bus_before, \
            "RowClone zeroing stays inside the memory array"

    def test_temporal_pollutes_caches(self, tiny_config):
        machine = make_machine(tiny_config, "temporal")
        engine = ZeroingEngine(machine)
        result = engine.zero_page(2)
        assert result.cache_blocks_polluted == tiny_config.blocks_per_page
        assert machine.hierarchy.l4.contains(2 * tiny_config.kernel.page_size)

    def test_nontemporal_does_not_pollute(self, tiny_config):
        machine = make_machine(tiny_config, "nontemporal")
        engine = ZeroingEngine(machine)
        result = engine.zero_page(2)
        assert result.cache_blocks_polluted == 0
        assert not machine.hierarchy.l4.contains(2 * tiny_config.kernel.page_size)


class TestLatencies:
    def test_shred_cheapest(self, tiny_config):
        latencies = {}
        for strategy in ("temporal", "nontemporal", "dma", "shred"):
            machine = make_machine(tiny_config, strategy)
            engine = ZeroingEngine(machine)
            latencies[strategy] = engine.zero_page(2).latency_ns
        assert latencies["shred"] < min(latencies["temporal"],
                                        latencies["nontemporal"],
                                        latencies["dma"])

    def test_dma_frees_cpu(self, tiny_config):
        machine = make_machine(tiny_config, "dma")
        engine = ZeroingEngine(machine)
        result = engine.zero_page(2)
        assert result.cpu_busy_ns < result.latency_ns

    def test_nontemporal_cpu_is_issue_loop(self, tiny_config):
        machine = make_machine(tiny_config, "nontemporal")
        engine = ZeroingEngine(machine)
        result = engine.zero_page(2)
        assert result.cpu_busy_ns < result.latency_ns  # sfence dominates


class TestInvalidationSemantics:
    def test_nontemporal_invalidates_cached_copies(self, tiny_config):
        machine = make_machine(tiny_config, "nontemporal")
        page_size = tiny_config.kernel.page_size
        machine.load(0, 2 * page_size)
        machine.load(1, 2 * page_size)
        ZeroingEngine(machine).zero_page(2)
        for core in range(2):
            assert not machine.hierarchy.l1[core].contains(2 * page_size)

    def test_shred_invalidates_cached_copies(self, tiny_config):
        machine = make_machine(tiny_config, "shred")
        page_size = tiny_config.kernel.page_size
        machine.load(0, 2 * page_size)
        ZeroingEngine(machine).zero_page(2)
        assert not machine.hierarchy.l4.contains(2 * page_size)


class TestConfigGuards:
    def test_rowclone_needs_unencrypted(self, tiny_config):
        machine = make_machine(tiny_config, "nontemporal")
        with pytest.raises(ConfigError):
            ZeroingEngine(machine, strategy="rowclone")

    def test_shred_needs_shredder_machine(self, tiny_config):
        machine = make_machine(tiny_config, "nontemporal", shredder=False)
        with pytest.raises(ConfigError):
            ZeroingEngine(machine, strategy="shred")

    def test_unknown_strategy(self, tiny_config):
        machine = make_machine(tiny_config, "nontemporal")
        with pytest.raises(ConfigError):
            ZeroingEngine(machine, strategy="memset")

    def test_stats_aggregate(self, tiny_config):
        machine = make_machine(tiny_config, "nontemporal")
        engine = ZeroingEngine(machine)
        engine.zero_page(2)
        engine.zero_page(3)
        assert engine.stats.pages_zeroed == 2
        assert engine.stats.memory_writes == 2 * tiny_config.blocks_per_page
