"""Kernel fault handling: zero page, COW, shredding before reuse."""

import pytest

from repro.errors import PageFaultError, ProtectionError, SimulationError
from repro.kernel import Kernel
from repro.sim import Machine


@pytest.fixture
def system_parts(tiny_config):
    config = tiny_config.with_zeroing("shred")
    machine = Machine(config, shredder=True)
    kernel = Kernel(machine)
    return machine, kernel


@pytest.fixture
def baseline_parts(tiny_config):
    config = tiny_config.with_zeroing("nontemporal")
    machine = Machine(config, shredder=False)
    kernel = Kernel(machine)
    return machine, kernel


class TestZeroPageMapping:
    def test_read_fault_maps_zero_page(self, system_parts):
        machine, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 8192)
        result = kernel.translate(process.pid, region.start, write=False)
        assert result.faulted
        assert result.physical < kernel.config.kernel.page_size, \
            "read of fresh page resolves into the shared Zero Page"
        assert kernel.stats.minor_faults == 1

    def test_zero_page_shared_across_vpns(self, system_parts):
        _, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4 * 4096)
        ppns = set()
        for i in range(4):
            result = kernel.translate(process.pid, region.start + i * 4096,
                                      write=False)
            ppns.add(result.physical // 4096)
        assert ppns == {kernel.zero_page_ppn}

    def test_write_fault_allocates_private_page(self, system_parts):
        _, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        read = kernel.translate(process.pid, region.start, write=False)
        write = kernel.translate(process.pid, region.start, write=True)
        assert write.physical != read.physical
        assert kernel.stats.cow_faults == 1
        # Subsequent accesses hit the established mapping.
        again = kernel.translate(process.pid, region.start, write=True)
        assert not again.faulted
        assert again.physical == write.physical

    def test_unreserved_address_segfaults(self, system_parts):
        _, kernel = system_parts
        process = kernel.create_process()
        with pytest.raises(Exception):
            kernel.translate(process.pid, 0xDEAD0000, write=True)


class TestZeroingOnFault:
    def test_write_fault_shreds_page(self, system_parts):
        machine, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        writes_before = machine.controller.stats.data_writes
        shreds_before = machine.controller.stats.shreds
        result = kernel.translate(process.pid, region.start, write=True)
        assert result.zeroed_page
        assert machine.controller.stats.shreds == shreds_before + 1
        assert machine.controller.stats.data_writes == writes_before, \
            "shred strategy performs zero data writes"

    def test_baseline_fault_writes_zeros(self, baseline_parts):
        machine, kernel = baseline_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        writes_before = machine.controller.stats.data_writes
        kernel.translate(process.pid, region.start, write=True)
        assert machine.controller.stats.data_writes == \
            writes_before + kernel.config.blocks_per_page

    def test_fault_time_accounting(self, baseline_parts):
        _, kernel = baseline_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        kernel.translate(process.pid, region.start, write=True)
        assert kernel.stats.fault_ns > 0
        assert 0 < kernel.stats.zeroing_ns <= kernel.stats.fault_ns
        assert 0 < kernel.stats.zeroing_fraction_of_fault_time <= 1.0


class TestDataIsolation:
    def test_reused_page_reads_zero_not_old_data(self, system_parts):
        """The core security property: process B never sees process A's
        bytes through a recycled physical page."""
        machine, kernel = system_parts
        victim = kernel.create_process()
        region = kernel.mmap(victim.pid, 4096)
        paddr = kernel.translate(victim.pid, region.start, write=True).physical
        secret = b"victim-secret!!!" * 4
        machine.store(0, paddr, data=None, merge=(0, secret))
        machine.hierarchy.flush_all()
        kernel.exit_process(victim.pid)

        attacker = kernel.create_process()
        region2 = kernel.mmap(attacker.pid, 64 * 4096)
        leaked = False
        for i in range(64):
            result = kernel.translate(attacker.pid, region2.start + i * 4096,
                                      write=True)
            data = machine.load(0, result.physical)[1]
            if data and secret[:16] in data:
                leaked = True
        assert not leaked

    def test_recycling_stats(self, system_parts):
        _, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        kernel.translate(process.pid, region.start, write=True)
        kernel.exit_process(process.pid)
        process2 = kernel.create_process()
        region2 = kernel.mmap(process2.pid, 4096)
        kernel.translate(process2.pid, region2.start, write=True)
        assert kernel.stats.pages_recycled == 1


class TestProcessLifecycle:
    def test_exit_returns_pages(self, system_parts):
        _, kernel = system_parts
        free_before = kernel.allocator.free_pages
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 2 * 4096)
        for i in range(2):
            kernel.translate(process.pid, region.start + i * 4096, write=True)
        assert kernel.allocator.free_pages == free_before - 2
        freed = kernel.exit_process(process.pid)
        assert freed == 2
        assert kernel.allocator.free_pages == free_before

    def test_exit_does_not_free_zero_page(self, system_parts):
        _, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        kernel.translate(process.pid, region.start, write=False)
        assert kernel.exit_process(process.pid) == 0

    def test_unknown_pid(self, system_parts):
        _, kernel = system_parts
        with pytest.raises(SimulationError):
            kernel.exit_process(999)


class TestShredSyscall:
    def test_sys_shred_zeroes_mapped_pages(self, system_parts):
        machine, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 2 * 4096)
        paddrs = [kernel.translate(process.pid, region.start + i * 4096,
                                   write=True).physical for i in range(2)]
        for paddr in paddrs:
            machine.store(0, paddr, merge=(0, b"\xaa" * 16))
        machine.hierarchy.flush_all()
        latency = kernel.sys_shred(process.pid, region.start, 2)
        assert latency > 0
        for paddr in paddrs:
            assert machine.load(0, paddr)[1] == bytes(64)

    def test_sys_shred_skips_zero_page_mappings(self, system_parts):
        _, kernel = system_parts
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        kernel.translate(process.pid, region.start, write=False)
        shreds_before = kernel.machine.controller.stats.shreds
        kernel.sys_shred(process.pid, region.start, 1)
        assert kernel.machine.controller.stats.shreds == shreds_before

    def test_sys_shred_alignment(self, system_parts):
        _, kernel = system_parts
        process = kernel.create_process()
        kernel.mmap(process.pid, 4096)
        with pytest.raises(PageFaultError):
            kernel.sys_shred(process.pid, 123, 1)

    def test_user_space_shred_raises(self, system_parts):
        _, kernel = system_parts
        with pytest.raises(ProtectionError):
            kernel.user_shred_attempt(0)


class TestPrezeroPool:
    def test_pool_avoids_fault_time_zeroing(self, tiny_config):
        from dataclasses import replace
        config = replace(tiny_config.with_zeroing("nontemporal"),
                         kernel=replace(tiny_config.kernel,
                                        zeroing_strategy="nontemporal",
                                        prezero_pool_pages=4))
        machine = Machine(config, shredder=False)
        kernel = Kernel(machine)
        zeroed_at_boot = kernel.zeroing.stats.pages_zeroed
        assert zeroed_at_boot == 4
        process = kernel.create_process()
        region = kernel.mmap(process.pid, 4096)
        result = kernel.translate(process.pid, region.start, write=True)
        assert not result.zeroed_page, "pre-zeroed page needs no fault-time work"
        assert kernel.zeroing.stats.pages_zeroed == zeroed_at_boot
