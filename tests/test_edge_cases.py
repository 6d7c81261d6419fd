"""Edge-case coverage: OOM, huge-page teardown, verify() failure paths,
memset benchmark record, INVMM timing mode, zero-page-cow-off kernels."""

from dataclasses import replace

import pytest

from repro.config import NVMConfig, NVM_TECHNOLOGIES
from repro.core import INVMMController
from repro.errors import (AddressError, OutOfMemoryError, ReproError,
                          SimulationError)
from repro.kernel import Kernel
from repro.runtime import SimArray
from repro.sim import Machine, System
from repro.workloads import MemsetTiming, memset_experiment


class TestOutOfMemory:
    def test_exhaustion_raises(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        region = system.kernel.mmap(ctx.pid, 64 * 1024 * 1024)
        with pytest.raises(OutOfMemoryError):
            for page in range(64 * 1024 * 1024 // 4096):
                ctx.touch(region.start + page * 4096, write=True)

    def test_freeing_recovers(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        total = system.kernel.allocator.free_pages
        region = system.kernel.mmap(ctx.pid, total * 4096)
        for page in range(total):
            ctx.touch(region.start + page * 4096, write=True)
        system.kernel.munmap(ctx.pid, region)
        # Allocation works again after the release.
        region2 = system.kernel.mmap(ctx.pid, 4096)
        ctx.touch(region2.start, write=True)


class TestHugeRegionTeardown:
    def test_exit_frees_huge_frames(self, tiny_config):
        config = replace(tiny_config.with_zeroing("shred"),
                         kernel=replace(tiny_config.kernel,
                                        zeroing_strategy="shred",
                                        huge_page_size=8 * 4096))
        system = System(config, shredder=True)
        ctx = system.new_context(0)
        free_before = system.kernel.allocator.free_pages
        region = system.kernel.mmap(ctx.pid, 8 * 4096, huge=True)
        ctx.touch(region.start, write=True)
        assert system.kernel.allocator.free_pages == free_before - 8
        system.kernel.exit_process(ctx.pid)
        assert system.kernel.allocator.free_pages == free_before


class TestSimArrayVerify:
    def test_detects_memory_corruption(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        array = SimArray(ctx, 8, name="victim")
        array[0] = 1234
        # Corrupt the simulated memory behind the array's back.
        physical = system.kernel.translate(ctx.pid, array.base,
                                           write=False).physical
        system.machine.store(0, physical, merge=(physical % 64,
                                                 b"\xff" * 8))
        with pytest.raises(SimulationError):
            array.verify()

    def test_verify_requires_functional(self, timing_config):
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        array = SimArray(system.new_context(0), 4)
        with pytest.raises(SimulationError):
            array.verify()


class TestMemsetTimingRecord:
    def test_fraction_properties(self):
        timing = MemsetTiming(size_bytes=1024, first_ns=100.0,
                              second_ns=40.0, fault_ns=30.0,
                              kernel_zeroing_ns=20.0)
        assert timing.kernel_fraction == pytest.approx(0.3)
        assert timing.zeroing_fraction == pytest.approx(0.2)

    def test_zero_division_guard(self):
        timing = MemsetTiming(size_bytes=0, first_ns=0.0, second_ns=0.0,
                              fault_ns=0.0, kernel_zeroing_ns=0.0)
        assert timing.kernel_fraction == 0.0

    def test_experiment_uses_growing_region(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        timing = memset_experiment(system, 16 * 4096)
        assert timing.size_bytes == 16 * 4096
        assert timing.first_ns > 0 and timing.second_ns > 0


class TestINVMMTimingMode:
    def test_degrades_without_payloads(self, timing_config):
        controller = INVMMController(timing_config)   # xorshift ok: no data
        controller.store_block(0, None)
        data, _, _ = controller.fetch_block(0)
        assert data in (None, bytes(64))             # no payload semantics
        # Aging + sealing still work on metadata alone.
        for page in range(1, 6):
            controller.store_block(page * 4096, None)
        controller.cold_after_accesses = 2
        assert controller.seal_cold_pages() >= 1


class TestZeroPageCowDisabled:
    def test_read_fault_allocates_eagerly(self, tiny_config):
        config = replace(tiny_config.with_zeroing("shred"),
                         kernel=replace(tiny_config.kernel,
                                        zeroing_strategy="shred",
                                        zero_page_cow=False))
        system = System(config, shredder=True)
        ctx = system.new_context(0)
        region = system.kernel.mmap(ctx.pid, 4096)
        result = system.kernel.translate(ctx.pid, region.start, write=False)
        assert result.faulted
        assert result.physical // 4096 != system.kernel.zero_page_ppn
        assert system.kernel.stats.cow_faults == 1
        assert system.kernel.stats.minor_faults == 0


class TestNVMTechnologies:
    def test_catalogue(self):
        assert set(NVM_TECHNOLOGIES) == {"pcm", "stt-ram", "memristor"}
        for config in NVM_TECHNOLOGIES.values():
            assert isinstance(config, NVMConfig)
        assert NVM_TECHNOLOGIES["stt-ram"].write_latency_ns < \
            NVM_TECHNOLOGIES["pcm"].write_latency_ns < \
            NVM_TECHNOLOGIES["memristor"].write_latency_ns
        assert NVM_TECHNOLOGIES["stt-ram"].endurance_writes > \
            NVM_TECHNOLOGIES["pcm"].endurance_writes

    def test_profiles_run_end_to_end(self, tiny_config):
        for name, nvm in NVM_TECHNOLOGIES.items():
            config = replace(tiny_config,
                             nvm=replace(nvm, capacity_bytes=4 * 1024 * 1024))
            system = System(config.with_zeroing("shred"), shredder=True)
            ctx = system.new_context(0)
            base = ctx.malloc(4096)
            ctx.store_u64(base, 42)
            assert ctx.load_u64(base) == 42, name


class TestErrorsAreCatchable:
    def test_one_handler_for_everything(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        caught = 0
        for attack in (
            lambda: system.machine.shred_register.write(0, kernel_mode=False),
            lambda: system.machine.controller.fetch_block(7),
            lambda: system.kernel.exit_process(9999),
        ):
            try:
                attack()
            except ReproError:
                caught += 1
        assert caught == 3
