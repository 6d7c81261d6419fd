"""munmap and TLB shootdown."""

from dataclasses import replace

import pytest

from repro.config import fast_config
from repro.errors import PageFaultError, SimulationError
from repro.runtime.context import ExecutionContext
from repro.sim import System


@pytest.fixture
def tlb_system(tiny_config):
    config = replace(tiny_config.with_zeroing("shred"),
                     cpu=replace(tiny_config.cpu, tlb_entries=16))
    return System(config, shredder=True)


class TestMunmap:
    def test_pages_return_to_pool(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        kernel = system.kernel
        free_before = kernel.allocator.free_pages
        region = kernel.mmap(ctx.pid, 3 * 4096)
        for page in range(3):
            ctx.touch(region.start + page * 4096, write=True)
        assert kernel.allocator.free_pages == free_before - 3
        freed = kernel.munmap(ctx.pid, region)
        assert freed == 3
        assert kernel.allocator.free_pages == free_before

    def test_access_after_munmap_faults(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        region = system.kernel.mmap(ctx.pid, 4096)
        ctx.touch(region.start, write=True)
        system.kernel.munmap(ctx.pid, region)
        with pytest.raises(Exception):
            system.kernel.translate(ctx.pid, region.start, write=True)

    def test_zero_page_mappings_not_freed(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        region = system.kernel.mmap(ctx.pid, 4096)
        ctx.touch(region.start, write=False)     # zero-page mapping only
        assert system.kernel.munmap(ctx.pid, region) == 0

    def test_foreign_region_rejected(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        a = system.new_context(0)
        b = system.new_context(1)
        region = system.kernel.mmap(a.pid, 4096)
        with pytest.raises(SimulationError):
            system.kernel.munmap(b.pid, region)


class TestShootdown:
    def test_stale_tlb_entry_removed(self, tlb_system):
        ctx = tlb_system.new_context(0)
        region = tlb_system.kernel.mmap(ctx.pid, 4096)
        ctx.touch(region.start, write=True)
        assert ctx.tlb.lookup(region.start // 4096, write=True) is not None
        tlb_system.kernel.munmap(ctx.pid, region)
        assert ctx.tlb.lookup(region.start // 4096, write=True) is None

    def test_shootdown_charges_cores(self, tlb_system):
        ctx = tlb_system.new_context(0)
        other = tlb_system.new_context(1)
        region = tlb_system.kernel.mmap(ctx.pid, 4096)
        ctx.touch(region.start, write=True)
        cycles_before = other.core.stats.cycles
        tlb_system.kernel.munmap(ctx.pid, region)
        assert other.core.stats.cycles > cycles_before

    def test_cow_shoots_down_the_process_on_other_cores(self, tlb_system):
        """A COW fault on core 1 replaces the Zero Page mapping that the
        same process cached read-only on core 0; core 0 pays the IPI,
        and its next load sees the private frame's value."""
        ctx = tlb_system.new_context(0)
        on_core_1 = ExecutionContext(tlb_system, ctx.pid, 1)
        base = ctx.malloc(4096)
        vpn = base // 4096
        assert ctx.load_u64(base) == 0
        assert ctx.tlb.lookup(vpn, write=False) == \
            tlb_system.kernel.zero_page_ppn
        cycles_before = ctx.core.stats.cycles
        on_core_1.store_u64(base, 42)
        assert ctx.core.stats.cycles > cycles_before
        assert ctx.tlb.lookup(vpn, write=False) is None
        assert ctx.load_u64(base) == 42

    def test_huge_cow_shoots_down_read_siblings(self, tiny_config):
        """A huge fault maps the whole unit, so Zero Page entries cached
        for other pages of the unit are stale too."""
        huge = 4 * 4096
        config = replace(tiny_config.with_zeroing("shred"),
                         cpu=replace(tiny_config.cpu, tlb_entries=16),
                         kernel=replace(tiny_config.kernel,
                                        huge_page_size=huge))
        system = System(config, shredder=True)
        ctx = system.new_context(0)
        on_core_1 = ExecutionContext(system, ctx.pid, 1)
        region = system.kernel.mmap(ctx.pid, huge, huge=True)
        sibling = region.start + 2 * 4096
        assert ctx.load_u64(sibling) == 0           # Zero Page, cached RO
        on_core_1.store_u64(region.start, 1)        # populates the unit
        on_core_1.store_u64(sibling, 7)             # no fault: already mapped
        assert ctx.load_u64(sibling) == 7

    def test_no_stale_translation_leak(self, tlb_system):
        """After munmap + reallocation to another process, the first
        process's TLB cannot reach the recycled frame."""
        victim = tlb_system.new_context(0)
        region = tlb_system.kernel.mmap(victim.pid, 4096)
        victim.store_u64(region.start, 77)
        tlb_system.kernel.munmap(victim.pid, region)

        attacker = tlb_system.new_context(1)
        region2 = tlb_system.kernel.mmap(attacker.pid, 4096)
        attacker.store_u64(region2.start, 88)
        # Victim's old virtual address no longer resolves anywhere.
        with pytest.raises(Exception):
            tlb_system.kernel.translate(victim.pid, region.start, write=False)


class TestHandBuiltContext:
    """A context built with the public constructor registers its TLB
    with the kernel, so it takes part in every shootdown."""

    @pytest.fixture
    def system(self):
        config = fast_config()
        return System(replace(config, functional=True,
                              cpu=replace(config.cpu, tlb_entries=8)),
                      shredder=True)

    def test_sees_another_cores_cow_store(self, system):
        writer = system.new_context(0)
        reader = ExecutionContext(system, writer.pid, 1)
        base = writer.malloc(4096)
        assert reader.load_u64(base) == 0        # Zero Page, cached RO
        writer.store_u64(base, 0xDEADBEEF)       # COW fault on core 0
        assert reader.load_u64(base) == 0xDEADBEEF

    def test_munmap_drops_its_translation(self, system):
        owner = system.new_context(0)
        other = ExecutionContext(system, owner.pid, 1)
        region = system.kernel.mmap(owner.pid, 4096)
        other.store_u64(region.start, 5)
        vpn = region.start // 4096
        assert other.tlb.lookup(vpn, write=True) is not None
        system.kernel.munmap(owner.pid, region)
        assert other.tlb.lookup(vpn, write=True) is None
