"""Hypervisor: VM grants, inter-VM isolation, ballooning (Figure 1)."""

import pytest

from repro.errors import OutOfMemoryError, SimulationError
from repro.kernel import Hypervisor
from repro.sim import Machine


@pytest.fixture
def hypervisor(tiny_config):
    machine = Machine(tiny_config.with_zeroing("shred"), shredder=True)
    return Hypervisor(machine)


class TestGrants:
    def test_grant_moves_pages(self, hypervisor):
        vm = hypervisor.create_vm()
        pages = hypervisor.grant(vm.vm_id, 4)
        assert len(pages) == 4
        assert vm.free_pages == 4
        for page in pages:
            assert not hypervisor.host_allocator.owns(page)

    def test_grant_shreds_first(self, hypervisor):
        vm = hypervisor.create_vm()          # guest kernel boot included
        shreds_before = hypervisor.machine.controller.stats.shreds
        hypervisor.grant(vm.vm_id, 3)
        assert hypervisor.machine.controller.stats.shreds == shreds_before + 3

    def test_grant_beyond_capacity(self, hypervisor):
        vm = hypervisor.create_vm()
        with pytest.raises(OutOfMemoryError):
            hypervisor.grant(vm.vm_id, 10 ** 9)

    def test_grant_unknown_vm(self, hypervisor):
        with pytest.raises(SimulationError):
            hypervisor.grant(42, 1)


class TestDuplicateShredding:
    def test_figure1_two_level_zeroing(self, hypervisor):
        """Hypervisor shreds at grant; guest kernel shreds again at the
        guest process's first write — duplicate shredding."""
        machine = hypervisor.machine
        vm = hypervisor.create_vm(initial_pages=4)
        shreds_after_grant = machine.controller.stats.shreds
        process = vm.kernel.create_process()
        region = vm.kernel.mmap(process.pid, 4096)
        vm.kernel.translate(process.pid, region.start, write=True)
        assert machine.controller.stats.shreds == shreds_after_grant + 1

    def test_no_data_writes_in_whole_flow(self, hypervisor):
        machine = hypervisor.machine
        writes_before = machine.controller.stats.data_writes
        vm = hypervisor.create_vm(initial_pages=4)
        process = vm.kernel.create_process()
        region = vm.kernel.mmap(process.pid, 2 * 4096)
        for i in range(2):
            vm.kernel.translate(process.pid, region.start + i * 4096, write=True)
        assert machine.controller.stats.data_writes == writes_before


class TestIsolation:
    def test_vm_b_cannot_read_vm_a_data(self, hypervisor):
        machine = hypervisor.machine
        vm_a = hypervisor.create_vm(initial_pages=2)
        process = vm_a.kernel.create_process()
        region = vm_a.kernel.mmap(process.pid, 4096)
        paddr = vm_a.kernel.translate(process.pid, region.start,
                                      write=True).physical
        secret = b"vm-a-secret-data" * 4
        machine.store(0, paddr, merge=(0, secret))
        machine.hierarchy.flush_all()
        hypervisor.destroy_vm(vm_a.vm_id)

        vm_b = hypervisor.create_vm(initial_pages=2)
        leaked = False
        for page in vm_b.granted_pages:
            data = machine.load(0, page * 4096)[1]
            if data and data[:16] == secret[:16]:
                leaked = True
        assert not leaked


class TestBallooning:
    def test_balloon_moves_and_shreds(self, hypervisor):
        vm_a = hypervisor.create_vm(initial_pages=6)
        vm_b = hypervisor.create_vm()
        shreds_before = hypervisor.machine.controller.stats.shreds
        moved = hypervisor.balloon(vm_a.vm_id, vm_b.vm_id, 3)
        assert moved == 3
        assert vm_a.free_pages == 3
        assert vm_b.free_pages == 3
        assert hypervisor.machine.controller.stats.shreds == shreds_before + 3

    def test_balloon_limited_by_free_pages(self, hypervisor):
        vm_a = hypervisor.create_vm(initial_pages=2)
        vm_b = hypervisor.create_vm()
        assert hypervisor.balloon(vm_a.vm_id, vm_b.vm_id, 10) == 2

    def test_balloon_unknown_vm(self, hypervisor):
        vm = hypervisor.create_vm()
        with pytest.raises(SimulationError):
            hypervisor.balloon(vm.vm_id, 99, 1)

    def test_stats(self, hypervisor):
        vm_a = hypervisor.create_vm(initial_pages=4)
        vm_b = hypervisor.create_vm()
        hypervisor.balloon(vm_a.vm_id, vm_b.vm_id, 2)
        assert hypervisor.stats.balloon_operations == 1
        assert hypervisor.stats.pages_granted == 6
        assert hypervisor.stats.pages_reclaimed == 2


class TestDestroy:
    def test_destroy_returns_pages(self, hypervisor):
        free_before = hypervisor.host_allocator.free_pages
        vm = hypervisor.create_vm(initial_pages=5)
        assert hypervisor.host_allocator.free_pages == free_before - 5
        hypervisor.destroy_vm(vm.vm_id)
        assert hypervisor.host_allocator.free_pages == free_before

    def test_destroy_unknown(self, hypervisor):
        with pytest.raises(SimulationError):
            hypervisor.destroy_vm(7)
