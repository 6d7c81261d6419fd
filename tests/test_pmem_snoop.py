"""Persistent-memory regions and the bus-snooping probe."""

from dataclasses import replace

import pytest

from repro.errors import AddressError, SimulationError
from repro.kernel import Kernel, PersistentHeap
from repro.mem import BusSnooper
from repro.sim import Machine, System


@pytest.fixture
def machine_kernel(tiny_config):
    machine = Machine(tiny_config.with_zeroing("shred"), shredder=True)
    kernel = Kernel(machine)
    return machine, kernel


class TestPersistentRegions:
    def test_create_write_read(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        region = heap.create_region("journal", 2)
        heap.write(region, 100, b"append-only-record")
        assert heap.read(region, 100, 18) == b"append-only-record"

    def test_fresh_region_reads_zero(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        region = heap.create_region("blank", 1)
        assert heap.read(region, 0, 64) == bytes(64)

    def test_survives_power_cycle(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        region = heap.create_region("db", 2)
        heap.write(region, 0, b"durable-row-0001")
        heap.write(region, 4096 + 8, b"durable-row-0002")
        directory = heap.directory_ppn
        heap.commit()

        machine.controller.power_cycle()       # crash + reboot
        kernel2 = Kernel(machine)              # fresh kernel instance
        heap2 = PersistentHeap.attach(machine, kernel2, directory)
        region2 = heap2.regions["db"]
        assert heap2.read(region2, 0, 16) == b"durable-row-0001"
        assert heap2.read(region2, 4096 + 8, 16) == b"durable-row-0002"

    def test_attach_claims_pages(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        region = heap.create_region("keep", 2)
        heap.commit()
        machine.controller.power_cycle()
        kernel2 = Kernel(machine)
        heap2 = PersistentHeap.attach(machine, kernel2, heap.directory_ppn)
        # The region's frames must not be handed to new processes.
        protected = set(heap2.regions["keep"].pages) | {heap.directory_ppn}
        handed_out = set()
        try:
            while True:
                handed_out.add(kernel2.allocator.allocate())
        except Exception:
            pass
        assert not (protected & handed_out)

    def test_uncommitted_directory_not_attachable(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        heap.create_region("lost", 1)
        # No commit: after the crash there is nothing durable to attach.
        machine.controller.power_cycle()
        kernel2 = Kernel(machine)
        with pytest.raises(SimulationError):
            PersistentHeap.attach(machine, kernel2, heap.directory_ppn)

    def test_destroy_shreds_and_recycles(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        region = heap.create_region("tmp", 1)
        heap.write(region, 0, b"secret-to-erase!")
        machine.hierarchy.flush_all()
        page = region.pages[0]
        free_before = kernel.allocator.free_pages
        heap.destroy_region("tmp")
        assert kernel.allocator.free_pages == free_before + 1
        # Secure deletion: the page reads as zeros through the controller.
        _, _, zero_filled = machine.controller.fetch_block(page * 4096)
        assert zero_filled

    def test_name_too_long(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        with pytest.raises(AddressError):
            heap.create_region("x" * 40, 1)

    def test_duplicate_name(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        heap.create_region("dup", 1)
        with pytest.raises(SimulationError):
            heap.create_region("dup", 1)

    def test_out_of_bounds_offset(self, machine_kernel):
        machine, kernel = machine_kernel
        heap = PersistentHeap(machine, kernel)
        region = heap.create_region("small", 1)
        with pytest.raises(AddressError):
            heap.read(region, 4096, 1)


class TestBusSnooping:
    SECRET = b"WIRE-TAPPED-DATA" * 4

    def _run_victim(self, config):
        system = System(config, shredder=config.kernel.zeroing_strategy == "shred")
        snooper = BusSnooper()
        system.machine.controller.mem.snoopers.append(snooper)
        ctx = system.new_context(0)
        base = ctx.malloc(4096)
        ctx.write_bytes(base, self.SECRET)
        system.machine.hierarchy.flush_all()
        ctx.read_bytes(base, len(self.SECRET))
        return snooper

    def test_processor_side_encryption_defeats_snooping(self, tiny_config):
        snooper = self._run_victim(tiny_config.with_zeroing("shred"))
        assert len(snooper) > 0
        assert snooper.search(self.SECRET[:16]) == [], \
            "the bus must only ever carry ciphertext"

    def test_unencrypted_bus_leaks(self, tiny_config):
        """The section 2.2 contrast: memory-side (secure-DIMM)
        encryption leaves plaintext on the bus for a snooper."""
        config = replace(tiny_config.with_zeroing("nontemporal"),
                         encryption=replace(tiny_config.encryption,
                                            enabled=False))
        snooper = self._run_victim(config)
        assert snooper.search(self.SECRET[:16]), \
            "plaintext crosses the bus without processor-side encryption"

    def test_snooper_bounded(self):
        snooper = BusSnooper(max_records=2)
        for i in range(5):
            snooper.observe("write", i * 64, bytes(64))
        assert len(snooper) == 2
        assert snooper.dropped == 3
