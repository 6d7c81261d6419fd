"""Hardware-managed enclave shredding (section 4.1)."""

import pytest

from repro.errors import ProtectionError, SimulationError
from repro.kernel import EnclaveManager, Kernel
from repro.sim import Machine


@pytest.fixture
def setup(tiny_config):
    machine = Machine(tiny_config.with_zeroing("shred"), shredder=True)
    kernel = Kernel(machine)
    manager = EnclaveManager(machine)
    return machine, kernel, manager


class TestLifecycle:
    def test_create_and_track(self, setup):
        _, kernel, manager = setup
        pages = [kernel.allocator.allocate() for _ in range(3)]
        enclave = manager.create_enclave(pages)
        assert all(manager.is_enclave_page(p) for p in pages)
        assert enclave.enclave_id == 1

    def test_double_ownership_rejected(self, setup):
        _, kernel, manager = setup
        page = kernel.allocator.allocate()
        manager.create_enclave([page])
        with pytest.raises(ProtectionError):
            manager.create_enclave([page])

    def test_teardown_releases(self, setup):
        _, kernel, manager = setup
        pages = [kernel.allocator.allocate() for _ in range(2)]
        enclave = manager.create_enclave(pages)
        assert manager.teardown(enclave.enclave_id) == 2
        assert not any(manager.is_enclave_page(p) for p in pages)
        with pytest.raises(SimulationError):
            manager.teardown(enclave.enclave_id)

    def test_requires_shredder_machine(self, tiny_config):
        machine = Machine(tiny_config.with_zeroing("nontemporal"),
                          shredder=False)
        with pytest.raises(SimulationError):
            EnclaveManager(machine)


class TestUntrustedOS:
    def test_reuse_without_teardown_blocked(self, setup):
        """A malicious kernel cannot silently recycle enclave pages."""
        _, kernel, manager = setup
        page = kernel.allocator.allocate()
        manager.create_enclave([page])
        with pytest.raises(ProtectionError):
            manager.guard_reuse(page)

    def test_hardware_shreds_despite_lazy_os(self, setup):
        """Even if the OS never zeroes, teardown destroys the data:
        the shred is issued by hardware, not by kernel policy."""
        machine, kernel, manager = setup
        page = kernel.allocator.allocate()
        machine.store(0, page * 4096, merge=(0, b"enclave-secret!!"))
        machine.hierarchy.flush_all()
        enclave = manager.create_enclave([page])
        shreds_before = machine.controller.stats.shreds
        manager.teardown(enclave.enclave_id)
        assert machine.controller.stats.shreds == shreds_before + 1
        assert machine.load(0, page * 4096)[1] == bytes(64)
        manager.guard_reuse(page)          # now permitted (no raise)

    def test_teardown_writes_nothing(self, setup):
        machine, kernel, manager = setup
        pages = [kernel.allocator.allocate() for _ in range(4)]
        enclave = manager.create_enclave(pages)
        writes = machine.controller.stats.data_writes
        manager.teardown(enclave.enclave_id)
        assert machine.controller.stats.data_writes == writes
