"""End-to-end security scenarios with real AES through the full stack.

These tests play the paper's attack model (section 4.1): an attacker
with physical access who scans the NVM, tampers with it, or replays
old content — against the complete machine+kernel system.
"""

from dataclasses import replace

import pytest

from repro.errors import IntegrityError
from repro.kernel import Kernel
from repro.sim import Machine, System


@pytest.fixture
def aes_system(tiny_config):
    config = replace(tiny_config.with_zeroing("shred"),
                     encryption=replace(tiny_config.encryption, cipher="aes"))
    return System(config, shredder=True)


SECRET = b"CREDIT-CARD:4242" * 4       # one cache block of secret data


def write_secret(system):
    """A process writes a secret; returns its physical block address."""
    ctx = system.new_context(0)
    base = ctx.malloc(4096)
    ctx.write_bytes(base, SECRET)
    system.machine.hierarchy.flush_all()
    result = system.kernel.translate(ctx.pid, base, write=False)
    return ctx, result.physical


class TestDataRemanenceAttack:
    def test_nvm_scan_sees_only_ciphertext(self, aes_system):
        """Stealing the DIMM after power-off reveals no plaintext."""
        _, physical = write_secret(aes_system)
        device = aes_system.machine.controller.device
        device.power_cycle()
        raw = device.peek(physical)
        assert raw != bytes(64)
        assert SECRET[:16] not in raw

    def test_full_memory_scan_never_finds_secret(self, aes_system):
        ctx, _ = write_secret(aes_system)
        device = aes_system.machine.controller.device
        for address in list(device._lines):
            assert SECRET[:16] not in device.peek(address)


class TestShredIsolationEndToEnd:
    def test_recycled_page_cross_process(self, aes_system):
        ctx, physical = write_secret(aes_system)
        kernel = aes_system.kernel
        kernel.exit_process(ctx.pid)

        # New process reuses physical memory; the shred on allocation
        # must make every fresh page read as zeros.
        ctx2 = aes_system.new_context(1)
        base2 = ctx2.malloc(8 * 4096)
        for page in range(8):
            data = ctx2.read_bytes(base2 + page * 4096, 64)
            assert data == bytes(64)

    def test_shredded_ciphertext_still_in_cells(self, aes_system):
        """Zero-cost property: the shred wrote nothing, the ciphertext
        is physically still there, yet unreachable through the
        controller."""
        ctx, physical = write_secret(aes_system)
        device = aes_system.machine.controller.device
        ciphertext_before = device.peek(physical)
        page_id = physical // 4096
        aes_system.machine.shred_register.write(page_id * 4096,
                                                kernel_mode=True)
        assert device.peek(physical) == ciphertext_before
        data, _, zero_filled = aes_system.machine.controller.fetch_block(
            physical - physical % 64)
        assert zero_filled and data == bytes(64)


class TestTamperingAttacks:
    def test_counter_tamper_detected_through_stack(self, aes_system):
        ctx, physical = write_secret(aes_system)
        controller = aes_system.machine.controller
        controller.flush_counters()
        page_id = physical // 4096
        controller.counter_cache.invalidate(page_id)
        counter_address = controller._counter_address(page_id)
        raw = bytearray(controller.device.peek(counter_address))
        raw[8] ^= 0x01                   # flip one minor-counter bit
        controller.device.poke(counter_address, bytes(raw))
        with pytest.raises(IntegrityError):
            controller.fetch_block(physical - physical % 64)

    def test_data_tamper_yields_garbage_not_choice(self, aes_system):
        """Tampering with ciphertext cannot steer plaintext: the XOR of
        a diffused pad makes the result uncorrelated with the edit."""
        ctx, physical = write_secret(aes_system)
        device = aes_system.machine.controller.device
        block_address = physical - physical % 64
        raw = bytearray(device.peek(block_address))
        raw[0] ^= 0xFF
        device.poke(block_address, bytes(raw))
        data, _, _ = aes_system.machine.controller.fetch_block(block_address)
        assert data != SECRET
        # Only the tampered byte's plaintext changes under CTR; the
        # attacker still cannot learn the secret from the controller.
        assert data[1:] == SECRET[1:]


class TestDictionaryResistance:
    def test_identical_plaintext_blocks_have_unique_ciphertexts(self, aes_system):
        """Spatial and temporal IV uniqueness defeat dictionary and
        replay analysis (section 2.2)."""
        ctx = aes_system.new_context(0)
        base = ctx.malloc(4 * 4096)
        for page in range(4):
            ctx.write_bytes(base + page * 4096, b"\x00" * 64)  # same value
            ctx.write_bytes(base + page * 4096 + 64, b"\x00" * 64)
        aes_system.machine.hierarchy.flush_all()
        device = aes_system.machine.controller.device
        ciphertexts = set()
        count = 0
        for address in list(device._lines):
            if address < aes_system.machine.controller.data_capacity:
                ciphertexts.add(device.peek(address))
                count += 1
        assert count >= 8
        assert len(ciphertexts) == count, "no two blocks share ciphertext"


class TestCrashRecovery:
    def test_power_loss_after_shred_keeps_pages_shredded(self, aes_system):
        ctx, physical = write_secret(aes_system)
        page_id = physical // 4096
        aes_system.machine.shred_register.write(page_id * 4096,
                                                kernel_mode=True)
        controller = aes_system.machine.controller
        controller.power_cycle()          # battery flushes counters
        _, _, zero_filled = controller.fetch_block(physical - physical % 64)
        assert zero_filled, \
            "shredded state survives power loss via persisted counters"

    def test_data_recoverable_after_power_loss(self, aes_system):
        ctx = aes_system.new_context(0)
        base = ctx.malloc(4096)
        ctx.write_bytes(base, b"durable!" * 8)
        aes_system.machine.hierarchy.flush_all()
        physical = aes_system.kernel.translate(ctx.pid, base,
                                               write=False).physical
        controller = aes_system.machine.controller
        controller.power_cycle()
        data, _, _ = controller.fetch_block(physical - physical % 64)
        assert data == b"durable!" * 8
