"""Silent Shredder controller: the paper's core claims, functionally.

The invariants verified here are DESIGN.md items 1-5: shredded data is
unintelligible, shredded reads return zeros without NVM access, pads
are never reused, minor 0 is reserved for shredding, and a shred issues
no data writes.
"""

from dataclasses import replace

import pytest

from repro.core import (SecureMemoryController, ShredRegister,
                        SilentShredderController)
from repro.errors import AddressError, ProtectionError


@pytest.fixture
def controller(tiny_config):
    return SilentShredderController(tiny_config)


@pytest.fixture
def aes_controller(tiny_config):
    config = replace(tiny_config,
                     encryption=replace(tiny_config.encryption, cipher="aes"))
    return SilentShredderController(config)


class TestZeroDataWrites:
    def test_shred_writes_no_data_blocks(self, controller):
        for offset in range(4):
            controller.store_block(offset * 64, bytes([offset]) * 64)
        writes_before = controller.stats.data_writes
        device_writes_before = controller.device.stats.writes
        controller.flush_counters()
        device_after_flush = controller.device.stats.writes

        controller.shred_page(0)
        assert controller.stats.data_writes == writes_before
        # Only counter traffic may have touched the device.
        data_region_writes = controller.device.stats.writes - device_after_flush
        assert data_region_writes == 0

    def test_shred_latency_is_counter_scale(self, controller, tiny_config):
        """Shredding costs a counter-cache access, not 64 NVM writes."""
        controller.store_block(0, bytes(64))
        outcome = controller.shred_page(0)
        assert outcome.latency_ns < tiny_config.nvm.write_latency_ns

    def test_shred_marks_counters(self, controller):
        controller.store_block(0, bytes(64))
        controller.shred_page(0)
        counters = controller.counter_cache.peek(0)
        assert counters.all_shredded()
        assert counters.major >= 1


class TestZeroFillReads:
    def test_shredded_reads_return_zeros(self, controller):
        controller.store_block(0, b"\xde" * 64)
        controller.shred_page(0)
        data, _, zero_filled = controller.fetch_block(0)
        assert zero_filled
        assert data == bytes(64)

    def test_shredded_reads_skip_nvm(self, controller):
        controller.store_block(0, b"\xde" * 64)
        controller.shred_page(0)
        reads_before = controller.stats.data_reads
        for offset in range(8):
            assert controller.fetch_block(offset * 64)[2]
        assert controller.stats.data_reads == reads_before
        assert controller.stats.zero_fill_reads >= 8

    def test_zero_fill_faster_than_nvm_read(self, controller, tiny_config):
        controller.store_block(64, b"\x01" * 64)   # non-shredded reference
        _, normal_ns, _ = controller.fetch_block(64)
        controller.shred_page(0)
        _, shredded_ns, _ = controller.fetch_block(0)
        assert shredded_ns < normal_ns
        assert shredded_ns < tiny_config.nvm.read_latency_ns

    def test_write_after_shred_unshreds_block(self, controller):
        controller.shred_page(0)
        controller.store_block(0, b"\x42" * 64)
        data, _, zero_filled = controller.fetch_block(0)
        assert not zero_filled
        assert data == b"\x42" * 64
        # Neighbouring blocks stay shredded.
        assert controller.fetch_block(64)[2]

    def test_is_block_shredded(self, controller):
        controller.shred_page(0)
        assert controller.is_block_shredded(0)
        controller.store_block(0, bytes(64))
        assert not controller.is_block_shredded(0)


class TestUnintelligibility:
    def test_old_plaintext_unrecoverable_via_controller(self, aes_controller):
        secret = b"TOP-SECRET-DATA!" * 4
        aes_controller.store_block(0, secret)
        ciphertext_before = aes_controller.device.peek(0)
        aes_controller.shred_page(0)
        # The raw NVM cells still hold the ciphertext (no write happened)...
        assert aes_controller.device.peek(0) == ciphertext_before
        # ...but the controller returns zeros, never the secret.
        assert aes_controller.fetch_block(0)[0] == bytes(64)

    def test_write_after_shred_then_read_neighbor_not_secret(self, aes_controller):
        """After a write re-activates one block, reading it decrypts with
        the NEW major counter: the result is the new data, and a stale
        ciphertext decrypted under the new IV is uncorrelated garbage."""
        secret = b"S" * 64
        aes_controller.store_block(0, secret)
        aes_controller.shred_page(0)
        # Simulate the new owner writing then reading around the page.
        aes_controller.store_block(0, b"N" * 64)
        assert aes_controller.fetch_block(0)[0] == b"N" * 64
        assert aes_controller.fetch_block(64)[0] == bytes(64)

    def test_decrypting_stale_ciphertext_with_new_iv_is_garbage(self, aes_controller):
        secret = b"Z" * 64
        aes_controller.store_block(0, secret)
        stale = aes_controller.device.peek(0)
        aes_controller.shred_page(0)
        counters = aes_controller.counter_cache.peek(0)
        # Force-decrypt the stale bytes under the post-shred IV (what a
        # buggy/naive controller without zero semantics would return).
        new_iv = aes_controller.iv_layout.build(0, 0, counters.major, 1)
        garbage = aes_controller.engine.decrypt(stale, new_iv)
        assert garbage != secret
        assert garbage != bytes(64)


class TestReservedZero:
    def test_overflow_after_shred_resets_to_one(self, tiny_config):
        config = replace(tiny_config, encryption=replace(
            tiny_config.encryption, minor_counter_bits=3))
        controller = SilentShredderController(config)
        controller.shred_page(0)
        for i in range(10):
            controller.store_block(0, bytes([i]) * 64)
        counters = controller.counter_cache.peek(0)
        assert counters.minors[0] >= 1, "reserved 0 never reused by overflow"
        assert controller.fetch_block(0)[0] == bytes([9]) * 64
        # Untouched blocks of the page remain shredded through the
        # re-encryption.
        assert controller.fetch_block(64)[2]

    def test_shreds_are_repeatable(self, controller):
        for round_index in range(5):
            controller.store_block(0, bytes([round_index]) * 64)
            controller.shred_page(0)
            assert controller.fetch_block(0)[2]

    def test_shred_out_of_range(self, controller):
        with pytest.raises(AddressError):
            controller.shred_page(controller.num_pages)


class TestShredRegister:
    def test_kernel_mode_accepted(self, controller):
        register = ShredRegister(controller)
        outcome = register.write(0, kernel_mode=True)
        assert outcome.page_id == 0
        assert register.commands_accepted == 1

    def test_user_mode_raises(self, controller):
        register = ShredRegister(controller)
        with pytest.raises(ProtectionError):
            register.write(0, kernel_mode=False)
        assert register.commands_rejected == 1
        assert not controller.counter_cache.peek(0) or \
            not controller.counter_cache.peek(0).all_shredded()

    def test_unaligned_address_rejected(self, controller):
        register = ShredRegister(controller)
        with pytest.raises(AddressError):
            register.write(64, kernel_mode=True)

    def test_register_with_hierarchy_invalidates(self, tiny_config):
        from repro.sim import Machine
        machine = Machine(tiny_config, shredder=True)
        page_size = tiny_config.kernel.page_size
        # Cache a few blocks of page 1 on both cores.
        for core in range(2):
            for offset in range(0, 4 * 64, 64):
                machine.load(core, page_size + offset)
        outcome = machine.shred_register.write(page_size, kernel_mode=True)
        assert outcome.cache_blocks_invalidated >= 4
        for core in range(2):
            assert not machine.hierarchy.l1[core].contains(page_size)

    def test_counter_hits_after_shred(self, controller):
        """Shredding leaves the page's counters hot in the counter
        cache, so subsequent zero-fill reads are counter-cache hits."""
        controller.shred_page(0)
        hits = controller.stats.counter_hits
        controller.fetch_block(0)
        assert controller.stats.counter_hits == hits + 1


class TestStatsAndBaselineContrast:
    def test_stats_shreds_counted(self, controller):
        controller.shred_page(0)
        controller.shred_page(1)
        assert controller.stats.shreds == 2

    def test_baseline_has_no_zero_semantics(self, tiny_config):
        baseline = SecureMemoryController(tiny_config)
        assert baseline.zero_semantics is False
        assert not hasattr(baseline, "shred_page") or \
            not isinstance(baseline, SilentShredderController)

    def test_shredder_vs_baseline_write_counts(self, tiny_config):
        """Zeroing a page: baseline writes 64 blocks, shredder writes 0."""
        baseline = SecureMemoryController(tiny_config)
        for offset in range(0, tiny_config.kernel.page_size, 64):
            baseline.store_block(offset, bytes(64))
        assert baseline.stats.data_writes == tiny_config.blocks_per_page

        shredder = SilentShredderController(tiny_config)
        shredder.shred_page(0)
        assert shredder.stats.data_writes == 0
