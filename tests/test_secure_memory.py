"""The baseline secure counter-mode NVMM controller."""

from dataclasses import replace

import pytest

from repro.core import SecureMemoryController
from repro.core.iv import CounterBlock
from repro.errors import AddressError, IntegrityError


@pytest.fixture
def controller(tiny_config):
    return SecureMemoryController(tiny_config)


@pytest.fixture
def aes_controller(tiny_config):
    config = replace(tiny_config,
                     encryption=replace(tiny_config.encryption, cipher="aes"))
    return SecureMemoryController(config)


class TestDataPath:
    def test_roundtrip(self, controller):
        payload = bytes(range(64))
        controller.store_block(0, payload)
        assert controller.fetch_block(0)[0] == payload

    def test_fresh_block_reads_all_zero_pad_decrypt(self, controller):
        # A never-written block decrypts NVM zeros with a valid IV: the
        # result is deterministic but meaningless; it must not crash.
        data, _, zero_filled = controller.fetch_block(64)
        assert len(data) == 64
        assert not zero_filled             # baseline has no zero semantics

    def test_ciphertext_differs_from_plaintext(self, controller):
        payload = bytes(range(64))
        controller.store_block(0, payload)
        assert controller.device.peek(0) != payload, \
            "NVM must hold ciphertext, not plaintext"

    def test_two_writes_two_ciphertexts(self, controller):
        """Pad uniqueness: the same value written twice encrypts
        differently because the minor counter advanced."""
        payload = b"\xaa" * 64
        controller.store_block(0, payload)
        first = controller.device.peek(0)
        controller.store_block(0, payload)
        second = controller.device.peek(0)
        assert first != second
        assert controller.fetch_block(0)[0] == payload

    def test_same_plaintext_different_blocks_differ(self, controller):
        payload = b"\x55" * 64
        controller.store_block(0, payload)
        controller.store_block(64, payload)
        assert controller.device.peek(0) != controller.device.peek(64), \
            "spatial IV uniqueness defeats dictionary attacks"

    def test_aes_roundtrip(self, aes_controller):
        payload = bytes((i * 3) % 256 for i in range(64))
        aes_controller.store_block(128, payload)
        assert aes_controller.fetch_block(128)[0] == payload

    def test_misaligned_address_rejected(self, controller):
        with pytest.raises(AddressError):
            controller.fetch_block(13)

    def test_address_out_of_data_region(self, controller):
        with pytest.raises(AddressError):
            controller.fetch_block(controller.data_capacity)


class TestCounterManagement:
    def test_minor_advances_per_writeback(self, controller):
        page = controller.page_of(0)
        controller.store_block(0, bytes(64))
        controller.store_block(0, bytes(64))
        counters = controller.get_counters(page).counters
        assert counters.minors[0] == 3        # fresh=1, +2 writes

    def test_counter_cache_hit_after_first_touch(self, controller):
        controller.fetch_block(0)
        hits = controller.stats.counter_hits
        controller.fetch_block(64)            # same page
        assert controller.stats.counter_hits == hits + 1

    def test_counter_miss_loads_from_nvm(self, controller):
        controller.store_block(0, bytes(64))
        controller.flush_counters()
        controller.counter_cache.invalidate(0)
        misses = controller.stats.counter_misses
        controller.fetch_block(0)
        assert controller.stats.counter_misses == misses + 1
        assert controller.stats.counter_fetches >= 1

    def test_counters_persist_via_flush(self, controller):
        controller.store_block(0, b"\x11" * 64)
        controller.flush_counters()
        controller.counter_cache.invalidate(0)
        counters = controller.get_counters(0).counters
        assert counters.minors[0] == 2

    def test_write_through_mode(self, tiny_config):
        config = replace(tiny_config, counter_cache=replace(
            tiny_config.counter_cache, write_policy="writethrough"))
        controller = SecureMemoryController(config)
        controller.store_block(0, bytes(64))
        assert controller.stats.counter_writebacks >= 1


class TestReencryption:
    @pytest.fixture
    def overflow_config(self, tiny_config):
        # 3-bit minors overflow after 7 write-backs.
        return replace(tiny_config, encryption=replace(
            tiny_config.encryption, minor_counter_bits=3))

    def test_overflow_triggers_reencryption(self, overflow_config):
        controller = SecureMemoryController(overflow_config)
        # Seed another block of the page so re-encryption moves data.
        controller.store_block(64, b"\x77" * 64)
        payload = b"\x33" * 64
        reencrypting = []
        for _ in range(8):
            before = controller.stats.reencryptions
            controller.store_block(0, payload)
            reencrypting.append(controller.stats.reencryptions - before)
        assert controller.stats.reencryptions == 1
        assert reencrypting.count(1) == 1

    def test_reencryption_preserves_all_data(self, overflow_config):
        controller = SecureMemoryController(overflow_config)
        controller.store_block(64, b"\x77" * 64)
        controller.store_block(128, b"\x88" * 64)
        for i in range(8):
            controller.store_block(0, bytes([i]) * 64)
        assert controller.fetch_block(0)[0] == bytes([7]) * 64
        assert controller.fetch_block(64)[0] == b"\x77" * 64
        assert controller.fetch_block(128)[0] == b"\x88" * 64

    def test_reencryption_bumps_major_resets_minors(self, overflow_config):
        controller = SecureMemoryController(overflow_config)
        for i in range(8):
            controller.store_block(0, bytes(64))
        counters = controller.get_counters(0).counters
        assert counters.major == 1
        assert all(1 <= m <= 2 for m in counters.minors)


class TestIntegrity:
    def test_tampered_counters_detected(self, controller):
        controller.store_block(0, bytes(64))
        controller.flush_counters()
        controller.counter_cache.invalidate(0)
        # Physical attacker flips a byte in the NVM counter region.
        counter_address = controller._counter_address(0)
        raw = bytearray(controller.device.peek(counter_address))
        raw[0] ^= 0xFF
        controller.device.poke(counter_address, bytes(raw))
        with pytest.raises(IntegrityError):
            controller.fetch_block(0)

    def test_counter_replay_detected(self, controller):
        controller.store_block(0, bytes(64))
        controller.flush_counters()
        counter_address = controller._counter_address(0)
        old = controller.device.peek(counter_address)
        controller.store_block(0, bytes(64))
        controller.flush_counters()
        controller.counter_cache.invalidate(0)
        controller.device.poke(counter_address, old)   # replay old counters
        with pytest.raises(IntegrityError):
            controller.fetch_block(0)

    def test_integrity_disabled_skips_check(self, tiny_config):
        config = replace(tiny_config, encryption=replace(
            tiny_config.encryption, integrity=False))
        controller = SecureMemoryController(config)
        assert controller.merkle is None
        controller.store_block(0, bytes(64))  # no crash


class TestPersistence:
    def test_power_cycle_preserves_data(self, controller):
        controller.store_block(0, b"\x99" * 64)
        controller.power_cycle()
        assert controller.fetch_block(0)[0] == b"\x99" * 64, \
            "counters flushed + NVM retained => data recoverable"

    def test_power_cycle_clears_counter_cache(self, controller):
        controller.store_block(0, bytes(64))
        controller.power_cycle()
        assert len(controller.counter_cache) == 0


class TestTiming:
    def test_read_latency_includes_memory(self, controller, tiny_config):
        _, latency_ns, _ = controller.fetch_block(0)
        assert latency_ns >= tiny_config.nvm.read_latency_ns

    def test_counter_hit_faster_than_miss(self, controller):
        _, miss_ns, _ = controller.fetch_block(0)
        _, hit_ns, _ = controller.fetch_block(64)
        assert hit_ns < miss_ns

    def test_unencrypted_mode_skips_pad_latency(self, tiny_config):
        plain_cfg = replace(tiny_config, encryption=replace(
            tiny_config.encryption, enabled=False))
        plain = SecureMemoryController(plain_cfg)
        secure = SecureMemoryController(tiny_config)
        plain.store_block(0, b"\x01" * 64)
        secure.store_block(0, b"\x01" * 64)
        assert plain.device.peek(0) == b"\x01" * 64   # plaintext at rest
        assert secure.device.peek(0) != b"\x01" * 64
