"""Direct (ECB) encryption: the section 2.2 comparison point."""

from dataclasses import replace

import pytest

from repro.core import DirectEncryptionController, SecureMemoryController
from repro.errors import ConfigError


@pytest.fixture
def aes_config(tiny_config):
    return replace(tiny_config,
                   encryption=replace(tiny_config.encryption, cipher="aes"))


@pytest.fixture
def controller(aes_config):
    return DirectEncryptionController(aes_config)


class TestFunctional:
    def test_roundtrip(self, controller):
        payload = bytes(range(64))
        controller.store_block(0, payload)
        assert controller.fetch_block(0)[0] == payload

    def test_ciphertext_at_rest(self, controller):
        controller.store_block(0, b"\x21" * 64)
        assert controller.device.peek(0) != b"\x21" * 64

    def test_pad_only_cipher_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            DirectEncryptionController(tiny_config)   # xorshift default


class TestECBWeakness:
    def test_identical_blocks_identical_ciphertext(self, controller):
        """The dictionary-attack enabler: ECB leaks equality."""
        payload = b"\x42" * 64
        controller.store_block(0, payload)
        controller.store_block(64, payload)
        assert controller.device.peek(0) == controller.device.peek(64)

    def test_counter_mode_does_not_leak_equality(self, aes_config):
        secure = SecureMemoryController(aes_config)
        payload = b"\x42" * 64
        secure.store_block(0, payload)
        secure.store_block(64, payload)
        assert secure.device.peek(0) != secure.device.peek(64)

    def test_replay_possible_under_ecb(self, controller):
        """No counters: replaying an old ciphertext goes undetected."""
        controller.store_block(0, b"OLD-BALANCE:100!" * 4)
        stale = controller.device.peek(0)
        controller.store_block(0, b"NEW-BALANCE:001!" * 4)
        controller.device.poke(0, stale)         # physical replay
        assert controller.fetch_block(0)[0] == b"OLD-BALANCE:100!" * 4


class TestLatency:
    def test_decryption_serialises_with_fetch(self, aes_config):
        """Counter mode overlaps pad generation with the NVM read;
        direct encryption adds the cipher latency on top."""
        direct = DirectEncryptionController(aes_config)
        ctr = SecureMemoryController(aes_config)
        for controller in (direct, ctr):
            controller.store_block(0, b"\x10" * 64)
        direct_read = direct.fetch_block(0)[1]
        # Read through a warm counter cache for a fair comparison.
        ctr.fetch_block(0)
        ctr_read = ctr.fetch_block(64)[1]
        assert direct_read > ctr_read
