"""i-NVMM memory-side encryption: behaviour and the paper's objections."""

from dataclasses import replace

import pytest

from repro.core import INVMMController, SecureMemoryController
from repro.errors import ConfigError
from repro.mem import BusSnooper

SECRET = b"HOT-PAGE-SECRET!" * 4


@pytest.fixture
def aes_config(tiny_config):
    return replace(tiny_config,
                   encryption=replace(tiny_config.encryption, cipher="aes"))


@pytest.fixture
def controller(aes_config):
    return INVMMController(aes_config, cold_after_accesses=4)


class TestHotColdLifecycle:
    def test_roundtrip_hot(self, controller):
        controller.store_block(0, SECRET)
        assert controller.fetch_block(0)[0] == SECRET

    def test_sealing_encrypts_at_rest(self, controller):
        controller.store_block(0, SECRET)
        # Age the page: touch other pages past the cold threshold.
        for page in range(1, 8):
            controller.store_block(page * 4096, bytes(64))
        assert controller.seal_cold_pages() >= 1
        assert controller.is_sealed(0)
        assert SECRET[:16] not in controller.device.peek(0)

    def test_unseal_on_access_recovers_data(self, controller):
        controller.store_block(0, SECRET)
        for page in range(1, 8):
            controller.store_block(page * 4096, bytes(64))
        controller.seal_cold_pages()
        assert controller.fetch_block(0)[0] == SECRET
        assert not controller.is_sealed(0)
        assert controller.pages_unsealed == 1

    def test_unseal_pays_latency(self, controller):
        controller.store_block(0, SECRET)
        for page in range(1, 8):
            controller.store_block(page * 4096, bytes(64))
        controller.seal_cold_pages()
        cold_read = controller.fetch_block(0)[1]
        hot_read = controller.fetch_block(0)[1]
        assert cold_read > hot_read

    def test_hot_pages_never_seal(self, controller):
        controller.store_block(0, SECRET)
        assert controller.seal_cold_pages() == 0
        assert not controller.is_sealed(0)

    def test_requires_invertible_cipher(self, tiny_config):
        with pytest.raises(ConfigError):
            INVMMController(tiny_config)     # xorshift default

    def test_plaintext_fraction(self, controller):
        controller.store_block(0, SECRET)
        assert controller.plaintext_fraction == 1.0


class TestPaperObjections:
    def test_bus_carries_plaintext(self, controller):
        """Section 8: i-NVMM 'does not protect from bus-snoop attacks'."""
        snooper = BusSnooper()
        controller.mem.snoopers.append(snooper)
        controller.store_block(0, SECRET)
        controller.fetch_block(0)
        assert snooper.search(SECRET[:16]), \
            "memory-side encryption leaves plaintext on the bus"

    def test_ctr_bus_is_dark(self, aes_config):
        secure = SecureMemoryController(aes_config)
        snooper = BusSnooper()
        secure.mem.snoopers.append(snooper)
        secure.store_block(0, SECRET)
        secure.fetch_block(0)
        assert not snooper.search(SECRET[:16])

    def test_stolen_dimm_exposes_hot_pages(self, controller):
        """Partial remanence: the hot working set is caught in
        plaintext by an abrupt power cut."""
        controller.store_block(0, SECRET)
        controller.power_cycle()
        assert SECRET[:16] in controller.device.peek(0)

    def test_cold_pages_protected(self, controller):
        controller.store_block(0, SECRET)
        for page in range(1, 8):
            controller.store_block(page * 4096, bytes(64))
        controller.seal_cold_pages()
        controller.power_cycle()
        assert SECRET[:16] not in controller.device.peek(0)

    def test_ecb_sealing_leaks_equality(self, controller):
        payload = b"\x5a" * 64
        controller.store_block(0, payload)
        controller.store_block(64, payload)
        for page in range(1, 8):
            controller.store_block(page * 4096, bytes(64))
        controller.seal_cold_pages()
        assert controller.device.peek(0) == controller.device.peek(64), \
            "ECB sealing: identical plaintext -> identical ciphertext"

    def test_no_shredding_support(self, controller):
        assert not hasattr(controller, "shred_page") or \
            not controller.zero_semantics
