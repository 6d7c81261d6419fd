"""DEUCE word-granular encryption and its composition with shredding."""

from dataclasses import replace

import pytest

from repro.core import DeuceShredderController, SilentShredderController
from repro.errors import CipherError


@pytest.fixture
def controller(tiny_config):
    return DeuceShredderController(tiny_config, epoch_interval=8)


def with_word(base: bytes, word_index: int, value: bytes) -> bytes:
    start = word_index * 4
    return base[:start] + value + base[start + 4:]


class TestFunctionalCorrectness:
    def test_roundtrip(self, controller):
        payload = bytes(range(64))
        controller.store_block(0, payload)
        assert controller.fetch_block(0)[0] == payload

    def test_partial_update_roundtrip(self, controller):
        first = bytes(range(64))
        controller.store_block(0, first)
        second = with_word(first, 3, b"\xde\xad\xbe\xef")
        controller.store_block(0, second)
        assert controller.fetch_block(0)[0] == second

    def test_many_partial_updates(self, controller):
        data = bytes(64)
        controller.store_block(0, data)
        for i in range(6):        # stays inside one epoch (interval 8)
            data = with_word(data, i % 16, bytes([i + 1] * 4))
            controller.store_block(0, data)
            assert controller.fetch_block(0)[0] == data

    def test_epoch_turnover_roundtrip(self, controller):
        data = bytes(64)
        controller.store_block(0, data)
        for i in range(20):       # crosses epoch boundaries
            data = with_word(data, i % 16, bytes([(i * 7 + 1) % 256] * 4))
            controller.store_block(0, data)
        assert controller.fetch_block(0)[0] == data
        assert controller.deuce_stats.full_encryptions >= 2

    def test_multiple_lines_independent(self, controller):
        a = bytes([1]) * 64
        b = bytes([2]) * 64
        controller.store_block(0, a)
        controller.store_block(64, b)
        controller.store_block(0, with_word(a, 0, b"\xff" * 4))
        assert controller.fetch_block(64)[0] == b

    def test_bad_epoch_interval(self, tiny_config):
        with pytest.raises(CipherError):
            DeuceShredderController(tiny_config, epoch_interval=1)


class TestWriteEfficiency:
    def test_untouched_words_keep_ciphertext(self, controller):
        first = bytes(range(64))
        controller.store_block(0, first)
        before = controller.device.peek(0)
        controller.store_block(0, with_word(first, 0, b"\x99" * 4))
        after = controller.device.peek(0)
        assert before[4:] == after[4:], \
            "only the modified word's ciphertext may change"
        assert before[:4] != after[:4]

    def test_fewer_bits_flipped_than_plain_ctr(self, tiny_config):
        """The point of DEUCE: single-word updates flip far fewer
        stored bits than whole-line counter-mode re-encryption."""
        def bits_for(controller_cls, **kw):
            config = replace(tiny_config)
            controller = controller_cls(config, **kw)
            data = bytes(64)
            controller.store_block(0, data)
            before = controller.device.stats.bits_written
            for i in range(6):
                data = with_word(data, 2, bytes([i + 1] * 4))
                controller.store_block(0, data)
            return controller.device.stats.bits_written - before

        deuce_bits = bits_for(DeuceShredderController, epoch_interval=32)
        plain_bits = bits_for(SilentShredderController)
        assert deuce_bits < plain_bits / 3

    def test_stats_track_word_reencryption(self, controller):
        data = bytes(64)
        controller.store_block(0, data)
        controller.store_block(0, with_word(data, 5, b"\x01\x02\x03\x04"))
        assert controller.deuce_stats.partial_encryptions == 1
        assert 0 < controller.deuce_stats.words_untouched_fraction < 1


class TestShredComposition:
    def test_shred_still_writes_nothing(self, controller):
        controller.store_block(0, bytes(range(64)))
        writes = controller.stats.data_writes
        controller.shred_page(0)
        assert controller.stats.data_writes == writes

    def test_shredded_reads_zero(self, controller):
        controller.store_block(0, bytes(range(64)))
        controller.shred_page(0)
        data, _, zero_filled = controller.fetch_block(0)
        assert zero_filled and data == bytes(64)

    def test_write_after_shred_fresh_epoch(self, controller):
        data = bytes(range(64))
        controller.store_block(0, data)
        controller.store_block(0, with_word(data, 1, b"\xaa" * 4))
        controller.shred_page(0)
        fresh = b"\x42" * 64
        controller.store_block(0, fresh)
        assert controller.fetch_block(0)[0] == fresh
        state = controller._line_state[0]
        assert state.mask == 0, "shred must reset the modified-word mask"

    def test_old_data_unintelligible_after_shred(self, controller):
        secret = b"SECRET-WORD-DATA" * 4
        controller.store_block(0, secret)
        controller.shred_page(0)
        controller.store_block(0, bytes(64))
        fetched = controller.fetch_block(0)[0]
        assert fetched == bytes(64)

    def test_overflow_reencryption_resets_state(self, tiny_config):
        config = replace(tiny_config, encryption=replace(
            tiny_config.encryption, minor_counter_bits=3))
        controller = DeuceShredderController(config, epoch_interval=4)
        data = bytes(64)
        for i in range(10):        # forces a minor-counter overflow
            data = with_word(data, i % 16, bytes([i + 1] * 4))
            controller.store_block(0, data)
        assert controller.stats.reencryptions >= 1
        assert controller.fetch_block(0)[0] == data
