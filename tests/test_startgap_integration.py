"""Start-Gap wear levelling integrated under the secure controller."""

from dataclasses import replace

import pytest

from repro.config import fast_config
from repro.core import SilentShredderController


def make_controller(*, start_gap: bool, interval: int = 10,
                    region_lines: int = 16):
    config = fast_config()
    config = replace(config, nvm=replace(config.nvm, start_gap=start_gap,
                                         start_gap_interval=interval,
                                         start_gap_region_lines=region_lines))
    return SilentShredderController(config)


class TestFunctionalWithLevelling:
    def test_roundtrip_through_many_moves(self):
        controller = make_controller(start_gap=True, interval=3)
        for i in range(60):
            controller.store_block(0, bytes([i]) * 64)
        assert controller.fetch_block(0)[0] == bytes([59]) * 64

    def test_multiple_blocks_stay_separate(self):
        controller = make_controller(start_gap=True, interval=2)
        payloads = {i * 64: bytes([i + 1]) * 64 for i in range(8)}
        for address, payload in payloads.items():
            controller.store_block(address, payload)
        for _ in range(30):
            controller.store_block(0, b"\xEE" * 64)
        for address, payload in payloads.items():
            if address == 0:
                continue
            assert controller.fetch_block(address)[0] == payload

    def test_shred_still_works_with_levelling(self):
        controller = make_controller(start_gap=True, interval=3)
        controller.store_block(0, b"\x77" * 64)
        for _ in range(20):
            controller.store_block(64, b"\x88" * 64)
        controller.shred_page(0)
        assert controller.fetch_block(0)[2]
        assert controller.fetch_block(0)[0] == bytes(64)

    def test_counters_roundtrip_through_levelling(self):
        """The counter region is wear-levelled too; flushed counters
        must still load correctly."""
        controller = make_controller(start_gap=True, interval=4)
        controller.store_block(0, b"\x42" * 64)
        for _ in range(25):
            controller.store_block(128, b"\x43" * 64)
        controller.flush_counters()
        controller.counter_cache.invalidate(0)
        assert controller.fetch_block(0)[0] == b"\x42" * 64


class TestWearDistribution:
    def test_levelling_bounds_hot_line_wear(self):
        """A pathological single-line hot spot: Start-Gap caps the
        worst physical line's wear at roughly interval writes before
        rotation spreads it."""
        writes = 400
        with_gap = make_controller(start_gap=True, interval=4)
        without = make_controller(start_gap=False)
        for controller in (with_gap, without):
            for i in range(writes):
                controller.store_block(0, bytes([i % 256]) * 64)
        assert with_gap.device.max_wear() < without.device.max_wear() / 2

    def test_lifetime_extended(self):
        with_gap = make_controller(start_gap=True, interval=4)
        without = make_controller(start_gap=False)
        for controller in (with_gap, without):
            for i in range(300):
                controller.store_block(0, bytes([i % 256]) * 64)
        assert with_gap.device.lifetime_fraction_used() < \
            without.device.lifetime_fraction_used()
