"""The plain memory controller: routing, wear-levelled remap, stats."""

import pytest

from repro.config import NVMConfig
from repro.errors import AddressError
from repro.mem import (MemoryController, NVMDevice, StartGapWearLeveler)


def make_controller(wear=False, lines=64):
    config = NVMConfig(capacity_bytes=(lines + 1) * 64)
    device = NVMDevice(config)
    leveler = None
    if wear:
        def move(src, dst):
            device.poke(dst * 64, device.peek(src * 64))
        leveler = StartGapWearLeveler(lines, gap_move_interval=4,
                                      move_hook=move)
    return MemoryController(device, num_channels=2,
                            channel_bandwidth_gbps=12.8,
                            wear_leveler=leveler), device


class TestBasics:
    def test_read_returns_data_and_latency(self):
        controller, device = make_controller()
        device.poke(0, b"\x07" * 64)
        data, latency_ns = controller.read_block(0)
        assert data == b"\x07" * 64
        assert latency_ns >= device.read_latency_ns

    def test_write_then_read(self):
        controller, _ = make_controller()
        controller.write_block(64, b"\x09" * 64)
        assert controller.read_block(64)[0] == b"\x09" * 64

    def test_stats_track_both_sides(self):
        controller, _ = make_controller()
        controller.write_block(0, bytes(64))
        controller.read_block(0)
        assert controller.stats.reads == 1
        assert controller.stats.writes == 1

    def test_misaligned_check(self):
        controller, _ = make_controller()
        with pytest.raises(AddressError):
            controller.check_block_address(7)


class TestWearLevelledController:
    def test_data_survives_gap_movement(self):
        controller, _ = make_controller(wear=True, lines=16)
        for line in range(8):
            controller.write_block(line * 64, bytes([line]) * 64)
        # Generate enough writes to force many gap moves.
        for i in range(40):
            controller.write_block((i % 8) * 64, bytes([i % 8]) * 64)
        for line in range(8):
            assert controller.read_block(line * 64)[0] == bytes([line]) * 64

    def test_remap_spreads_physical_targets(self):
        controller, device = make_controller(wear=True, lines=16)
        seen = set()
        for i in range(16 * 20):
            controller.write_block(0, bytes(64))
            seen.add(controller._physical_address(0))
        assert len(seen) > 4, "start-gap must rotate line 0 across slots"
