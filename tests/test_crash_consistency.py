"""Power-loss scenarios (sections 4.3 and 7.1).

The paper requires the counter cache to be persistent — battery-backed
write-back, or write-through. These tests demonstrate *why*: losing a
dirty counter block desynchronises IVs from data, and losing a shred's
counter update can resurrect supposedly destroyed data.
"""

from dataclasses import replace

import pytest

from repro.core import SilentShredderController
from repro.sim import Machine, System


@pytest.fixture
def controller(tiny_config):
    return SilentShredderController(tiny_config)


class TestBatteryBacked:
    def test_no_dirty_counters_lost(self, controller):
        controller.store_block(0, b"\x11" * 64)
        controller.shred_page(1)
        lost = controller.power_fail(battery=True)
        assert lost == 0

    def test_data_readable_after_orderly_loss(self, controller):
        controller.store_block(0, b"\x11" * 64)
        controller.power_fail(battery=True)
        assert controller.fetch_block(0)[0] == b"\x11" * 64

    def test_shred_state_survives(self, controller):
        controller.store_block(0, b"\x22" * 64)
        controller.shred_page(0)
        controller.power_fail(battery=True)
        assert controller.fetch_block(0)[2]


class TestBatteryLess:
    def test_dirty_counters_lost_counted(self, controller):
        controller.store_block(0, b"\x11" * 64)          # dirties page 0
        controller.shred_page(1)                          # dirties page 1
        lost = controller.power_fail(battery=False)
        assert lost == 2

    def test_unsynchronised_counters_garble_data(self, controller):
        """Data written under minor=2 decrypts under the stale minor=1
        after the counter update is lost: unintelligible, not the data."""
        payload = b"\x37" * 64
        controller.store_block(0, payload)                # minor 1 -> 2
        controller.power_fail(battery=False)
        recovered = controller.fetch_block(0)[0]
        assert recovered != payload

    def test_lost_shred_resurrects_data_risk(self, controller):
        """The section 7.1 hazard: if the shred's counter update never
        reaches NVM, the page is NOT shredded after reboot — its prior
        ciphertext decrypts again. The kernel must treat this as an
        integrity failure; the model exposes the hazard explicitly."""
        secret = b"\x5c" * 64
        controller.store_block(0, secret)
        controller.flush_counters()                # write's counters durable
        controller.shred_page(0)                   # shred dirty in cache only
        lost = controller.power_fail(battery=False)
        assert lost >= 1
        data, _, zero_filled = controller.fetch_block(0)
        assert not zero_filled
        assert data == secret, \
            "without counter persistence the shred is silently undone"

    def test_write_through_cache_immune(self, tiny_config):
        """A write-through counter cache has no dirty state to lose."""
        config = replace(tiny_config, counter_cache=replace(
            tiny_config.counter_cache, write_policy="writethrough"))
        controller = SilentShredderController(config)
        controller.store_block(0, b"\x44" * 64)
        controller.shred_page(0)
        lost = controller.power_fail(battery=False)
        assert lost == 0
        assert controller.fetch_block(0)[2]


class TestTemporalZeroingNotPersistent:
    def test_crash_during_temporal_zeroing_leaks(self, tiny_config):
        """Section 2.3: zeroing through the caches is not durable — a
        crash before eviction leaves the old data in NVM. Non-temporal
        and shred-based zeroing do not have this window."""
        from repro.kernel import ZeroingEngine
        machine = Machine(tiny_config.with_zeroing("temporal"),
                          shredder=False)
        secret = b"\x66" * 64
        machine.controller.store_block(4096, secret)
        ZeroingEngine(machine).zero_page(1)       # zeros parked in caches
        machine.controller.power_cycle()          # caches lost
        leaked = machine.controller.fetch_block(4096)[0]
        assert leaked == secret, "temporal zeroing lost on power failure"

    def test_shred_zeroing_is_persistent(self, tiny_config):
        from repro.kernel import ZeroingEngine
        machine = Machine(tiny_config.with_zeroing("shred"), shredder=True)
        machine.controller.store_block(4096, b"\x66" * 64)
        ZeroingEngine(machine).zero_page(1)
        machine.controller.power_cycle()          # battery flush included
        assert machine.controller.fetch_block(4096)[2]
