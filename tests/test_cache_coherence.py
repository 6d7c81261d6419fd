"""MESI directory state machine."""

import pytest

from repro.cache import CoherenceDirectory, MESIState
from repro.errors import SimulationError


class TestReadPaths:
    def test_first_read_exclusive(self):
        directory = CoherenceDirectory(4)
        assert directory.read(0x100, 0) == []
        assert directory.state_of(0x100, 0) is MESIState.EXCLUSIVE

    def test_second_reader_shares(self):
        directory = CoherenceDirectory(4)
        directory.read(0x100, 0)
        downgraded = directory.read(0x100, 1)
        assert downgraded == [0]
        assert directory.state_of(0x100, 0) is MESIState.SHARED
        assert directory.state_of(0x100, 1) is MESIState.SHARED

    def test_read_after_write_forces_writeback_accounting(self):
        directory = CoherenceDirectory(4)
        directory.write(0x100, 0)
        directory.read(0x100, 1)
        assert directory.stats.writebacks_forced == 1

    def test_rereading_own_block_no_traffic(self):
        directory = CoherenceDirectory(2)
        directory.read(0x40, 0)
        assert directory.read(0x40, 0) == []
        assert directory.state_of(0x40, 0) is MESIState.EXCLUSIVE


class TestWritePaths:
    def test_write_gains_modified(self):
        directory = CoherenceDirectory(4)
        directory.write(0x80, 2)
        assert directory.state_of(0x80, 2) is MESIState.MODIFIED

    def test_write_invalidates_sharers(self):
        directory = CoherenceDirectory(4)
        directory.read(0x80, 0)
        directory.read(0x80, 1)
        invalidate = directory.write(0x80, 2)
        assert sorted(invalidate) == [0, 1]
        assert directory.state_of(0x80, 0) is MESIState.INVALID
        assert directory.state_of(0x80, 1) is MESIState.INVALID

    def test_upgrade_from_shared(self):
        directory = CoherenceDirectory(2)
        directory.read(0x80, 0)
        directory.read(0x80, 1)
        assert directory.write(0x80, 0) == [1]
        assert directory.state_of(0x80, 0) is MESIState.MODIFIED

    def test_silent_upgrade_from_exclusive(self):
        directory = CoherenceDirectory(2)
        directory.read(0x80, 0)
        assert directory.write(0x80, 0) == []
        assert directory.state_of(0x80, 0) is MESIState.MODIFIED

    def test_ownership_transfer_counted(self):
        directory = CoherenceDirectory(2)
        directory.write(0x80, 0)
        directory.write(0x80, 1)
        assert directory.stats.ownership_transfers == 1


class TestEvictionsAndInvalidation:
    def test_eviction_clears_state(self):
        directory = CoherenceDirectory(2)
        directory.read(0x40, 0)
        directory.evicted(0x40, 0)
        assert directory.state_of(0x40, 0) is MESIState.INVALID
        assert directory.sharers_of(0x40) == set()

    def test_eviction_of_one_sharer(self):
        directory = CoherenceDirectory(2)
        directory.read(0x40, 0)
        directory.read(0x40, 1)
        directory.evicted(0x40, 0)
        assert directory.sharers_of(0x40) == {1}

    def test_invalidate_block_returns_sharers(self):
        directory = CoherenceDirectory(4)
        directory.read(0xC0, 1)
        directory.read(0xC0, 3)
        assert directory.invalidate_block(0xC0) == [1, 3]
        assert directory.sharers_of(0xC0) == set()

    def test_invalidate_absent_block(self):
        directory = CoherenceDirectory(2)
        assert directory.invalidate_block(0xF00) == []


class TestInvariants:
    def test_invariants_hold_through_traffic(self):
        directory = CoherenceDirectory(4)
        operations = [
            (directory.read, 0x0, 0), (directory.read, 0x0, 1),
            (directory.write, 0x0, 2), (directory.read, 0x40, 3),
            (directory.write, 0x40, 3), (directory.read, 0x0, 0),
        ]
        for op, address, core in operations:
            op(address, core)
            directory.check_invariants()

    def test_corrupted_state_detected(self):
        directory = CoherenceDirectory(2)
        directory.write(0x0, 0)
        directory.entries[0x0] |= 0b10 << 2   # corrupt: M with two sharers
        with pytest.raises(SimulationError):
            directory.check_invariants()
