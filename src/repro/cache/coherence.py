"""MESI coherence directory over the per-core private caches.

The coherence unit is one core's private L1+L2 pair. The directory
keeps one int per tracked block, keyed by block address: the sharer
bitmask (bit ``c`` set while core ``c`` holds the block) shifted left by
two, OR'd with the state, where 0 = S, 1 = E and 2 = M. An E or M
entry has exactly one sharer, its owner; an entry with no sharers is
dropped, so INVALID is the absence of an entry. The directory serves
three purposes in the reproduction:

* correctness of multi-core sharing (single writer / multiple readers),
* accounting of invalidation traffic, and
* the shred-command datapath: step 2 of Figure 6 sends invalidations for
  a whole page to every core's caches (and the counter cache), which the
  directory performs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Set

from ..errors import SimulationError

#: the state field of an entry (its low two bits)
SHARED, EXCLUSIVE, MODIFIED = 0, 1, 2


def owned_entry(core: int) -> int:
    """The entry of a block that ``core`` alone holds, in M: what a
    store by ``core`` leaves behind, and what lets its next store skip
    the ownership upgrade."""
    return 1 << core << 2 | MODIFIED


class MESIState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


_STATES = (MESIState.SHARED, MESIState.EXCLUSIVE, MESIState.MODIFIED)


def _cores(mask: int) -> List[int]:
    """The core ids whose bits are set in ``mask``, ascending."""
    return [core for core in range(mask.bit_length()) if mask >> core & 1]


@dataclass
class CoherenceStats:
    invalidations_sent: int = 0
    ownership_transfers: int = 0
    writebacks_forced: int = 0
    read_misses_served_by_owner: int = 0


class CoherenceDirectory:
    """Directory-based MESI for N private cache units."""

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        #: block address -> sharer bitmask << 2 | state
        self.entries: Dict[int, int] = {}
        self.stats = CoherenceStats()

    def state_of(self, block_address: int, core: int) -> MESIState:
        entry = self.entries.get(block_address, 0)
        if not entry >> 2 >> core & 1:
            return MESIState.INVALID
        return _STATES[entry & 3]

    def sharers_of(self, block_address: int) -> Set[int]:
        return set(_cores(self.entries.get(block_address, 0) >> 2))

    # -- processor-side events ------------------------------------------------

    def read(self, block_address: int, core: int) -> List[int]:
        """Core ``core`` reads the block.

        Returns the list of cores whose copy must be downgraded (an M/E
        owner supplying the data transitions to S; its dirty data is
        flushed to the shared levels by the hierarchy).
        """
        entry = self.entries.get(block_address, 0)
        sharers = entry >> 2
        bit = 1 << core
        if sharers & bit:
            return []
        downgraded: List[int] = []
        if entry & 3:
            downgraded.append(sharers.bit_length() - 1)
            if entry & 3 == MODIFIED:
                self.stats.writebacks_forced += 1
            self.stats.read_misses_served_by_owner += 1
        self.entries[block_address] = (
            bit << 2 | EXCLUSIVE if not sharers else (sharers | bit) << 2)
        return downgraded

    def write(self, block_address: int, core: int) -> List[int]:
        """Core ``core`` writes the block; returns cores to invalidate."""
        entry = self.entries.get(block_address, 0)
        bit = 1 << core
        others = entry >> 2 & ~bit
        invalidate = _cores(others) if others else []
        if invalidate:
            self.stats.invalidations_sent += len(invalidate)
        if entry & 3 and others:
            self.stats.ownership_transfers += 1
        self.entries[block_address] = bit << 2 | MODIFIED
        return invalidate

    def evicted(self, block_address: int, core: int) -> None:
        """A private cache dropped its copy (eviction or invalidation)."""
        entry = self.entries.get(block_address)
        if entry is None or not entry >> 2 >> core & 1:
            return
        sharers = entry >> 2 & ~(1 << core)
        if sharers:
            # Only an S entry has a second sharer.
            self.entries[block_address] = sharers << 2
        else:
            del self.entries[block_address]

    def invalidate_block(self, block_address: int) -> List[int]:
        """Drop the block everywhere (shred step 2); returns prior sharers."""
        entry = self.entries.pop(block_address, None)
        if entry is None:
            return []
        sharers = _cores(entry >> 2)
        self.stats.invalidations_sent += len(sharers)
        return sharers

    # -- invariant checking ------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if any entry violates the MESI single-writer invariant."""
        for address, entry in self.entries.items():
            sharers, state = entry >> 2, entry & 3
            if not sharers:
                raise SimulationError(f"block {address:#x}: empty entry retained")
            if state > MODIFIED:
                raise SimulationError(
                    f"block {address:#x}: no such state {state}")
            if state and sharers & (sharers - 1):
                raise SimulationError(
                    f"block {address:#x}: {_STATES[state].value} state with "
                    f"sharers={_cores(sharers)}")
