"""A set-associative LRU cache over flat, slot-indexed arrays.

The paper's machine (Table 1) uses LRU in every cache level and in the
counter cache, so LRU is the only replacement policy. Way ``way`` of set
``s`` is slot ``s * associativity + way`` of four flat lists:

* ``tags``: the resident block number, ``None`` for an empty way;
* ``stamps``: the LRU stamp, ``0`` for an empty way and otherwise the
  cache's ``clock`` at the line's last fill or hit, so resident stamps
  are unique and at least 1;
* ``dirty``: the dirty bit;
* ``payloads``: the line's payload (the hierarchy keeps payloads only at
  the last level; the counter cache stores counter blocks).

``slot_of`` maps each resident block number to its slot. An empty way's
stamp is below every resident stamp, so one lowest-stamp scan over a set
(ties to the lowest way) picks the lowest empty way when there is one
and the LRU line otherwise.

Evictions report the victim so the owner can write back dirty state;
:meth:`SetAssociativeCache.invalidate` serves clean drops (shredding,
back-invalidation) and :meth:`SetAssociativeCache.flush_all` clears the
whole cache at once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..config import CacheConfig

#: ``slots=True`` for the per-eviction allocations where the runtime
#: supports it (3.10+); plain dataclasses on 3.9.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    fills: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(**_SLOTS)
class Eviction:
    """A line that left the cache: evicted by a fill or invalidated."""

    address: int
    dirty: bool
    payload: Any = None


class SetAssociativeCache:
    """LRU tag store over slot-indexed arrays (see the module docstring).

    Addresses are byte addresses; the cache derives the block number,
    and from it the set, by ``block_size``. Queries that find a line
    return its slot, an index into ``tags``/``stamps``/``dirty``/
    ``payloads``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.name = config.name
        self.block_size = config.block_size
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.latency_cycles = config.latency_cycles
        self.stats = CacheStats()
        slots = self.num_sets * self.associativity
        self.tags: List[Optional[int]] = [None] * slots
        self.stamps: List[int] = [0] * slots
        self.dirty: List[bool] = [False] * slots
        self.payloads: List[Any] = [None] * slots
        self.slot_of: Dict[int, int] = {}
        #: the LRU clock: advanced by every hit and fill
        self.clock = 0

    # -- queries -------------------------------------------------------------

    def contains(self, address: int) -> bool:
        return address // self.block_size in self.slot_of

    def lookup(self, address: int) -> Optional[int]:
        """Probe for a line: its slot on a hit, which also refreshes its
        recency, or ``None`` on a miss. Counts the hit or miss."""
        slot = self.slot_of.get(address // self.block_size)
        if slot is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.clock += 1
        self.stamps[slot] = self.clock
        return slot

    def peek(self, address: int) -> Optional[int]:
        """The line's slot, or ``None``; no stats or recency effects."""
        return self.slot_of.get(address // self.block_size)

    # -- fills and invalidation ------------------------------------------------

    def fill(self, address: int, payload: Any = None, *,
             dirty: bool = False) -> Optional[Eviction]:
        """Install a line as the most recently used of its set.

        A line already present keeps its way: its payload is replaced
        and its dirty bit only ever set. Otherwise the line takes the
        lowest empty way of its set or, in a full set, the LRU line's
        way; the victim is returned so the caller can write it back.
        """
        block = address // self.block_size
        stamps = self.stamps
        self.clock += 1
        slot = self.slot_of.get(block)
        if slot is not None:
            self.payloads[slot] = payload
            if dirty:
                self.dirty[slot] = True
            stamps[slot] = self.clock
            return None
        base = block % self.num_sets * self.associativity
        ways = stamps[base:base + self.associativity]
        slot = base + ways.index(min(ways))
        eviction = None
        if stamps[slot]:
            victim = self.tags[slot]
            del self.slot_of[victim]
            victim_dirty = self.dirty[slot]
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
            eviction = Eviction(victim * self.block_size, victim_dirty,
                                self.payloads[slot])
        self.tags[slot] = block
        stamps[slot] = self.clock
        self.dirty[slot] = dirty
        self.payloads[slot] = payload
        self.slot_of[block] = slot
        self.stats.fills += 1
        return eviction

    def mark_dirty(self, address: int) -> None:
        slot = self.slot_of.get(address // self.block_size)
        if slot is not None:
            self.dirty[slot] = True

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a line if present; returns its state for optional flush."""
        block = address // self.block_size
        slot = self.slot_of.pop(block, None)
        if slot is None:
            return None
        eviction = Eviction(block * self.block_size, self.dirty[slot],
                            self.payloads[slot])
        self.tags[slot] = None
        self.stamps[slot] = 0
        self.dirty[slot] = False
        self.payloads[slot] = None
        self.stats.invalidations += 1
        return eviction

    def resident_addresses(self) -> List[int]:
        """Block addresses of all resident lines, ascending."""
        return sorted(block * self.block_size for block in self.slot_of)

    def flush_all(self) -> List[Eviction]:
        """Invalidate everything at once, returning dirty victims
        (ascending address) for write-back."""
        slot_of = self.slot_of
        if not slot_of:
            return []
        dirty = [Eviction(block * self.block_size, True,
                          self.payloads[slot_of[block]])
                 for block in sorted(block for block, slot in slot_of.items()
                                     if self.dirty[slot])]
        slots = len(self.tags)
        self.tags[:] = [None] * slots
        self.stamps[:] = [0] * slots
        self.dirty[:] = [False] * slots
        self.payloads[:] = [None] * slots
        self.stats.invalidations += len(slot_of)
        slot_of.clear()
        return dirty

    def __len__(self) -> int:
        return len(self.slot_of)
