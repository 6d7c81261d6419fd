"""A set-associative cache with pluggable replacement.

The cache stores tags plus optional per-line payloads (the hierarchy
keeps payloads only at the last level; the counter cache stores counter
blocks). Evictions report the victim so the owner can write back dirty
state; invalidation supports both clean drops (shredding) and flushing.

Each set is a list of ways holding :class:`CacheLine` objects (``None``
for an empty way); the ``_index`` dict maps a block number to its
``(set, way)`` slot for O(1) probes. LRU and FIFO keep their recency
stamps in a flat array indexed ``set * assoc + way``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import CacheConfig
from ..errors import ConfigError
from .replacement import make_replacement

#: ``slots=True`` for the per-line hot allocations where the runtime
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
class CacheLine:
    """One resident line: tag plus dirty bit and optional payload."""

    tag: int
    dirty: bool = False
    payload: Any = None


@dataclass(**_SLOTS)
class Eviction:
    """A victim pushed out by a fill."""

    address: int
    dirty: bool
    payload: Any = None


class SetAssociativeCache:
    """Tag store with per-set ways and a replacement policy.

    Addresses are block-aligned byte addresses; the cache derives set
    index and tag from the block number. ``key_shift`` lets specialised
    caches (the counter cache) index by something other than 64 B blocks.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.name = config.name
        self.block_size = config.block_size
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        if self.num_sets < 1:
            raise ConfigError(f"{config.name}: zero sets")
        self.policy = make_replacement(config.replacement)
        self.policy.bind(self.num_sets, self.associativity)
        self.latency_cycles = config.latency_cycles
        self.stats = CacheStats()
        # sets[set_index][way] -> CacheLine or None
        self._sets: List[List[Optional[CacheLine]]] = [
            [None] * self.associativity for _ in range(self.num_sets)
        ]
        # Lines resident per set; a full set (the steady state) skips
        # the empty-way scan entirely on fill.
        self._set_fill = array("i", bytes(4 * self.num_sets))
        self._all_ways = list(range(self.associativity))
        # Fast lookup: block_number -> (set_index, way)
        self._index: Dict[int, Tuple[int, int]] = {}

    # -- address mapping ---------------------------------------------------

    def _block_number(self, address: int) -> int:
        return address // self.block_size

    def _set_index(self, block_number: int) -> int:
        return block_number % self.num_sets

    def _address_of(self, block_number: int) -> int:
        return block_number * self.block_size

    # -- queries -------------------------------------------------------------

    def contains(self, address: int) -> bool:
        return self._block_number(address) in self._index

    def lookup(self, address: int, *, touch: bool = True) -> Optional[CacheLine]:
        """Probe for a line; updates hit/miss stats and recency."""
        block = self._block_number(address)
        location = self._index.get(block)
        if location is None:
            self.stats.misses += 1
            return None
        set_index, way = location
        line = self._sets[set_index][way]
        assert line is not None
        self.stats.hits += 1
        if touch:
            self.policy.touch(set_index, way)
        return line

    def peek(self, address: int) -> Optional[CacheLine]:
        """Probe without stats or recency effects."""
        location = self._index.get(self._block_number(address))
        if location is None:
            return None
        return self._sets[location[0]][location[1]]

    # -- fills and evictions ---------------------------------------------------

    def fill(self, address: int, payload: Any = None, *,
             dirty: bool = False) -> Optional[Eviction]:
        """Install a line, evicting a victim if the set is full.

        Returns the eviction (if any) so the caller can handle dirty
        write-back. Filling an already-present line updates it in place.
        """
        block = self._block_number(address)
        existing = self._index.get(block)
        if existing is not None:
            set_index, way = existing
            line = self._sets[set_index][way]
            assert line is not None
            line.payload = payload
            line.dirty = line.dirty or dirty
            self.policy.touch(set_index, way)
            return None

        set_index = block % self.num_sets
        ways = self._sets[set_index]

        eviction = None
        if self._set_fill[set_index] == self.associativity:
            # Steady state: set is full, go straight to the victim.
            victim_way = self.policy.victim(set_index, self._all_ways)
            victim = ways[victim_way]
            assert victim is not None
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            eviction = Eviction(address=victim.tag * self.block_size,
                                dirty=victim.dirty, payload=victim.payload)
            del self._index[victim.tag]
            self.policy.forget(set_index, victim_way)
            # Reuse the victim line object in place; peeked lines are
            # consumed before the next fill, never held across one.
            victim.tag = block
            victim.dirty = dirty
            victim.payload = payload
        else:
            victim_way = ways.index(None)
            ways[victim_way] = CacheLine(tag=block, dirty=dirty, payload=payload)
            self._set_fill[set_index] += 1

        self._index[block] = (set_index, victim_way)
        self.policy.touch(set_index, victim_way)
        self.stats.fills += 1
        return eviction

    def fill_tag(self, address: int) -> int:
        """Install a clean tag-only line; returns the victim's block
        address, or ``-1`` when nothing was evicted.

        Equivalent to ``fill(address)`` — same stats, policy and set
        state — minus the :class:`Eviction` materialisation. For the
        tag-only upper levels (payloads live at L4 only, lines are
        never dirty) the victim's address is all a caller can use.
        """
        block = address // self.block_size
        existing = self._index.get(block)
        if existing is not None:
            set_index, way = existing
            line = self._sets[set_index][way]
            line.payload = None
            self.policy.touch(set_index, way)
            return -1

        set_index = block % self.num_sets
        ways = self._sets[set_index]

        victim_address = -1
        if self._set_fill[set_index] == self.associativity:
            victim_way = self.policy.victim(set_index, self._all_ways)
            victim = ways[victim_way]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            victim_address = victim.tag * self.block_size
            del self._index[victim.tag]
            self.policy.forget(set_index, victim_way)
            victim.tag = block
            victim.dirty = False
            victim.payload = None
        else:
            victim_way = ways.index(None)
            ways[victim_way] = CacheLine(tag=block)
            self._set_fill[set_index] += 1

        self._index[block] = (set_index, victim_way)
        self.policy.touch(set_index, victim_way)
        self.stats.fills += 1
        return victim_address

    def mark_dirty(self, address: int) -> None:
        line = self.peek(address)
        if line is not None:
            line.dirty = True

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a line if present; returns its state for optional flush."""
        block = self._block_number(address)
        location = self._index.pop(block, None)
        if location is None:
            return None
        set_index, way = location
        line = self._sets[set_index][way]
        assert line is not None
        self._sets[set_index][way] = None
        self._set_fill[set_index] -= 1
        self.policy.forget(set_index, way)
        self.stats.invalidations += 1
        return Eviction(address=self._address_of(block), dirty=line.dirty,
                        payload=line.payload)

    def drop(self, address: int) -> None:
        """Invalidate without materialising the victim's state.

        Identical stats and set state to :meth:`invalidate`; hot paths
        that ignore the returned :class:`Eviction` (tag-only upper-level
        back-invalidation) use this to skip the allocation.
        """
        block = address // self.block_size
        location = self._index.pop(block, None)
        if location is None:
            return
        set_index, way = location
        self._sets[set_index][way] = None
        self._set_fill[set_index] -= 1
        self.policy.forget(set_index, way)
        self.stats.invalidations += 1

    def invalidate_range(self, start: int, length: int) -> List[Eviction]:
        """Invalidate every resident line overlapping [start, start+length)."""
        evictions = []
        first_block = start // self.block_size
        last_block = (start + length - 1) // self.block_size
        for block in range(first_block, last_block + 1):
            evicted = self.invalidate(block * self.block_size)
            if evicted is not None:
                evictions.append(evicted)
        return evictions

    def resident_addresses(self) -> List[int]:
        """Block addresses of all resident lines (for inspection/tests)."""
        return sorted(self._address_of(block) for block in self._index)

    def flush_all(self) -> List[Eviction]:
        """Invalidate everything, returning dirty victims for write-back."""
        dirty = []
        for address in self.resident_addresses():
            evicted = self.invalidate(address)
            if evicted is not None and evicted.dirty:
                dirty.append(evicted)
        return dirty

    def __len__(self) -> int:
        return len(self._index)
