"""A set-associative LRU cache: one recency-ordered dict per set.

The paper's machine (Table 1) uses LRU in every cache level and in the
counter cache, so LRU is the only replacement policy. Set ``s`` is the
insertion-ordered dict ``sets[s]``, which maps each resident block
number to the line's payload (the hierarchy keeps payloads only at the
last level; the counter cache stores counter blocks), least recently
used first:

* a hit re-inserts its key, so it becomes the set's last;
* a fill appends its key; in a full set it first drops the set's first
  key, the LRU line, and reports it as the victim.

``dirty`` is the set of resident dirty block numbers. There are no
ways, slots or stamps: a set's recency order is its key order.

Evictions report the victim so the owner can write back dirty state;
:meth:`SetAssociativeCache.invalidate` serves clean drops (shredding,
back-invalidation) and :meth:`SetAssociativeCache.flush_all` clears the
whole cache at once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ..config import CacheConfig

#: ``slots=True`` for the per-eviction allocations where the runtime
#: supports it (3.10+); plain dataclasses on 3.9.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: ``dict.pop`` default that no payload can be
_ABSENT = object()


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
    """LRU tag store over per-set recency dicts (see the module docstring).

    Addresses are byte addresses; the cache derives the block number,
    and from it the set (``block % num_sets``), by ``block_size``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.name = config.name
        self.block_size = config.block_size
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.latency_cycles = config.latency_cycles
        self.stats = CacheStats()
        #: per set: resident block number -> payload, LRU first
        self.sets: List[Dict[int, Any]] = [{} for _ in range(self.num_sets)]
        self.dirty: Set[int] = set()

    # -- queries -------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """Whether the line is resident; no stats or recency effects."""
        block = address // self.block_size
        return block in self.sets[block % self.num_sets]

    def lookup(self, address: int) -> bool:
        """Probe for a line: a hit also makes it the most recently used
        of its set. Counts the hit or miss."""
        block = address // self.block_size
        ways = self.sets[block % self.num_sets]
        payload = ways.pop(block, _ABSENT)
        if payload is _ABSENT:
            self.stats.misses += 1
            return False
        ways[block] = payload
        self.stats.hits += 1
        return True

    # -- fills and invalidation ------------------------------------------------

    def fill(self, address: int, payload: Any = None, *,
             dirty: bool = False) -> Optional[Eviction]:
        """Install a line as the most recently used of its set.

        A line already present has its payload replaced and its dirty
        bit only ever set. Otherwise a full set first drops its LRU
        line, which is returned so the caller can write it back.
        """
        block = address // self.block_size
        ways = self.sets[block % self.num_sets]
        if ways.pop(block, _ABSENT) is not _ABSENT:
            ways[block] = payload
            if dirty:
                self.dirty.add(block)
            return None
        stats = self.stats
        eviction = None
        if len(ways) == self.associativity:
            victim = next(iter(ways))
            victim_dirty = victim in self.dirty
            stats.evictions += 1
            if victim_dirty:
                self.dirty.discard(victim)
                stats.dirty_evictions += 1
            eviction = Eviction(victim * self.block_size, victim_dirty,
                                ways.pop(victim))
        ways[block] = payload
        if dirty:
            self.dirty.add(block)
        stats.fills += 1
        return eviction

    def mark_dirty(self, address: int) -> None:
        block = address // self.block_size
        if block in self.sets[block % self.num_sets]:
            self.dirty.add(block)

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a line if present; returns its state for optional flush."""
        block = address // self.block_size
        payload = self.sets[block % self.num_sets].pop(block, _ABSENT)
        if payload is _ABSENT:
            return None
        dirty = block in self.dirty
        if dirty:
            self.dirty.discard(block)
        self.stats.invalidations += 1
        return Eviction(block * self.block_size, dirty, payload)

    def resident_addresses(self) -> List[int]:
        """Block addresses of all resident lines, ascending."""
        return sorted(block * self.block_size
                      for ways in self.sets for block in ways)

    def flush_all(self) -> List[Eviction]:
        """Invalidate everything at once, returning dirty victims
        (ascending address) for write-back."""
        sets, num_sets = self.sets, self.num_sets
        dirty = [Eviction(block * self.block_size, True,
                          sets[block % num_sets][block])
                 for block in sorted(self.dirty)]
        self.dirty.clear()
        for ways in sets:
            if ways:
                self.stats.invalidations += len(ways)
                ways.clear()
        return dirty

    def __len__(self) -> int:
        return sum(map(len, self.sets))
