"""The counter (IV) cache.

Caches one :class:`~repro.core.iv.CounterBlock` per physical page — the
64-bit major counter co-located with all the page's 7-bit minor counters
in one 64 B entry (section 2.2). The Figure 12 sweep varies its capacity;
Table 1's baseline is 4 MB, 8-way, 10 cycles.

Persistence (section 4.3): with the ``writeback`` policy the cache is
battery-backed and dirty counter blocks are flushed on demand or at
power-down; with ``writethrough`` every counter update is immediately
propagated to the NVM counter region by the owning controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from ..config import CacheConfig, CounterCacheConfig
from .cache import CacheStats, SetAssociativeCache

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from ..core.iv import CounterBlock


@dataclass
class CounterEviction:
    """A counter block pushed out of the cache."""

    page_id: int
    block: CounterBlock
    dirty: bool


class CounterCache:
    """Set-associative cache of per-page counter blocks, keyed by page id."""

    def __init__(self, config: CounterCacheConfig) -> None:
        self.config = config
        self.latency_cycles = config.latency_cycles
        self.write_through = config.write_policy == "writethrough"
        geometry = CacheConfig(
            name="CounterCache",
            size_bytes=config.size_bytes,
            associativity=config.associativity,
            block_size=config.block_size,
            latency_cycles=config.latency_cycles,
        )
        #: the LRU tag store, keyed by page id: page ids are mapped onto
        #: synthetic block addresses so the generic set-associative
        #: machinery (sets, LRU, stats) applies directly, and a page id
        #: is its entry's block number (a key of ``lines.sets``). The
        #: controller's counter probe reads it in place.
        self.lines = SetAssociativeCache(geometry)
        self._block_size = config.block_size

    def _address(self, page_id: int) -> int:
        return page_id * self._block_size

    @property
    def stats(self) -> CacheStats:
        return self.lines.stats

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters; entries stay resident."""
        self.lines.stats = CacheStats()

    @property
    def capacity_entries(self) -> int:
        return self.config.size_bytes // self._block_size

    def lookup(self, page_id: int) -> Optional[CounterBlock]:
        """Probe for a page's counters (counts hit/miss)."""
        lines = self.lines
        if not lines.lookup(self._address(page_id)):
            return None
        return lines.sets[page_id % lines.num_sets][page_id]

    def peek(self, page_id: int) -> Optional[CounterBlock]:
        """Probe without stats side effects."""
        lines = self.lines
        return lines.sets[page_id % lines.num_sets].get(page_id)

    def fill(self, page_id: int, block: CounterBlock, *,
             dirty: bool = False) -> Optional[CounterEviction]:
        """Install a counter block; returns the victim if one was evicted."""
        evicted = self.lines.fill(self._address(page_id), block, dirty=dirty)
        if evicted is None:
            return None
        return CounterEviction(page_id=evicted.address // self._block_size,
                               block=evicted.payload, dirty=evicted.dirty)

    def mark_dirty(self, page_id: int) -> None:
        self.lines.mark_dirty(self._address(page_id))

    def invalidate(self, page_id: int) -> Optional[CounterEviction]:
        """Drop a page's counters (remote-core invalidation in Figure 6)."""
        evicted = self.lines.invalidate(self._address(page_id))
        if evicted is None:
            return None
        return CounterEviction(page_id=page_id, block=evicted.payload,
                               dirty=evicted.dirty)

    def entries(self) -> Iterator[Tuple[int, CounterBlock, bool]]:
        """``(page_id, counters, dirty)`` for every resident entry, in
        ascending page order. No stats or recency effects."""
        cache = self.lines
        sets, num_sets = cache.sets, cache.num_sets
        for page_id in sorted(page for ways in sets for page in ways):
            yield (page_id, sets[page_id % num_sets][page_id],
                   page_id in cache.dirty)

    def dirty_entries(self) -> List[Tuple[int, CounterBlock]]:
        """All dirty (page_id, counters) pairs — what a battery flush saves."""
        sets, num_sets = self.lines.sets, self.lines.num_sets
        return [(page_id, sets[page_id % num_sets][page_id])
                for page_id in sorted(self.lines.dirty)]

    def flush(self) -> List[CounterEviction]:
        """Mark every dirty entry clean, returning what was flushed.

        Models the battery-backed flush of the write-back counter cache
        on power loss (section 7.1). The result has the same structured
        shape as :meth:`invalidate`: a :class:`CounterEviction` per
        flushed block (``dirty=True`` — they were dirty when flushed),
        in ascending page order. The caller persists them.
        """
        flushed = [CounterEviction(page_id=page_id, block=block, dirty=True)
                   for page_id, block in self.dirty_entries()]
        self.lines.dirty.clear()
        return flushed

    def __len__(self) -> int:
        return len(self.lines)
