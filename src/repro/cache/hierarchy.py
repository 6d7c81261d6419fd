"""The 4-level cache hierarchy with MESI coherence (Table 1).

Structure: private L1 and L2 per core; shared L3 and L4; one block size
throughout. The hierarchy is inclusive at the last level: every cached
block is resident in L4, and an L4 eviction back-invalidates all upper
levels. Authoritative data for the whole hierarchy lives in the L4
payloads (upper levels are tag-only), which keeps the functional model
simple — a write updates the L4 copy and marks it dirty; dirty L4
victims are written back to the memory controller below.

The hierarchy talks to the world below through two callbacks, in a
full machine the controller's own ``fetch_block``/``store_block``:

* ``miss_handler(address, now_ns)`` — fetch a block; returns the tuple
  ``(data, latency_ns, zero_filled)``, where ``zero_filled`` marks a
  block of a shredded page that never touched NVM.
* ``writeback_handler(address, data, now_ns)`` — a dirty block
  leaves the hierarchy.

Shredding interacts with the hierarchy through
:meth:`CacheHierarchy.invalidate_page` (step 2 of Figure 6).

Loads and stores take one walk, :meth:`CacheHierarchy.access`, one
call per access (the execution context's ``touch`` applies the pure L1
hits of that walk to the set dicts itself), which returns
``(latency_cycles, data)``. The walk works on each level's set dicts
directly: L4 fills through :meth:`SetAssociativeCache.fill` (its
victim carries a payload and a dirty bit), while the tag-only L1-L3,
which are never dirty, are filled and back-invalidated in place without
building an :class:`~repro.cache.cache.Eviction`. The directory lists
a core as a sharer of a block exactly while that core's L1 or L2 holds
it, and tracks only blocks L4 holds
(:meth:`CacheHierarchy.check_inclusion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..config import SystemConfig
from ..errors import AddressError, SimulationError
from .cache import Eviction, SetAssociativeCache
from .coherence import CoherenceDirectory


@dataclass
class PageInvalidation:
    """What :meth:`CacheHierarchy.invalidate_page` did."""

    blocks_invalidated: int = 0
    blocks_written_back: int = 0
    private_invalidations: int = 0


#: ``(address, now_ns) -> (data, latency_ns, zero_filled)``
MissHandler = Callable[[int, float], Tuple[Optional[bytes], float, bool]]
WritebackHandler = Callable[[int, Optional[bytes], float], None]


class CacheHierarchy:
    """Private L1/L2 per core, shared L3/L4, inclusive at L4."""

    def __init__(self, config: SystemConfig,
                 miss_handler: MissHandler,
                 writeback_handler: WritebackHandler) -> None:
        self.config = config
        self.block_size = config.block_size
        self.num_cores = config.cpu.num_cores
        self.miss_handler = miss_handler
        self.writeback_handler = writeback_handler
        self.l1 = [SetAssociativeCache(config.l1) for _ in range(self.num_cores)]
        self.l2 = [SetAssociativeCache(config.l2) for _ in range(self.num_cores)]
        self.l3 = SetAssociativeCache(config.l3)
        self.l4 = SetAssociativeCache(config.l4)
        self.directory = CoherenceDirectory(self.num_cores)
        self._zero_block = bytes(self.block_size)
        self.functional = config.functional
        # Aggregate event counters.
        self.zero_fills = 0
        self.memory_fetches = 0
        self.writebacks = 0

    # -- helpers ---------------------------------------------------------------

    def _handle_l4_eviction(self, eviction: Eviction, now_ns: float) -> None:
        """Back-invalidate an L4 victim everywhere and write back if dirty.

        The victim leaves L3 and its sharers' L1 and L2 in place: the
        tag-only levels hold no payload or dirty bit to report.
        """
        address = eviction.address
        block = address // self.block_size
        l3 = self.l3
        ways = l3.sets[block % l3.num_sets]
        if block in ways:
            del ways[block]
            l3.stats.invalidations += 1
        for core in self.directory.invalidate_block(address):
            for cache in (self.l1[core], self.l2[core]):
                ways = cache.sets[block % cache.num_sets]
                if block in ways:
                    del ways[block]
                    cache.stats.invalidations += 1
        if eviction.dirty:
            self.writeback_handler(address, eviction.payload, now_ns)
            self.writebacks += 1

    # -- the main access path ------------------------------------------------------

    def access(self, core: int, address: int, is_write: bool,
               data: Optional[bytes] = None, now_ns: float = 0.0,
               merge: Optional[tuple] = None,
               ) -> Tuple[int, Optional[bytes]]:
        """Issue one load or store from ``core`` at ``address``.

        ``data`` is the full-block payload for functional stores;
        alternatively ``merge=(offset, value_bytes)`` performs a
        sub-block store as a read-modify-write of the cached copy.
        Returns ``(latency_cycles, data)``: the access latency in core
        cycles and, for loads in functional mode, the block's bytes
        (else ``None``).

        One pass: the block number is computed once and each level's
        set probed once, top down; a hit re-inserts the block as its
        set's most recent. A miss below L2 fills the missing shared
        levels, then L1 and L2. L4 fills through
        :meth:`SetAssociativeCache.fill` (its victim carries a payload
        and a dirty bit); the tag-only L1-L3 are filled in place, each
        full set dropping its first (LRU) block. An L3 victim is
        dropped; a block that leaves a core's L1 or L2 and is in
        neither any more is reported to the directory, so its sharers
        are exactly the cores that hold it.
        """
        if core < 0 or core >= self.num_cores:
            raise AddressError(f"no such core {core}")
        block_size = self.block_size
        block = address // block_size
        address = block * block_size
        directory = self.directory
        l1 = self.l1[core]
        l2 = self.l2[core]
        l4 = self.l4
        latency = l1.latency_cycles

        # Coherence first: a store must gain exclusive ownership even on a
        # private-cache hit; a load miss may downgrade a remote owner.
        if is_write:
            for other in directory.write(address, core):
                self.l1[other].invalidate(address)
                self.l2[other].invalidate(address)

        l1_ways = l1.sets[block % l1.num_sets]
        if block in l1_ways:
            del l1_ways[block]
            l1_ways[block] = None
            l1.stats.hits += 1
        else:
            l1.stats.misses += 1
            latency += l2.latency_cycles
            l2_ways = l2.sets[block % l2.num_sets]
            l2_hit = block in l2_ways
            if l2_hit:
                del l2_ways[block]
                l2_ways[block] = None
                l2.stats.hits += 1
            else:
                l2.stats.misses += 1
                if not is_write:
                    directory.read(address, core)
                l3 = self.l3
                latency += l3.latency_cycles
                l3_ways = l3.sets[block % l3.num_sets]
                if block in l3_ways:
                    del l3_ways[block]
                    l3_ways[block] = None
                    l3.stats.hits += 1
                else:
                    l3.stats.misses += 1
                    latency += l4.latency_cycles
                    l4_ways = l4.sets[block % l4.num_sets]
                    if block in l4_ways:
                        l4_ways[block] = l4_ways.pop(block)
                        l4.stats.hits += 1
                    else:
                        l4.stats.misses += 1
                        fetched, fetch_ns, zero_filled = self.miss_handler(
                            address, now_ns)
                        latency += self.config.cpu.ns_to_cycles(fetch_ns)
                        if zero_filled:
                            self.zero_fills += 1
                        else:
                            self.memory_fetches += 1
                        payload = None
                        if self.functional:
                            payload = fetched
                            if payload is None:
                                payload = self._zero_block
                        evicted = l4.fill(address, payload)
                        if evicted is not None:
                            self._handle_l4_eviction(evicted, now_ns)
                    if len(l3_ways) == l3.associativity:
                        del l3_ways[next(iter(l3_ways))]
                        l3.stats.evictions += 1
                    l3_ways[block] = None
                    l3.stats.fills += 1
            if len(l1_ways) == l1.associativity:
                victim = next(iter(l1_ways))
                del l1_ways[victim]
                l1.stats.evictions += 1
                if victim not in l2.sets[victim % l2.num_sets]:
                    directory.evicted(victim * block_size, core)
            l1_ways[block] = None
            l1.stats.fills += 1
            if not l2_hit:
                if len(l2_ways) == l2.associativity:
                    victim = next(iter(l2_ways))
                    del l2_ways[victim]
                    l2.stats.evictions += 1
                    if victim not in l1.sets[victim % l1.num_sets]:
                        directory.evicted(victim * block_size, core)
                l2_ways[block] = None
                l2.stats.fills += 1

        result_data: Optional[bytes] = None
        l4_ways = l4.sets[block % l4.num_sets]
        if block not in l4_ways:
            # Inclusion guarantees residence; guard for safety.
            raise AddressError(f"block {address:#x} missing from L4 after fill")
        if is_write:
            if self.functional:
                if merge is not None:
                    offset, value = merge
                    if offset < 0 or offset + len(value) > block_size:
                        raise AddressError("merge write exceeds block bounds")
                    base = l4_ways[block]
                    if base is None:
                        base = self._zero_block
                    l4_ways[block] = (base[:offset] + bytes(value)
                                      + base[offset + len(value):])
                elif data is not None and len(data) == block_size:
                    l4_ways[block] = bytes(data)
                else:
                    raise AddressError("functional store needs a full block "
                                       "payload or a merge fragment")
            l4.dirty.add(block)
        elif self.functional:
            result_data = l4_ways[block]

        return latency, result_data

    # -- shred support ------------------------------------------------------------

    def invalidate_page(self, page_address: int, page_size: int, *,
                        writeback: bool, now_ns: float = 0.0) -> "PageInvalidation":
        """Drop every block of a page from the whole hierarchy.

        With ``writeback=True`` (the baseline's non-temporal semantics)
        dirty L4 copies are flushed to memory; Silent Shredder passes
        ``False`` because the page's data is being destroyed anyway.
        A block L4 does not hold is skipped: by inclusion no level
        above holds it, and the directory tracks only cached blocks.
        """
        result = PageInvalidation()
        block_size = self.block_size
        resident = self.l4
        sets, num_sets = resident.sets, resident.num_sets
        for address in range(page_address, page_address + page_size,
                             block_size):
            block = address // block_size
            if block not in sets[block % num_sets]:
                continue
            for core in self.directory.invalidate_block(address):
                self.l1[core].invalidate(address)
                self.l2[core].invalidate(address)
                result.private_invalidations += 1
            self.l3.invalidate(address)
            evicted = self.l4.invalidate(address)
            result.blocks_invalidated += 1
            if evicted.dirty and writeback:
                self.writeback_handler(address, evicted.payload, now_ns)
                self.writebacks += 1
                result.blocks_written_back += 1
        return result

    def flush_all(self, now_ns: float = 0.0) -> int:
        """Flush the entire hierarchy (dirty L4 lines written back).

        The tag-only L1-L3 hold nothing to write back and are cleared
        wholesale; L4's dirty lines go to memory in ascending order. The
        directory's entries are cleared in place; its statistics, like
        the caches', are kept.
        """
        for cache in (*self.l1, *self.l2, self.l3):
            cache.flush_all()
        flushed = 0
        for eviction in self.l4.flush_all():
            self.writeback_handler(eviction.address, eviction.payload, now_ns)
            self.writebacks += 1
            flushed += 1
        self.directory.entries.clear()
        return flushed

    def check_inclusion(self) -> None:
        """Raise if the hierarchy's residency invariants are violated.

        Inclusion: every block resident in any upper level is resident
        in L4. Directory residency: every directory entry names a block
        L4 holds, and each block's sharers are exactly the cores whose
        L1 or L2 holds it.
        """
        resident_l4 = set(self.l4.resident_addresses())
        for cache in [self.l3, *self.l1, *self.l2]:
            for address in cache.resident_addresses():
                if address not in resident_l4:
                    raise AddressError(
                        f"{cache.name}: block {address:#x} cached above a "
                        "non-resident L4 line (inclusion violated)")
        holders: Dict[int, Set[int]] = {}
        for core in range(self.num_cores):
            for cache in (self.l1[core], self.l2[core]):
                for address in cache.resident_addresses():
                    holders.setdefault(address, set()).add(core)
        for address in sorted(set(holders) | set(self.directory.entries)):
            if address not in resident_l4:
                raise SimulationError(
                    f"directory tracks block {address:#x}, which L4 does "
                    "not hold")
            sharers = self.directory.sharers_of(address)
            if sharers != holders.get(address, set()):
                raise SimulationError(
                    f"block {address:#x}: directory sharers "
                    f"{sorted(sharers)} but held privately by "
                    f"{sorted(holders.get(address, ()))}")
