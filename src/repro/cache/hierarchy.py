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

* ``miss_handler(address, now_ns)`` — fetch a block; returns anything
  with :class:`MemoryFetch`'s ``data``/``latency_ns``/``zero_filled``
  (the controller's ``AccessResult``), and may report a *zero-filled*
  block for shredded pages that never touch NVM.
* ``writeback_handler(address, data, now_ns)`` — a dirty block
  leaves the hierarchy.

Shredding interacts with the hierarchy through
:meth:`CacheHierarchy.invalidate_page` (step 2 of Figure 6).

Loads and stores take one walk, :meth:`CacheHierarchy.access`, one
call per access; :meth:`CacheHierarchy.try_l1_hit` serves the pure L1
hits of that walk in place. The directory lists a core as a sharer of a
block exactly while that core's L1 or L2 holds it, and tracks only
blocks L4 holds (:meth:`CacheHierarchy.check_inclusion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from ..config import SystemConfig
from ..errors import AddressError, SimulationError
from .cache import Eviction, SetAssociativeCache
from .coherence import CoherenceDirectory, MESIState


@dataclass
class MemoryFetch:
    """What the memory side returns for an LLC miss."""

    data: Optional[bytes]
    latency_ns: float
    zero_filled: bool = False


@dataclass
class PageInvalidation:
    """What :meth:`CacheHierarchy.invalidate_page` did."""

    blocks_invalidated: int = 0
    blocks_written_back: int = 0
    private_invalidations: int = 0


@dataclass
class HierarchyAccess:
    """Outcome of one load or store issued by a core."""

    address: int
    is_write: bool
    latency_cycles: int
    hit_level: str                      # "L1" | "L2" | "L3" | "L4" | "MEM" | "ZERO"
    data: Optional[bytes] = None
    writebacks: int = 0


MissHandler = Callable[[int, float], MemoryFetch]
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

    def _handle_l4_eviction(self, eviction: Eviction, now_ns: float) -> int:
        """Back-invalidate an L4 victim everywhere and write back if dirty."""
        address = eviction.address
        self.l3.invalidate(address)
        for core in self.directory.invalidate_block(address):
            self.l1[core].invalidate(address)
            self.l2[core].invalidate(address)
        if eviction.dirty:
            self.writeback_handler(address, eviction.payload, now_ns)
            self.writebacks += 1
            return 1
        return 0

    # -- the main access path ------------------------------------------------------

    def access(self, core: int, address: int, is_write: bool,
               data: Optional[bytes] = None, now_ns: float = 0.0,
               merge: Optional[tuple] = None) -> HierarchyAccess:
        """Issue one load or store from ``core`` at ``address``.

        ``data`` is the full-block payload for functional stores;
        alternatively ``merge=(offset, value_bytes)`` performs a
        sub-block store as a read-modify-write of the cached copy.
        Returns the access latency in core cycles and, for loads in
        functional mode, the block's bytes.

        One pass: the block number is computed once and each level's
        ``slot_of`` probed once, top down. A miss below L2 fills the
        missing shared levels, then L1 and L2; a block that leaves a
        core's L1 or L2 and is in neither any more is reported to the
        directory, so its sharers are exactly the cores that hold it.
        """
        if core < 0 or core >= self.num_cores:
            raise AddressError(f"no such core {core}")
        block_size = self.block_size
        block = address // block_size
        address = block * block_size
        directory = self.directory
        l1 = self.l1[core]
        l2 = self.l2[core]
        latency = l1.latency_cycles
        writeback_count = 0

        # Coherence first: a store must gain exclusive ownership even on a
        # private-cache hit; a load miss may downgrade a remote owner.
        if is_write:
            for other in directory.write(address, core):
                self.l1[other].invalidate(address)
                self.l2[other].invalidate(address)

        slot = l1.slot_of.get(block)
        if slot is not None:
            l1.stats.hits += 1
            l1.clock += 1
            l1.stamps[slot] = l1.clock
            hit_level = "L1"
        else:
            l1.stats.misses += 1
            latency += l2.latency_cycles
            slot = l2.slot_of.get(block)
            if slot is not None:
                l2.stats.hits += 1
                l2.clock += 1
                l2.stamps[slot] = l2.clock
                hit_level = "L2"
            else:
                l2.stats.misses += 1
                if not is_write:
                    directory.read(address, core)
                l3 = self.l3
                latency += l3.latency_cycles
                slot = l3.slot_of.get(block)
                if slot is not None:
                    l3.stats.hits += 1
                    l3.clock += 1
                    l3.stamps[slot] = l3.clock
                    hit_level = "L3"
                else:
                    l3.stats.misses += 1
                    l4 = self.l4
                    latency += l4.latency_cycles
                    slot = l4.slot_of.get(block)
                    if slot is not None:
                        l4.stats.hits += 1
                        l4.clock += 1
                        l4.stamps[slot] = l4.clock
                        hit_level = "L4"
                    else:
                        l4.stats.misses += 1
                        fetch = self.miss_handler(address, now_ns)
                        latency += self.config.cpu.ns_to_cycles(fetch.latency_ns)
                        if fetch.zero_filled:
                            hit_level = "ZERO"
                            self.zero_fills += 1
                        else:
                            hit_level = "MEM"
                            self.memory_fetches += 1
                        payload = None
                        if self.functional:
                            payload = fetch.data
                            if payload is None:
                                payload = self._zero_block
                        evicted = l4.fill(address, payload)
                        if evicted is not None:
                            writeback_count = self._handle_l4_eviction(
                                evicted, now_ns)
                    l3.fill(address)
            evicted = l1.fill(address)
            if evicted is not None and \
                    evicted.address // block_size not in l2.slot_of:
                directory.evicted(evicted.address, core)
            if hit_level != "L2":
                evicted = l2.fill(address)
                if evicted is not None and \
                        evicted.address // block_size not in l1.slot_of:
                    directory.evicted(evicted.address, core)

        result_data: Optional[bytes] = None
        l4 = self.l4
        slot = l4.slot_of.get(block)
        if slot is None:
            # Inclusion guarantees residence; guard for safety.
            raise AddressError(f"block {address:#x} missing from L4 after fill")
        if is_write:
            if self.functional:
                if merge is not None:
                    offset, value = merge
                    if offset < 0 or offset + len(value) > block_size:
                        raise AddressError("merge write exceeds block bounds")
                    base = l4.payloads[slot]
                    if base is None:
                        base = self._zero_block
                    l4.payloads[slot] = (base[:offset] + bytes(value)
                                         + base[offset + len(value):])
                elif data is not None and len(data) == block_size:
                    l4.payloads[slot] = bytes(data)
                else:
                    raise AddressError("functional store needs a full block "
                                       "payload or a merge fragment")
            l4.dirty[slot] = True
        elif self.functional:
            result_data = l4.payloads[slot]

        return HierarchyAccess(address, is_write, latency, hit_level,
                               result_data, writeback_count)

    def try_l1_hit(self, core: int, address: int, is_write: bool) -> int:
        """Serve a pure L1 hit in place; ``-1`` when ``access()`` is needed.

        A pure hit is an access whose reference walk touches nothing but
        the L1 line's stats and recency (and, for a store, the L4 dirty
        bit): the block is resident in ``core``'s L1 and in L4, and a
        store additionally finds ``core`` the directory's MODIFIED owner
        (so ``directory.write`` is a no-op). Functional stores are never
        served here; their payload merge belongs to ``access()``. On a
        hit this applies exactly ``access()``'s effects and returns the
        L1 latency in cycles; on ``-1`` nothing has changed.
        """
        if not 0 <= core < self.num_cores:
            return -1
        block = address // self.block_size
        l1 = self.l1[core]
        slot = l1.slot_of.get(block)
        if slot is None:
            return -1
        l4_slot = self.l4.slot_of.get(block)
        if l4_slot is None:
            return -1
        if is_write:
            if self.functional:
                return -1
            entry = self.directory._entries.get(block * self.block_size)
            if (entry is None or entry.owner != core
                    or entry.state is not MESIState.MODIFIED):
                return -1
            self.l4.dirty[l4_slot] = True
        l1.stats.hits += 1
        l1.clock += 1
        l1.stamps[slot] = l1.clock
        return self.config.l1.latency_cycles

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
        resident = self.l4.slot_of
        for address in range(page_address, page_address + page_size,
                             block_size):
            if address // block_size not in resident:
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
        wholesale; L4's dirty lines go to memory in ascending order.
        """
        for cache in (*self.l1, *self.l2, self.l3):
            cache.flush_all()
        flushed = 0
        for eviction in self.l4.flush_all():
            self.writeback_handler(eviction.address, eviction.payload, now_ns)
            self.writebacks += 1
            flushed += 1
        self.directory = CoherenceDirectory(self.num_cores)
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
        for address in sorted(set(holders) | set(self.directory._entries)):
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
