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
hits of that walk in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..config import SystemConfig
from ..errors import AddressError
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

    def _align(self, address: int) -> int:
        return address - (address % self.block_size)

    def _private_contains(self, core: int, address: int) -> bool:
        return self.l1[core].contains(address) or self.l2[core].contains(address)

    def _handle_l4_eviction(self, eviction: Eviction, now_ns: float) -> int:
        """Back-invalidate an L4 victim everywhere and write back if dirty."""
        address = eviction.address
        self.l3.invalidate(address)
        for core in self.directory.sharers_of(address):
            self.l1[core].invalidate(address)
            self.l2[core].invalidate(address)
        self.directory.invalidate_block(address)
        if eviction.dirty:
            self.writeback_handler(address, eviction.payload, now_ns)
            self.writebacks += 1
            return 1
        return 0

    def _install_private(self, core: int, address: int) -> None:
        """Fill the block's tag into the core's L1 and L2."""
        for cache in (self.l1[core], self.l2[core]):
            evicted = cache.fill(address)
            if (evicted is not None
                    and not self._private_contains(core, evicted.address)):
                self.directory.evicted(core=core,
                                       block_address=evicted.address)

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
        """
        if core < 0 or core >= self.num_cores:
            raise AddressError(f"no such core {core}")
        address = self._align(address)
        latency = self.config.l1.latency_cycles
        writeback_count = 0

        # Coherence first: a store must gain exclusive ownership even on a
        # private-cache hit; a load miss may downgrade a remote owner.
        if is_write:
            for other in self.directory.write(address, core):
                self.l1[other].invalidate(address)
                self.l2[other].invalidate(address)

        hit_level = None
        if self.l1[core].lookup(address) is not None:
            hit_level = "L1"
        else:
            latency += self.config.l2.latency_cycles
            if self.l2[core].lookup(address) is not None:
                hit_level = "L2"
                self.l1[core].fill(address)
            else:
                if not is_write:
                    self.directory.read(address, core)
                latency += self.config.l3.latency_cycles
                if self.l3.lookup(address) is not None:
                    hit_level = "L3"
                    self._install_private(core, address)
                else:
                    latency += self.config.l4.latency_cycles
                    if self.l4.lookup(address) is not None:
                        hit_level = "L4"
                        self.l3.fill(address)
                        self._install_private(core, address)
                    else:
                        fetch = self.miss_handler(address, now_ns)
                        latency += self.config.cpu.ns_to_cycles(fetch.latency_ns)
                        hit_level = "ZERO" if fetch.zero_filled else "MEM"
                        if fetch.zero_filled:
                            self.zero_fills += 1
                        else:
                            self.memory_fetches += 1
                        payload = fetch.data if self.functional else None
                        if payload is None and self.functional:
                            payload = self._zero_block
                        evicted = self.l4.fill(address, payload)
                        if evicted is not None:
                            writeback_count += self._handle_l4_eviction(evicted, now_ns)
                        self.l3.fill(address)
                        self._install_private(core, address)

        if is_write and not self._private_contains(core, address):
            # The store path above may have hit in shared levels only.
            self._install_private(core, address)

        result_data: Optional[bytes] = None
        l4 = self.l4
        slot = l4.peek(address)
        if slot is None:
            # The fill above guarantees residence; guard for safety.
            raise AddressError(f"block {address:#x} missing from L4 after fill")
        if is_write:
            if self.functional:
                if merge is not None:
                    offset, value = merge
                    if offset < 0 or offset + len(value) > self.block_size:
                        raise AddressError("merge write exceeds block bounds")
                    base = l4.payloads[slot]
                    if base is None:
                        base = self._zero_block
                    l4.payloads[slot] = (base[:offset] + bytes(value)
                                         + base[offset + len(value):])
                elif data is not None and len(data) == self.block_size:
                    l4.payloads[slot] = bytes(data)
                else:
                    raise AddressError("functional store needs a full block "
                                       "payload or a merge fragment")
            l4.dirty[slot] = True
        else:
            result_data = l4.payloads[slot] if self.functional else None

        return HierarchyAccess(address=address, is_write=is_write,
                               latency_cycles=latency, hit_level=hit_level,
                               data=result_data, writebacks=writeback_count)

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
        """
        result = PageInvalidation()
        for offset in range(0, page_size, self.block_size):
            address = page_address + offset
            for core in self.directory.invalidate_block(address):
                self.l1[core].invalidate(address)
                self.l2[core].invalidate(address)
                result.private_invalidations += 1
            self.l3.invalidate(address)
            evicted = self.l4.invalidate(address)
            if evicted is not None:
                result.blocks_invalidated += 1
                if evicted.dirty and writeback:
                    self.writeback_handler(address, evicted.payload, now_ns)
                    self.writebacks += 1
                    result.blocks_written_back += 1
        return result

    def flush_all(self, now_ns: float = 0.0) -> int:
        """Flush the entire hierarchy (dirty L4 lines written back)."""
        flushed = 0
        for core in range(self.num_cores):
            self.l1[core].flush_all()
            self.l2[core].flush_all()
        self.l3.flush_all()
        for eviction in self.l4.flush_all():
            self.writeback_handler(eviction.address, eviction.payload, now_ns)
            self.writebacks += 1
            flushed += 1
        self.directory = CoherenceDirectory(self.num_cores)
        return flushed

    def check_inclusion(self) -> None:
        """Raise if the L4-inclusion invariant is violated: every block
        resident in any upper level must be resident in L4."""
        resident_l4 = set(self.l4.resident_addresses())
        for cache in [self.l3, *self.l1, *self.l2]:
            for address in cache.resident_addresses():
                if address not in resident_l4:
                    raise AddressError(
                        f"{cache.name}: block {address:#x} cached above a "
                        "non-resident L4 line (inclusion violated)")

