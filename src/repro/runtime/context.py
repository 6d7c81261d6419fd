"""Execution context: one task's window onto the simulated system.

Binds a process (virtual address space) to a core (timing) and exposes
the primitive operations workloads are written against: ``malloc``,
typed loads/stores, ``memset`` (with the temporal/non-temporal split
``libc`` uses), and plain compute. Every memory operation pays for
address translation — including the page-fault and page-zeroing costs
that are the whole point of the paper — and then for the cache/memory
access itself.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..errors import SimulationError


class ExecutionContext:
    """A (process, core) pair executing against the simulated system.

    Keeps the system's machine, kernel and core, not the system itself,
    and registers its TLB with the kernel for shootdowns.
    """

    def __init__(self, system, pid: int, core_id: int) -> None:
        if not 0 <= core_id < len(system.cores):
            raise SimulationError(f"no core {core_id}")
        self.machine = system.machine
        self.kernel = system.kernel
        self.pid = pid
        self.core_id = core_id
        self.core = system.cores[core_id]
        self.block_size = self.machine.block_size
        self.page_size = system.config.kernel.page_size
        self.functional = self.machine.functional
        self._cycle_ns = system.config.cpu.cycle_ns
        self._cpi = self.core.config.base_cpi
        self._issue_cycles = system.config.kernel.store_issue_cycles
        self._l4_bytes = system.config.l4.size_bytes
        self._zero_block = bytes(self.block_size)
        #: a zero-block store's payload: a whole-block merge, or none
        self._zero_merge = (0, self._zero_block) if self.functional else None
        hierarchy = self._hierarchy = self.machine.hierarchy
        # The process's own table serves fault-free translations directly
        # (emptied on exit, so a dead pid falls through to the kernel).
        self._page_table = self.kernel.page_table(pid)
        self.tlb = None
        if system.config.cpu.tlb_entries > 0:
            from ..cpu.tlb import TLB
            huge_span = (system.config.kernel.huge_page_size
                         // system.config.kernel.page_size)
            self.tlb = TLB(system.config.cpu.tlb_entries, self.page_size,
                           huge_span=huge_span)
            self._tlb_penalty = system.config.cpu.tlb_miss_penalty_cycles
            self.kernel.register_tlb(pid, self.core, self.tlb)
        # touch() serves an L1 hit in place from these. Each container
        # is mutated in place and never replaced; statistics are reached
        # through their owners on every call, because
        # System.reset_stats replaces the stats objects.
        from ..cache.coherence import owned_entry
        self._l1 = hierarchy.l1[core_id]
        self._l1_sets = self._l1.sets
        self._l1_num_sets = self._l1.num_sets
        self._l4_sets = hierarchy.l4.sets
        self._l4_num_sets = hierarchy.l4.num_sets
        self._l4_dirty = hierarchy.l4.dirty
        self._directory_entries = hierarchy.directory.entries
        self._owned = owned_entry(core_id)
        # With a TLB every translation takes _translate: the probe then
        # reads an empty dict.
        self._page_entries = (self._page_table.entries if self.tlb is None
                              else {})

    # -- memory management -------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Reserve a virtual region (lazily backed, like anonymous mmap)."""
        region = self.kernel.mmap(self.pid, nbytes)
        # malloc itself costs a few instructions of bookkeeping.
        self.core.compute(20)
        return region.start

    # -- translation ----------------------------------------------------------------

    def _translate(self, vaddr: int, *, write: bool) -> int:
        if self.tlb is None:
            # No TLB to fill: a page-table hit costs nothing and changes
            # nothing, so only faults need the kernel.
            entry = self._page_table.resolve(vaddr, write)
            if entry is not None:
                return entry.ppn * self.page_size + vaddr % self.page_size
        else:
            vpn = vaddr // self.page_size
            ppn = self.tlb.lookup(vpn, write=write)
            if ppn is not None:
                return ppn * self.page_size + vaddr % self.page_size
            # Miss: walk the page tables (kernel model), pay the walk.
            self.core.stall(self._tlb_penalty)
        result = self.kernel.translate(self.pid, vaddr, write=write,
                                       core=self.core_id,
                                       now_ns=self.core.now_ns)
        if result.fault_ns:
            self.core.stall(result.fault_ns / self._cycle_ns, fault=True)
        if self.tlb is not None:
            self.tlb.insert(vaddr // self.page_size,
                            result.physical // self.page_size,
                            writable=result.writable, huge=result.huge)
        return result.physical

    # -- scalar accesses ---------------------------------------------------------------

    def load_u64(self, vaddr: int) -> int:
        """Load an 8-byte little-endian integer."""
        physical = self._translate(vaddr, write=False)
        latency, data = self.machine.load(self.core_id, physical,
                                          self.core.now_ns)
        self.core.load(latency)
        if not self.functional or data is None:
            return 0
        offset = physical % self.block_size
        return struct.unpack_from("<Q", data, offset)[0]

    def store_u64(self, vaddr: int, value: int) -> None:
        """Store an 8-byte little-endian integer."""
        physical = self._translate(vaddr, write=True)
        merge = None
        if self.functional:
            merge = (physical % self.block_size,
                     struct.pack("<Q", value & (1 << 64) - 1))
        latency, _ = self.machine.store(self.core_id, physical,
                                        now_ns=self.core.now_ns, merge=merge)
        self.core.store(latency)

    def touch(self, vaddr: int, write: bool) -> None:
        """Block-granularity timing access without data semantics.

        The common case is served here, in place. With no TLB, a page
        whose entry allows the access translates from the process's page
        table. An L1 hit whose reference walk would change only the L1
        line's recency and hit count, and for a store the L4 line's dirty
        bit, is applied to the set dicts directly. That needs the block
        in this core's L1 and in L4; a store also needs timing mode
        (functional stores merge a payload) and this core as the
        block's only sharer, in M (else the store must upgrade). A TLB,
        a fault or anything else takes ``_translate`` and
        ``CacheHierarchy.access``; the effects and latency are the same.
        """
        page_size = self.page_size
        entry = self._page_entries.get(vaddr // page_size)
        if entry is not None and (entry.writable or not write):
            physical = entry.ppn * page_size + vaddr % page_size
        else:
            physical = self._translate(vaddr, write=write)
        block_size = self.block_size
        block = physical // block_size
        l1_ways = self._l1_sets[block % self._l1_num_sets]
        if (block in l1_ways
                and block in self._l4_sets[block % self._l4_num_sets]
                and (not write or not self.functional
                     and self._directory_entries.get(block * block_size)
                     == self._owned)):
            if write:
                self._l4_dirty.add(block)
            del l1_ways[block]
            l1_ways[block] = None
            l1 = self._l1
            l1.stats.hits += 1
            latency = l1.latency_cycles
        else:
            latency = self._hierarchy.access(
                self.core_id, physical, write, None, self.core.now_ns,
                self._zero_merge if write else None)[0]
        if write:
            self.core.store(latency)
            return
        # Retire the load: Core.load, in place.
        stats = self.core.stats
        stats.instructions += 1
        stats.loads += 1
        stats.load_stall_cycles += latency
        stats.cycles += self._cpi + latency

    # -- bulk operations -----------------------------------------------------------------

    def memset(self, vaddr: int, size: int, *,
               nontemporal: Optional[bool] = None) -> None:
        """Program-level memset(0): the Figure 3/4 microbenchmark core.

        Like glibc, uses temporal stores for small regions and
        non-temporal stores when the region exceeds the LLC (avoiding
        cache pollution). Either way every page is first-touched, so the
        kernel's fault-time zeroing happens underneath. Both paths store
        whole blocks, so ``vaddr`` and ``size`` must be block-aligned;
        anything else raises rather than zeroing bytes outside the
        region.
        """
        if size <= 0:
            raise SimulationError("memset size must be positive")
        if vaddr % self.block_size or size % self.block_size:
            raise SimulationError(
                f"memset region {vaddr:#x}+{size:#x} is not aligned to "
                f"{self.block_size}-byte blocks")
        if nontemporal is None:
            nontemporal = size > self._l4_bytes

        position = vaddr
        end = vaddr + size
        while position < end:
            physical = self._translate(position, write=True)
            if nontemporal:
                # movntq: bypass the caches; invalidate then write NVM.
                # The write retires through the store buffer at its real
                # completion latency, so sustained memset runs at NVM
                # write bandwidth rather than issue rate.
                self._hierarchy.invalidate_page(
                    physical, self.block_size, writeback=False,
                    now_ns=self.core.now_ns)
                store_ns = self.machine.controller.store_block(
                    physical, self._zero_block if self.functional else None,
                    self.core.now_ns)
                self.core.store(store_ns / self._cycle_ns)
            else:
                latency, _ = self._hierarchy.access(
                    self.core_id, physical, True, None, self.core.now_ns,
                    self._zero_merge)
                self.core.store(latency)
            position += self.block_size
        if nontemporal:
            self.core.drain_stores()

    def read_bytes(self, vaddr: int, length: int) -> bytes:
        """Functional read of an arbitrary byte range."""
        out = bytearray()
        position = vaddr
        remaining = length
        while remaining > 0:
            physical = self._translate(position, write=False)
            offset = physical % self.block_size
            take = min(self.block_size - offset, remaining)
            latency, chunk = self.machine.load(self.core_id, physical - offset,
                                               self.core.now_ns)
            self.core.load(latency)
            if chunk is None:
                chunk = self._zero_block
            out.extend(chunk[offset:offset + take])
            position += take
            remaining -= take
        return bytes(out)

    def write_bytes(self, vaddr: int, payload: bytes) -> None:
        """Functional write of an arbitrary byte range."""
        position = vaddr
        view = memoryview(payload)
        while view:
            physical = self._translate(position, write=True)
            offset = physical % self.block_size
            take = min(self.block_size - offset, len(view))
            merge = (offset, bytes(view[:take])) if self.functional else None
            latency, _ = self.machine.store(self.core_id, physical - offset,
                                            now_ns=self.core.now_ns,
                                            merge=merge)
            self.core.store(latency)
            position += take
            view = view[take:]

    # -- compute ------------------------------------------------------------------------------

    def compute(self, instructions: int) -> None:
        """Retire non-memory instructions (ALU work between accesses):
        ``Core.compute``, in place."""
        if instructions > 0:
            stats = self.core.stats
            stats.instructions += instructions
            stats.cycles += instructions * self._cpi

    def shred(self, vaddr: int, num_pages: int) -> None:
        """Section 7.2 syscall: bulk zero-init via the shred command."""
        syscall_ns = self.kernel.sys_shred(self.pid, vaddr, num_pages,
                                           now_ns=self.core.now_ns)
        self.core.stall(syscall_ns / self._cycle_ns)
        self.core.compute(50)   # syscall entry/exit
