"""The kernel facade: processes, anonymous memory, faults, shredding.

Reproduces the Linux behaviour described in section 2.3:

* a newly mmap'd anonymous page is not backed; the first **read** maps
  it to the shared, read-only **Zero Page** (a minor fault);
* the first **write** takes a copy-on-write fault: the kernel allocates
  a physical page, *zeroes it* with the configured strategy (this is
  ``clear_page``, the call the paper instruments), and maps it
  writable;
* process exit returns pages to the allocator with their old contents
  intact — the zeroing before reuse is what protects them, so every
  allocation of a recycled page pays the shredding cost.

The kernel also exposes the section 7.2 syscalls: bulk zero-
initialisation of large regions through the shred command, used by the
user-level examples (sparse matrices, managed-language zero init).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import PageFaultError, SimulationError
from .page_table import PageTable
from .phys_alloc import PhysicalPageAllocator
from .process import Process, Region
from .zeroing import ZeroingEngine, ZeroingStats

#: Cost charged to a core whose TLB is shot down (IPI + flush).
SHOOTDOWN_CYCLES = 200


@dataclass
class KernelStats:
    """Kernel-level event counters."""

    minor_faults: int = 0           # zero-page mappings on read
    cow_faults: int = 0             # allocate+zero on first write
    fault_ns: float = 0.0           # total time spent in fault handling
    zeroing_ns: float = 0.0         # of which page zeroing
    pages_allocated: int = 0
    pages_recycled: int = 0         # allocations that reused a freed page
    huge_faults: int = 0            # huge-page populations
    shred_syscalls: int = 0

    @property
    def zeroing_fraction_of_fault_time(self) -> float:
        """The paper's motivating metric: up to ~40 % in real kernels."""
        return self.zeroing_ns / self.fault_ns if self.fault_ns else 0.0


@dataclass
class TranslationResult:
    """Physical address plus any fault cost paid to produce it."""

    physical: int
    fault_ns: float = 0.0
    faulted: bool = False
    zeroed_page: bool = False
    writable: bool = True
    huge: bool = False


class Kernel:
    """Kernel model bound to one machine."""

    def __init__(self, machine, *, allocator: Optional[PhysicalPageAllocator] = None,
                 zeroing: Optional[ZeroingEngine] = None) -> None:
        self.machine = machine
        self.config = machine.config
        self.page_size = self.config.kernel.page_size
        num_pages = self.config.num_pages
        if allocator is None:
            # Page 0 is the shared Zero Page; pages 1.. are the pool.
            allocator = PhysicalPageAllocator.over_range(1, num_pages - 1)
        self.allocator = allocator
        self.zeroing = zeroing if zeroing is not None else ZeroingEngine(machine)
        self.zero_page_ppn = 0
        # (pid, core, TLB) of every context, for TLB shootdowns.
        self._tlbs: List[tuple] = []
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._ever_allocated: set = set()
        self.stats = KernelStats()
        self._fault_overhead_ns = (self.config.kernel.fault_overhead_cycles
                                   * self.config.cpu.cycle_ns)
        self._zero_page_cow = self.config.kernel.zero_page_cow
        self._init_zero_page()
        if self.config.kernel.prezero_pool_pages:
            self.stock_prezeroed(self.config.kernel.prezero_pool_pages)

    def _init_zero_page(self) -> None:
        """Boot-time formatting: the shared Zero Page must read as zeros.

        On a Silent Shredder machine one shred command suffices (its
        blocks become zero-fill reads); the baseline writes actual zero
        blocks once at boot.
        """
        page_size = self.page_size
        if self.machine.shred_register is not None:
            self.machine.shred_register.write(
                self.zero_page_ppn * page_size, kernel_mode=True)
            return
        block_size = self.config.block_size
        zero_block = bytes(block_size) if self.machine.functional else None
        base = self.zero_page_ppn * page_size
        for offset in range(0, page_size, block_size):
            self.machine.controller.store_block(base + offset, zero_block)

    # -- process lifecycle ----------------------------------------------------

    def register_tlb(self, pid: int, core, tlb) -> None:
        """Subject ``tlb`` (a context of ``pid`` on ``core``) to this
        kernel's munmap, COW and exit shootdowns."""
        self._tlbs.append((pid, core, tlb))

    def create_process(self) -> Process:
        process = Process(self._next_pid, self.page_size)
        self.processes[process.pid] = process
        self._next_pid += 1
        return process

    def exit_process(self, pid: int) -> int:
        """Tear a process down; its pages return to the pool un-zeroed.

        The page table is emptied and the process's TLBs flushed, so a
        context still bound to the dead pid faults into the kernel (and
        raises) instead of translating onto freed frames.
        """
        process = self.processes.pop(pid, None)
        if process is None:
            raise SimulationError(f"no such process {pid}")
        freed = 0
        for _vpn, entry in process.page_table.mapped_vpns():
            if entry.ppn != self.zero_page_ppn:
                self.allocator.free(entry.ppn)
                freed += 1
        process.page_table.clear()
        for owner, _core, tlb in self._tlbs:
            if owner == pid:
                tlb.flush()
        return freed

    def mmap(self, pid: int, length: int, *, huge: bool = False) -> Region:
        """Reserve anonymous memory; ``huge`` requests 2 MB-unit backing
        (section 5: huge pages are shredded as a sequence of 4 KB shred
        commands, exactly like ``clear_huge_page`` calls ``clear_page``)."""
        return self._process(pid).mmap(
            length, huge=huge,
            huge_page_size=self.config.kernel.huge_page_size)

    def page_table(self, pid: int) -> PageTable:
        """The live page table of process ``pid`` (emptied on exit)."""
        return self._process(pid).page_table

    def _process(self, pid: int) -> Process:
        process = self.processes.get(pid)
        if process is None:
            raise SimulationError(f"no such process {pid}")
        return process

    # -- address translation with fault handling ----------------------------------

    def translate(self, pid: int, vaddr: int, *, write: bool,
                  core: int = 0, now_ns: float = 0.0) -> TranslationResult:
        """Resolve a virtual access, taking page faults as needed."""
        process = self._process(pid)
        table = process.page_table
        entry = table.resolve(vaddr, write)
        if entry is not None:
            return TranslationResult(
                physical=entry.ppn * self.page_size + vaddr % self.page_size,
                writable=entry.writable, huge=entry.huge)

        vpn = table.vpn_of(vaddr)
        process.region_containing(vaddr)   # segfault check

        if not write:
            # Read of untouched anonymous memory: share the Zero Page.
            if not self._zero_page_cow:
                return self._fault_allocate(table, vpn, vaddr, core, now_ns)
            table.map(vpn, self.zero_page_ppn, writable=False, zero_page=True)
            self.stats.minor_faults += 1
            self.stats.fault_ns += self._fault_overhead_ns
            return TranslationResult(
                physical=self.zero_page_ppn * self.page_size + vaddr % self.page_size,
                fault_ns=self._fault_overhead_ns, faulted=True,
                writable=False)

        # Write fault: first touch, or COW away from the Zero Page.
        region = process.region_containing(vaddr)
        if region.huge:
            return self._fault_allocate_huge(pid, table, region, vaddr, core,
                                             now_ns)
        cow = vpn in table
        result = self._fault_allocate(table, vpn, vaddr, core, now_ns)
        if cow:
            self._cow_shootdown(pid, (vpn,), core)
        return result

    def _fault_allocate(self, table, vpn: int, vaddr: int, core: int,
                        now_ns: float) -> TranslationResult:
        ppn, already_zeroed = self.allocator.allocate_with_state()
        recycled = ppn in self._ever_allocated
        self._ever_allocated.add(ppn)
        self.stats.pages_allocated += 1
        if recycled:
            self.stats.pages_recycled += 1

        zero_ns = 0.0
        zeroed = False
        if not already_zeroed:
            result = self.zeroing.zero_page(ppn, core=core, now_ns=now_ns)
            zero_ns = result.latency_ns
            zeroed = True
        table.map(vpn, ppn, writable=True)
        fault_ns = self._fault_overhead_ns + zero_ns
        self.stats.cow_faults += 1
        self.stats.fault_ns += fault_ns
        self.stats.zeroing_ns += zero_ns
        return TranslationResult(
            physical=ppn * self.page_size + vaddr % self.page_size,
            fault_ns=fault_ns, faulted=True, zeroed_page=zeroed)

    def _fault_allocate_huge(self, pid: int, table, region: Region,
                             vaddr: int, core: int,
                             now_ns: float) -> TranslationResult:
        """Populate one whole huge page: contiguous frames, zeroed 4 KB
        at a time (clear_huge_page semantics), mapped in one fault."""
        huge_size = self.config.kernel.huge_page_size
        base_pages = huge_size // self.page_size
        unit_start_va = vaddr - (vaddr - region.start) % huge_size
        first_vpn = table.vpn_of(unit_start_va)
        replaced = [vpn for vpn in range(first_vpn, first_vpn + base_pages)
                    if vpn in table]
        frames = self.allocator.allocate_contiguous(base_pages)
        zero_ns = 0.0
        for frame in frames:
            recycled = frame in self._ever_allocated
            self._ever_allocated.add(frame)
            self.stats.pages_allocated += 1
            if recycled:
                self.stats.pages_recycled += 1
            result = self.zeroing.zero_page(frame, core=core,
                                            now_ns=now_ns + zero_ns)
            zero_ns += result.latency_ns
        for index, frame in enumerate(frames):
            table.map(first_vpn + index, frame, writable=True)
            table.lookup(first_vpn + index).huge = True
        if replaced:
            self._cow_shootdown(pid, replaced, core)
        fault_ns = self._fault_overhead_ns + zero_ns
        self.stats.cow_faults += 1
        self.stats.huge_faults += 1
        self.stats.fault_ns += fault_ns
        self.stats.zeroing_ns += zero_ns
        ppn = frames[(vaddr - unit_start_va) // self.page_size]
        return TranslationResult(
            physical=ppn * self.page_size + vaddr % self.page_size,
            fault_ns=fault_ns, faulted=True, zeroed_page=True, huge=True)

    def munmap(self, pid: int, region: Region) -> int:
        """Unmap a region: its physical pages return to the pool, and
        every core's TLB drops the region's translations (shootdown).

        Like process exit, the freed pages keep their old contents; the
        shredding cost is paid at the next allocation. Returns the
        number of physical pages freed.
        """
        process = self._process(pid)
        if region not in process.regions:
            raise SimulationError(f"region at {region.start:#x} does not "
                                  f"belong to pid {pid}")
        table = process.page_table
        freed = 0
        for vpn in process.vpns_of_region(region):
            entry = table.lookup(vpn)
            if entry is None:
                continue
            table.unmap(vpn)
            if entry.ppn != self.zero_page_ppn:
                self.allocator.free(entry.ppn)
                freed += 1
        process.regions.remove(region)
        self._tlb_shootdown(region)
        return freed

    def _tlb_shootdown(self, region: Region) -> None:
        """Invalidate the region's translations in every context's TLB
        and charge each affected core an IPI cost."""
        first_vpn = region.start // self.page_size
        for _pid, core, tlb in self._tlbs:
            for vpn in range(first_vpn,
                             first_vpn + region.length // self.page_size):
                tlb.invalidate(vpn)
            core.stall(SHOOTDOWN_CYCLES)

    def _cow_shootdown(self, pid: int, vpns, core: int) -> None:
        """A write fault replaced present (read-only Zero Page) mappings:
        drop them from every TLB of the process, so a context on another
        core cannot keep reading the Zero Page after the write. Each
        other core is charged an IPI; the faulting core refills its own
        TLB from the fault."""
        for owner, other, tlb in self._tlbs:
            if owner != pid:
                continue
            for vpn in vpns:
                tlb.invalidate(vpn)
            if other.core_id != core:
                other.stall(SHOOTDOWN_CYCLES)

    # -- pre-zeroed pool (FreeBSD-style) ------------------------------------------

    def stock_prezeroed(self, count: int) -> int:
        """Zero ``count`` free pages ahead of demand (idle-time work)."""
        pages = self.allocator.stock_prezeroed(count)
        for ppn in pages:
            self.zeroing.zero_page(ppn)
        return len(pages)

    # -- syscalls (section 7.2) ------------------------------------------------------

    def sys_shred(self, pid: int, vaddr: int, num_pages: int, *,
                  now_ns: float = 0.0) -> float:
        """Zero-initialise ``num_pages`` of a process's memory via shred.

        The process passes a virtual address; the kernel translates each
        page and submits a shred command for its physical frame. Pages
        still mapped to the Zero Page are skipped (they already read as
        zeros). Returns the total latency.
        """
        if self.machine.shred_register is None:
            raise SimulationError("kernel has no shred-capable controller")
        process = self._process(pid)
        if vaddr % self.page_size:
            raise PageFaultError(f"shred target {vaddr:#x} not page aligned")
        total_ns = 0.0
        self.stats.shred_syscalls += 1
        for i in range(num_pages):
            vpn = process.page_table.vpn_of(vaddr) + i
            entry = process.page_table.lookup(vpn)
            if entry is None or entry.zero_page:
                continue
            outcome = self.machine.shred_register.write(
                entry.ppn * self.page_size, kernel_mode=True,
                now_ns=now_ns + total_ns)
            total_ns += outcome.latency_ns
        return total_ns

    def user_shred_attempt(self, physical_address: int) -> None:
        """A user-space write to the MMIO register — must raise."""
        if self.machine.shred_register is None:
            raise SimulationError("no shred register present")
        self.machine.shred_register.write(physical_address, kernel_mode=False)

    @property
    def zeroing_stats(self) -> ZeroingStats:
        return self.zeroing.stats
