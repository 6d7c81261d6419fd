"""Page-zeroing strategies (sections 2.3, 8 and Table 2).

Five ways to clear a physical page before reuse:

* ``temporal`` — a CPU store loop through the cache hierarchy (``movq``):
  pollutes caches, and write-allocate fetches each block from memory
  first; the zeros reach NVM only when dirty lines are later evicted.
* ``nontemporal`` — a CPU store loop bypassing the caches (``movntq``):
  no pollution, but 64 full NVM writes per page plus an ``sfence`` wait.
* ``dma`` — a DMA engine near the memory controller issues the writes
  (Jiang et al. [21]): the CPU only pays setup, but NVM writes remain.
* ``rowclone`` — in-memory bulk zeroing from a reserved zero row
  (Seshadri et al. [34]): no memory-bus traffic, but cells are still
  programmed; DRAM-specific — under memory encryption the in-array
  zeros would decrypt to garbage, so it requires ``encryption.enabled
  = False``.
* ``shred`` — Silent Shredder's command: one MMIO write, cache-line
  invalidations, and a counter-cache update. No data writes at all.

Every strategy reports both the *latency* it adds to the page fault and
the *CPU-busy* portion of it, plus how many NVM data writes it caused —
the three axes Table 2 compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import ZEROING_STRATEGIES
from ..errors import ConfigError, SimulationError


@dataclass
class ZeroingResult:
    """Cost of zeroing one page."""

    strategy: str
    latency_ns: float = 0.0       # added to the fault's critical path
    cpu_busy_ns: float = 0.0      # of which the CPU was occupied
    memory_writes: int = 0        # NVM data-block writes caused
    memory_reads: int = 0         # NVM data-block reads caused (RFO)
    cache_blocks_polluted: int = 0


@dataclass
class ZeroingStats:
    """Aggregate over all zeroing operations performed by one engine."""

    pages_zeroed: int = 0
    latency_ns: float = 0.0
    cpu_busy_ns: float = 0.0
    memory_writes: int = 0
    memory_reads: int = 0
    cache_blocks_polluted: int = 0

    def add(self, result: ZeroingResult) -> None:
        self.pages_zeroed += 1
        self.latency_ns += result.latency_ns
        self.cpu_busy_ns += result.cpu_busy_ns
        self.memory_writes += result.memory_writes
        self.memory_reads += result.memory_reads
        self.cache_blocks_polluted += result.cache_blocks_polluted


#: Cycles a DMA zeroing engine needs for descriptor setup + completion IRQ.
DMA_SETUP_CYCLES = 200
#: Latency of one RowClone row initialisation (ns); a 4 KB page is one row.
ROWCLONE_ROW_NS = 100.0


class ZeroingEngine:
    """Executes a configured zeroing strategy against the machine."""

    def __init__(self, machine, strategy: Optional[str] = None) -> None:
        self.machine = machine
        self.config = machine.config
        self.strategy = strategy or self.config.kernel.zeroing_strategy
        if self.strategy not in ZEROING_STRATEGIES:
            raise ConfigError(f"unknown zeroing strategy {self.strategy!r}")
        if self.strategy == "shred" and machine.shred_register is None:
            raise ConfigError("shred strategy requires a Silent Shredder "
                              "machine (shred register present)")
        if self.strategy == "rowclone" and self.config.encryption.enabled:
            raise ConfigError("RowClone writes plaintext zeros in-array and "
                              "is incompatible with encrypted memory "
                              "(DRAM-specific technique)")
        self.stats = ZeroingStats()
        self._cycle_ns = self.config.cpu.cycle_ns
        self._issue_ns = self.config.kernel.store_issue_cycles * self._cycle_ns
        self._zero_block = bytes(self.config.block_size)

    # -- entry point ---------------------------------------------------------

    def zero_page(self, ppn: int, *, core: int = 0,
                  now_ns: float = 0.0) -> ZeroingResult:
        """Clear physical page ``ppn`` using the configured strategy."""
        handler = getattr(self, f"_zero_{self.strategy}")
        result = handler(ppn, core, now_ns)
        self.stats.add(result)
        return result

    # -- strategies --------------------------------------------------------------

    def _page_blocks(self, ppn: int):
        page_size = self.config.kernel.page_size
        block_size = self.config.block_size
        base = ppn * page_size
        return range(base, base + page_size, block_size)

    def _zero_none(self, ppn: int, core: int, now_ns: float) -> ZeroingResult:
        """No shredding at all — insecure; the no-zeroing reference point
        of Figure 5."""
        return ZeroingResult(strategy="none")

    def _zero_temporal(self, ppn: int, core: int, now_ns: float) -> ZeroingResult:
        """Store loop through the caches; zeros linger dirty in the
        hierarchy and reach NVM on eviction."""
        machine = self.machine
        result = ZeroingResult(strategy="temporal")
        writes_before = machine.controller.stats.data_writes
        reads_before = machine.controller.stats.data_reads
        elapsed = 0.0
        for address in self._page_blocks(ppn):
            latency, _ = machine.hierarchy.access(
                core, address, True,
                self._zero_block if machine.functional else None,
                now_ns + elapsed)
            elapsed += latency * self._cycle_ns + self._issue_ns
            result.cache_blocks_polluted += 1
        result.latency_ns = elapsed
        result.cpu_busy_ns = elapsed
        result.memory_writes = machine.controller.stats.data_writes - writes_before
        result.memory_reads = machine.controller.stats.data_reads - reads_before
        return result

    def _zero_nontemporal(self, ppn: int, core: int, now_ns: float) -> ZeroingResult:
        """movntq loop: invalidate cached copies, write zeros straight to
        NVM, sfence until the last write is posted."""
        machine = self.machine
        result = ZeroingResult(strategy="nontemporal")
        page_size = self.config.kernel.page_size
        machine.hierarchy.invalidate_page(ppn * page_size, page_size,
                                          writeback=True, now_ns=now_ns)
        issue_time = 0.0
        last_finish = now_ns
        for address in self._page_blocks(ppn):
            issue_time += self._issue_ns
            store_ns = machine.controller.store_block(
                address, self._zero_block if machine.functional else None,
                now_ns + issue_time)
            last_finish = max(last_finish, now_ns + issue_time + store_ns)
            result.memory_writes += 1
        # sfence: the fault cannot complete until all zeros are durable.
        result.latency_ns = last_finish - now_ns
        result.cpu_busy_ns = issue_time
        return result

    def _zero_dma(self, ppn: int, core: int, now_ns: float) -> ZeroingResult:
        """DMA bulk-zeroing engine: CPU pays setup, engine does the writes."""
        machine = self.machine
        result = ZeroingResult(strategy="dma")
        page_size = self.config.kernel.page_size
        machine.hierarchy.invalidate_page(ppn * page_size, page_size,
                                          writeback=True, now_ns=now_ns)
        setup_ns = DMA_SETUP_CYCLES * self._cycle_ns
        last_finish = now_ns + setup_ns
        for address in self._page_blocks(ppn):
            store_ns = machine.controller.store_block(
                address, self._zero_block if machine.functional else None,
                now_ns + setup_ns)
            last_finish = max(last_finish, now_ns + setup_ns + store_ns)
            result.memory_writes += 1
        result.latency_ns = last_finish - now_ns
        result.cpu_busy_ns = setup_ns
        return result

    def _zero_rowclone(self, ppn: int, core: int, now_ns: float) -> ZeroingResult:
        """In-memory zeroing: cells are programmed but the bus stays idle."""
        machine = self.machine
        result = ZeroingResult(strategy="rowclone")
        page_size = self.config.kernel.page_size
        machine.hierarchy.invalidate_page(ppn * page_size, page_size,
                                          writeback=True, now_ns=now_ns)
        device = machine.controller.device
        for address in self._page_blocks(ppn):
            device.write_block(address, self._zero_block if machine.functional
                               else None)
            result.memory_writes += 1
        setup_ns = DMA_SETUP_CYCLES * self._cycle_ns
        result.latency_ns = setup_ns + ROWCLONE_ROW_NS
        result.cpu_busy_ns = setup_ns
        return result

    def _zero_shred(self, ppn: int, core: int, now_ns: float) -> ZeroingResult:
        """Silent Shredder: one MMIO write; no data-block writes at all."""
        machine = self.machine
        if machine.shred_register is None:
            raise SimulationError("machine has no shred register")
        writes_before = machine.controller.stats.data_writes
        outcome = machine.shred_register.write(
            ppn * self.config.kernel.page_size, kernel_mode=True, now_ns=now_ns)
        result = ZeroingResult(strategy="shred",
                               latency_ns=outcome.latency_ns,
                               cpu_busy_ns=outcome.latency_ns)
        result.memory_writes = machine.controller.stats.data_writes - writes_before
        return result
