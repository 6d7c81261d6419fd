"""In-order core timing model."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..config import CPUConfig


@dataclass
class CoreStats:
    """Retired-instruction and stall accounting for one core."""

    instructions: int = 0
    cycles: float = 0.0
    loads: int = 0
    stores: int = 0
    load_stall_cycles: float = 0.0
    store_stall_cycles: float = 0.0
    fault_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class Core:
    """One in-order core: compute advances time, loads stall, stores
    drain through a finite store buffer."""

    def __init__(self, core_id: int, config: CPUConfig) -> None:
        self.core_id = core_id
        self.config = config
        self.stats = CoreStats()
        self._cycle_ns = config.cycle_ns
        self._cpi = config.base_cpi
        # Completion times (ns) of in-flight stores, oldest first.
        self._store_buffer: Deque[float] = deque()
        self._store_buffer_size = config.store_buffer_entries

    # -- time ---------------------------------------------------------------

    @property
    def now_ns(self) -> float:
        return self.stats.cycles * self._cycle_ns

    # -- instruction classes ----------------------------------------------------

    def compute(self, instructions: int) -> None:
        """Retire ``instructions`` non-memory instructions."""
        if instructions <= 0:
            return
        self.stats.instructions += instructions
        self.stats.cycles += instructions * self._cpi

    def load(self, latency_cycles: float) -> None:
        """Retire one load that stalled for ``latency_cycles``."""
        self.stats.instructions += 1
        self.stats.loads += 1
        self.stats.load_stall_cycles += latency_cycles
        self.stats.cycles += self._cpi + latency_cycles

    def store(self, latency_cycles: float) -> None:
        """Retire one store through the store buffer.

        The store occupies a buffer entry until ``latency_cycles`` from
        now; the core stalls only when the buffer is full.
        """
        stats = self.stats
        stats.instructions += 1
        stats.stores += 1
        cycle_ns = self._cycle_ns
        now = stats.cycles * cycle_ns
        buffer = self._store_buffer
        while buffer and buffer[0] <= now:
            buffer.popleft()
        if len(buffer) >= self._store_buffer_size:
            stall_cycles = max(0.0, (buffer.popleft() - now) / cycle_ns)
            stats.store_stall_cycles += stall_cycles
            stats.cycles += stall_cycles
            now = stats.cycles * cycle_ns
        buffer.append(now + latency_cycles * cycle_ns)
        stats.cycles += self._cpi

    def stall(self, cycles: float, *, fault: bool = False) -> None:
        """Stall without retiring an instruction (page faults etc.)."""
        if cycles <= 0:
            return
        if fault:
            self.stats.fault_cycles += cycles
        self.stats.cycles += cycles

    def drain_stores(self) -> None:
        """Wait for every outstanding store (an sfence at task end)."""
        if not self._store_buffer:
            return
        last = self._store_buffer[-1]
        if last > self.now_ns:
            stall_cycles = (last - self.now_ns) / self._cycle_ns
            self.stats.store_stall_cycles += stall_cycles
            self.stats.cycles += stall_cycles
        self._store_buffer.clear()
