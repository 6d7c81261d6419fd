"""Machine: the hardware half of the full system.

Couples the cache hierarchy to a secure memory controller (baseline
counter-mode, or Silent Shredder with its MMIO shred register) and
exposes physical-address load/store plus the shred datapath. The
kernel model and CPU cores sit on top.

The hierarchy calls the controller's ``fetch_block``/``store_block``
directly, and nothing below the machine references it, so a finished
machine is freed by reference counting alone.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import SystemConfig
from ..core import (SecureMemoryController, ShredRegister,
                    SilentShredderController)
from ..core.policies import ShredPolicy
from ..cache import CacheHierarchy


class Machine:
    """Hardware assembly at the physical-address level."""

    def __init__(self, config: SystemConfig, *, shredder: bool = True,
                 policy: Optional[ShredPolicy] = None, events=None) -> None:
        self.config = config
        self.functional = config.functional
        self.block_size = config.block_size
        self.events = events
        if shredder:
            self.controller: SecureMemoryController = SilentShredderController(
                config, policy=policy, events=events)
        else:
            self.controller = SecureMemoryController(config, events=events)
        self.hierarchy = CacheHierarchy(config, self.controller.fetch_block,
                                        self.controller.store_block)
        self.shred_register: Optional[ShredRegister] = None
        if shredder:
            self.shred_register = ShredRegister(self.controller, self.hierarchy)
        self.has_shredder = shredder

    # -- physical-address access helpers -----------------------------------------

    def load(self, core: int, address: int,
             now_ns: float = 0.0) -> Tuple[int, Optional[bytes]]:
        """Load the block containing ``address`` through the caches;
        returns ``(latency_cycles, data)``."""
        return self.hierarchy.access(core, address, False, now_ns=now_ns)

    def store(self, core: int, address: int, data: Optional[bytes] = None,
              now_ns: float = 0.0, merge: Optional[Tuple[int, bytes]] = None,
              ) -> Tuple[int, Optional[bytes]]:
        """Store to the block containing ``address`` through the caches;
        returns ``(latency_cycles, None)``."""
        return self.hierarchy.access(core, address, True, data=data,
                                     now_ns=now_ns, merge=merge)

    def read_bytes(self, core: int, address: int, length: int,
                   now_ns: float = 0.0) -> Tuple[bytes, int]:
        """Functional convenience: read ``length`` bytes (may span blocks).

        Returns ``(data, total_latency_cycles)``.
        """
        out = bytearray()
        cycles = 0
        position = address
        remaining = length
        while remaining > 0:
            block_start = position - position % self.block_size
            offset = position - block_start
            take = min(self.block_size - offset, remaining)
            latency, chunk = self.hierarchy.access(core, block_start, False,
                                                   now_ns=now_ns)
            cycles += latency
            if chunk is None:
                chunk = bytes(self.block_size)
            out.extend(chunk[offset:offset + take])
            position += take
            remaining -= take
        return bytes(out), cycles

    def write_bytes(self, core: int, address: int, data: bytes,
                    now_ns: float = 0.0) -> int:
        """Functional convenience: write bytes with read-modify-write."""
        cycles = 0
        position = address
        view = memoryview(data)
        while view:
            block_start = position - position % self.block_size
            offset = position - block_start
            take = min(self.block_size - offset, len(view))
            latency, _ = self.hierarchy.access(
                core, block_start, True, now_ns=now_ns,
                merge=(offset, bytes(view[:take])))
            cycles += latency
            position += take
            view = view[take:]
        return cycles

    # -- statistics -----------------------------------------------------------------

    def memory_write_count(self) -> int:
        """NVM data-block writes so far (the Figure 8 numerator)."""
        return self.controller.stats.data_writes

    def memory_read_count(self) -> int:
        """NVM data-block reads so far."""
        return self.controller.stats.data_reads

    def zero_fill_count(self) -> int:
        return self.controller.stats.zero_fill_reads
