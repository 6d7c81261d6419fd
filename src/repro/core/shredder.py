"""Silent Shredder: the paper's controller and its MMIO shred register.

:class:`SilentShredderController` extends the baseline secure controller
with the shred datapath of Figure 6:

1. the OS writes a physical page address to a memory-mapped register,
2. the controller invalidates the page's blocks (and its counter block
   in remote counter caches) throughout the cache hierarchy,
3. the major counter is incremented and all minors reset to zero,
4. the counter cache acknowledges, and
5. the controller signals completion — without a single data-block
   write to NVM.

plus the read-side fast path of Figure 7: an LLC miss whose minor
counter is zero is served as a zero-filled block with no NVM access
(implemented in the inherited ``fetch_block`` via ``zero_semantics``).

:class:`ShredRegister` models the memory-mapped I/O register including
the kernel-only privilege check of section 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import SystemConfig
from ..errors import AddressError, ProtectionError
from ..mem import NVMDevice
from .policies import MajorResetMinorsPolicy, ShredPolicy
from .secure_memory import SecureMemoryController


@dataclass
class ShredOutcome:
    """What one shred command did."""

    page_id: int
    latency_ns: float
    cache_blocks_invalidated: int = 0
    counter_reencrypted: bool = False


class SilentShredderController(SecureMemoryController):
    """Secure NVMM controller with zero-cost shredding."""

    def __init__(self, config: SystemConfig, *,
                 policy: Optional[ShredPolicy] = None,
                 device: Optional[NVMDevice] = None,
                 events=None, clock=None) -> None:
        super().__init__(config, device=device, events=events, clock=clock)
        self.policy = policy if policy is not None else MajorResetMinorsPolicy()
        # Zero-fill reads only exist under the reserved-zero policy.
        self.zero_semantics = self.policy.reads_return_zero

    def shred_page(self, page_id: int, now_ns: float = 0.0) -> ShredOutcome:
        """Steps 3–5 of Figure 6: mutate the page's counters, write nothing.

        Cache invalidation (step 2) is the hierarchy's job; the system
        layer (:class:`repro.sim.System`) performs it before calling here,
        mirroring how the MC sends invalidations before the counter
        update.
        """
        if page_id < 0 or page_id >= self.num_pages:
            raise AddressError(f"page id {page_id} out of range")
        counters, counter_latency, _ = self._probe_counters(page_id, now_ns)
        effect = self.policy.apply(counters)
        update_latency = self._counters_updated(page_id, counters, now_ns)
        self.stats.shreds += 1
        if self.events is not None:
            self.events.emit("shred", page_id, now_ns)
        if effect.reencrypted:
            if self.events is not None:
                self.events.emit("iv_regen", page_id, now_ns)
            self.stats.reencryptions += 1
        return ShredOutcome(page_id=page_id,
                            latency_ns=counter_latency + update_latency,
                            counter_reencrypted=effect.reencrypted)

    def is_block_shredded(self, address: int) -> bool:
        """Whether an aligned data address currently reads as zero-fill."""
        self._check_data_address(address)
        counters = self.counter_cache.peek(self.page_of(address))
        if counters is None:
            counters = self.get_counters(self.page_of(address)).counters
        return self.zero_semantics and counters.is_shredded(self.offset_of(address))


class ShredRegister:
    """The memory-mapped I/O shred register of the memory controller.

    The kernel writes a physical page address to trigger a shred. Writes
    from user mode raise :class:`ProtectionError` (section 7.1: "any
    attempt to write the memory-mapped I/O register of the memory
    controller from a user-space process will cause an exception").
    """

    #: Cycles to complete the MMIO write + completion signal (steps 1/5).
    MMIO_CYCLES = 50

    def __init__(self, controller: SilentShredderController,
                 hierarchy=None) -> None:
        self.controller = controller
        self.hierarchy = hierarchy
        self.commands_accepted = 0
        self.commands_rejected = 0
        self._mmio_ns = self.MMIO_CYCLES * controller.config.cpu.cycle_ns

    def write(self, physical_page_address: int, *, kernel_mode: bool,
              now_ns: float = 0.0) -> ShredOutcome:
        """Issue one shred command for the page at ``physical_page_address``."""
        if not kernel_mode:
            self.commands_rejected += 1
            raise ProtectionError("shred register written from user mode")
        page_size = self.controller.page_size
        if physical_page_address % page_size:
            raise AddressError(f"shred target {physical_page_address:#x} is "
                               "not page aligned")
        page_id = physical_page_address // page_size

        invalidated = 0
        if self.hierarchy is not None:
            # Step 2: invalidate the page everywhere. The blocks are being
            # destroyed, so dirty copies are dropped, not written back.
            invalidation = self.hierarchy.invalidate_page(
                physical_page_address, page_size, writeback=False,
                now_ns=now_ns)
            invalidated = invalidation.blocks_invalidated

        outcome = self.controller.shred_page(page_id, now_ns)
        outcome.cache_blocks_invalidated = invalidated
        outcome.latency_ns += self._mmio_ns
        self.commands_accepted += 1
        return outcome
