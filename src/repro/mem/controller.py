"""Plain (unencrypted) memory controller.

Routes block reads and writes to the backing device through the channel
model and accounts latency. The secure controllers in :mod:`repro.core`
wrap this one: they add counter handling, pad generation and the shred
datapath on top of the raw read/write transactions provided here.

The controller optionally applies Start-Gap wear levelling over the
device's lines before the channel/device access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..clock import SimClock, resolve_time
from ..config import NVMConfig
from ..errors import AddressError
from .channel import ChannelModel
from .device import MemoryDevice
from .stats import MemoryStats
from .wear import StartGapWearLeveler


@dataclass
class RawAccess:
    """Outcome of one device transaction."""

    data: Optional[bytes]
    latency_ns: float
    finish_ns: float


class MemoryController:
    """Bottom-level controller: channels + device + optional wear levelling."""

    def __init__(self, device: MemoryDevice, *,
                 num_channels: int = 2, channel_bandwidth_gbps: float = 12.8,
                 wear_leveler: Optional[StartGapWearLeveler] = None,
                 clock: Optional[SimClock] = None) -> None:
        self.device = device
        self.clock = clock if clock is not None else SimClock()
        self.block_size = device.block_size
        self.channels = ChannelModel(num_channels, channel_bandwidth_gbps,
                                     device.block_size)
        self.wear_leveler = wear_leveler
        self.stats = MemoryStats()
        # Bus probes (section 2.2 attack model): every payload crossing
        # the processor<->memory bus is shown to attached snoopers. With
        # processor-side counter-mode encryption they only ever see
        # ciphertext; a memory-side (secure-DIMM) design would expose
        # plaintext here.
        self.snoopers: list = []

    @classmethod
    def for_nvm(cls, device: MemoryDevice, config: NVMConfig, *,
                wear_leveler: Optional[StartGapWearLeveler] = None,
                clock: Optional[SimClock] = None) -> "MemoryController":
        return cls(device,
                   num_channels=config.num_channels,
                   channel_bandwidth_gbps=config.channel_bandwidth_gbps,
                   wear_leveler=wear_leveler,
                   clock=clock)

    # -- address remapping -------------------------------------------------

    def _physical_address(self, address: int) -> int:
        """Apply wear levelling remap (identity when disabled)."""
        if self.wear_leveler is None:
            return address
        logical_line = address // self.block_size
        physical_line = self.wear_leveler.translate(logical_line)
        return physical_line * self.block_size

    # -- transactions --------------------------------------------------------

    def read_block(self, address: int, at: Optional[float] = None, *,
                   now_ns: Optional[float] = None) -> RawAccess:
        """Read one block; returns data plus end-to-end latency."""
        now = resolve_time(self.clock, at, now_ns)
        physical = self._physical_address(address)
        data = self.device.read_block(physical)
        for snooper in self.snoopers:
            snooper.observe("read", address, data)
        finish = self.channels.request(address, now,
                                       self.device.read_latency_ns,
                                       is_read=True)
        latency = finish - now
        self.stats.record_read(self.block_size, latency,
                               self.device.read_energy_pj)
        return RawAccess(data=data, latency_ns=latency, finish_ns=finish)

    def write_block(self, address: int, data: Optional[bytes] = None,
                    at: Optional[float] = None, *,
                    now_ns: Optional[float] = None) -> RawAccess:
        """Write one block; returns the write's end-to-end latency."""
        now = resolve_time(self.clock, at, now_ns)
        physical = self._physical_address(address)
        for snooper in self.snoopers:
            snooper.observe("write", address, data)
        bits = self.device.write_block(physical, data)
        if self.wear_leveler is not None:
            self.wear_leveler.record_write(address // self.block_size)
        finish = self.channels.request(address, now,
                                       self.device.write_latency_ns,
                                       is_read=False)
        latency = finish - now
        self.stats.record_write(self.block_size, bits, latency,
                                self.device.write_energy_pj)
        return RawAccess(data=None, latency_ns=latency, finish_ns=finish)

    # -- grouped transactions ------------------------------------------------

    def read_blocks(self, addresses: Sequence[int],
                    at: Optional[float] = None, *,
                    now_ns: Optional[float] = None) -> List[RawAccess]:
        """Issue a group of reads, in order, sharing one issue time.

        The channel model is stateful (each request advances its
        channel's busy horizon), so the group is scheduled in sequence
        exactly as the equivalent scalar calls would be — grouping
        saves per-call time resolution, not simulated ordering.
        """
        now = resolve_time(self.clock, at, now_ns)
        read = self.read_block
        return [read(address, now) for address in addresses]

    def write_blocks(self, writes: Sequence[Tuple[int, Optional[bytes]]],
                     at: Optional[float] = None, *,
                     now_ns: Optional[float] = None) -> List[RawAccess]:
        """Issue a group of (address, data) writes in order at one time."""
        now = resolve_time(self.clock, at, now_ns)
        write = self.write_block
        return [write(address, data, now) for address, data in writes]

    def check_block_address(self, address: int) -> None:
        if address % self.block_size != 0:
            raise AddressError(f"address {address:#x} not block aligned")
        self.device.check_block_address(address)
