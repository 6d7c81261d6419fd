"""Plain (unencrypted) memory controller.

Routes block reads and writes to the backing device through the channel
model and accounts latency. The secure controllers in :mod:`repro.core`
wrap this one: they add counter handling, pad generation and the shred
datapath on top of the raw read/write transactions provided here.

The controller optionally applies Start-Gap wear levelling over the
device's lines before the channel/device access.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import NVMConfig
from ..errors import AddressError
from .channel import ChannelModel
from .device import MemoryDevice
from .stats import MemoryStats
from .wear import StartGapWearLeveler


class MemoryController:
    """Bottom-level controller: channels + device + optional wear levelling."""

    def __init__(self, device: MemoryDevice, *,
                 num_channels: int = 2, channel_bandwidth_gbps: float = 12.8,
                 wear_leveler: Optional[StartGapWearLeveler] = None) -> None:
        self.device = device
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
                ) -> "MemoryController":
        return cls(device,
                   num_channels=config.num_channels,
                   channel_bandwidth_gbps=config.channel_bandwidth_gbps,
                   wear_leveler=wear_leveler)

    # -- address remapping -------------------------------------------------

    def _physical_address(self, address: int) -> int:
        """Apply the wear-levelling remap."""
        logical_line = address // self.block_size
        physical_line = self.wear_leveler.translate(logical_line)
        return physical_line * self.block_size

    # -- transactions --------------------------------------------------------

    def read_block(self, address: int,
                   now_ns: float = 0.0) -> Tuple[Optional[bytes], float]:
        """Read one block at ``now_ns``; returns ``(data, latency_ns)``,
        the latency end to end (the read finishes at ``now_ns +
        latency_ns``)."""
        physical = (address if self.wear_leveler is None
                    else self._physical_address(address))
        device = self.device
        data = device.read_block(physical)
        for snooper in self.snoopers:
            snooper.observe("read", address, data)
        finish = self.channels.request(address, now_ns,
                                       device.read_latency_ns, is_read=True)
        latency = finish - now_ns
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += self.block_size
        stats.total_read_latency_ns += latency
        stats.read_energy_pj += device.read_energy_pj
        return data, latency

    def write_block(self, address: int, data: Optional[bytes] = None,
                    now_ns: float = 0.0) -> float:
        """Write one block at ``now_ns``; returns the write's end-to-end
        latency in ns."""
        physical = (address if self.wear_leveler is None
                    else self._physical_address(address))
        for snooper in self.snoopers:
            snooper.observe("write", address, data)
        device = self.device
        bits = device.write_block(physical, data)
        if self.wear_leveler is not None:
            self.wear_leveler.record_write(address // self.block_size)
        finish = self.channels.request(address, now_ns,
                                       device.write_latency_ns, is_read=False)
        latency = finish - now_ns
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += self.block_size
        stats.bits_written += bits
        stats.total_write_latency_ns += latency
        stats.write_energy_pj += device.write_energy_pj
        return latency

    def check_block_address(self, address: int) -> None:
        if address % self.block_size != 0:
            raise AddressError(f"address {address:#x} not block aligned")
        self.device.check_block_address(address)
