"""Base class shared by the NVM and DRAM device models.

A device stores 64 B lines addressed by block-aligned physical byte
addresses. In *functional* mode it keeps the actual bytes (so encryption
and shredding can be verified end to end); in *timing* mode it keeps no
data and only accounts latency, energy and wear, which makes large
parameter sweeps fast.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import AddressError, AlignmentError
from .stats import MemoryStats


class MemoryDevice:
    """A flat array of cache-block-sized lines with timing and energy."""

    def __init__(self, capacity_bytes: int, block_size: int = 64, *,
                 read_latency_ns: float, write_latency_ns: float,
                 read_energy_pj: float, write_energy_pj: float,
                 functional: bool = True) -> None:
        if capacity_bytes % block_size != 0:
            raise AddressError("capacity must be a whole number of blocks")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.read_latency_ns = read_latency_ns
        self.write_latency_ns = write_latency_ns
        self.read_energy_pj = read_energy_pj
        self.write_energy_pj = write_energy_pj
        self.functional = functional
        self.stats = MemoryStats()
        # Sparse line store: absent lines read as zero-filled.
        self._lines: Dict[int, bytes] = {}
        self._zero_line = bytes(block_size)

    # -- address helpers --------------------------------------------------

    def check_block_address(self, address: int) -> None:
        if address < 0 or address + self.block_size > self.capacity_bytes:
            raise AddressError(f"address {address:#x} outside device of "
                               f"{self.capacity_bytes} bytes")
        if address % self.block_size != 0:
            raise AlignmentError(f"address {address:#x} is not {self.block_size}-byte aligned")

    # -- data path ---------------------------------------------------------

    def read_block(self, address: int) -> bytes:
        """Read one line; updates timing/energy stats."""
        if (address < 0 or address + self.block_size > self.capacity_bytes
                or address % self.block_size):
            self.check_block_address(address)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += self.block_size
        stats.total_read_latency_ns += self.read_latency_ns
        stats.read_energy_pj += self.read_energy_pj
        if not self.functional:
            return self._zero_line
        return self._lines.get(address, self._zero_line)

    def write_block(self, address: int, data: Optional[bytes]) -> int:
        """Write one line, returning the number of cell bits programmed.

        Subclasses refine the bit-flip count (DCW / Flip-N-Write); the
        base device assumes every bit is programmed.
        """
        if (address < 0 or address + self.block_size > self.capacity_bytes
                or address % self.block_size):
            self.check_block_address(address)
        bits = self._store(address, data)
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += self.block_size
        stats.bits_written += bits
        stats.total_write_latency_ns += self.write_latency_ns
        stats.write_energy_pj += self.write_energy_pj
        return bits

    def _store(self, address: int, data: Optional[bytes]) -> int:
        """Store the payload and return programmed-bit count."""
        if self.functional:
            if data is None:
                raise AddressError("functional device requires write data")
            if len(data) != self.block_size:
                raise AddressError(f"write payload must be {self.block_size} bytes")
            if data == self._zero_line:
                self._lines.pop(address, None)
            else:
                self._lines[address] = bytes(data)
        return self.block_size * 8

    def peek(self, address: int) -> bytes:
        """Inspect a line without touching stats (attacker's memory scan)."""
        self.check_block_address(address)
        return self._lines.get(address, self._zero_line)

    def poke(self, address: int, data: bytes) -> None:
        """Overwrite a line without stats (models physical tampering)."""
        self.check_block_address(address)
        if len(data) != self.block_size:
            raise AddressError(f"payload must be {self.block_size} bytes")
        self._lines[address] = bytes(data)

    @property
    def num_blocks(self) -> int:
        return self.capacity_bytes // self.block_size
