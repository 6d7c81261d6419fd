"""Direct (ECB-style) memory encryption: the design counter mode beats.

Section 2.2 describes two ways to encrypt main memory. *Direct
encryption* applies the block cipher to the data itself: decryption
cannot start until the data arrives, so the AES latency lands on the
LLC-miss critical path. *Counter mode* encrypts an IV instead, overlaps
pad generation with the NVM fetch, and leaves only an XOR serialised.

Direct encryption also has the classic ECB weakness — identical
plaintext blocks encrypt to identical ciphertext wherever they occur,
enabling dictionary and replay analysis — and, having no IVs, offers
Silent Shredder nothing to repurpose. This controller exists so the
benchmarks and tests can *measure* both deficiencies against the
counter-mode substrate.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import SystemConfig
from ..crypto import ecb_transform, require_invertible
from ..errors import AddressError
from ..mem import NVMDevice
from .secure_memory import SecureMemoryController


class DirectEncryptionController(SecureMemoryController):
    """ECB-style encrypted NVMM: no counters, serialised decryption."""

    def __init__(self, config: SystemConfig, *,
                 device: Optional[NVMDevice] = None) -> None:
        super().__init__(config, device=device)
        # No IVs exist in this design, so counter integrity is moot.
        self.merkle = None
        if config.functional and self.encrypted:
            require_invertible(self.engine.cipher, "direct encryption")
        cycle_ns = config.cpu.cycle_ns
        # The full cipher latency (not just an XOR) serialises with the
        # fetch; reuse the pad-generation figure as the AES pipeline
        # latency.
        self._cipher_latency_ns = config.encryption.pad_latency_cycles * cycle_ns

    def fetch_block(self, address: int, now_ns: float = 0.0,
                    ) -> Tuple[Optional[bytes], float, bool]:
        """LLC miss: fetch then decrypt — latencies add, never overlap."""
        self._check_data_address(address)
        raw, read_latency = self.mem.read_block(address, now_ns)
        self.stats.data_reads += 1
        plaintext = None
        if self.functional:
            plaintext = (ecb_transform(self.engine.cipher, raw, encrypt=False)
                         if self.encrypted and raw != bytes(self.block_size)
                         else raw)
        latency = read_latency + self._cipher_latency_ns
        self.stats.record_read(latency)
        return plaintext, latency, False

    def store_block(self, address: int, data: Optional[bytes] = None,
                    now_ns: float = 0.0) -> float:
        self._check_data_address(address)
        if self.functional and (data is None or len(data) != self.block_size):
            raise AddressError("functional store requires a full data block")
        ciphertext = None
        if self.functional:
            ciphertext = (ecb_transform(self.engine.cipher, data, encrypt=True)
                          if self.encrypted else data)
        write_latency = self.mem.write_block(address, ciphertext,
                                             now_ns + self._cipher_latency_ns)
        self.stats.data_writes += 1
        return self._cipher_latency_ns + write_latency
