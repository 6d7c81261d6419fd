"""i-NVMM-style memory-side incremental encryption (Chhabra & Solihin,
ISCA 2011) — the other related-work design the paper contrasts with
(section 8): "their implementation does not protect from bus-snoop,
dictionary-based and replay attacks".

i-NVMM encrypts *inside the DIMM*, transparently to the processor:

* **hot** pages (the recent working set) stay in plaintext so accesses
  pay no cryptographic latency;
* **cold** pages are encrypted incrementally in the background; a
  renewed access decrypts the page back to plaintext (paying a whole-
  page penalty once).

The upside is processor-independence; the measurable downsides this
model exposes are exactly the paper's objections:

* the bus always carries plaintext (a :class:`~repro.mem.BusSnooper`
  sees secrets),
* a stolen DIMM reveals the hot working set in plaintext (partial
  data remanence),
* ECB sealing leaks equality between cold blocks, and
* with no IVs there is nothing for Silent Shredder to repurpose —
  shredding still costs a page of writes.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..config import SystemConfig
from ..crypto import ecb_transform, require_invertible
from ..errors import AddressError
from ..mem import NVMDevice
from .secure_memory import SecureMemoryController


class INVMMController(SecureMemoryController):
    """Memory-side incremental encryption: hot plaintext, cold sealed."""

    def __init__(self, config: SystemConfig, *,
                 cold_after_accesses: int = 256,
                 device: Optional[NVMDevice] = None) -> None:
        super().__init__(config, device=device)
        self.merkle = None                      # no counters to protect
        if config.functional and self.encrypted:
            require_invertible(self.engine.cipher, "i-NVMM")
        self.cold_after_accesses = cold_after_accesses
        self._access_clock = 0
        self._last_access: Dict[int, int] = {}
        self._sealed: Set[int] = set()          # page ids encrypted at rest
        self.pages_sealed = 0
        self.pages_unsealed = 0
        cycle_ns = config.cpu.cycle_ns
        self._cipher_latency_ns = config.encryption.pad_latency_cycles * cycle_ns

    # -- sealing machinery -------------------------------------------------------

    def _transform_page(self, page_id: int, *, encrypt: bool) -> None:
        """Re-write every block of a page through the DIMM-side engine."""
        base = page_id * self.page_size
        for offset in range(0, self.page_size, self.block_size):
            raw = self.device.peek(base + offset)
            if self.functional and self.encrypted:
                self.device.poke(base + offset, ecb_transform(
                    self.engine.cipher, raw, encrypt=encrypt))
            # Sealing programs cells: account the wear and energy.
            self.device.stats.record_write(self.block_size,
                                           self.block_size * 4,
                                           self.device.write_latency_ns,
                                           self.device.write_energy_pj)

    def seal_cold_pages(self) -> int:
        """The incremental background sweep: encrypt idle pages."""
        sealed = 0
        threshold = self._access_clock - self.cold_after_accesses
        for page_id, last in list(self._last_access.items()):
            if page_id not in self._sealed and last <= threshold:
                self._transform_page(page_id, encrypt=True)
                self._sealed.add(page_id)
                self.pages_sealed += 1
                sealed += 1
        return sealed

    def _touch(self, page_id: int, now_ns: float) -> float:
        """Track recency; unseal on access to a cold page."""
        self._access_clock += 1
        self._last_access[page_id] = self._access_clock
        if page_id in self._sealed:
            self._transform_page(page_id, encrypt=False)
            self._sealed.discard(page_id)
            self.pages_unsealed += 1
            # The renewed access waits for the page decryption.
            return self.page_size / self.block_size * self._cipher_latency_ns
        return 0.0

    def is_sealed(self, page_id: int) -> bool:
        return page_id in self._sealed

    @property
    def plaintext_fraction(self) -> float:
        """Fraction of touched pages currently exposed in plaintext."""
        touched = len(self._last_access)
        if not touched:
            return 0.0
        return 1.0 - len(self._sealed) / touched

    # -- data path ------------------------------------------------------------------

    def fetch_block(self, address: int, now_ns: float = 0.0,
                    ) -> Tuple[Optional[bytes], float, bool]:
        self._check_data_address(address)
        page_id = self.page_of(address)
        unseal_ns = self._touch(page_id, now_ns)
        data, read_latency = self.mem.read_block(address, now_ns + unseal_ns)
        self.stats.data_reads += 1
        latency = unseal_ns + read_latency
        self.stats.record_read(latency)
        return data, latency, False

    def store_block(self, address: int, data: Optional[bytes] = None,
                    now_ns: float = 0.0) -> float:
        self._check_data_address(address)
        if self.functional and (data is None or len(data) != self.block_size):
            raise AddressError("functional store requires a full data block")
        page_id = self.page_of(address)
        unseal_ns = self._touch(page_id, now_ns)
        # Hot pages hold plaintext: the bus and cells both see it.
        write_latency = self.mem.write_block(address, data, now_ns + unseal_ns)
        self.stats.data_writes += 1
        return unseal_ns + write_latency

    def power_cycle(self) -> None:
        """Power loss: i-NVMM seals everything it can on the way down
        (the published design encrypts residual plaintext pages using
        the DIMM's capacitance); model the *vulnerable* variant where
        hot pages are caught in plaintext by an abrupt cut."""
        self.device.power_cycle()
