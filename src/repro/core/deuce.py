"""DEUCE: dual-counter, write-efficient encryption (Young et al.,
ASPLOS 2015) — the design the paper's related-work section names as
directly composable with Silent Shredder ("Our work is orthogonal and
can be easily integrated with their design, DEUCE").

Plain counter-mode re-encrypts the whole 64 B line on every write-back;
diffusion then flips ~half of all stored bits, which defeats
Data-Comparison-Write and Flip-N-Write. DEUCE encrypts at *word*
granularity with two counters:

* a **leading counter** (LCTR) — the line's current minor counter,
  advanced on every write-back;
* an **epoch counter** — the minor value at the line's last full
  re-encryption; epochs close every ``epoch_interval`` writes.

Words modified since the epoch began are encrypted under the LCTR pad
(and re-encrypted with the newest LCTR on every write); untouched
words stay encrypted under the epoch pad, so their ciphertext bytes do
not change and DCW/FNW skip them. A per-line modified-word mask (16
bits for 4-byte words) rides with the line; at an epoch boundary the
whole line re-encrypts and the mask clears.

:class:`DeuceShredderController` composes DEUCE with Silent Shredder:
shredding still eliminates whole writes (and resets the lines' DEUCE
state); DEUCE shrinks the bit-flips of the writes that remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import SystemConfig
from ..errors import AddressError, CipherError
from ..mem import NVMDevice
from .iv import CounterBlock
from .policies import ShredPolicy
from .shredder import SilentShredderController

#: DEUCE word granularity in bytes (16 words per 64 B line).
WORD_BYTES = 4


@dataclass
class DeuceLineState:
    """Per-line DEUCE metadata: epoch base counter + modified mask."""

    epoch_minor: int
    mask: int = 0              # bit i set => word i modified this epoch


@dataclass
class DeuceStats:
    full_encryptions: int = 0      # epoch turnovers / first writes
    partial_encryptions: int = 0   # word-granular writes
    words_reencrypted: int = 0
    words_total: int = 0

    @property
    def words_untouched_fraction(self) -> float:
        if not self.words_total:
            return 0.0
        return 1.0 - self.words_reencrypted / self.words_total


class DeuceShredderController(SilentShredderController):
    """Silent Shredder with DEUCE word-granular encryption underneath."""

    def __init__(self, config: SystemConfig, *,
                 epoch_interval: int = 32,
                 policy: Optional[ShredPolicy] = None,
                 device: Optional[NVMDevice] = None) -> None:
        super().__init__(config, policy=policy, device=device)
        if epoch_interval < 2:
            raise CipherError("DEUCE epoch interval must be >= 2")
        if self.block_size % WORD_BYTES:
            raise CipherError("block size must be a multiple of the DEUCE word")
        self.epoch_interval = epoch_interval
        self.words_per_block = self.block_size // WORD_BYTES
        # Per-line DEUCE metadata. Real DEUCE stores the modified-word
        # mask alongside the line in memory (a few bits of overhead per
        # 64 B), so this state is durable across power cycles — modelled
        # here as a persistent side table.
        self._line_state: Dict[int, DeuceLineState] = {}
        self.deuce_stats = DeuceStats()

    # -- pad plumbing ---------------------------------------------------------

    def _word_pads(self, page_id: int, offset: int, counters: CounterBlock,
                   minor: int) -> bytes:
        """Full-line pad for a specific minor value."""
        iv = self.iv_layout.build(page_id, offset, counters.major, minor)
        return self.engine.pad_for_iv(iv)

    @staticmethod
    def _splice(base: bytes, overlay: bytes, mask: int) -> bytes:
        """Take masked words from ``overlay``, the rest from ``base``."""
        out = bytearray(base)
        for word in range(len(base) // WORD_BYTES):
            if (mask >> word) & 1:
                start = word * WORD_BYTES
                out[start:start + WORD_BYTES] = overlay[start:start + WORD_BYTES]
        return bytes(out)

    @staticmethod
    def _diff_mask(old: bytes, new: bytes) -> int:
        mask = 0
        for word in range(len(old) // WORD_BYTES):
            start = word * WORD_BYTES
            if old[start:start + WORD_BYTES] != new[start:start + WORD_BYTES]:
                mask |= 1 << word
        return mask

    # -- data path overrides -----------------------------------------------------

    def _decrypt_line(self, address: int, ciphertext: bytes, page_id: int,
                      offset: int, counters: CounterBlock) -> bytes:
        from ..crypto import xor_bytes
        state = self._line_state.get(address)
        lead_pad = self._word_pads(page_id, offset, counters,
                                   counters.minors[offset])
        if state is None:
            # Pre-DEUCE line: whole line under the lead pad.
            return xor_bytes(ciphertext, lead_pad)
        # Words modified this epoch sit under the lead pad; everything
        # else is still under the epoch pad — even when the mask is
        # empty (an identical rewrite advances the minor counter without
        # touching any word's ciphertext).
        epoch_pad = self._word_pads(page_id, offset, counters,
                                    state.epoch_minor)
        lead_plain = xor_bytes(ciphertext, lead_pad)
        epoch_plain = xor_bytes(ciphertext, epoch_pad)
        return self._splice(epoch_plain, lead_plain, state.mask)

    def fetch_block(self, address: int, now_ns: float = 0.0,
                    ) -> Tuple[Optional[bytes], float, bool]:
        self._check_data_address(address)
        page_id = self.page_of(address)
        offset = self.offset_of(address)
        counters, counter_latency, _ = self._probe_counters(page_id, now_ns)

        if self.zero_semantics and counters.is_shredded(offset):
            self.stats.zero_fill_reads += 1
            self.stats.record_read(counter_latency)
            return (self._zero_block if self.functional else None,
                    counter_latency, True)

        raw, read_latency = self.mem.read_block(address,
                                                now_ns + counter_latency)
        self.stats.data_reads += 1
        plaintext = None
        if self.functional:
            if self.encrypted:
                plaintext = self._decrypt_line(address, raw,
                                               page_id, offset, counters)
            else:
                plaintext = raw
        latency = (counter_latency
                   + max(read_latency, self._pad_latency_ns)
                   + self._xor_latency_ns)
        self.stats.record_read(latency)
        return plaintext, latency, False

    def store_block(self, address: int, data: Optional[bytes] = None,
                    now_ns: float = 0.0) -> float:
        if not self.functional or not self.encrypted:
            # Without real bytes DEUCE degenerates to the parent's path.
            return super().store_block(address, data, now_ns)
        self._check_data_address(address)
        if data is None or len(data) != self.block_size:
            raise AddressError("functional store requires a full data block")
        page_id = self.page_of(address)
        offset = self.offset_of(address)
        counters, counter_latency, _ = self._probe_counters(page_id, now_ns)

        was_shredded = self.zero_semantics and counters.is_shredded(offset)
        old_plaintext = None
        if not was_shredded and address in self._line_state or \
                not was_shredded and self.device.peek(address) != self._zero_block:
            old_ciphertext = self.device.peek(address)
            old_plaintext = self._decrypt_line(address, old_ciphertext,
                                               page_id, offset, counters)

        if counters.bump_minor(offset):
            # Page re-encryption resets every line's DEUCE state.
            for line_offset in range(self.blocks_per_page):
                self._line_state.pop(page_id * self.page_size
                                     + line_offset * self.block_size, None)
            latency = self._reencrypt_page(page_id, counters,
                                           {offset: data}, now_ns)
            self.stats.reencryptions += 1
            return counter_latency + latency
        minor = counters.minors[offset]

        state = self._line_state.get(address)
        epoch_expired = (state is not None
                         and minor - state.epoch_minor >= self.epoch_interval)
        self.deuce_stats.words_total += self.words_per_block

        if old_plaintext is None or state is None or epoch_expired:
            # Full (re-)encryption under the new leading counter.
            pad = self._word_pads(page_id, offset, counters, minor)
            from ..crypto import xor_bytes
            ciphertext = xor_bytes(data, pad)
            self._line_state[address] = DeuceLineState(epoch_minor=minor)
            self.deuce_stats.full_encryptions += 1
            self.deuce_stats.words_reencrypted += self.words_per_block
        else:
            # Partial: modified words (cumulative this epoch) re-encrypt
            # under the new lead pad; untouched words keep their epoch-
            # pad ciphertext bytes verbatim.
            state.mask |= self._diff_mask(old_plaintext, data)
            from ..crypto import xor_bytes
            lead_pad = self._word_pads(page_id, offset, counters, minor)
            lead_cipher = xor_bytes(data, lead_pad)
            old_ciphertext = self.device.peek(address)
            ciphertext = self._splice(old_ciphertext, lead_cipher, state.mask)
            self.deuce_stats.partial_encryptions += 1
            self.deuce_stats.words_reencrypted += bin(state.mask).count("1")

        pad_ns = self._pad_latency_ns + self._xor_latency_ns
        write_latency = self.mem.write_block(address, ciphertext,
                                             now_ns + counter_latency + pad_ns)
        self.stats.data_writes += 1
        counter_update_ns = self._counters_updated(page_id, counters, now_ns)
        return counter_latency + pad_ns + write_latency + counter_update_ns

    # -- shred composition ---------------------------------------------------------

    def shred_page(self, page_id: int, now_ns: float = 0.0):
        """Shredding also retires the page's DEUCE state: the next write
        to each line starts a fresh epoch."""
        outcome = super().shred_page(page_id, now_ns)
        base = page_id * self.page_size
        for line_offset in range(self.blocks_per_page):
            self._line_state.pop(base + line_offset * self.block_size, None)
        return outcome
