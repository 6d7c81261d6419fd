"""PCM-like non-volatile memory device model.

Adds to the base device the NVM-specific behaviours the paper leans on:

* **Data-Comparison-Write (DCW)** — only cells whose value changes are
  programmed (Zhou et al. [45]); the device reads the old line and counts
  differing bits.
* **Flip-N-Write (FNW)** — per word, write the flipped pattern when that
  programs fewer cells (Cho and Lee [17]); one extra flip bit per word.
* **Per-line wear counters** with an endurance limit; the device can
  either raise on exhaustion or just record it, and reports wear
  statistics used by the endurance benchmark.
* **Data remanence**: being non-volatile, ``power_cycle()`` keeps all
  data, which is exactly the vulnerability that motivates encryption
  (tests scan the device after a power cycle).

Note Young et al. [43] observe DCW/FNW lose effectiveness under
encryption because diffusion flips ~50 % of bits regardless; the model
reproduces that, which is why eliminating whole writes (Silent Shredder)
matters more than bit-flip tricks.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import NVMConfig
from ..errors import EnduranceExceededError
from .device import MemoryDevice

#: Words per 64 B line for the Flip-N-Write granularity (32-bit words).
FNW_WORD_BITS = 32


class NVMDevice(MemoryDevice):
    """Phase-change-memory-like device with wear and write optimisation."""

    def __init__(self, config: NVMConfig, block_size: int = 64, *,
                 functional: bool = True, write_scheme: str = "fnw",
                 fail_on_endurance: bool = False) -> None:
        super().__init__(
            config.capacity_bytes, block_size,
            read_latency_ns=config.read_latency_ns,
            write_latency_ns=config.write_latency_ns,
            read_energy_pj=config.read_energy_pj,
            write_energy_pj=config.write_energy_pj,
            functional=functional,
        )
        if write_scheme not in ("naive", "dcw", "fnw"):
            raise ValueError(f"unknown write scheme {write_scheme!r}")
        self.config = config
        self.write_scheme = write_scheme
        self.fail_on_endurance = fail_on_endurance
        self.endurance_writes = config.endurance_writes
        self.wear: Dict[int, int] = {}
        self.worn_out_lines = 0
        # Flip bits for FNW (one per 32-bit word), functional mode only.
        self._flip_state: Dict[int, int] = {}
        # Timing mode programs the encrypted-diffusion average: half the
        # bits under DCW/FNW (FNW's bound of half plus one flip bit per
        # word never binds below that), every bit for naive writes.
        total_bits = block_size * 8
        self._timing_bits = (total_bits if write_scheme == "naive"
                             else total_bits // 2)

    # -- write path --------------------------------------------------------

    def _store(self, address: int, data: Optional[bytes]) -> int:
        wear = self.wear.get(address, 0) + 1
        self.wear[address] = wear
        if wear == self.endurance_writes + 1:
            self.worn_out_lines += 1
            if self.fail_on_endurance:
                raise EnduranceExceededError(
                    f"line {address:#x} exceeded endurance of "
                    f"{self.endurance_writes} writes")

        if not self.functional or data is None:
            return self._timing_bits

        old = self._lines.get(address, self._zero_line)
        bits = self._count_programmed_bits(address, old, data)
        super()._store(address, data)
        return bits

    def _count_programmed_bits(self, address: int, old: bytes, new: bytes) -> int:
        total_bits = self.block_size * 8
        if self.write_scheme == "naive":
            return total_bits

        diff = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
        if self.write_scheme == "dcw":
            return bin(diff).count("1")

        # Flip-N-Write over 32-bit words: for each word choose between
        # writing the new value or its complement, whichever flips fewer
        # stored cells given the word's current flip bit.
        flips = 0
        flip_state = self._flip_state.get(address, 0)
        new_flip_state = 0
        words = total_bits // FNW_WORD_BITS
        mask = (1 << FNW_WORD_BITS) - 1
        old_int = int.from_bytes(old, "little")
        new_int = int.from_bytes(new, "little")
        for w in range(words):
            shift = w * FNW_WORD_BITS
            old_word = (old_int >> shift) & mask
            # What is physically stored is old_word XOR'd per its flip bit.
            stored = old_word ^ (mask if (flip_state >> w) & 1 else 0)
            new_word = (new_int >> shift) & mask
            direct = bin(stored ^ new_word).count("1")
            flipped = bin(stored ^ (new_word ^ mask)).count("1")
            if flipped + 1 < direct:
                flips += flipped + 1  # +1 for programming the flip bit
                new_flip_state |= 1 << w
            else:
                flips += direct
        self._flip_state[address] = new_flip_state
        return flips

    # -- wear reporting ------------------------------------------------------

    def max_wear(self) -> int:
        return max(self.wear.values()) if self.wear else 0

    def total_line_writes(self) -> int:
        return sum(self.wear.values())

    def wear_spread(self) -> float:
        """max/mean wear over written lines (1.0 is perfectly even)."""
        if not self.wear:
            return 1.0
        mean = self.total_line_writes() / len(self.wear)
        return self.max_wear() / mean if mean else 1.0

    def lifetime_fraction_used(self) -> float:
        """Fraction of the worst line's endurance budget consumed."""
        return self.max_wear() / self.endurance_writes

    # -- non-volatility ------------------------------------------------------

    def power_cycle(self) -> None:
        """Power the device off and on: NVM retains every line (remanence)."""
        # Data, wear and flip bits all persist; nothing to do. The method
        # exists so tests and examples can make the remanence explicit and
        # so DRAMDevice can override it with data loss.
        return None
