"""Initialization-vector layout and per-page counter blocks.

State-of-the-art counter-mode memory encryption (section 2.2, Figure 2)
builds each 128-bit IV from:

* a **page id** unique across main memory and swap,
* the **page offset** distinguishing the 64 blocks of a page,
* a per-page **major counter** (64-bit) avoiding counter overflow,
* a per-block **minor counter** (7-bit) distinguishing versions of a
  block's value over time, and
* zero padding (which the pad engine reuses to index pad segments).

All counters of one page are co-located in a single 64 B counter block:
one 64-bit major followed by sixty-four 7-bit minors (Yan et al. [40]),
which packs to exactly 512 bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from ..errors import AddressError, CounterOverflowError

#: Value a minor counter is reset to on a regular overflow re-encryption.
#: Zero is reserved to mean "shredded" (section 4.2, option three).
MINOR_AFTER_REENCRYPTION = 1
#: Reserved minor-counter value marking a shredded (zero-fill) block.
MINOR_SHREDDED = 0


@dataclass(frozen=True)
class IVLayout:
    """Bit layout of the 128-bit IV.

    The default allocates 40 bits of page id (covers 4 PB of 4 KB pages),
    8 bits of page offset, 64 bits of major counter, 8 bits carrying the
    7-bit minor counter, and 8 reserved zero bits of padding used by the
    pad engine for segment indices.
    """

    page_id_bits: int = 40
    offset_bits: int = 8
    major_bits: int = 64
    minor_bits: int = 8

    def __post_init__(self) -> None:
        total = self.page_id_bits + self.offset_bits + self.major_bits + self.minor_bits
        if total > 120:
            raise AddressError("IV fields exceed 120 bits (8 bits of padding "
                               "are reserved for pad segment indices)")

    def build(self, page_id: int, offset: int, major: int, minor: int) -> bytes:
        """Pack the IV fields into 16 bytes (last padding byte zero)."""
        if page_id < 0 or page_id >= (1 << self.page_id_bits):
            raise AddressError(f"page id {page_id} out of IV range")
        if offset < 0 or offset >= (1 << self.offset_bits):
            raise AddressError(f"page offset {offset} out of IV range")
        if major < 0 or major >= (1 << self.major_bits):
            raise CounterOverflowError(f"major counter {major} out of IV range")
        if minor < 0 or minor >= (1 << self.minor_bits):
            raise CounterOverflowError(f"minor counter {minor} out of IV range")
        value = page_id
        value = (value << self.offset_bits) | offset
        value = (value << self.major_bits) | major
        value = (value << self.minor_bits) | minor
        value <<= 8  # zero padding byte
        return value.to_bytes(16, "big")

    def parse(self, iv_bytes: bytes) -> tuple:
        """Unpack 16 IV bytes back into (page_id, offset, major, minor)."""
        value = int.from_bytes(iv_bytes, "big") >> 8
        minor = value & ((1 << self.minor_bits) - 1)
        value >>= self.minor_bits
        major = value & ((1 << self.major_bits) - 1)
        value >>= self.major_bits
        offset = value & ((1 << self.offset_bits) - 1)
        value >>= self.offset_bits
        return value, offset, major, minor


@dataclass
class CounterBlock:
    """The encryption counters of one physical page.

    One 64-bit major counter plus one small minor counter per cache
    block; with the Table 1 geometry (4 KB pages, 64 B blocks, 7-bit
    minors) this packs to exactly one 64 B block, which is the unit the
    counter cache and the Merkle tree operate on.
    """

    major: int = 0
    minors: List[int] = field(default_factory=lambda: [MINOR_AFTER_REENCRYPTION] * 64)
    minor_bits: int = 7

    def __post_init__(self) -> None:
        minors = self.minors
        if not minors:
            raise AddressError("a counter block needs at least one minor counter")
        limit = self.minor_max
        if min(minors) < 0 or max(minors) > limit:
            # Only a bad block walks the list, to name its first bad value.
            for value in minors:
                if value < 0 or value > limit:
                    raise CounterOverflowError(f"minor counter {value} exceeds "
                                               f"{self.minor_bits} bits")

    @classmethod
    def fresh(cls, blocks_per_page: int = 64, minor_bits: int = 7) -> "CounterBlock":
        """Counters for a page that has never been shredded or written."""
        return cls(major=0,
                   minors=[MINOR_AFTER_REENCRYPTION] * blocks_per_page,
                   minor_bits=minor_bits)

    @property
    def minor_max(self) -> int:
        return (1 << self.minor_bits) - 1

    @property
    def blocks_per_page(self) -> int:
        return len(self.minors)

    def is_shredded(self, offset: int) -> bool:
        """True when block ``offset`` is in the shredded (zero-fill) state."""
        return self.minors[offset] == MINOR_SHREDDED

    def all_shredded(self) -> bool:
        return all(m == MINOR_SHREDDED for m in self.minors)

    def shred(self) -> None:
        """Apply the Silent Shredder state change (design option three).

        Increment the major counter — invalidating every old pad of the
        page — and reset all minor counters to the reserved zero value so
        reads return zero-filled blocks without touching NVM.
        """
        self.major += 1
        for i in range(len(self.minors)):
            self.minors[i] = MINOR_SHREDDED

    def bump_minor(self, offset: int) -> bool:
        """Advance block ``offset``'s minor counter for a new write-back.

        Returns ``True`` when the minor counter overflowed, in which case
        the caller must re-encrypt the page (:meth:`reencrypt`) before
        using the counters again. A write to a shredded block simply moves
        its minor from the reserved 0 to 1, leaving the other blocks of
        the page shredded.
        """
        if self.minors[offset] >= self.minor_max:
            return True
        self.minors[offset] += 1
        return False

    def reencrypt(self) -> None:
        """Regular overflow handling: major++ and minors reset to one.

        The reserved zero is *not* used here (section 4.2): only a shred
        command may produce minor value 0.
        """
        self.major += 1
        for i in range(len(self.minors)):
            self.minors[i] = MINOR_AFTER_REENCRYPTION

    def pack(self) -> bytes:
        """Serialize to the 64 B on-chip/NVM representation.

        Layout: 8-byte big-endian major counter, then the minors packed
        ``minor_bits`` each into a little-endian bit stream.
        """
        bits = 0
        acc = 0
        for minor in reversed(self.minors):
            acc = (acc << self.minor_bits) | minor
            bits += self.minor_bits
        minor_bytes = acc.to_bytes((bits + 7) // 8, "little")
        return struct.pack(">Q", self.major & ((1 << 64) - 1)) + minor_bytes

    @classmethod
    def unpack(cls, data: bytes, blocks_per_page: int = 64,
               minor_bits: int = 7) -> "CounterBlock":
        """Inverse of :meth:`pack`."""
        (major,) = struct.unpack(">Q", data[:8])
        acc = int.from_bytes(data[8:], "little")
        mask = (1 << minor_bits) - 1
        minors = []
        for _ in range(blocks_per_page):
            minors.append(acc & mask)
            acc >>= minor_bits
        return cls(major=major, minors=minors, minor_bits=minor_bits)

    def copy(self) -> "CounterBlock":
        return CounterBlock(major=self.major, minors=list(self.minors),
                            minor_bits=self.minor_bits)
