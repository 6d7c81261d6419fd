"""Counter-mode encryption engine for 64-byte cache blocks.

Implements the datapath of Figure 2: an IV (page id, page offset, major
counter, minor counter, padding) is encrypted under the memory key to
produce a one-time pad, and the cache block is XORed with the pad. One
64 B cache block needs four 16 B cipher outputs; the engine derives them
by stamping a 2-bit segment index into the IV padding, so the four pad
segments are distinct cipher inputs under the same logical IV.
"""

from __future__ import annotations

from ..errors import CipherError
from .cipher import BlockCipher


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CipherError(f"xor operands differ in length: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


class CounterModeEngine:
    """Generates one-time pads and encrypts/decrypts cache blocks.

    Parameters
    ----------
    cipher:
        The keyed block cipher used to turn IVs into pad segments.
    block_size:
        The cache-block size in bytes (64 in the paper's system).
    """

    def __init__(self, cipher: BlockCipher, block_size: int = 64) -> None:
        if block_size % cipher.block_size != 0:
            raise CipherError("cache block size must be a multiple of the "
                              "cipher block size")
        self.cipher = cipher
        self.block_size = block_size
        self.segments = block_size // cipher.block_size
        self.pads_generated = 0

    def pad_for_iv(self, iv_bytes: bytes) -> bytes:
        """Produce a full cache-block pad for one logical IV.

        The last IV byte is reserved as padding in the IV layout
        (:mod:`repro.core.iv` always leaves it zero), so stamping the
        segment index there keeps the four cipher inputs unique without
        colliding with any other IV.
        """
        if len(iv_bytes) != self.cipher.block_size:
            raise CipherError("IV must be one cipher block long")
        if iv_bytes[-1] != 0:
            raise CipherError("IV padding byte must be zero (reserved for "
                              "pad segment indices)")
        pad_parts = []
        prefix = iv_bytes[:-1]
        for segment in range(self.segments):
            pad_parts.append(self.cipher.encrypt_block(prefix + bytes([segment])))
        self.pads_generated += 1
        return b"".join(pad_parts)

    def encrypt(self, plaintext: bytes, iv_bytes: bytes) -> bytes:
        """Encrypt one cache block: ciphertext = plaintext XOR pad(IV)."""
        if len(plaintext) != self.block_size:
            raise CipherError(f"expected a {self.block_size}-byte block")
        return xor_bytes(plaintext, self.pad_for_iv(iv_bytes))

    def decrypt(self, ciphertext: bytes, iv_bytes: bytes) -> bytes:
        """Decrypt one cache block (XOR with the same pad)."""
        return self.encrypt(ciphertext, iv_bytes)

