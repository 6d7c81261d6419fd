"""Block-cipher interface and the fast keyed diffusion cipher.

Counter-mode encryption only requires a keyed pseudorandom permutation of
the IV to generate pads. For large timing simulations we substitute real
AES with :class:`XorShiftCipher`, a splitmix64-based keyed permutation.
It is emphatically **not** cryptographically secure, but it has the two
properties the simulation relies on:

* determinism under a key (same IV -> same pad), and
* diffusion (flipping one IV bit scrambles the whole pad),

which is exactly what the Silent Shredder correctness argument uses
(decrypting with a changed IV yields an uncorrelated block). DESIGN.md
documents this substitution; security tests run against real AES.
"""

from __future__ import annotations

import abc
import struct

from ..errors import CipherError, ConfigError

_MASK64 = (1 << 64) - 1


class BlockCipher(abc.ABC):
    """A 16-byte-block keyed permutation used for pad generation."""

    block_size: int = 16
    name: str = "abstract"

    @abc.abstractmethod
    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""

    @abc.abstractmethod
    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""


def _splitmix64(value: int) -> int:
    """One splitmix64 finalization round: a strong 64-bit mixer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class XorShiftCipher(BlockCipher):
    """Fast keyed diffusion permutation over 16-byte blocks.

    Pads are produced as two mixed 64-bit lanes seeded by the key and the
    IV halves, with cross-lane mixing so every IV bit affects every output
    bit. ``decrypt_block`` is unsupported (counter mode never inverts the
    cipher: both directions XOR with a freshly generated pad).
    """

    name = "xorshift"

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise CipherError(f"XorShiftCipher needs a 16-byte key, got {len(key)}")
        k0, k1 = struct.unpack("<QQ", key)
        self._k0 = _splitmix64(k0)
        self._k1 = _splitmix64(k1 ^ 0xA5A5A5A5A5A5A5A5)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise CipherError("block must be exactly 16 bytes")
        v0, v1 = struct.unpack("<QQ", plaintext)
        a = _splitmix64(v0 ^ self._k0)
        b = _splitmix64(v1 ^ self._k1)
        # Cross-lane mixing: each output lane depends on both input lanes.
        out0 = _splitmix64(a ^ (b >> 1) ^ self._k1)
        out1 = _splitmix64(b ^ (a << 1 & _MASK64) ^ self._k0)
        return struct.pack("<QQ", out0, out1)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        raise CipherError("XorShiftCipher is pad-generation-only (counter mode)")


class NullCipher(BlockCipher):
    """Identity cipher: pads are the IV itself. Only for plumbing tests."""

    name = "null"

    def __init__(self, key: bytes = b"\x00" * 16) -> None:
        if len(key) != 16:
            raise CipherError("NullCipher still requires a 16-byte key")

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise CipherError("block must be exactly 16 bytes")
        return plaintext

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != 16:
            raise CipherError("block must be exactly 16 bytes")
        return ciphertext


def make_cipher(name: str, key: bytes) -> BlockCipher:
    """Instantiate a cipher by configuration name.

    ``"aes"`` -> real AES-128, ``"xorshift"`` -> fast diffusion cipher,
    ``"null"`` -> identity (tests only).
    """
    if name == "aes":
        from .aes import AES128
        return AES128(key)
    if name == "xorshift":
        return XorShiftCipher(key)
    if name == "null":
        return NullCipher(key)
    raise CipherError(f"unknown cipher {name!r}")


def ecb_transform(cipher: BlockCipher, data: bytes, *,
                  encrypt: bool) -> bytes:
    """Run ``cipher`` over ``data`` one cipher block at a time (ECB).

    Direct encryption and i-NVMM's DIMM-side sealing apply the block
    cipher to the data itself, so equal blocks give equal ciphertext.
    """
    transform = cipher.encrypt_block if encrypt else cipher.decrypt_block
    step = cipher.block_size
    return b"".join(transform(data[start:start + step])
                    for start in range(0, len(data), step))


def require_invertible(cipher: BlockCipher, design: str) -> None:
    """Raise :class:`ConfigError` unless ``cipher`` can decrypt.

    A design that encrypts the data itself (``design`` names it in the
    message) must invert the cipher, which counter mode never does, so
    the pad-only :class:`XorShiftCipher` cannot serve it.
    """
    try:
        cipher.decrypt_block(cipher.encrypt_block(bytes(cipher.block_size)))
    except CipherError as error:
        raise ConfigError(f"{design} requires an invertible cipher "
                          f"(use cipher='aes' or 'null'): {error}") from error
