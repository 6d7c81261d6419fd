"""Cryptographic substrate: block ciphers and counter-mode encryption.

The memory controller encrypts 64 B cache blocks in counter mode: a
one-time pad is generated by encrypting an initialization vector (IV)
with a block cipher, and data is XORed with the pad (Figure 2 of the
paper). The cipher is pluggable:

* :class:`~repro.crypto.aes.AES128` — real AES-128 implemented from
  scratch, used for functional security tests.
* :class:`~repro.crypto.cipher.XorShiftCipher` — a fast keyed diffusion
  permutation used as the default for large timing simulations, where
  only the *presence* of encryption (and the pad-generation latency
  constant) matters.
"""

from .cipher import (BlockCipher, NullCipher, XorShiftCipher, ecb_transform,
                     make_cipher, require_invertible)
from .aes import AES128
from .ctr import CounterModeEngine, xor_bytes

__all__ = [
    "AES128",
    "BlockCipher",
    "CounterModeEngine",
    "NullCipher",
    "XorShiftCipher",
    "ecb_transform",
    "make_cipher",
    "require_invertible",
    "xor_bytes",
]
