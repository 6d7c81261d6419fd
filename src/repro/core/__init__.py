"""The paper's primary contribution: secure NVMM controllers.

* :mod:`repro.core.iv` — IV layout and packed per-page counter blocks
  (one 64-bit major counter + sixty-four 7-bit minor counters per 64 B).
* :mod:`repro.core.secure_memory` — baseline counter-mode encrypted NVMM
  controller (DEUCE-style substrate from section 2.2).
* :mod:`repro.core.shredder` — the Silent Shredder controller: the MMIO
  shred register, zero-write shredding, and zero-fill reads of shredded
  blocks.
* :mod:`repro.core.policies` — the three IV-manipulation design options
  of section 4.2 (ablation).
"""

from .iv import IVLayout, CounterBlock
from .secure_memory import SecureMemoryController
from .shredder import SilentShredderController, ShredRegister
from .deuce import DeuceShredderController
from .direct import DirectEncryptionController
from .invmm import INVMMController
from .policies import (
    ShredPolicy,
    IncrementMinorsPolicy,
    IncrementMajorPolicy,
    MajorResetMinorsPolicy,
    make_policy,
)

__all__ = [
    "CounterBlock",
    "DeuceShredderController",
    "DirectEncryptionController",
    "INVMMController",
    "IVLayout",
    "IncrementMajorPolicy",
    "IncrementMinorsPolicy",
    "MajorResetMinorsPolicy",
    "SecureMemoryController",
    "ShredPolicy",
    "ShredRegister",
    "SilentShredderController",
    "make_policy",
]
