"""Exception hierarchy for the Silent Shredder reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with one ``except`` clause while tests can assert
on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class AddressError(ReproError):
    """A physical or virtual address is out of range or misaligned."""


class AlignmentError(AddressError):
    """An address violates a required alignment (block or page)."""


class OutOfMemoryError(ReproError):
    """The physical page allocator has no free pages left."""


class PageFaultError(ReproError):
    """A virtual access could not be resolved (unmapped, wrong process)."""


class ProtectionError(ReproError):
    """A privileged operation was attempted from user mode.

    The paper (section 7.1) requires that the memory-mapped shred register
    only be writable from kernel mode; user-space attempts must raise an
    exception.
    """


class IntegrityError(ReproError):
    """Counter (IV) integrity verification failed.

    Raised by the Merkle tree when a counter block fetched from NVM does
    not match the authenticated root, i.e. tampering was detected.
    """


class EnduranceExceededError(ReproError):
    """A memory line exceeded its write-endurance budget (cell failure)."""


class CipherError(ReproError):
    """Bad key/block size or other cryptographic misuse."""


class CounterOverflowError(ReproError):
    """A counter overflowed where the model forbids it (internal bug guard)."""


class SimulationError(ReproError):
    """Generic full-system simulation error (inconsistent component state)."""


class ObservabilityError(ReproError):
    """Misuse of the telemetry layer (:mod:`repro.obs`): a malformed
    instrument name, a kind conflict on registration, a non-monotonic
    counter update, or snapshots that cannot be merged."""


class ExperimentError(ReproError):
    """An :class:`~repro.exec.Experiment` is malformed or cannot be run
    (unknown workload kind, unserialisable parameter, bad batch, a
    ``jobs`` count below 1)."""
