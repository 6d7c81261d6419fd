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
    (unknown workload kind, unserialisable parameter, bad batch)."""


class BackendError(ExperimentError):
    """An execution backend could not complete a batch.

    Raised when a distributed dispatch exhausts its retry budget for a
    task, when every worker has been declared dead with work still
    outstanding, or when a backend is misconfigured. Subclasses
    :class:`ExperimentError` so callers of :meth:`~repro.exec.Runner.run`
    keep a single exception family to catch.
    """


class WireProtocolError(BackendError):
    """A malformed, truncated, or oversized frame on the worker wire
    protocol (see :mod:`repro.exec.wire`)."""


class WireAuthError(WireProtocolError):
    """A frame failed HMAC authentication.

    Raised when a peer presents a frame without a valid signature on an
    authenticated connection (wrong shared key, no key, or a tampered
    payload), or when a keyfile is unusable. Subclasses
    :class:`WireProtocolError` so transport-level error handling treats
    an unauthenticated peer like any other protocol violation: drop the
    connection.
    """


class ClusterError(BackendError):
    """The experiment cluster could not serve a request.

    Raised by :class:`~repro.exec.cluster.ClusterBackend` and the admin
    helpers when the dispatcher rejects a connection (bad auth,
    draining), violates the session protocol, or disappears mid-batch.
    """
