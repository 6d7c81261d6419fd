"""Flat-array kernels behind the vector engine seam.

The bulk hierarchy walk (:meth:`repro.cache.hierarchy.CacheHierarchy.
access_many`) and the batch engine's epoch passes spend a measurable
share of their time on embarrassingly data-parallel integer sweeps:
block alignment, page-id derivation, and run-boundary detection over an
epoch's parallel arrays. This module packages those sweeps as kernel
objects with two interchangeable implementations:

* :class:`PyKernel` — pure stdlib loops; always available
  (``dependencies = []`` stays empty).
* :class:`NumpyKernel` — the same sweeps vectorised over ``int64``
  views of the batch's ``array('q')``/``array('b')`` buffers, selected
  automatically when numpy is importable.

Both kernels are **integer-only** and return plain Python lists (one
bulk ``.tolist()`` — element-wise indexing into numpy arrays is slower
than a list), so their outputs are bit-for-bit identical and the
simulated reports cannot depend on which backend ran. numpy is never
required: :func:`resolve_kernel` falls back to :class:`PyKernel`, and
the ``"numpy"`` spec raises :class:`~repro.errors.ExperimentError`
when the import is unavailable rather than degrading silently. numpy is
imported on first use, so importing :mod:`repro.sim` never loads it.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..errors import ExperimentError

#: numpy once :func:`_numpy` has looked for it (``None`` if absent).
_UNLOADED: Any = object()
_np: Any = _UNLOADED

#: Kernel specs accepted by :func:`resolve_kernel` (and the
#: ``vector[:KERNEL]`` engine grammar).
KERNEL_SPECS = ("auto", "numpy", "py")


def _numpy() -> Any:
    """numpy, imported on the first call; ``None`` when unavailable."""
    global _np
    if _np is _UNLOADED:
        try:                            # optional, never required
            import numpy as _np
        except ImportError:             # pragma: no cover - env dependent
            _np = None
    return _np


def numpy_available() -> bool:
    """Whether the numpy kernel backend can be used in this process."""
    return _numpy() is not None


class PyKernel:
    """Pure-Python kernel: stdlib loops over the parallel arrays."""

    name = "py"

    def align_blocks(self, addresses: Sequence[int],
                     block_size: int) -> List[int]:
        """Block-align every address (``a - a % block_size``)."""
        return [a - a % block_size for a in addresses]

    def page_ids(self, addresses: Sequence[int],
                 page_size: int) -> List[int]:
        """Page id (``a // page_size``) for every address."""
        return [a // page_size for a in addresses]

    def run_bounds(self, cores: Sequence[int], addresses: Sequence[int],
                   is_writes: Sequence[Any]) -> List[int]:
        """Start indices of maximal runs of identical ``(core, address,
        op)`` triples, with the stream length appended — the segment
        list the bulk walk collapses."""
        n = len(addresses)
        if n == 0:
            return [0]
        bounds = [0]
        prev_core = cores[0]
        prev_addr = addresses[0]
        prev_w = bool(is_writes[0])
        for i in range(1, n):
            w = bool(is_writes[i])
            if (addresses[i] != prev_addr or cores[i] != prev_core
                    or w != prev_w):
                bounds.append(i)
                prev_core, prev_addr, prev_w = cores[i], addresses[i], w
        bounds.append(n)
        return bounds


class NumpyKernel:
    """numpy kernel: the same integer sweeps, vectorised."""

    name = "numpy"

    def __init__(self) -> None:
        self._np = _numpy()
        if self._np is None:
            raise ExperimentError(
                "the numpy kernel was requested but numpy is not "
                "importable; install numpy or use the 'py' kernel")

    def _as_int64(self, values: Sequence[int]):
        # array('q') / array('b') expose the buffer protocol, so this is
        # zero-copy for the batch's native storage.
        return self._np.asarray(values, dtype=self._np.int64)

    def align_blocks(self, addresses: Sequence[int],
                     block_size: int) -> List[int]:
        addrs = self._as_int64(addresses)
        return (addrs - addrs % block_size).tolist()

    def page_ids(self, addresses: Sequence[int],
                 page_size: int) -> List[int]:
        return (self._as_int64(addresses) // page_size).tolist()

    def run_bounds(self, cores: Sequence[int], addresses: Sequence[int],
                   is_writes: Sequence[Any]) -> List[int]:
        n = len(addresses)
        if n == 0:
            return [0]
        addrs = self._as_int64(addresses)
        core_ids = self._as_int64(cores)
        ws = self._np.asarray(is_writes) != 0
        change = ((addrs[1:] != addrs[:-1])
                  | (core_ids[1:] != core_ids[:-1])
                  | (ws[1:] != ws[:-1]))
        bounds = [0]
        bounds.extend((self._np.flatnonzero(change) + 1).tolist())
        bounds.append(n)
        return bounds


def resolve_kernel(spec: str = "auto"):
    """Build the kernel for a ``vector[:KERNEL]`` engine spec.

    ``"auto"`` picks numpy when importable and falls back to the pure-
    Python kernel; ``"numpy"`` and ``"py"`` force a backend (``"numpy"``
    raises :class:`~repro.errors.ExperimentError` when unavailable).
    """
    if spec == "auto":
        return NumpyKernel() if numpy_available() else PyKernel()
    if spec == "numpy":
        return NumpyKernel()
    if spec == "py":
        return PyKernel()
    raise ExperimentError(f"unknown vector kernel {spec!r} (expected one "
                          f"of {', '.join(KERNEL_SPECS)})")
