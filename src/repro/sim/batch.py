"""Epoch-batched access-stream engine: the vectorised sim hot path.

The scalar API drives the controller one access at a time —
``fetch_block``/``store_block`` per LLC miss or write-back — each call
paying a counter-cache probe, per-access stats bookkeeping and Python
call overhead. Real miss streams are bursty and page-local, so the
batch engine re-expresses the hot path over an :class:`AccessBatch`
(structured parallel arrays of address / op / epoch), processed one
epoch at a time in passes:

1. **page-id derivation** for the whole epoch in one sweep,
2. **run segmentation**: consecutive accesses to the same page form a
   segment; only the segment's first access pays a real counter-cache
   probe — the rest are guaranteed hits (the line cannot be evicted
   between same-page probes) and are accounted in bulk through
   :meth:`~repro.cache.counter_cache.CounterCache.record_hits`,
3. **grouped pad generation** for the segment's reads through the
   pluggable cipher seam
   (:meth:`~repro.crypto.CounterModeEngine.decrypt_many`),
4. **bulk stat publication**: uniform zero-fill runs land in the
   ``mem.ctrl.read_latency_ns`` histogram via one ``observe_many``
   instead of per-access updates.

Equivalence is the contract: for any batch, :class:`BatchEngine`
produces identical controller / device / channel statistics (and,
functionally, identical data) to :class:`ScalarEngine` replaying the
same accesses. NVM commands are still issued per access in original
order because the channel model is order-dependent. All per-access
model latencies are dyadic rationals (integer cycle counts times a
dyadic ``cycle_ns``), so bulk accounting (``k * latency``) is float-
exact against ``k`` scalar additions. Controllers that override the
datapath (DEUCE, direct encryption, i-NVMM) fall back to the scalar
loop transparently.

A batch with a ``cores`` array selects the **hierarchy datapath**: the
stream is issued from the given cores through the full L1-L4 cache
hierarchy (coherence, inclusion, writebacks) instead of straight at
the controller. The scalar engine replays it through
:meth:`~repro.cache.hierarchy.CacheHierarchy.access`; the batch and
vector engines drive the bulk walk
(:meth:`~repro.cache.hierarchy.CacheHierarchy.access_many`) one
epoch-segment at a time, with :class:`HierarchyMissPort` sitting on
the memory boundary to defer and coalesce the accounting of zero-fill
(shredded) read runs exactly as the controller-mode engine does.
Latency is accumulated in integer cycles and converted once, so the
per-engine totals are float-identical by construction.

:class:`VectorEngine` (``engine="vector"``, grammar
``vector[:numpy|:py]``) layers :mod:`repro.sim.kernels` over the batch
engine: the data-parallel sweeps (page ids, block alignment, run
boundaries) run through a pluggable flat-array kernel — numpy when
importable, a report-identical pure-Python fallback otherwise.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.secure_memory import SecureMemoryController
from ..errors import AddressError, ExperimentError, SimulationError
from .kernels import KERNEL_SPECS, resolve_kernel

#: Access opcodes carried in :attr:`AccessBatch.ops`.
OP_READ = 0
OP_WRITE = 1
OP_SHRED = 2

_VALID_OPS = (OP_READ, OP_WRITE, OP_SHRED)
OP_NAMES = {OP_READ: "read", OP_WRITE: "write", OP_SHRED: "shred"}

#: Simulated nanoseconds between epoch starts (dyadic: exact in floats).
DEFAULT_EPOCH_NS = 1024.0

#: Engine kinds accepted by :func:`make_engine` and ``System(engine=...)``.
ENGINE_KINDS = ("scalar", "batch", "vector")


def parse_engine_spec(spec: str) -> Tuple[str, str]:
    """Split an engine spec into ``(kind, kernel)``.

    Accepted grammar: ``"scalar"``, ``"batch"``, ``"vector"``,
    ``"vector:numpy"``, ``"vector:py"`` (bare ``vector`` means
    ``vector:auto``). Raises :class:`~repro.errors.ExperimentError`
    naming the valid kinds for anything else.
    """
    if not isinstance(spec, str):
        raise ExperimentError(f"engine spec must be a string, got "
                              f"{type(spec).__name__}")
    kind, sep, kernel = spec.partition(":")
    if kind not in ENGINE_KINDS:
        raise ExperimentError(
            f"unknown access engine {spec!r} (expected one of "
            f"{', '.join(ENGINE_KINDS)}; 'vector' also accepts a kernel "
            "suffix: 'vector:numpy' or 'vector:py')")
    if not sep:
        return kind, "auto"
    if kind != "vector":
        raise ExperimentError(
            f"engine {kind!r} does not take a kernel suffix (only "
            "'vector:numpy' / 'vector:py')")
    if kernel not in KERNEL_SPECS:
        raise ExperimentError(
            f"unknown vector kernel {kernel!r} in engine spec {spec!r} "
            f"(expected one of {', '.join(KERNEL_SPECS)})")
    return kind, kernel


def pattern_block(address: int, block_size: int) -> bytes:
    """Deterministic per-address payload for functional batched stores."""
    word = (address & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    repeats, tail = divmod(block_size, 8)
    return word * repeats + word[:tail]


@dataclass
class AccessBatch:
    """A stream of memory accesses as structured parallel arrays.

    ``addresses[i]`` is the block-aligned physical address (for
    :data:`OP_SHRED`, any address inside the target page), ``ops[i]``
    one of :data:`OP_READ`/:data:`OP_WRITE`/:data:`OP_SHRED`, and
    ``epochs[i]`` a non-decreasing epoch id — all accesses of an epoch
    issue at the same simulated time, one ``epoch_ns`` apart.

    ``data`` optionally carries explicit write payloads (parallel to
    the arrays, ``None`` for non-writes); with ``patterned=True``
    functional stores instead derive a deterministic payload from the
    address via :func:`pattern_block`.

    ``cores`` (optional, parallel) selects the hierarchy datapath: each
    access issues from that core through the L1-L4 caches instead of
    straight at the controller (engines then require an attached
    hierarchy; see :func:`make_engine`).
    """

    addresses: array
    ops: array
    epochs: array
    data: Optional[List[Optional[bytes]]] = None
    patterned: bool = True
    cores: Optional[array] = None

    def __post_init__(self) -> None:
        self.addresses = array("q", self.addresses)
        self.ops = array("b", self.ops)
        self.epochs = array("q", self.epochs)
        n = len(self.addresses)
        if len(self.ops) != n or len(self.epochs) != n:
            raise SimulationError(
                f"AccessBatch arrays disagree on length: {n} addresses, "
                f"{len(self.ops)} ops, {len(self.epochs)} epochs")
        if self.data is not None and len(self.data) != n:
            raise SimulationError(
                f"AccessBatch data payloads ({len(self.data)}) do not "
                f"match {n} accesses")
        if self.cores is not None:
            self.cores = array("q", self.cores)
            if len(self.cores) != n:
                raise SimulationError(
                    f"AccessBatch cores ({len(self.cores)}) do not match "
                    f"{n} accesses")
            for i, core in enumerate(self.cores):
                if core < 0:
                    raise SimulationError(f"AccessBatch core at index {i} "
                                          "is negative")
        previous = None
        for i in range(n):
            if self.ops[i] not in _VALID_OPS:
                raise SimulationError(f"AccessBatch op {self.ops[i]} at "
                                      f"index {i} is not a valid opcode")
            if self.addresses[i] < 0:
                raise SimulationError(f"AccessBatch address at index {i} "
                                      "is negative")
            epoch = self.epochs[i]
            if previous is not None and epoch < previous:
                raise SimulationError("AccessBatch epochs must be "
                                      f"non-decreasing (index {i})")
            previous = epoch

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def num_epochs(self) -> int:
        return (self.epochs[-1] + 1) if len(self.epochs) else 0

    def payload(self, index: int, block_size: int) -> Optional[bytes]:
        """The functional write payload for access ``index``."""
        if self.data is not None and self.data[index] is not None:
            return self.data[index]
        if self.patterned:
            return pattern_block(self.addresses[index], block_size)
        return None

    def epoch_slices(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(epoch, start, stop)`` for each occupied epoch."""
        n = len(self.addresses)
        start = 0
        while start < n:
            epoch = self.epochs[start]
            stop = start + 1
            while stop < n and self.epochs[stop] == epoch:
                stop += 1
            yield epoch, start, stop
            start = stop

    # -- builders ---------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Iterable[Tuple[int, int]], *,
                   epoch_length: int = 256, patterned: bool = True,
                   cores: Optional[Sequence[int]] = None) -> "AccessBatch":
        """Build a batch from ``(address, op)`` pairs, assigning epochs
        every ``epoch_length`` accesses. ``cores`` (parallel to the
        trace) selects the hierarchy datapath."""
        if epoch_length <= 0:
            raise SimulationError("epoch_length must be positive")
        addresses = array("q")
        ops = array("b")
        epochs = array("q")
        for i, (address, op) in enumerate(trace):
            addresses.append(address)
            ops.append(op)
            epochs.append(i // epoch_length)
        core_array = array("q", cores) if cores is not None else None
        return cls(addresses, ops, epochs, patterned=patterned,
                   cores=core_array)

    @classmethod
    def synthetic(cls, num_accesses: int, *, num_pages: int,
                  page_size: int = 4096, block_size: int = 64,
                  read_fraction: float = 0.7, shred_fraction: float = 0.0,
                  locality: float = 0.85, epoch_length: int = 256,
                  seed: int = 1234, patterned: bool = True,
                  num_cores: Optional[int] = None,
                  burst: int = 1) -> "AccessBatch":
        """Deterministic synthetic stream with tunable page locality.

        ``locality`` is the probability the next access stays on the
        current page (high locality produces the page-local runs the
        batch engine exploits; low locality with ``num_pages`` above
        the counter-cache capacity produces a counter-cold stream).
        ``shred_fraction`` injects page shreds (requires a shredder
        controller to execute). ``num_cores`` adds a cores array (the
        hierarchy datapath) with per-page-run core affinity, drawn from
        an independent seeded stream so the address/op sequence is
        unchanged from the controller-mode batch. ``burst`` repeats
        each generated data access back-to-back (temporal reuse of one
        block, the runs the bulk hierarchy walk collapses); the random
        draws per generated access are unchanged, so ``burst=1``
        reproduces the historical stream exactly.
        """
        if num_pages <= 0:
            raise SimulationError("synthetic batch needs at least one page")
        if burst < 1:
            raise SimulationError("synthetic batch burst must be >= 1")
        rng = random.Random(seed)
        blocks_per_page = page_size // block_size
        trace: List[Tuple[int, int]] = []
        jumps: List[bool] = []
        page = 0
        while len(trace) < num_accesses:
            jumped = rng.random() >= locality
            if jumped:
                page = rng.randrange(num_pages)
            if shred_fraction > 0.0 and rng.random() < shred_fraction:
                trace.append((page * page_size, OP_SHRED))
                jumps.append(jumped)
                continue
            address = page * page_size + rng.randrange(blocks_per_page) * block_size
            op = OP_READ if rng.random() < read_fraction else OP_WRITE
            for repeat in range(min(burst, num_accesses - len(trace))):
                trace.append((address, op))
                jumps.append(jumped if repeat == 0 else False)
        cores: Optional[List[int]] = None
        if num_cores is not None:
            if num_cores <= 0:
                raise SimulationError("synthetic batch needs at least "
                                      "one core")
            core_rng = random.Random(seed ^ 0x5EED)
            core = 0
            cores = []
            for jumped in jumps:
                if jumped:
                    core = core_rng.randrange(num_cores)
                cores.append(core)
        return cls.from_trace(trace, epoch_length=epoch_length,
                              patterned=patterned, cores=cores)


@dataclass
class EngineResult:
    """Aggregate outcome of one engine run over a batch."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    shreds: int = 0
    zero_fill_reads: int = 0
    reencryptions: int = 0
    total_latency_ns: float = 0.0
    epochs: int = 0
    #: Page-run segments processed (batch engine only; 0 for scalar).
    segments: int = 0
    #: Counter-cache probes elided via bulk hit accounting (batch only).
    bulk_hits: int = 0
    #: True when the batch engine fell back to the scalar loop because
    #: the controller overrides the baseline datapath.
    fallback: bool = False
    #: Bulk-walk counters for hierarchy-mode batch/vector runs
    #: (``runs``/``collapsed``/``fast_hits``/``slow_path``/
    #: ``zero_elided``); ``None`` otherwise. These feed the
    #: ``cache.bulk.*`` bench metrics.
    bulk: Optional[dict] = None
    #: Read outputs in stream order (``collect_data=True`` only).
    data: Optional[List[Optional[bytes]]] = None

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "data"}
        return out


class HierarchyMissPort:
    """The memory boundary of the bulk hierarchy walk.

    Sits between :meth:`CacheHierarchy.access_many` and the secure
    controller. Normal LLC misses and writebacks pass straight through
    to ``fetch_block``/``store_block``; what the port adds is the same
    probe elision the controller-mode batch engine performs: once a
    real fetch has made a page's counter line resident, subsequent
    zero-fill (shredded) fetches of *that page* are served inline —
    counter-hit latency, zero block — and their accounting is deferred
    and coalesced into one bulk update.

    The deferral window closes (``flush``) before **any** real
    controller entry — a fetch of another page, a non-zero fetch, a
    writeback, a shred — because any of those may evict the counter
    line whose residence the deferred ``record_hits`` requires. Within
    a window no controller state is read or written, so the flushed
    totals land exactly where the scalar walk would have put them.
    """

    def __init__(self, controller: SecureMemoryController) -> None:
        self.ctl = controller
        self._cc = controller.counter_cache
        self._page_size = controller.page_size
        self._offset_of = controller.offset_of
        self._zero = controller.zero_semantics
        self._hit_latency = controller._counter_latency_ns
        self._zero_data = (controller._zero_block if controller.functional
                           else None)
        self._page = -1        # page whose counter line is known resident
        self._pending = 0      # deferred zero-fill fetches on that page
        self._pending_start = 0.0   # sim time the deferral window opened
        self.zero_elided = 0   # total controller probes elided (metric)

    def fetch(self, address: int, now_ns: float) -> Tuple[float, bool,
                                                          Optional[bytes]]:
        """Serve one LLC miss; returns ``(latency_ns, zero_filled,
        data)`` exactly as ``fetch_block`` would."""
        ctl = self.ctl
        page = address // self._page_size
        if page == self._page and self._zero:
            ctl._check_data_address(address)
            counters = self._cc.peek(page)
            if counters is not None and counters.is_shredded(
                    self._offset_of(address)):
                if not self._pending:
                    self._pending_start = now_ns
                self._pending += 1
                self.zero_elided += 1
                return self._hit_latency, True, self._zero_data
        self.flush()
        access = ctl.fetch_block(address, now_ns)
        self._page = page
        return access.latency_ns, access.zero_filled, access.data

    def writeback(self, address: int, payload: Optional[bytes],
                  now_ns: float) -> None:
        """Route a dirty L4 victim to the controller (closing the
        deferral window first — the store may evict the counter line)."""
        self.flush()
        self._page = -1
        self.ctl.store_block(address, payload, now_ns)

    def flush(self) -> None:
        """Publish the deferred zero-fill run's accounting in bulk."""
        count = self._pending
        if not count:
            return
        self._pending = 0
        ctl = self.ctl
        if ctl.events is not None:
            # One bulk emission for the run; the recorder coalesces it
            # with the window-opening fetch's event (same kind/page), so
            # the log matches the scalar walk's per-access emissions.
            ctl.events.emit("zero_fill", self._page, self._pending_start,
                            count=count)
        stats = ctl.stats
        latency = self._hit_latency
        stats.counter_hits += count
        self._cc.record_hits(self._page, count)
        stats.zero_fill_reads += count
        stats.record_read(latency, count)

    def close(self) -> None:
        """Flush and invalidate the window (before shreds / at end)."""
        self.flush()
        self._page = -1


class AccessEngine:
    """Common machinery for the scalar, batch and vector engines."""

    kind = "scalar"

    def __init__(self, controller: SecureMemoryController, *,
                 hierarchy=None, shred_register=None, metrics=None) -> None:
        self.controller = controller
        self.hierarchy = hierarchy
        self.shred_register = shred_register
        self.metrics = metrics

    def run(self, batch: AccessBatch, *, epoch_ns: float = DEFAULT_EPOCH_NS,
            collect_data: bool = False) -> EngineResult:
        raise NotImplementedError

    def _require_hierarchy(self):
        if self.hierarchy is None:
            raise SimulationError(
                "batch carries a cores array (hierarchy datapath) but the "
                "engine has no attached cache hierarchy; build it through "
                "System.access_engine() or pass hierarchy= to make_engine")
        return self.hierarchy

    def _shred(self, address: int, now: float):
        ctl = self.controller
        shred = getattr(ctl, "shred_page", None)
        if shred is None:
            raise SimulationError(
                f"{type(ctl).__name__} has no shred datapath; remove "
                "OP_SHRED accesses or use a shredder controller")
        return shred(address // ctl.page_size, now)

    def _shred_hierarchy(self, address: int, now: float):
        """OP_SHRED on the hierarchy datapath: the full MMIO register
        path (cache invalidation + counter update + MMIO latency).
        Both engines share this helper, so equivalence is structural."""
        register = self.shred_register
        if register is None:
            raise SimulationError(
                "hierarchy batch contains OP_SHRED but no shred register "
                "is attached; use a shredder system or drop the shreds")
        page_size = self.controller.page_size
        return register.write(address - address % page_size,
                              kernel_mode=True, now_ns=now)

    def _publish(self, result: EngineResult) -> None:
        """Bulk-publish the run's totals into the metrics registry.

        Both engines publish the same instruments with the same values
        for equivalent batches, so metrics snapshots stay engine-
        agnostic (the equivalence contract covers them too).
        """
        if self.metrics is None:
            return
        for name, value in (("sim.engine.accesses", result.accesses),
                            ("sim.engine.reads", result.reads),
                            ("sim.engine.writes", result.writes),
                            ("sim.engine.shreds", result.shreds)):
            if value:
                self.metrics.counter(name, unit="ops").inc(value)

    def _finish(self, batch: AccessBatch, result: EngineResult,
                base: float, epoch_ns: float) -> EngineResult:
        result.accesses = len(batch)
        result.epochs = batch.num_epochs
        self.controller.clock.advance_to(base + batch.num_epochs * epoch_ns)
        self._publish(result)
        return result


class ScalarEngine(AccessEngine):
    """Reference engine: the per-access API replayed one call at a time."""

    kind = "scalar"

    def run(self, batch: AccessBatch, *, epoch_ns: float = DEFAULT_EPOCH_NS,
            collect_data: bool = False) -> EngineResult:
        if batch.cores is not None:
            return self._run_hierarchy(batch, epoch_ns=epoch_ns,
                                       collect_data=collect_data)
        ctl = self.controller
        base = ctl.clock.now_ns
        functional = ctl.functional
        block_size = ctl.block_size
        result = EngineResult()
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        addresses, ops, epochs = batch.addresses, batch.ops, batch.epochs
        for i in range(len(batch)):
            now = base + epochs[i] * epoch_ns
            op = ops[i]
            if op == OP_READ:
                access = ctl.fetch_block(addresses[i], now)
                result.reads += 1
                if access.zero_filled:
                    result.zero_fill_reads += 1
                result.total_latency_ns += access.latency_ns
                if outputs is not None:
                    outputs.append(access.data)
            elif op == OP_WRITE:
                data = batch.payload(i, block_size) if functional else None
                access = ctl.store_block(addresses[i], data, now)
                result.writes += 1
                if access.reencrypted:
                    result.reencryptions += 1
                result.total_latency_ns += access.latency_ns
            else:
                outcome = self._shred(addresses[i], now)
                result.shreds += 1
                result.total_latency_ns += outcome.latency_ns
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)

    def _run_hierarchy(self, batch: AccessBatch, *, epoch_ns: float,
                       collect_data: bool) -> EngineResult:
        """Hierarchy datapath, one ``CacheHierarchy.access`` per access.

        Latency is accumulated in integer cycles and converted once
        (``cycle_ns`` is dyadic, so the product is exact), with shred
        latencies summed separately in stream order — the bulk engines
        mirror this accumulation structure so the float totals are
        identical, not merely close.
        """
        hierarchy = self._require_hierarchy()
        ctl = self.controller
        base = ctl.clock.now_ns
        cycle_ns = ctl.config.cpu.cycle_ns
        functional = ctl.functional
        block_size = ctl.block_size
        result = EngineResult()
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        cores, addresses = batch.cores, batch.addresses
        ops, epochs = batch.ops, batch.epochs
        reencrypt_base = ctl.stats.reencryptions
        total_cycles = 0
        shred_ns = 0.0
        for i in range(len(batch)):
            now = base + epochs[i] * epoch_ns
            op = ops[i]
            if op == OP_SHRED:
                outcome = self._shred_hierarchy(addresses[i], now)
                result.shreds += 1
                shred_ns += outcome.latency_ns
                continue
            is_write = op == OP_WRITE
            data = (batch.payload(i, block_size)
                    if is_write and functional else None)
            access = hierarchy.access(cores[i], addresses[i], is_write,
                                      data=data, now_ns=now)
            total_cycles += access.latency_cycles
            if access.hit_level == "ZERO":
                result.zero_fill_reads += 1
            if is_write:
                result.writes += 1
            else:
                result.reads += 1
                if outputs is not None:
                    outputs.append(access.data)
        result.reencryptions = ctl.stats.reencryptions - reencrypt_base
        result.total_latency_ns = total_cycles * cycle_ns + shred_ns
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)


class BatchEngine(AccessEngine):
    """Vectorised engine: probe-eliding, pad-grouping epoch processing."""

    kind = "batch"

    #: Kernel driving the data-parallel sweeps; ``None`` uses inline
    #: loops (the vector engine plugs a :mod:`repro.sim.kernels` object
    #: in here).
    kernel = None

    def run(self, batch: AccessBatch, *, epoch_ns: float = DEFAULT_EPOCH_NS,
            collect_data: bool = False) -> EngineResult:
        ctl = self.controller
        if (type(ctl).fetch_block is not SecureMemoryController.fetch_block
                or type(ctl).store_block
                is not SecureMemoryController.store_block):
            # Overridden datapath (DEUCE / direct / i-NVMM): the inline
            # fast path below would bypass the subclass semantics, so
            # replay access-equivalently through the scalar loop.
            result = ScalarEngine(ctl, hierarchy=self.hierarchy,
                                  shred_register=self.shred_register,
                                  metrics=self.metrics).run(
                batch, epoch_ns=epoch_ns, collect_data=collect_data)
            result.fallback = True
            return result
        if batch.cores is not None:
            return self._run_hierarchy_bulk(batch, epoch_ns=epoch_ns,
                                            collect_data=collect_data)

        base = ctl.clock.now_ns
        result = EngineResult()
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        for epoch, start, stop in batch.epoch_slices():
            now = base + epoch * epoch_ns
            self._run_epoch(batch, start, stop, now, result, outputs)
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)

    # -- the hierarchy datapath -------------------------------------------

    def _run_hierarchy_bulk(self, batch: AccessBatch, *, epoch_ns: float,
                            collect_data: bool) -> EngineResult:
        """Hierarchy datapath through the bulk walk, one epoch-segment
        per ``access_many`` call, shreds standing alone between them."""
        hierarchy = self._require_hierarchy()
        ctl = self.controller
        base = ctl.clock.now_ns
        cycle_ns = ctl.config.cpu.cycle_ns
        functional = ctl.functional
        block_size = ctl.block_size
        result = EngineResult()
        bulk_totals = {"runs": 0, "collapsed": 0, "fast_hits": 0,
                       "slow_path": 0, "zero_elided": 0}
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        port = HierarchyMissPort(ctl)
        reencrypt_base = ctl.stats.reencryptions
        total_cycles = 0
        shred_ns = 0.0
        cores, addresses, ops = batch.cores, batch.addresses, batch.ops
        payload = batch.payload
        kernel = self.kernel
        for epoch, start, stop in batch.epoch_slices():
            now = base + epoch * epoch_ns
            i = start
            while i < stop:
                if ops[i] == OP_SHRED:
                    # The register path enters the controller: close the
                    # port's deferral window first.
                    port.close()
                    outcome = self._shred_hierarchy(addresses[i], now)
                    result.shreds += 1
                    shred_ns += outcome.latency_ns
                    i += 1
                    continue
                j = i + 1
                while j < stop and ops[j] != OP_SHRED:
                    j += 1
                payloads = None
                if functional:
                    payloads = [payload(k, block_size)
                                if ops[k] == OP_WRITE else None
                                for k in range(i, j)]
                bulk = hierarchy.access_many(
                    cores[i:j], addresses[i:j], ops[i:j], now,
                    payloads=payloads, collect_data=collect_data,
                    kernel=kernel, port=port)
                total_cycles += bulk.latency_cycles
                result.reads += bulk.reads
                result.writes += bulk.writes
                result.zero_fill_reads += bulk.zero_fills
                result.segments += bulk.runs
                result.bulk_hits += bulk.collapsed
                bulk_totals["runs"] += bulk.runs
                bulk_totals["collapsed"] += bulk.collapsed
                bulk_totals["fast_hits"] += bulk.fast_hits
                bulk_totals["slow_path"] += bulk.slow_path
                if outputs is not None and bulk.data:
                    outputs.extend(bulk.data)
                i = j
        port.close()
        bulk_totals["zero_elided"] = port.zero_elided
        result.bulk = bulk_totals
        result.reencryptions = ctl.stats.reencryptions - reencrypt_base
        result.total_latency_ns = total_cycles * cycle_ns + shred_ns
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)

    # -- epoch passes -----------------------------------------------------

    def _page_ids(self, addresses: array, start: int, stop: int,
                  page_size: int) -> List[int]:
        """Page ids for one epoch slice (the vector engine overrides
        this with a kernel sweep)."""
        return [addresses[i] // page_size for i in range(start, stop)]

    def _run_epoch(self, batch: AccessBatch, start: int, stop: int,
                   now: float, result: EngineResult,
                   outputs: Optional[List[Optional[bytes]]]) -> None:
        ctl = self.controller
        addresses, ops = batch.addresses, batch.ops
        page_size = ctl.page_size
        # Pass 1: page ids for the whole epoch.
        pages = self._page_ids(addresses, start, stop, page_size)
        # Pass 2: segment into same-page runs; shreds stand alone.
        i = start
        while i < stop:
            if ops[i] == OP_SHRED:
                outcome = self._shred(addresses[i], now)
                result.shreds += 1
                result.total_latency_ns += outcome.latency_ns
                i += 1
                continue
            page_id = pages[i - start]
            j = i + 1
            while (j < stop and pages[j - start] == page_id
                   and ops[j] != OP_SHRED):
                j += 1
            self._run_segment(batch, i, j, page_id, now, result, outputs)
            result.segments += 1
            i = j

    def _run_segment(self, batch: AccessBatch, start: int, stop: int,
                     page_id: int, now: float, result: EngineResult,
                     outputs: Optional[List[Optional[bytes]]]) -> None:
        """One same-page run: real probe first, inline fast path after."""
        ctl = self.controller
        block_size = ctl.block_size
        functional = ctl.functional

        # First access takes the full scalar path (real counter-cache
        # probe, miss handling, dirty-eviction persistence, ...).
        first_op = batch.ops[start]
        address = batch.addresses[start]
        if first_op == OP_READ:
            access = ctl.fetch_block(address, now)
            result.reads += 1
            if access.zero_filled:
                result.zero_fill_reads += 1
            result.total_latency_ns += access.latency_ns
            if outputs is not None:
                outputs.append(access.data)
        else:
            data = batch.payload(start, block_size) if functional else None
            access = ctl.store_block(address, data, now)
            result.writes += 1
            if access.reencrypted:
                result.reencryptions += 1
            result.total_latency_ns += access.latency_ns
        if stop - start == 1:
            return

        # The page's counter line is now resident and cannot be evicted
        # by anything this segment does (every probe targets the same
        # line), so the remaining accesses are guaranteed hits: elide
        # their probes and account them in bulk at the end.
        counters = ctl.counter_cache.peek(page_id)
        if counters is None:
            raise SimulationError(
                f"page {page_id} counters not resident after segment head")
        stats = ctl.stats
        hit_latency = ctl._counter_latency_ns
        pad_ns = ctl._pad_latency_ns
        xor_ns = ctl._xor_latency_ns
        encrypted = ctl.encrypted
        zero_semantics = ctl.zero_semantics

        zero_run = 0                 # consecutive zero-fill reads pending
        pending_blocks: List[bytes] = []   # ciphertexts awaiting decrypt
        pending_ivs: List[bytes] = []
        pending_slots: List[Optional[int]] = []

        def flush_zero_run() -> None:
            nonlocal zero_run
            if not zero_run:
                return
            if ctl.events is not None:
                # Every access in the run shares this epoch's ``now``,
                # so one bulk emission coalesces exactly like the
                # scalar engine's per-access zero_fill events.
                ctl.events.emit("zero_fill", page_id, now, count=zero_run)
            stats.zero_fill_reads += zero_run
            stats.record_read(hit_latency, zero_run)
            result.reads += zero_run
            result.zero_fill_reads += zero_run
            result.total_latency_ns += zero_run * hit_latency
            if outputs is not None:
                fill = ctl._zero_block if functional else None
                outputs.extend([fill] * zero_run)
            zero_run = 0

        for index in range(start + 1, stop):
            address = batch.addresses[index]
            ctl._check_data_address(address)
            offset = ctl.offset_of(address)
            if batch.ops[index] == OP_READ:
                if zero_semantics and counters.is_shredded(offset):
                    zero_run += 1
                    continue
                flush_zero_run()
                access = ctl.mem.read_block(address, now + hit_latency)
                stats.data_reads += 1
                latency = (hit_latency
                           + max(access.latency_ns, pad_ns) + xor_ns)
                stats.record_read(latency)
                result.reads += 1
                result.total_latency_ns += latency
                if functional:
                    if encrypted:
                        # IVs snapshot the counters *now*; pad generation
                        # is deferred and grouped at segment end.
                        pending_blocks.append(access.data)
                        pending_ivs.append(ctl._iv(page_id, offset, counters))
                        if outputs is not None:
                            pending_slots.append(len(outputs))
                            outputs.append(None)
                        else:
                            pending_slots.append(None)
                    elif outputs is not None:
                        outputs.append(access.data)
                elif outputs is not None:
                    outputs.append(None)
            else:
                flush_zero_run()
                data = batch.payload(index, block_size) if functional else None
                if functional and (data is None or len(data) != block_size):
                    raise AddressError(
                        "functional store requires a full data block")
                if ctl.events is not None and zero_semantics \
                        and counters.is_shredded(offset):
                    # Mirror of store_block's emission: the inline write
                    # path bypasses the controller entry point.
                    ctl.events.emit("shredded_writeback", page_id, now,
                                    block=offset)
                if counters.bump_minor(offset):
                    if ctl.events is not None:
                        ctl.events.emit("minor_overflow", page_id, now,
                                        block=offset)
                    latency = ctl._reencrypt_page(page_id, counters,
                                                  {offset: data}, now)
                    stats.reencryptions += 1
                    result.reencryptions += 1
                    result.writes += 1
                    result.total_latency_ns += hit_latency + latency
                    continue
                ciphertext = None
                if functional:
                    if encrypted:
                        iv = ctl._iv(page_id, offset, counters)
                        ciphertext = ctl.engine.encrypt(data, iv)
                    else:
                        ciphertext = data
                write_offset_ns = pad_ns + xor_ns
                access = ctl.mem.write_block(address, ciphertext,
                                             now + hit_latency
                                             + write_offset_ns)
                stats.data_writes += 1
                update_ns = ctl._counters_updated(page_id, counters, now)
                latency = (hit_latency + write_offset_ns
                           + access.latency_ns + update_ns)
                result.writes += 1
                result.total_latency_ns += latency

        flush_zero_run()
        if pending_blocks:
            plaintexts = ctl.engine.decrypt_many(pending_blocks, pending_ivs)
            if outputs is not None:
                for slot, plaintext in zip(pending_slots, plaintexts):
                    if slot is not None:
                        outputs[slot] = plaintext
        inline = stop - start - 1
        stats.counter_hits += inline
        ctl.counter_cache.record_hits(page_id, inline)
        result.bulk_hits += inline


class VectorEngine(BatchEngine):
    """Batch engine with the data-parallel sweeps behind a kernel seam.

    Identical control flow to :class:`BatchEngine`; the page-id pass
    and the bulk walk's alignment/run-boundary sweeps run through a
    :mod:`repro.sim.kernels` kernel — numpy when importable, the
    pure-Python fallback otherwise. Kernel choice cannot leak into any
    simulated result (both kernels return identical lists), so reports
    stay byte-identical across backends.
    """

    kind = "vector"

    def __init__(self, controller: SecureMemoryController, *,
                 hierarchy=None, shred_register=None, metrics=None,
                 kernel=None) -> None:
        super().__init__(controller, hierarchy=hierarchy,
                         shred_register=shred_register, metrics=metrics)
        self.kernel = kernel if kernel is not None else resolve_kernel("auto")

    def _page_ids(self, addresses: array, start: int, stop: int,
                  page_size: int) -> List[int]:
        return self.kernel.page_ids(addresses[start:stop], page_size)


def make_engine(kind: str, controller: SecureMemoryController, *,
                hierarchy=None, shred_register=None,
                metrics=None) -> AccessEngine:
    """Build an access-stream engine from an engine spec.

    ``kind`` follows the :func:`parse_engine_spec` grammar:
    ``"scalar"``, ``"batch"``, ``"vector"``, ``"vector:numpy"``,
    ``"vector:py"``. ``hierarchy``/``shred_register`` attach the cache
    datapath (required to run batches that carry a cores array).
    Unknown specs raise :class:`~repro.errors.ExperimentError` naming
    the valid kinds.
    """
    base_kind, kernel_spec = parse_engine_spec(kind)
    if base_kind == "scalar":
        return ScalarEngine(controller, hierarchy=hierarchy,
                            shred_register=shred_register, metrics=metrics)
    if base_kind == "batch":
        return BatchEngine(controller, hierarchy=hierarchy,
                           shred_register=shred_register, metrics=metrics)
    return VectorEngine(controller, hierarchy=hierarchy,
                        shred_register=shred_register, metrics=metrics,
                        kernel=resolve_kernel(kernel_spec))
