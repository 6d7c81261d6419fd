"""System: machine + kernel + cores + cooperative task scheduler.

The object workloads run against. Tasks are generator functions that
perform work through an :class:`~repro.runtime.ExecutionContext` and
``yield`` periodically; the scheduler always resumes the task whose
core clock is furthest behind, which interleaves the cores' traffic
through the shared caches and memory channels the way concurrent
execution would.

Ownership is a tree: no simulator component references its owner or
the metrics registry. The registry's collector is bound to the
machine, kernel, cores and event recorder (never the ``System``), so a
finished system is freed by reference counting as soon as its last
outside reference goes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

from ..config import SystemConfig, default_config
from ..core.policies import ShredPolicy
from ..cpu import Core
from ..errors import SimulationError
from ..kernel import Kernel
from ..obs import EventRecorder, MetricsRegistry
from ..obs.exporters import render_table
from ..runtime import ExecutionContext
from .machine import Machine

#: A workload: takes a context, yields whenever it wants to be preempted.
TaskFunction = Callable[[ExecutionContext], Iterator[None]]


@dataclass
class SystemReport:
    """Summary of one simulation run (the raw material for every figure)."""

    name: str
    shredder: bool
    instructions: int = 0
    cycles: float = 0.0
    ipc: float = 0.0
    memory_reads: int = 0
    memory_writes: int = 0
    zero_fill_reads: int = 0
    counter_miss_rate: float = 0.0
    avg_read_latency_ns: float = 0.0
    shreds: int = 0
    pages_zeroed: int = 0
    zeroing_memory_writes: int = 0
    fault_ns: float = 0.0
    zeroing_ns: float = 0.0
    read_energy_pj: float = 0.0
    write_energy_pj: float = 0.0
    bits_written: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Full :meth:`repro.obs.MetricsRegistry.snapshot` of the run. All
    #: values are simulated quantities, so two runs of the same
    #: experiment produce identical snapshots regardless of host, which
    #: lets this field ride the result cache and the worker wire
    #: protocol without breaking byte-identical report comparisons.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Flight-recorder event log (:meth:`repro.obs.EventRecorder.snapshot`).
    #: Like ``metrics``, every field is a simulated quantity, so the log
    #: is byte-identical across hosts and serial-vs-cluster execution
    #: for the same experiment.
    events: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, float]:
        data = {k: v for k, v in self.__dict__.items()
                if k not in ("extra", "metrics", "events")}
        data.update(self.extra)
        return data

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form that round-trips through :meth:`from_dict`.

        Unlike :meth:`as_dict` (which flattens ``extra`` for table
        rendering), this keeps ``extra``, ``metrics``, and ``events``
        nested so reports can cross process and disk boundaries
        losslessly.
        """
        data = {k: v for k, v in self.__dict__.items()
                if k not in ("extra", "metrics", "events")}
        data["extra"] = dict(self.extra)
        data["metrics"] = dict(self.metrics)
        data["events"] = [dict(e) for e in self.events]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SystemReport":
        """Rebuild a report from :meth:`to_dict` output.

        Unknown keys are ignored so cache entries written by newer code
        degrade gracefully instead of crashing older readers.
        """
        import dataclasses
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["extra"] = dict(kwargs.get("extra") or {})
        kwargs["metrics"] = dict(kwargs.get("metrics") or {})
        kwargs["events"] = [dict(e) for e in kwargs.get("events") or []]
        return cls(**kwargs)


class System:
    """A complete simulated machine with an OS and CPU cores."""

    def __init__(self, config: Optional[SystemConfig] = None, *,
                 shredder: bool = True, policy: Optional[ShredPolicy] = None,
                 name: str = "system",
                 metrics: Optional[MetricsRegistry] = None,
                 events: Optional[EventRecorder] = None) -> None:
        self.config = config if config is not None else default_config()
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventRecorder()
        self.machine = Machine(self.config, shredder=shredder, policy=policy,
                               events=self.events)
        self.kernel = Kernel(self.machine)
        self.cores = [Core(i, self.config.cpu)
                      for i in range(self.config.cpu.num_cores)]
        # _collect_metrics is static: the partial holds the components,
        # not this System, so registering it forms no reference cycle.
        self.metrics.register_collector(partial(
            self._collect_metrics, self.machine, self.kernel, self.cores,
            self.events))

    @property
    def shredder_enabled(self) -> bool:
        return self.machine.has_shredder

    # -- task plumbing -----------------------------------------------------------

    def new_context(self, core_id: int) -> ExecutionContext:
        """A fresh process bound to ``core_id``."""
        if core_id < 0 or core_id >= len(self.cores):
            raise SimulationError(f"no core {core_id}")
        process = self.kernel.create_process()
        return ExecutionContext(self, process.pid, core_id)

    def run(self, tasks: List[TaskFunction]) -> None:
        """Run one task per core (round-robin by laggard core clock)."""
        if len(tasks) > len(self.cores):
            raise SimulationError(f"{len(tasks)} tasks but only "
                                  f"{len(self.cores)} cores")
        live: List[tuple] = []
        for core_id, task in enumerate(tasks):
            ctx = self.new_context(core_id)
            live.append([self.cores[core_id], iter(task(ctx))])
        while live:
            # Resume the task whose core is furthest behind in time.
            entry = min(live, key=lambda item: item[0].stats.cycles)
            try:
                next(entry[1])
            except StopIteration:
                entry[0].drain_stores()
                live.remove(entry)

    def run_single(self, task: TaskFunction, core_id: int = 0) -> None:
        """Convenience: run one task to completion on one core."""
        ctx = self.new_context(core_id)
        for _ in task(ctx):
            pass
        self.cores[core_id].drain_stores()

    # -- verification and statistics management -----------------------------------

    def verify_invariants(self) -> None:
        """Cross-component consistency sweep (cheap; used by tests and
        long soak runs): MESI single-writer, L4 inclusion, counter
        ranges, allocator accounting."""
        self.machine.hierarchy.directory.check_invariants()
        self.machine.hierarchy.check_inclusion()
        controller = self.machine.controller
        limit = (1 << self.config.encryption.minor_counter_bits) - 1
        for _, counters, _ in controller.counter_cache.entries():
            if counters is None:
                continue
            for minor in counters.minors:
                if minor < 0 or minor > limit:
                    raise SimulationError(
                        f"counter cache holds out-of-range minor {minor}")
        allocator = self.kernel.allocator
        if allocator.free_pages > allocator.total_pages:
            raise SimulationError("allocator free count exceeds pool size")

    def reset_stats(self) -> None:
        """Zero every statistic without touching architectural state —
        the warm-up methodology of section 5 (caches stay warm, the
        measured window starts clean)."""
        from ..cache.cache import CacheStats
        from ..cache.coherence import CoherenceStats
        from ..core.secure_memory import SecureMemoryStats
        from ..kernel.kernel import KernelStats
        from ..kernel.zeroing import ZeroingStats
        machine = self.machine
        machine.controller.stats = SecureMemoryStats()
        machine.controller.device.stats.reset()
        machine.controller.mem.stats.reset()
        machine.controller.mem.channels.reset()
        for cache in [machine.hierarchy.l3, machine.hierarchy.l4,
                      *machine.hierarchy.l1, *machine.hierarchy.l2]:
            cache.stats = CacheStats()
        machine.hierarchy.directory.stats = CoherenceStats()
        machine.controller.counter_cache.reset_stats()
        machine.hierarchy.zero_fills = 0
        machine.hierarchy.memory_fetches = 0
        machine.hierarchy.writebacks = 0
        self.kernel.stats = KernelStats()
        self.kernel.zeroing.stats = ZeroingStats()
        for core in self.cores:
            from ..cpu.core import CoreStats
            preserved = core.stats.cycles    # time keeps flowing
            core.stats = CoreStats()
            core.stats.cycles = preserved
        if self.shred_register is not None:
            self.shred_register.commands_accepted = 0
            self.shred_register.commands_rejected = 0
        # The registry mirrors the stats just zeroed; reset it with them
        # so the pull collector's monotonic publishes stay valid.
        self.metrics.reset()
        # Warm-up shreds belong to the discarded window, not the report.
        self.events.clear()

    @property
    def shred_register(self):
        return self.machine.shred_register

    @staticmethod
    def _collect_metrics(machine: Machine, kernel: Kernel, cores: List[Core],
                         events: EventRecorder,
                         registry: MetricsRegistry) -> None:
        """Pull collector: publish every simulator statistic, each a
        plain field, into the registry at snapshot time."""
        ctl = machine.controller.stats
        for name, value in (
                ("mem.ctrl.data_reads", ctl.data_reads),
                ("mem.ctrl.data_writes", ctl.data_writes),
                ("mem.ctrl.zero_fill_reads", ctl.zero_fill_reads),
                ("mem.ctrl.counter_fetches", ctl.counter_fetches),
                ("mem.ctrl.counter_writebacks", ctl.counter_writebacks),
                ("mem.ctrl.reencryptions", ctl.reencryptions),
                ("core.shredder.shreds", ctl.shreds),
        ):
            registry.counter(name, unit="ops").set_total(value)
        registry.histogram("mem.ctrl.read_latency_ns", unit="ns").set_counts(
            ctl.read_latency_buckets, ctl.total_read_latency_ns)

        nvm = machine.controller.device.stats
        channel = machine.controller.mem.stats
        for nvm_name, channel_name, field_name, unit in (
                ("mem.nvm.reads", "mem.channel.reads", "reads", "ops"),
                ("mem.nvm.writes", "mem.channel.writes", "writes", "ops"),
                ("mem.nvm.bytes_read", "mem.channel.bytes_read",
                 "bytes_read", "bytes"),
                ("mem.nvm.bytes_written", "mem.channel.bytes_written",
                 "bytes_written", "bytes"),
                ("mem.nvm.bits_written", "mem.channel.bits_written",
                 "bits_written", "bits"),
                ("mem.nvm.read_energy_pj", "mem.channel.read_energy_pj",
                 "read_energy_pj", "pJ"),
                ("mem.nvm.write_energy_pj", "mem.channel.write_energy_pj",
                 "write_energy_pj", "pJ"),
                ("mem.nvm.total_read_latency_ns",
                 "mem.channel.total_read_latency_ns",
                 "total_read_latency_ns", "ns"),
                ("mem.nvm.total_write_latency_ns",
                 "mem.channel.total_write_latency_ns",
                 "total_write_latency_ns", "ns"),
        ):
            registry.counter(nvm_name, unit=unit).set_total(
                getattr(nvm, field_name))
            registry.counter(channel_name, unit=unit).set_total(
                getattr(channel, field_name))

        cc = machine.controller.counter_cache.stats
        for name, value in (
                ("cache.counter.hits", cc.hits),
                ("cache.counter.misses", cc.misses),
                ("cache.counter.evictions", cc.evictions),
                ("cache.counter.dirty_evictions", cc.dirty_evictions),
        ):
            registry.counter(name, unit="ops").set_total(value)
        registry.gauge("cache.counter.entries", unit="entries").set(
            float(len(machine.controller.counter_cache)))

        hierarchy = machine.hierarchy
        # Literal (prefix, caches) pairs so the metrics-namespace pass
        # can resolve every registered name statically (REPRO402).
        for prefix, caches in (("cache.l1", hierarchy.l1),
                               ("cache.l2", hierarchy.l2),
                               ("cache.l3", [hierarchy.l3]),
                               ("cache.l4", [hierarchy.l4])):
            for field_name in ("hits", "misses", "evictions"):
                total = sum(getattr(c.stats, field_name) for c in caches)
                registry.counter(f"{prefix}.{field_name}",
                                 unit="ops").set_total(total)
        for name, value in (
                ("cache.hierarchy.zero_fills", hierarchy.zero_fills),
                ("cache.hierarchy.memory_fetches", hierarchy.memory_fetches),
                ("cache.hierarchy.writebacks", hierarchy.writebacks),
        ):
            registry.counter(name, unit="ops").set_total(value)

        shred_register = machine.shred_register
        if shred_register is not None:
            registry.counter("core.shredder.commands_accepted",
                             unit="ops").set_total(
                                 shred_register.commands_accepted)
            registry.counter("core.shredder.commands_rejected",
                             unit="ops").set_total(
                                 shred_register.commands_rejected)

        ks = kernel.stats
        for name, value, unit in (
                ("kernel.faults.minor", ks.minor_faults, "ops"),
                ("kernel.faults.cow", ks.cow_faults, "ops"),
                ("kernel.faults.huge", ks.huge_faults, "ops"),
                ("kernel.faults.total_ns", ks.fault_ns, "ns"),
                ("kernel.pages.allocated", ks.pages_allocated, "ops"),
                ("kernel.pages.recycled", ks.pages_recycled, "ops"),
                ("kernel.shred_syscalls", ks.shred_syscalls, "ops"),
        ):
            registry.counter(name, unit=unit).set_total(value)
        zs = kernel.zeroing.stats
        for name, value, unit in (
                ("kernel.zeroing.pages_zeroed", zs.pages_zeroed, "ops"),
                ("kernel.zeroing.memory_writes", zs.memory_writes, "ops"),
                ("kernel.zeroing.memory_reads", zs.memory_reads, "ops"),
                ("kernel.zeroing.latency_ns", zs.latency_ns, "ns"),
                ("kernel.zeroing.cpu_busy_ns", zs.cpu_busy_ns, "ns"),
                ("kernel.zeroing.cache_blocks_polluted",
                 zs.cache_blocks_polluted, "ops"),
                ("kernel.zeroing.total_ns", ks.zeroing_ns, "ns"),
        ):
            registry.counter(name, unit=unit).set_total(value)

        for name, total, unit in (
                ("cpu.instructions",
                 sum(c.stats.instructions for c in cores), "ops"),
                ("cpu.loads", sum(c.stats.loads for c in cores), "ops"),
                ("cpu.stores", sum(c.stats.stores for c in cores), "ops"),
        ):
            registry.counter(name, unit=unit).set_total(total)
        registry.gauge("cpu.cycles", unit="cycles").set(
            max((c.stats.cycles for c in cores), default=0.0))

        for name, value in (
                ("obs.events.emitted", events.emitted),
                ("obs.events.recorded", events.recorded),
                ("obs.events.dropped", events.dropped),
        ):
            registry.counter(name, unit="events").set_total(value)

    def dump_stats(self) -> str:
        """A gem5-style multi-section statistics dump."""
        report = self.report()
        sections = [f"---------- {self.name} ----------"]
        sections.append(render_table(
            [report.as_dict()], columns=["instructions", "cycles", "ipc"],
            title="[cpu]"))
        sections.append(render_table(
            [{"level": cache.name, "accesses": cache.stats.accesses,
              "miss_rate": cache.stats.miss_rate,
              "evictions": cache.stats.evictions}
             for cache in [self.machine.hierarchy.l1[0],
                           self.machine.hierarchy.l2[0],
                           self.machine.hierarchy.l3,
                           self.machine.hierarchy.l4]],
            title="[caches, core 0 private + shared]"))
        sections.append(render_table(
            [asdict(self.machine.hierarchy.directory.stats)],
            title="[coherence]"))
        ctl = self.machine.controller.stats
        sections.append(render_table([{
            "data_reads": ctl.data_reads, "data_writes": ctl.data_writes,
            "zero_fill_reads": ctl.zero_fill_reads, "shreds": ctl.shreds,
            "counter_miss_rate": ctl.counter_miss_rate,
            "reencryptions": ctl.reencryptions,
        }], title="[secure memory controller]"))
        dev = self.machine.controller.device
        sections.append(render_table([{
            "line_writes": dev.total_line_writes(),
            "max_wear": dev.max_wear(),
            "read_energy_uJ": dev.stats.read_energy_pj / 1e6,
            "write_energy_uJ": dev.stats.write_energy_pj / 1e6,
        }], title="[nvm device]"))
        zs = self.kernel.stats
        sections.append(render_table([{
            "minor_faults": zs.minor_faults, "cow_faults": zs.cow_faults,
            "pages_recycled": zs.pages_recycled,
            "zeroing_share": zs.zeroing_fraction_of_fault_time,
        }], title="[kernel]"))
        return "\n\n".join(sections)

    # -- reporting ------------------------------------------------------------------

    def report(self) -> SystemReport:
        instructions = sum(core.stats.instructions for core in self.cores)
        busy_cores = [core for core in self.cores if core.stats.cycles > 0]
        cycles = max((core.stats.cycles for core in busy_cores), default=0.0)
        ctl = self.machine.controller.stats
        dev = self.machine.controller.device.stats
        zs = self.kernel.zeroing.stats
        report = SystemReport(
            name=self.name,
            shredder=self.shredder_enabled,
            instructions=instructions,
            cycles=cycles,
            ipc=instructions / cycles if cycles else 0.0,
            memory_reads=ctl.data_reads,
            memory_writes=ctl.data_writes,
            zero_fill_reads=ctl.zero_fill_reads,
            counter_miss_rate=ctl.counter_miss_rate,
            avg_read_latency_ns=ctl.avg_read_latency_ns,
            shreds=ctl.shreds,
            pages_zeroed=zs.pages_zeroed,
            zeroing_memory_writes=zs.memory_writes,
            fault_ns=self.kernel.stats.fault_ns,
            zeroing_ns=self.kernel.stats.zeroing_ns,
            read_energy_pj=dev.read_energy_pj,
            write_energy_pj=dev.write_energy_pj,
            bits_written=dev.bits_written,
        )
        report.extra["l4_miss_rate"] = self.machine.hierarchy.l4.stats.miss_rate
        report.extra["counter_cache_entries"] = float(
            len(self.machine.controller.counter_cache))
        report.extra["counter_hits"] = float(ctl.counter_hits)
        report.extra["counter_misses"] = float(ctl.counter_misses)
        report.extra["reencryptions"] = float(ctl.reencryptions)
        report.metrics = self.metrics.snapshot()
        report.events = self.events.snapshot()
        return report
