"""Boundary tracer: charges host time to the simulator layer on top.

Each layer of the simulator is named by the public methods where calls
enter it (:data:`BOUNDARIES`). :class:`LayerTracer` replaces every such
method, on every class that defines it, with a wrapper that keeps a
stack of active layers. Elapsed time is charged to whichever layer is
on top of the stack, so a layer's *self time* is the time inside its
calls minus the time inside nested boundaries. Time outside every
boundary belongs to the root layer, ``analysis`` (figure builders and
the benchmark driver).

The wrappers cost time of their own. :func:`calibrate` measures that
cost per call on a fixed slice of simulator work, and
:meth:`LayerTracer.layer_times` subtracts it.

Importing this module does not import ``repro``; :func:`resolve` does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import types
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: the repository's ``src`` directory, for scripts run from a checkout
SRC = Path(__file__).resolve().parents[2] / "src"

ROOT = "analysis"

#: (layer, "module:Class", methods). Subclasses that override a method
#: are wrapped too (e.g. the DEUCE and INVMM controllers).
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("runtime", "repro.runtime.context:ExecutionContext",
     ("touch", "load_u64", "store_u64", "memset", "read_bytes",
      "write_bytes", "malloc", "shred")),
    ("kernel", "repro.kernel.kernel:Kernel",
     ("translate", "mmap", "munmap", "sys_shred")),
    ("kernel", "repro.kernel.zeroing:ZeroingEngine", ("zero_page",)),
    ("cpu", "repro.cpu.core:Core", ("load", "store", "compute", "stall")),
    ("cpu", "repro.cpu.tlb:TLB", ("lookup", "insert")),
    ("cache", "repro.cache.hierarchy:CacheHierarchy",
     ("access", "access_many", "invalidate_page", "flush_all")),
    ("cache.counter", "repro.cache.counter_cache:CounterCache",
     ("lookup", "peek", "fill", "invalidate")),
    ("core", "repro.core.secure_memory:SecureMemoryController",
     ("fetch_block", "store_block", "get_counters")),
    ("core", "repro.core.shredder:SilentShredderController", ("shred_page",)),
    ("core", "repro.core.shredder:ShredRegister", ("write",)),
    ("mem", "repro.mem.controller:MemoryController",
     ("read_block", "write_block")),
    ("mem", "repro.mem.channel:ChannelModel", ("request",)),
    ("obs", "repro.obs.registry:Counter", ("inc",)),
    ("obs", "repro.obs.registry:Histogram", ("observe",)),
    ("obs", "repro.obs.events:EventRecorder", ("emit",)),
    ("workloads", "repro.sim.system:System", ("run", "run_single")),
    ("sim", "repro.sim.system:System", ("__init__", "report")),
    ("exec", "repro.exec.runner:Runner", ("run",)),
)

LAYERS: Tuple[str, ...] = (ROOT,) + tuple(
    dict.fromkeys(layer for layer, _, _ in BOUNDARIES))

Boundary = Tuple[str, type, Tuple[str, ...]]


def resolve() -> List[Boundary]:
    """Import the boundary classes named in :data:`BOUNDARIES`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    resolved = []
    for layer, target, methods in BOUNDARIES:
        module, _, name = target.partition(":")
        resolved.append((layer, getattr(importlib.import_module(module), name),
                         methods))
    return resolved


def _defining_classes(base: type, method: str) -> List[type]:
    """``base`` and every loaded subclass whose own body defines ``method``."""
    found, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if method in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


# The wrapper is generated with the wrapped method's own parameter list:
# a ``*args, **kwargs`` wrapper packs a tuple and a dict on every call
# and costs about 1.75x as much per call.
_WRAPPER = """\
def traced({params}):
    _t_now = _t_clock()
    _t_top = _t_stack[-1]
    _t_self_ns[_t_top] += _t_now - _t_last[0]
    _t_child_calls[_t_top] += 1
    _t_calls[_t_layer] += 1
    _t_stack.append(_t_layer)
    _t_last[0] = _t_now
    try:
        return _t_fn({args})
    finally:
        _t_now = _t_clock()
        _t_self_ns[_t_layer] += _t_now - _t_last[0]
        _t_stack.pop()
        _t_last[0] = _t_now
"""


def _forwarding(fn: Callable) -> Tuple[str, str, Dict[str, object]]:
    """Parameter list, call arguments and defaults that forward every
    argument of ``fn`` unchanged."""
    params, args, defaults = [], [], {}
    star = False
    for param in inspect.signature(fn).parameters.values():
        name = param.name
        if param.kind is param.VAR_POSITIONAL:
            params.append("*" + name)
            args.append("*" + name)
            star = True
            continue
        if param.kind is param.VAR_KEYWORD:
            params.append("**" + name)
            args.append("**" + name)
            continue
        if param.kind is param.KEYWORD_ONLY and not star:
            params.append("*")
            star = True
        text = name
        if param.default is not param.empty:
            defaults["_t_default_" + name] = param.default
            text += "=_t_default_" + name
        params.append(text)
        args.append(f"{name}={name}" if param.kind is param.KEYWORD_ONLY
                    else name)
    return ", ".join(params), ", ".join(args), defaults


class LayerTracer:
    """Stack accountant over wrapped boundary methods.

    Use as a context manager: entering installs the wrappers and starts
    the clock, leaving charges the tail to the root layer and restores
    every original attribute. ``clock`` returns integer nanoseconds.
    """

    def __init__(self, boundaries: Sequence[Boundary], *,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.boundaries = list(boundaries)
        self.layers = [ROOT] + list(dict.fromkeys(
            layer for layer, _, _ in self.boundaries))
        self.clock = clock
        self.self_ns = [0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        #: boundary entries made while each layer was on top
        self.child_calls = [0] * len(self.layers)
        self._stack = [0]
        self._last = [0]
        self._saved: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, base, methods in self.boundaries:
            index = self.layers.index(layer)
            for method in methods:
                for cls in _defining_classes(base, method):
                    original = cls.__dict__[method]
                    if not isinstance(original, types.FunctionType):
                        raise TypeError(f"{cls.__name__}.{method} is not a "
                                        "plain method")
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, index))

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def start(self) -> None:
        """Zero the tallies and start charging time to the root layer."""
        for tally in (self.self_ns, self.calls, self.child_calls):
            tally[:] = [0] * len(tally)
        del self._stack[1:]
        self._last[0] = self.clock()

    def stop(self) -> None:
        now = self.clock()
        self.self_ns[self._stack[-1]] += now - self._last[0]
        self._last[0] = now

    def __enter__(self) -> "LayerTracer":
        self.install()
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
        self.uninstall()

    def _wrap(self, fn: Callable, layer: int) -> Callable:
        params, args, namespace = _forwarding(fn)
        namespace.update(
            _t_fn=fn, _t_layer=layer, _t_clock=self.clock,
            _t_stack=self._stack, _t_last=self._last,
            _t_self_ns=self.self_ns, _t_calls=self.calls,
            _t_child_calls=self.child_calls)
        exec(_WRAPPER.format(params=params, args=args), namespace)
        return functools.wraps(fn)(namespace["traced"])

    def layer_times(self, inner_ns: float = 0.0,
                    outer_ns: float = 0.0) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self_s`` net of wrapper cost, and ``calls``.

        Each call costs ``inner_ns`` charged to the callee's layer and
        ``outer_ns`` charged to the caller's.
        """
        return {
            layer: {"self_s": (self.self_ns[i] - inner_ns * self.calls[i]
                               - outer_ns * self.child_calls[i]) / 1e9,
                    "calls": self.calls[i]}
            for i, layer in enumerate(self.layers)
        }


class _Probe:
    def call(self, value, *, flag):
        return None


def _probe_split(calls: int = 50_000) -> float:
    """Share of the per-call wrapper cost that lands on the callee."""
    clock = time.perf_counter_ns
    probe = _Probe()
    start = clock()
    for i in range(calls):
        pass
    empty = clock() - start
    start = clock()
    for i in range(calls):
        probe.call(i, flag=True)
    bare = clock() - start
    with LayerTracer([("probe", _Probe, ("call",))]) as tracer:
        for i in range(calls):
            probe.call(i, flag=True)
    inner = tracer.self_ns[1] - (bare - empty)
    return min(1.0, max(0.0, inner / (sum(tracer.self_ns) - bare)))


def reference_work() -> None:
    """A fixed slice of simulator work that crosses every boundary."""
    from repro.config import bench_config
    from repro.exec import Runner, powergraph_experiment, spec_experiment
    config = bench_config()
    Runner(use_cache=False).run(
        [spec_experiment(name, scale=0.05, config=config)
         for name in ("H264", "GCC", "LBM")]
        + [powergraph_experiment("PAGERANK", num_nodes=150, config=config)])


def calibrate(boundaries: Sequence[Boundary]) -> Tuple[float, float]:
    """Wrapper cost per boundary call, as ``(inner_ns, outer_ns)``.

    Runs :func:`reference_work` bare and traced, five times in
    alternation; the median extra time per call is split between callee
    and caller in the proportion a no-op probe shows.
    """
    clock = time.perf_counter_ns
    reference_work()    # first run pays imports and allocator growth
    costs = []
    for _ in range(5):
        start = clock()
        reference_work()
        bare = clock() - start
        with LayerTracer(boundaries) as tracer:
            start = clock()
            reference_work()
            traced = clock() - start
        costs.append((traced - bare) / max(1, sum(tracer.calls)))
    cost = statistics.median(costs)
    share = _probe_split()
    return cost * share, cost * (1.0 - share)
