"""A finished System is freed by reference counting alone.

No simulator component references its owner or the metrics registry,
so the ownership graph of a ``System`` is acyclic: once a run returns,
its machine, kernel and caches go at once instead of waiting for the
cyclic garbage collector. The checks run with the collector disabled,
so any reference cycle keeps the weakly referenced objects alive.
"""

import gc
import weakref

import pytest

from repro.analysis import figures
from repro.config import bench_config, fast_config
from repro.exec import Experiment, workloads
from repro.exec.workloads import execute_experiment, workload_kinds
from repro.sim import System

#: Small parameters for every registered workload kind.
PARAMS = {
    "policy-ablation": {"pages": 2, "shreds_per_page": 3},
    "powergraph": {"app": "PAGERANK", "num_nodes": 60},
    "spec": {"benchmark": "GCC", "cores": 2, "scale": 0.01},
    "table2-zeroing": {"pages": 3},
}


@pytest.fixture
def built(monkeypatch):
    """Weak references to the System, Machine and Kernel of every
    System built while the fixture is active, with the cyclic garbage
    collector off."""
    refs = []
    init = System.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append((weakref.ref(self), weakref.ref(self.machine),
                     weakref.ref(self.kernel)))

    monkeypatch.setattr(System, "__init__", tracking_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def assert_all_freed(refs):
    assert refs, "no System was built"
    alive = [(i, kind) for i, triple in enumerate(refs)
             for kind, ref in zip(("System", "Machine", "Kernel"), triple)
             if ref() is not None]
    assert not alive, f"still alive after the run: {alive}"


def test_every_kind_is_listed():
    """PARAMS covers every kind the package registers (other tests add
    kinds of their own to the same registry)."""
    builtin = [kind for kind in workload_kinds()
               if workloads._EXECUTORS[kind].__module__ == workloads.__name__]
    assert sorted(PARAMS) == builtin


@pytest.mark.parametrize("kind,shredder",
                         [(kind, True) for kind in sorted(PARAMS)]
                         + [("spec", False), ("table2-zeroing", False)])
def test_experiment_frees_its_system(built, kind, shredder):
    experiment = Experiment(kind, params=PARAMS[kind], shredder=shredder)
    report = execute_experiment(experiment)
    assert report.metrics            # the collector published
    assert_all_freed(built)


def test_fig4_memset_frees_its_systems(built):
    rows = figures.fig4_memset([16 * 4096], config=bench_config())
    assert len(rows) == 1
    assert_all_freed(built)


def test_fig5_zeroing_writes_frees_its_systems(built):
    rows = figures.fig5_zeroing_writes(["PAGERANK"], num_nodes=40)
    assert len(rows) == 1
    assert len(built) == 3           # the probe and two zeroing runs
    assert_all_freed(built)


def test_registry_outliving_its_system_keeps_publishing(built):
    """The registry holds its collector strongly: a registry kept past
    its System still publishes that System's final statistics."""
    system = System(fast_config(), shredder=True)
    ctx = system.new_context(0)
    base = ctx.malloc(4096)
    ctx.store_u64(base, 7)
    registry, expected = system.metrics, system.report().metrics
    del system, ctx
    assert registry.snapshot() == expected
