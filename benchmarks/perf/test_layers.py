"""Self-tests of the boundary tracer.

Run with ``pytest benchmarks/perf --confcutdir=benchmarks/perf`` so the
session fixtures of ``benchmarks/conftest.py`` stay out of the run.
"""

import pytest

import layers
import run


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_install_restores_original_attributes():
    boundaries = layers.resolve()
    before = {}
    for _, base, methods in boundaries:
        for method in methods:
            for cls in layers._defining_classes(base, method):
                before[cls, method] = cls.__dict__[method]
    tracer = layers.LayerTracer(boundaries)
    tracer.install()
    try:
        assert all(cls.__dict__[method] is not original
                   for (cls, method), original in before.items())
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[method] is original
               for (cls, method), original in before.items())
    # subclass overrides are wrapped too
    assert any(cls.__name__ == "DeuceShredderController"
               for cls, _ in before)


def test_traced_outputs_match_untraced():
    boundaries = layers.resolve()
    from repro.analysis import figures
    from repro.config import bench_config
    from repro.exec import Runner

    def small():
        runner = Runner(jobs=1, use_cache=False)
        results = figures.fig8_to_11_study(
            benchmarks=["GCC", "PAGERANK"], scale=0.02, powergraph_nodes=60,
            config=bench_config(), runner=runner)
        rows = {f"fig8:{r.workload}": r.row() for r in results}
        rows.update({f"table2:{row['mechanism']}": row
                     for row in figures.table2_mechanisms(pages=2,
                                                          runner=runner)})
        reports = [r.baseline for r in results] + [r.shredder for r in results]
        return run.outputs(rows, reports)

    untraced = small()
    with layers.LayerTracer(boundaries) as tracer:
        traced = small()
    assert traced == untraced
    times = tracer.layer_times()
    assert all(times[layer]["calls"] > 0 for layer in layers.LAYERS
               if layer != layers.ROOT)


def test_self_time_sums_to_elapsed_on_nested_calls():
    clock = FakeClock()

    class Outer:
        def work(self, inner):
            clock.now += 5
            inner.work(3)
            clock.now += 7
            inner.work(2)
            return "done"

    class Inner:
        def work(self, ticks):
            clock.now += ticks

    tracer = layers.LayerTracer([("outer", Outer, ("work",)),
                                 ("inner", Inner, ("work",))], clock=clock)
    with tracer:
        clock.now += 4
        assert Outer().work(Inner()) == "done"
        clock.now += 1
    assert clock.now == 22
    times = tracer.layer_times()
    assert {layer: t["self_s"] * 1e9 for layer, t in times.items()} == {
        layers.ROOT: 5, "outer": 12, "inner": 5}
    assert sum(t["self_s"] for t in times.values()) * 1e9 == clock.now
    assert times["inner"]["calls"] == 2 and times["outer"]["calls"] == 1
    # per call, 1 ns lands on the callee and 2 ns on the caller
    net = tracer.layer_times(inner_ns=1, outer_ns=2)
    assert {layer: t["self_s"] * 1e9 for layer, t in net.items()} == {
        layers.ROOT: 5 - 2, "outer": 12 - 1 - 2 * 2, "inner": 5 - 2 * 1}


def test_raising_boundary_unwinds_the_stack():
    clock = FakeClock()

    class Failing:
        def work(self):
            clock.now += 3
            raise ValueError("boom")

    tracer = layers.LayerTracer([("failing", Failing, ("work",))],
                                clock=clock)
    with tracer:
        with pytest.raises(ValueError):
            Failing().work()
        clock.now += 2
    times = tracer.layer_times()
    assert times["failing"]["self_s"] * 1e9 == 3
    assert times[layers.ROOT]["self_s"] * 1e9 == 2


def test_wrapper_forwards_every_argument_kind():
    class Target:
        def call(self, a, b=2, *rest, c, d=4, **extra):
            return a, b, rest, c, d, extra

    expected = Target().call(1, 5, 6, c=3, e=7)
    with layers.LayerTracer([("target", Target, ("call",))]) as tracer:
        assert Target().call(1, 5, 6, c=3, e=7) == expected
        assert Target().call(1, c=3) == (1, 2, (), 3, 4, {})
    assert tracer.calls[1] == 2
