"""Suppressed twin of metrics_bad.py, plus an in-namespace control."""


def register(registry, stats_cls):
    registry.counter("bogus.namespace.events")  # repro: suppress REPRO401 -- fixture
    registry.counter("mem.nvm.writes", unit="ops")
    return stats_cls(registry, metrics_prefix="exec.cache")
