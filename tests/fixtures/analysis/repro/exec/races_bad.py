"""Known-bad fixture for the races family (REPRO511)."""

import threading


class Tracker:
    """``_items`` is lock-guarded at 2 of 3 write sites."""

    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    def add(self, item):
        with self._lock:
            self._items.append(item)

    def merge(self, other):
        with self._lock:
            self._items.extend(other)

    def reset(self):
        self._items = []
