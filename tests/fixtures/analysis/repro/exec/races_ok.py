"""Suppressed twin of ``races_bad.py`` — must analyze clean."""

import threading


class Tracker:
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
        self._items = []  # repro: suppress REPRO511 -- reset runs before the tracker is shared

    def snapshot(self):
        with self._lock:
            return list(self._items)
