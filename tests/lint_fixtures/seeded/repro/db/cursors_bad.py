"""Seeded shared-state violation in the facade: a cursor registered
outside the lock its commit takes, so a commit racing the registration
can drop it unpoisoned."""

import threading


class Connection:
    def __init__(self):
        self._update_lock = threading.RLock()
        self._cursors = set()

    def register(self, cursor):
        self._cursors.add(cursor)     # shared-state: write without the lock

    def commit(self):
        with self._update_lock:
            cursors, self._cursors = self._cursors, set()
        return cursors
