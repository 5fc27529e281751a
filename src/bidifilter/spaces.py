"""Bookkeeping for the cache spaces policies are built from.

Spaces track membership and eviction order only; they never evict on
their own.  Callers must make room (peek_victim + remove) before
inserting into a full space.  ``insert_count`` tallies every successful
insert so write accounting can be cross-checked from the outside.
"""

from __future__ import annotations

import math
from collections import OrderedDict

PROTECTED_FRACTION = 0.8  # share of an SlruSpace's capacity that is protected


class LruSpace:
    """Plain LRU order over hashable keys. Victim is the least recent."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.insert_count = 0
        self._od: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._od)

    def __contains__(self, key) -> bool:
        return key in self._od

    def keys(self):
        """Keys from least to most recently used."""
        return iter(self._od)

    def insert(self, key) -> None:
        if key in self._od:
            raise ValueError(f"key already present: {key!r}")
        if len(self._od) >= self.capacity:
            raise ValueError("space is full; evict before inserting")
        self._od[key] = None
        self.insert_count += 1

    def touch(self, key) -> None:
        self._od.move_to_end(key)  # KeyError if absent, as documented

    def remove(self, key) -> None:
        del self._od[key]

    def peek_victim(self):
        """Current eviction candidate, or None when empty. Does not mutate."""
        return next(iter(self._od), None)

    def check(self) -> None:
        assert len(self._od) <= self.capacity


class SlruSpace:
    """Segmented LRU: new keys enter probation, hits move them to protected.

    The protected segment is bounded by ceil(PROTECTED_FRACTION * capacity);
    overflow demotes its LRU member back to probation MRU.  Victims come
    from probation first, falling back to protected only when probation
    is empty.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.protected_capacity = math.ceil(PROTECTED_FRACTION * capacity)
        self.insert_count = 0
        self._probation: OrderedDict = OrderedDict()
        self._protected: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def __contains__(self, key) -> bool:
        return key in self._probation or key in self._protected

    def keys(self):
        """Probation keys (LRU first), then protected keys (LRU first)."""
        yield from self._probation
        yield from self._protected

    def insert(self, key) -> None:
        if key in self:
            raise ValueError(f"key already present: {key!r}")
        if len(self) >= self.capacity:
            raise ValueError("space is full; evict before inserting")
        self._probation[key] = None
        self.insert_count += 1

    def touch(self, key) -> None:
        if key in self._protected:
            self._protected.move_to_end(key)
            return
        # probation hit promotes into protected, demoting its LRU if needed
        del self._probation[key]  # KeyError if absent, as documented
        self._protected[key] = None
        if len(self._protected) > self.protected_capacity:
            demoted = next(iter(self._protected))
            del self._protected[demoted]
            self._probation[demoted] = None

    def remove(self, key) -> None:
        if key in self._probation:
            del self._probation[key]
        else:
            del self._protected[key]

    def peek_victim(self):
        if self._probation:
            return next(iter(self._probation))
        return next(iter(self._protected), None)

    def check(self) -> None:
        assert len(self) <= self.capacity
        assert len(self._protected) <= self.protected_capacity
        assert not (self._probation.keys() & self._protected.keys())
