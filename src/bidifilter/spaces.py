"""Bookkeeping for the cache spaces policies are built from.

There is one space type, the segmented LRU (``SlruSpace``); a plain LRU
(``LruSpace``) is one whose protected capacity is 0.  Spaces keep
state: membership, eviction order and a tally of the writes into them
(``insert_count``).  ``insert`` fills free room and refuses a full
space or a key already present; ``touch`` refreshes a key.  Eviction
is the engines' business, on the spaces' OrderedDicts, which both
engines reach through one chain format (``lru_chain``):
``lru_cascade`` inserts at the top of a chain of LRU spaces and
carries each overflow victim down it in one call, and the filtered
policy's ``handle`` walks a chain of its top L1 space and SLRU levels.

Who writes each level, and tallies the write in ``insert_count``:

* the unfiltered policies write every level through ``lru_cascade``,
  which tallies each write itself;
* the filtered policy's ``handle``, and its whole-trace loop, evict and
  write on the spaces' OrderedDicts and add one to ``insert_count`` per
  write themselves, but fill free room left by a promotion, and free
  room in L1, through ``insert``.

So ``insert_count`` counts every write, and write accounting can be
cross-checked from the outside.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from .checks import integer

PROTECTED_FRACTION = 0.8  # share of an SlruSpace's capacity that is protected


class SlruSpace:
    """Segmented LRU: new keys enter probation, hits move them to protected.

    The protected segment is bounded by ceil(PROTECTED_FRACTION * capacity);
    overflow demotes its LRU member back to probation MRU.  Victims come
    from probation first, falling back to protected only when probation
    is empty.
    """

    _protected_fraction = PROTECTED_FRACTION

    def __init__(self, capacity: int):
        self.capacity = integer("capacity", capacity, 0)
        self.protected_capacity = math.ceil(self._protected_fraction * self.capacity)
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
        """Insert at probation MRU into free room; a full space or a present
        key is refused."""
        probation, protected = self._probation, self._protected
        if key in probation or key in protected:
            raise ValueError(f"key already present: {key!r}")
        if len(probation) + len(protected) >= self.capacity:
            raise ValueError("space is full")
        probation[key] = None
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

    def check(self) -> None:
        assert len(self) <= self.capacity
        assert len(self._protected) <= self.protected_capacity
        assert not (self._probation.keys() & self._protected.keys())


class LruSpace(SlruSpace):
    """Plain LRU: an SlruSpace with no protected part, so a touch leaves
    the key at probation's MRU end.  Victim is the least recent."""

    _protected_fraction = 0


def lru_chain(spaces) -> tuple:
    """The ``(level, space, probation, protected, capacity)`` entries, one
    per space, top first, levels from 1: the chain both engines walk.
    ``lru_cascade`` walks a chain of LruSpaces, whose protected dicts
    stay empty."""
    chain = tuple((level, sp, sp._probation, sp._protected, sp.capacity)
                  for level, sp in enumerate(spaces, start=1))
    if not all(capacity >= 1 for *_, capacity in chain):
        raise ValueError("every space of a cascade needs room for a key")
    return chain


def lru_cascade(chain, key, coin, demote_prob) -> int:
    """Insert ``key``, in none of the chain's spaces, at L1 MRU; while a
    level overflows, pop its LRU key and carry it one level down if
    ``coin() < demote_prob``, else it leaves the cache, as the bottom
    level's victim does.  One draw per overflow, top down.  Adds one to
    each written level's ``insert_count``; returns the last level written.

    Every level holds at least one key, so the key popped after an
    insert is the LRU key the level held before it.
    """
    for level, space, od, _, capacity in chain:
        od[key] = None
        space.insert_count += 1
        if len(od) <= capacity:
            return level
        key = od.popitem(False)[0]  # the LRU end
        if coin() >= demote_prob:
            return level
    return level
