"""Multilevel cache policies with frequency-filtered traffic between levels.

The headline scheme splits L1 into a Window (newcomers, plain LRU) and a
Veterans space (established items, plain LRU), with an SLRU-managed L2
below.  A shared frequency sketch filters traffic in both directions:

* downward, a candidate demoted out of L1 enters a full L2 only if its
  estimated frequency beats L2's eviction candidate;
* upward, an L2 hit is promoted into a full Veterans space only if it
  beats the Veterans eviction candidate, which then takes its slot in L2.

"Beats" compares the two sketch estimates: the candidate wins if its
estimate is strictly greater under ``tie_break="reject"``, or greater or
equal under ``tie_break="admit"``.  ``reject`` is the strict filter;
``admit`` also lets every tied candidate through, at the cost of more
writes.

Every request is recorded in the sketch before any decision is made.
The cache is exclusive: a key lives in at most one space at a time.

One engine, ``CascadeFilter``, runs this scheme over any number of
levels (a filter between every adjacent pair).  ``BiDiFilter`` is its
two-level shorthand, with the lower level named ``l2``;
``BiDiFilterUnited`` is the two-level shorthand whose window takes all
of L1 (``window_fraction=1``).  ``oracles.reference_filter_outcomes``
restates the scheme with python lists as the tests' reference.

Writes are accounted per level: an insert into a level coming from
outside that level costs one write; recency updates within a level are
free.  ``AccessOutcome`` carries the request classification plus the
writes it caused, so a simulation can price traffic exactly.  The
writes of one request land on a contiguous run of levels, one each, so
every engine interns its outcomes: it builds them all once, when it is
constructed, in tables indexed by the last level a request wrote, and
handling a request returns a table entry without allocating.

Baselines: one unfiltered engine, ``Promote``, chains plain LRU levels
and moves keys between them by coin flips (promote a deep hit with
probability p, write each demotion victim onward with probability q).
Its two named shorthands are ``Demote`` (p = q = 1: one global LRU order
across the levels) and ``NaiveLRU`` (p = 0, q = 1: independent levels,
hits never move items up).  ``oracles.reference_chain_outcomes``
restates it with python lists.  Demote's whole histogram also follows
from a trace's LRU stack distances (``Demote.outcome_counts``), which
``run_single`` reads a compiled trace's rows from.  Policies with a
single undivided L1 report L1 hits in the window bucket.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .sketch import FrequencySketch, SketchConfig, mix64
from .spaces import _NO_VICTIM, LruSpace, SlruSpace

MISS = "miss"
HIT_L1_WINDOW = "hit_l1_window"
HIT_L1_VETERANS = "hit_l1_veterans"

KINDS = ("BiDiFilter", "BiDiFilterUnited", "Demote", "NaiveLRU", "Promote")
TIE_BREAKS = ("admit", "reject")

_SKETCH_SALT = 0xB1D1F117E2


def hit_at_level(level: int) -> str:
    """Classification label for a hit found at the given level (>= 2)."""
    return f"hit_l{level}"


HIT_L2 = hit_at_level(2)


class AccessOutcome(NamedTuple):
    """What one request did: its classification and the writes it caused."""

    classification: str
    writes: tuple[tuple[int, int], ...] = ()


_HIT_WINDOW = AccessOutcome(HIT_L1_WINDOW)
_HIT_VETERANS = AccessOutcome(HIT_L1_VETERANS)


def _run(first: int, last: int) -> tuple[tuple[int, int], ...]:
    """One write at each level from ``first`` to ``last``; empty if last < first."""
    return tuple((level, 1) for level in range(first, last + 1))


def _check_level_capacities(level_capacities) -> tuple[int, ...]:
    """The capacities as Python ints: at least two levels, each an integer >= 1."""
    caps = tuple(level_capacities)
    if len(caps) < 2:
        raise ValueError("need at least two cache levels")
    if not all(isinstance(c, Integral) and c >= 1 for c in caps):
        raise ValueError(f"every level capacity must be an integer >= 1, got {caps}")
    return tuple(map(int, caps))


def _check_fractions(**values) -> None:
    """Raise unless every named value lies in [0, 1]."""
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")


def _check_seed(rng_seed) -> int:
    """The seed as a Python int; any integer is a seed."""
    if not isinstance(rng_seed, Integral):
        raise ValueError(f"rng_seed must be an integer, got {rng_seed!r}")
    return int(rng_seed)


def _check_tie_break(tie_break) -> None:
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")


def _check_exclusive(spaces) -> None:
    """Check each space, and that no key occupies more than one of them."""
    union = set()
    total = 0
    for sp in spaces:
        sp.check()
        union.update(sp.keys())
        total += len(sp)
    assert len(union) == total, "a key occupies more than one space"


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of a policy instance.

    window_fraction and tie_break only apply to the filtered kinds;
    promote_prob/demote_prob only to Promote.  rng_seed, an integer
    (numpy integers are stored as Python ints), feeds the sketch hash
    seed and Promote's coin flips.  These defaults are the engines' and
    the command line's defaults too.
    """

    kind: str
    level_capacities: tuple[int, ...]
    window_fraction: float = 0.5
    tie_break: str = "admit"
    promote_prob: float = 0.5
    demote_prob: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown policy kind: {self.kind!r}")
        object.__setattr__(
            self, "level_capacities", _check_level_capacities(self.level_capacities)
        )
        if self.kind == "BiDiFilterUnited" and self.n_levels != 2:
            raise ValueError("BiDiFilterUnited supports exactly two levels")
        _check_fractions(window_fraction=self.window_fraction,
                         promote_prob=self.promote_prob, demote_prob=self.demote_prob)
        _check_tie_break(self.tie_break)
        object.__setattr__(self, "rng_seed", _check_seed(self.rng_seed))

    @property
    def n_levels(self) -> int:
        return len(self.level_capacities)


def default_sketch(level_capacities, rng_seed: int) -> FrequencySketch:
    total = sum(level_capacities)
    return FrequencySketch(
        SketchConfig.for_capacity(total), seed=mix64(rng_seed ^ _SKETCH_SALT)
    )


def make_policy(spec: PolicySpec):
    """Build a policy object from its spec."""
    caps = spec.level_capacities
    if spec.kind == "BiDiFilterUnited":
        return BiDiFilterUnited(caps, tie_break=spec.tie_break, rng_seed=spec.rng_seed)
    if spec.kind == "BiDiFilter":
        cls = BiDiFilter if len(caps) == 2 else CascadeFilter
        return cls(
            caps,
            window_fraction=spec.window_fraction,
            tie_break=spec.tie_break,
            rng_seed=spec.rng_seed,
        )
    if spec.kind == "Demote":
        return Demote(caps)
    if spec.kind == "NaiveLRU":
        return NaiveLRU(caps)
    if spec.kind == "Promote":
        return Promote(
            caps,
            promote_prob=spec.promote_prob,
            demote_prob=spec.demote_prob,
            rng_seed=spec.rng_seed,
        )
    raise ValueError(f"unknown policy kind: {spec.kind!r}")


class CascadeFilter:
    """The filtered policy: a Window/Veterans L1 over SLRU levels 2..N.

    A filter sits between every adjacent pair of levels.  A miss inserts
    at the top, and what it displaces walks down (``_admit_down``): a
    winning candidate's displaced victim is the next level's candidate,
    and a loser or the bottom level's victim leaves the cache.  Without
    a window the missed key contests Veterans, and a veteran it displaces
    takes its first hop, into L2, unfiltered.  A hit at level i is a
    filtered promotion into level i-1 (Veterans, or the window when
    there are no Veterans, for i = 2) whose displaced victim demotes
    into the slot the hit just vacated.

    Outcomes are interned per engine: a miss writes a run of levels
    from L1 (or from L2, when the missed key itself walks down) to the
    last level ``_admit_down`` reports, and a hit at level i writes
    nothing, level i-1, or levels i-1 and i.
    """

    def __init__(
        self,
        level_capacities,
        *,
        window_fraction: float = PolicySpec.window_fraction,
        tie_break: str = PolicySpec.tie_break,
        rng_seed: int = PolicySpec.rng_seed,
        sketch: FrequencySketch | None = None,
    ):
        caps = _check_level_capacities(level_capacities)
        _check_fractions(window_fraction=window_fraction)
        _check_tie_break(tie_break)
        rng_seed = _check_seed(rng_seed)
        window = round(window_fraction * caps[0])
        self.window_fraction = window_fraction
        self.window = LruSpace(window)
        self.veterans = LruSpace(caps[0] - window)
        self.mains = tuple(SlruSpace(c) for c in caps[1:])  # levels 2..N
        self.n_levels = len(caps)
        self.tie_break = tie_break
        self._strict = tie_break == "reject"
        # bind_keys reaches the sketch through its own reference, which a
        # stand-in assigned to .sketch from outside leaves in place
        self.sketch = self._sketch = sketch or default_sketch(caps, rng_seed)
        # when set to a list, every filter evaluation is appended as
        # (candidate, victim, candidate_est, victim_est, admitted); after
        # bind_keys, candidate and victim are dense key ids, not keys
        self.decision_log = None
        # L2 hits promote into Veterans, or into the window if there are none
        self._top = self.veterans if self.veterans.capacity > 0 else self.window
        # membership reads bypass the space wrappers in the hot loop
        self._win_od = self.window._od
        self._vet_od = self.veterans._od
        self._l2_prob = self.mains[0]._probation
        self._l2_prot = self.mains[0]._protected
        self._deeper = tuple(enumerate(self.mains[1:], start=3))
        # interned outcomes: misses indexed by the last level written;
        # deep hits by level - 2, like mains, then (touched, promoted,
        # promoted and swapped)
        levels = range(self.n_levels + 1)
        self._misses_from_l1 = tuple(AccessOutcome(MISS, _run(1, last)) for last in levels)
        self._misses_from_l2 = tuple(AccessOutcome(MISS, _run(2, last)) for last in levels)
        self._deep_hits = tuple(
            tuple(AccessOutcome(hit_at_level(level), _run(level - 1, level - 2 + moved))
                  for moved in range(3))
            for level in levels[2:]
        )

    def bind_keys(self, keys) -> None:
        """From now on, take each request as an index into ``keys``, a
        list of distinct keys; the sketch hashes every key once, here."""
        self._sketch.bind_keys(keys)

    def handle(self, key) -> AccessOutcome:
        self.sketch.record(key)
        if key in self._win_od:
            self._win_od.move_to_end(key)
            return _HIT_WINDOW
        if key in self._vet_od:
            self._vet_od.move_to_end(key)
            return _HIT_VETERANS
        if key in self._l2_prob or key in self._l2_prot:
            return self._on_deep_hit(key, 2)
        for level, space in self._deeper:
            if key in space:
                return self._on_deep_hit(key, level)
        return self._on_miss(key)

    def _wins(self, candidate, victim) -> bool:
        ce = self.sketch.estimate(candidate)
        ve = self.sketch.estimate(victim)
        admitted = ce > ve if self._strict else ce >= ve
        if self.decision_log is not None:
            self.decision_log.append((candidate, victim, ce, ve, admitted))
        return admitted

    def _on_miss(self, key) -> AccessOutcome:
        if self.window.capacity > 0:
            candidate = self.window.push(key)
            if candidate is _NO_VICTIM:
                return self._misses_from_l1[1]
            return self._misses_from_l1[self._admit_down(candidate, 2)]
        victim = self.veterans.victim_if_full()
        if victim is _NO_VICTIM:
            self.veterans.insert(key)
            return self._misses_from_l1[1]
        if self._wins(key, victim):
            # no window: the missed key took a veteran's slot, and the
            # displaced veteran enters L2 unfiltered
            self.veterans.push(key)
            return self._misses_from_l1[self._admit_down(victim, 2, contested=False)]
        return self._misses_from_l2[self._admit_down(key, 2)]

    def _admit_down(self, candidate, level, contested=True) -> int:
        # each hop is filtered, the first only if `contested`; a displaced
        # victim walks on down, a rejected candidate leaves the cache.
        # Returns the last level written, level - 1 if none was.
        for level, space in enumerate(self.mains[level - 2:], start=level):
            if contested:
                victim = space.victim_if_full()
                if victim is not _NO_VICTIM and not self._wins(candidate, victim):
                    return level - 1
            candidate = space.push(candidate)
            if candidate is _NO_VICTIM:
                return level
            contested = True
        return self.n_levels

    def _on_deep_hit(self, key, level: int) -> AccessOutcome:
        src = self.mains[level - 2]
        target = self._top if level == 2 else self.mains[level - 3]
        touched, promoted, swapped = self._deep_hits[level - 2]
        victim = target.victim_if_full()
        if victim is _NO_VICTIM:
            src.remove(key)
            target.insert(key)
            return promoted
        if self._wins(key, victim):
            src.remove(key)
            target.push(key)
            src.push(victim)  # into the slot the promotion freed
            return swapped
        src.touch(key)
        return touched

    def check_invariants(self) -> None:
        _check_exclusive((self.window, self.veterans, *self.mains))


class BiDiFilter(CascadeFilter):
    """The filtered policy at exactly two levels; ``l2`` names the lower one."""

    def __init__(self, level_capacities, **kwargs):
        caps = tuple(level_capacities)
        if len(caps) != 2:
            raise ValueError(f"{type(self).__name__} supports exactly two levels")
        super().__init__(caps, **kwargs)
        self.l2 = self.mains[0]


class BiDiFilterUnited(BiDiFilter):
    """Two levels with an undivided LRU L1: the window takes all of it."""

    def __init__(self, level_capacities, **kwargs):
        super().__init__(level_capacities, window_fraction=1.0, **kwargs)


class Promote:
    """The unfiltered baselines: plain LRU levels chained top to bottom.

    A hit below L1 promotes with probability promote_prob (else it just
    refreshes in place); each demotion hop actually writes the victim to
    the next level with probability demote_prob (else the victim is
    dropped and the cascade stops).  ``Demote`` is promote_prob = 1,
    demote_prob = 1; ``NaiveLRU`` is promote_prob = 0, demote_prob = 1.

    Draw order per request: one draw for the promotion decision on a
    deep hit, then one draw per demotion hop, top down.  When both
    probabilities are 0 or 1 no draw can change an outcome, and none is
    made.

    Outcomes are interned per engine: every insert starts at L1 and
    cascades down, so a request writes levels 1 to the last level
    ``_push_top`` reports, or nothing for a hit refreshed in place.
    """

    def __init__(self, level_capacities, *, promote_prob=PolicySpec.promote_prob,
                 demote_prob=PolicySpec.demote_prob, rng_seed=PolicySpec.rng_seed):
        caps = _check_level_capacities(level_capacities)
        _check_fractions(promote_prob=promote_prob, demote_prob=demote_prob)
        rng_seed = _check_seed(rng_seed)
        self.levels = tuple(LruSpace(c) for c in caps)
        self.n_levels = len(caps)
        # interned outcomes, indexed by the last level written (0 for a
        # hit refreshed in place); hits first by level - 1
        levels = range(self.n_levels + 1)
        labels = (HIT_L1_WINDOW, *map(hit_at_level, levels[2:]))
        self._misses = tuple(AccessOutcome(MISS, _run(1, last)) for last in levels)
        self._hits = tuple(
            tuple(AccessOutcome(label, _run(1, last)) for last in levels) for label in labels
        )
        # membership reads, removals and recency updates bypass the space
        # wrappers in the hot loop
        self._chain = tuple(enumerate(sp._od for sp in self.levels))
        self.promote_prob = promote_prob
        self.demote_prob = demote_prob
        self.rng = random.Random(rng_seed)
        # a constant 0.5 decides a 0-or-1 probability the way any draw
        # would, without advancing the random stream
        certain = {promote_prob, demote_prob} <= {0, 1}
        self._coin = itertools.repeat(0.5).__next__ if certain else self.rng.random

    def handle(self, key) -> AccessOutcome:
        for i, od in self._chain:
            if key in od:
                if i and self._coin() < self.promote_prob:
                    del od[key]
                    return self._hits[i][self._push_top(key)]
                od.move_to_end(key)
                return self._hits[i][0]
        return self._misses[self._push_top(key)]

    def _push_top(self, item) -> int:
        # insert at L1 MRU; each overflow victim moves one level down if the
        # demotion coin lets it, else it leaves the cache.  Returns the
        # last level written.
        coin, demote_prob = self._coin, self.demote_prob
        for level, space in enumerate(self.levels, start=1):
            item = space.push(item)
            if item is _NO_VICTIM or coin() >= demote_prob:
                return level
        return self.n_levels

    def check_invariants(self) -> None:
        _check_exclusive(self.levels)


class Demote(Promote):
    """One global LRU order spread across the levels.

    Hits anywhere move the key to L1 MRU; the displaced items slide one
    level down, so the concatenated spaces always equal a single LRU
    stack of the combined capacity.
    """

    def __init__(self, level_capacities):
        super().__init__(level_capacities, promote_prob=1.0, demote_prob=1.0)

    def outcome_counts(self, distances, distinct_before) -> Counter:
        """The histogram a replay of a trace would give, from the trace's
        LRU profile (``harness.lru_profile``) in place of a replay.

        ``distances[i]`` is request i's 1-based LRU stack distance (0 for
        a first access) and ``distinct_before[i]`` the count of distinct
        keys before it, both numpy integer arrays.  With B_L the
        capacity of levels 1..L and C the total, a request at
        B_{L-1} < d <= B_L hits level L: at L1 it writes nothing, deeper
        it writes levels 1..L.  Every other request misses and writes
        levels 1..j, j the first level with min(distinct_before, C) < B_j
        (the first level not yet full), or the last level if there is
        none.  As no B_j exceeds C, that is the first level with
        distinct_before < B_j.  The outcomes are this engine's own; its
        cache is not read.
        """
        bounds = np.cumsum([space.capacity for space in self.levels])
        n = self.n_levels
        hit = np.where(distances > 0, np.searchsorted(bounds, distances), n)  # level - 1
        seen = distinct_before[hit == n]
        last = np.minimum(np.searchsorted(bounds, seen, side="right"), n - 1)  # j - 1
        counts = Counter()
        hits = np.bincount(hit, minlength=n + 1)[:n].tolist()
        for level, count in enumerate(hits, start=1):
            if count:
                counts[self._hits[level - 1][0 if level == 1 else level]] = count
        for j, count in enumerate(np.bincount(last, minlength=n).tolist(), start=1):
            if count:
                counts[self._misses[j]] = count
        return counts


class NaiveLRU(Promote):
    """Independent LRU levels: hits refresh in place and never move up."""

    def __init__(self, level_capacities):
        super().__init__(level_capacities, promote_prob=0.0, demote_prob=1.0)
