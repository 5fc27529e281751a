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
levels (a filter between every adjacent pair), and ``make_policy``
builds it for both filtered kinds at any depth: ``BiDiFilterUnited`` is
the engine whose window takes all of L1 (``window_fraction=1``).  The
``BiDiFilter`` and ``BiDiFilterUnited`` classes are its two-level
shorthands.  ``oracles.reference_filter_outcomes`` restates the scheme
with python lists as the tests' reference.  ``CascadeFilter.handle``
takes one request; a whole trace of key ids over a bound sketch
replays in one loop (``CascadeFilter._replay``), and a hooked policy,
one with a stand-in sketch or a ``decision_log``, request by request
through ``handle``.

Writes are accounted per level: an insert into a level coming from
outside that level costs one write; recency updates within a level are
free.  ``AccessOutcome`` carries the request classification plus the
writes it caused, so a simulation can price traffic exactly.  The
writes of one request land on a contiguous run of levels, one each, so
every engine interns its outcomes: it builds them all once, when it is
constructed, in tables indexed by the last level a request wrote, and
handling a request returns a table entry without allocating.

Each space also tallies the writes into it (``insert_count``), so the
accounting can be checked from outside.  ``CascadeFilter.handle``
and its whole-trace loop tally the writes they make on the spaces'
OrderedDicts themselves, and
``spaces.lru_cascade`` the baselines'; a fill through a space's
``insert`` tallies its own.

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

import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import integer, number, sequence
from .sketch import FrequencySketch, SketchConfig, mix64
from .spaces import LruSpace, SlruSpace, lru_cascade, lru_chain

MISS = "miss"
HIT_L1_WINDOW = "hit_l1_window"
HIT_L1_VETERANS = "hit_l1_veterans"

KINDS = ("BiDiFilter", "BiDiFilterUnited", "Demote", "NaiveLRU", "Promote")
_FILTERED_KINDS = ("BiDiFilter", "BiDiFilterUnited")  # the kinds a CascadeFilter runs
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
    caps = sequence("level_capacities", level_capacities,
                    lambda c: integer("every level capacity", c, 1))
    if len(caps) < 2:
        raise ValueError("need at least two cache levels")
    return caps


def _fraction(name: str, value) -> float:
    return number(name, value, "a number in [0, 1]", lambda x: 0.0 <= x <= 1.0)


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

    Every kind runs at any depth of two levels or more.
    window_fraction and tie_break only apply to the filtered kinds;
    promote_prob/demote_prob only to Promote.  rng_seed, an integer,
    feeds the sketch hash seed and Promote's coin flips.  These defaults
    are the engines' and the command line's defaults too.
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
            raise ValueError(
                f"unknown policy kind: {self.kind!r}; choose from {', '.join(KINDS)}")
        object.__setattr__(
            self, "level_capacities", _check_level_capacities(self.level_capacities)
        )
        for name in ("window_fraction", "promote_prob", "demote_prob"):
            object.__setattr__(self, name, _fraction(name, getattr(self, name)))
        _check_tie_break(self.tie_break)
        object.__setattr__(self, "rng_seed", integer("rng_seed", self.rng_seed))

    @property
    def n_levels(self) -> int:
        return len(self.level_capacities)


def default_sketch(level_capacities, rng_seed: int) -> FrequencySketch:
    total = sum(level_capacities)
    return FrequencySketch(
        SketchConfig.for_capacity(total), seed=mix64(rng_seed ^ _SKETCH_SALT)
    )


def make_policy(spec: PolicySpec):
    """Build a policy object from its spec; both filtered kinds, at any
    depth, are a ``CascadeFilter``."""
    caps = spec.level_capacities
    if spec.kind in _FILTERED_KINDS:
        united = spec.kind == "BiDiFilterUnited"
        return CascadeFilter(
            caps,
            window_fraction=1.0 if united else spec.window_fraction,
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
    at the top, and what it displaces walks down: a winning candidate's
    displaced victim is the next level's candidate, and a loser or the
    bottom level's victim leaves the cache.  Without a window the missed
    key contests Veterans, and a veteran it displaces takes its first
    hop, into L2, unfiltered.  A hit at level i is a filtered promotion
    into level i-1 (Veterans, or the window when there are no Veterans,
    for i = 2) whose displaced victim demotes into the slot the hit just
    vacated.

    ``handle`` runs every level itself, on the spaces' OrderedDicts, over
    one ``lru_chain`` built at construction: a ``(level, space,
    probation, protected, capacity)`` entry per level, from the top
    space L2 hits promote into (an LruSpace, whose protected part stays
    empty, as in ``oracles.reference_filter_outcomes``) down to level
    N.  One loop over levels 2..N finds a deep hit and promotes it into
    the entry above; another walks a miss's candidate down them.  Only
    L1 hits and a miss's L1 step are written out apart.  ``handle`` adds
    one to a space's ``insert_count`` for each write it makes there, and
    fills free room in L1, or room a promotion finds free, through the
    space's ``insert``.  Every contest is decided by ``_wins``, and
    every sketch call goes through ``self.sketch``, so stand-ins
    assigned to it and to ``decision_log`` see each record, estimate
    and contest.

    ``_replay`` runs a whole trace of key ids in one loop: ``handle``
    with the sketch calls and the contest written into it, which is
    what ``run_single`` replays the filtered kinds through.  A hooked
    policy (a stand-in sketch or a ``decision_log``) replays through
    ``handle`` instead, request by request, so its hooks see every
    call.  ``handle`` is the reference the loop is held to.

    Outcomes are interned per engine: a miss writes a run of levels
    from L1 (or from L2, when the missed key itself walks down) to the
    last level written, and a hit at level i writes nothing, level i-1,
    or levels i-1 and i.
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
        window_fraction = _fraction("window_fraction", window_fraction)
        _check_tie_break(tie_break)
        rng_seed = integer("rng_seed", rng_seed)
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
        # L2 hits promote into Veterans, or into the window if there are
        # none; either holds at least one key
        top = self.veterans if self.veterans.capacity > 0 else self.window
        self._chain = lru_chain((top, *self.mains))
        self._below = self._chain[1:]  # levels 2..N: deep hits, and a miss's walk
        self._win_od, self._win_cap = self.window._probation, self.window.capacity
        self._vet_od, self._vet_cap = self.veterans._probation, self.veterans.capacity
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
        win, vet = self._win_od, self._vet_od
        if key in win:
            win.move_to_end(key)
            return _HIT_WINDOW
        if key in vet:
            vet.move_to_end(key)
            return _HIT_VETERANS
        below = self._below
        for level, space, prob, prot, _ in below:
            if key in prob or key in prot:
                # promote into the level above; a displaced victim takes
                # the slot the hit vacates, a refused hit is touched here
                _, up, up_prob, up_prot, up_cap = self._chain[level - 2]
                touched, promoted, swapped = self._deep_hits[level - 2]
                if len(up_prob) + len(up_prot) < up_cap:
                    del (prob if key in prob else prot)[key]
                    up.insert(key)
                    return promoted
                evict = up_prob or up_prot
                for victim in evict:  # its LRU key
                    break
                if not self._wins(key, victim):
                    space.touch(key)
                    return touched
                del (prob if key in prob else prot)[key]
                del evict[victim]
                up_prob[key] = None
                up.insert_count += 1
                prob[victim] = None
                space.insert_count += 1
                return swapped
        # a miss enters the window, or without one contests Veterans
        if self._win_cap:
            if len(win) < self._win_cap:
                self.window.insert(key)
                return self._misses_from_l1[1]
            candidate = win.popitem(False)[0]
            win[key] = None
            self.window.insert_count += 1
            misses, contested = self._misses_from_l1, True
        elif len(vet) < self._vet_cap:
            self.veterans.insert(key)
            return self._misses_from_l1[1]
        else:
            for victim in vet:  # its LRU key
                break
            if self._wins(key, victim):
                # the missed key takes the veteran's slot, and the
                # displaced veteran enters L2 unfiltered
                del vet[victim]
                vet[key] = None
                self.veterans.insert_count += 1
                candidate, misses, contested = victim, self._misses_from_l1, False
            else:
                candidate, misses, contested = key, self._misses_from_l2, True
        # the candidate walks down levels 2..N: it fills free room, or
        # evicts the level's victim if it wins (or needs no contest), and
        # that victim walks on; a loser, or the bottom's victim, leaves
        for level, space, prob, prot, cap in below:
            if len(prob) + len(prot) < cap:
                prob[candidate] = None
                space.insert_count += 1
                return misses[level]
            evict = prob or prot
            for victim in evict:  # probation's LRU key, or protected's if it is empty
                break
            if contested and not self._wins(candidate, victim):
                return misses[level - 1]
            del evict[victim]
            prob[candidate] = None
            space.insert_count += 1
            candidate, contested = victim, True
        return misses[self.n_levels]

    def _replay(self, ids) -> Counter:
        """The outcome histogram of ``map(self.handle, ids)``, over the
        key ids of a bound sketch's keys, in one loop.

        The loop is ``handle`` with the sketch's ``record`` and
        ``estimate`` and ``_wins`` written into it, over the spaces, the
        outcome tables and the sketch's table, slot rows and countdowns
        held as locals; it halves at the request ``record`` would.  It
        counts each outcome in a slot of one list, so it keeps nothing
        per request.  It fills free room through ``insert`` and
        refreshes a refused promotion through ``touch``, as ``handle``
        does.  It leaves every space, ``insert_count`` and sketch
        counter, countdown and ``increments_since_reset`` as ``handle``
        would.  A stand-in
        assigned to ``sketch``, a ``decision_log``, or a sketch that is
        not a bound ``FrequencySketch`` sends the trace through
        ``self.handle`` one request at a time, so every hook sees each
        record, estimate and contest.
        """
        sketch = self._sketch
        if (self.sketch is not sketch or self.decision_log is not None
                or type(sketch) is not FrequencySketch or sketch._slot_rows is None):
            return Counter(map(self.handle, ids))
        rows, counter_cap = sketch._slot_rows, sketch._cap
        tbl, left = sketch._table, sketch._left
        sample_size, increments = sketch._sample_size, sketch.increments_since_reset
        strict = self._strict
        window, veterans = self.window, self.veterans
        win, win_cap, vet, vet_cap = self._win_od, self._win_cap, self._vet_od, self._vet_cap
        chain, below = self._chain, self._below
        n_levels = self.n_levels
        # each outcome is counted at its index in table, and the outcome
        # tables become tables of those indexes, laid out as in table
        table = (_HIT_WINDOW, _HIT_VETERANS, *self._misses_from_l1, *self._misses_from_l2,
                 *(outcome for hits in self._deep_hits for outcome in hits))
        width = n_levels + 1
        misses_from_l1, misses_from_l2 = range(2, 2 + width), range(2 + width, 2 + 2 * width)
        deep_hits = tuple(range(start, start + 3) for start in range(2 + 2 * width, len(table), 3))
        counts = [0] * len(table)
        for key in ids:
            # record
            n = left[key]
            if n:
                left[key] = n - 1
                for row in rows:
                    tbl[row[key]] += 1
            increments += 1
            if increments >= sample_size:
                sketch.halve()
                tbl, left, increments = sketch._table, sketch._left, 0
            if key in win:
                win.move_to_end(key)
                counts[0] += 1
                continue
            if key in vet:
                vet.move_to_end(key)
                counts[1] += 1
                continue
            for level, space, prob, prot, _ in below:
                if key in prob or key in prot:
                    _, up, up_prob, up_prot, up_cap = chain[level - 2]
                    touched, promoted, swapped = deep_hits[level - 2]
                    if len(up_prob) + len(up_prot) < up_cap:
                        del (prob if key in prob else prot)[key]
                        up.insert(key)
                        counts[promoted] += 1
                        break
                    evict = up_prob or up_prot
                    for victim in evict:
                        break
                    # contest: the key's estimate against its victim's
                    ce = ve = counter_cap
                    if left[key]:
                        for row in rows:
                            c = tbl[row[key]]
                            if c < ce:
                                ce = c
                    if left[victim]:
                        for row in rows:
                            c = tbl[row[victim]]
                            if c < ve:
                                ve = c
                    if not (ce > ve if strict else ce >= ve):
                        space.touch(key)
                        counts[touched] += 1
                        break
                    del (prob if key in prob else prot)[key]
                    del evict[victim]
                    up_prob[key] = None
                    up.insert_count += 1
                    prob[victim] = None
                    space.insert_count += 1
                    counts[swapped] += 1
                    break
            else:
                # a miss
                if win_cap:
                    if len(win) < win_cap:
                        window.insert(key)
                        counts[misses_from_l1[1]] += 1
                        continue
                    candidate = win.popitem(False)[0]
                    win[key] = None
                    window.insert_count += 1
                    misses, contested = misses_from_l1, True
                elif len(vet) < vet_cap:
                    veterans.insert(key)
                    counts[misses_from_l1[1]] += 1
                    continue
                else:
                    for victim in vet:
                        break
                    ce = ve = counter_cap
                    if left[key]:
                        for row in rows:
                            c = tbl[row[key]]
                            if c < ce:
                                ce = c
                    if left[victim]:
                        for row in rows:
                            c = tbl[row[victim]]
                            if c < ve:
                                ve = c
                    if ce > ve if strict else ce >= ve:
                        del vet[victim]
                        vet[key] = None
                        veterans.insert_count += 1
                        candidate, misses, contested = victim, misses_from_l1, False
                    else:
                        candidate, misses, contested = key, misses_from_l2, True
                for level, space, prob, prot, room in below:
                    if len(prob) + len(prot) < room:
                        prob[candidate] = None
                        space.insert_count += 1
                        counts[misses[level]] += 1
                        break
                    evict = prob or prot
                    for victim in evict:
                        break
                    if contested:
                        ce = ve = counter_cap
                        if left[candidate]:
                            for row in rows:
                                c = tbl[row[candidate]]
                                if c < ce:
                                    ce = c
                        if left[victim]:
                            for row in rows:
                                c = tbl[row[victim]]
                                if c < ve:
                                    ve = c
                        if not (ce > ve if strict else ce >= ve):
                            counts[misses[level - 1]] += 1
                            break
                    del evict[victim]
                    prob[candidate] = None
                    space.insert_count += 1
                    candidate, contested = victim, True
                else:
                    counts[misses[n_levels]] += 1
        sketch.increments_since_reset = increments
        hist = Counter()
        for outcome, count in zip(table, counts):
            if count:
                hist[outcome] += count
        return hist

    def _wins(self, candidate, victim) -> bool:
        ce = self.sketch.estimate(candidate)
        ve = self.sketch.estimate(victim)
        admitted = ce > ve if self._strict else ce >= ve
        if self.decision_log is not None:
            self.decision_log.append((candidate, victim, ce, ve, admitted))
        return admitted

    def check_invariants(self) -> None:
        _check_exclusive((self.window, self.veterans, *self.mains))


class BiDiFilter(CascadeFilter):
    """The filtered policy at exactly two levels; ``mains[0]`` is L2."""

    def __init__(self, level_capacities, **kwargs):
        caps = _check_level_capacities(level_capacities)
        if len(caps) != 2:
            raise ValueError(f"{type(self).__name__} supports exactly two levels")
        super().__init__(caps, **kwargs)


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
    deep hit, then one draw per demotion hop, top down.  Every decision
    draws, whatever its probability: a draw in [0, 1) never passes a
    probability of 0 and always passes one of 1.

    Outcomes are interned per engine: every insert starts at L1 and
    cascades down, so a request writes levels 1 to the last level
    ``spaces.lru_cascade`` reports, or nothing for a hit refreshed in
    place.  That function also tallies each level's ``insert_count``.
    """

    def __init__(self, level_capacities, *, promote_prob=PolicySpec.promote_prob,
                 demote_prob=PolicySpec.demote_prob, rng_seed=PolicySpec.rng_seed):
        caps = _check_level_capacities(level_capacities)
        promote_prob = _fraction("promote_prob", promote_prob)
        demote_prob = _fraction("demote_prob", demote_prob)
        rng_seed = integer("rng_seed", rng_seed)
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
        self._chain = tuple(enumerate(sp._probation for sp in self.levels))
        self._cascade = lru_chain(self.levels)
        self.promote_prob = promote_prob
        self.demote_prob = demote_prob
        self.rng = random.Random(rng_seed)
        self._coin = self.rng.random

    def handle(self, key) -> AccessOutcome:
        for i, od in self._chain:
            if key in od:
                if i and self._coin() < self.promote_prob:
                    del od[key]
                    return self._hits[i][
                        lru_cascade(self._cascade, key, self._coin, self.demote_prob)]
                od.move_to_end(key)
                return self._hits[i][0]
        return self._misses[lru_cascade(self._cascade, key, self._coin, self.demote_prob)]

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
