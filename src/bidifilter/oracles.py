"""Deliberately slow reference implementations, for tests only.

Everything here favors obviousness over speed: exact counts by plain
counting, LRU hits and LRU stack distances with a python list, the
filtered policy and the chained-LRU baselines with every space a python
list, the count-min sketch with one list per row and every access
hashed afresh, replay counters by a pass over the list of outcomes,
Zipf probabilities by direct summation, the synthetic stream one event
at a time, trace files one line at a time.  The test suite checks a
fast path against each one.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from collections import Counter, deque
from decimal import Decimal
from typing import Iterable, Iterator, Sequence

import numpy as np

from .sketch import mix64
from .spaces import PROTECTED_FRACTION
from .workload import (
    _BLOCK,
    CHUNK_BYTES,
    RECENT_BUFFER,
    SyntheticSpec,
    TraceFormatError,
    zipf_cumulative,
)

def exact_counts(keys: Iterable) -> Counter:
    """True occurrence count of every key, by plain counting."""
    counts = Counter()
    for key in keys:
        counts[key] += 1
    return counts


def reference_lru_hits(keys: Sequence, capacity: int) -> int:
    """Hits of a single LRU cache of ``capacity``, simulated with a list."""
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    cache: list = []  # index 0 is the least recently used
    hits = 0
    for key in keys:
        if key in cache:
            cache.remove(key)
            cache.append(key)
            hits += 1
        else:
            cache.append(key)
            if len(cache) > capacity:
                cache.pop(0)
    return hits


def reference_stack_distances(keys: Sequence) -> list[int]:
    """Each access's 1-based LRU stack distance (0 for a first access),
    from an LRU stack kept as a python list."""
    stack: list = []  # index 0 is the most recently used
    distances = []
    for key in keys:
        if key in stack:
            depth = stack.index(key)
            del stack[depth]
            distances.append(depth + 1)
        else:
            distances.append(0)
        stack.insert(0, key)
    return distances


def reference_filter_outcomes(
    keys: Sequence,
    level_capacities: Sequence[int],
    sketch,
    window_fraction: float,
    tie_break: str,
) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """``(classification, writes)`` of every request under the filtered policy.

    Restates the Window/Veterans L1 over SLRU levels 2..N with every space
    a python list (index 0 is the eviction end).  ``sketch`` must be fresh
    and built like the policy's own; it is recorded into as the keys go by.

    It matches the engine only when keys that compare equal also hash
    alike in the sketch, as ints, bools and other reals equal to an int
    do: a hit here re-appends the requesting object, where the engine
    keeps the one already cached.  For other equal keys (``(1,)`` and
    ``(1.0,)``) compiling guarantees it: ``harness.compile_trace`` stands
    one key for every class of equal keys, so feed the reference
    ``trace.keys[i]`` for each id.
    """
    if len(level_capacities) < 2 or min(level_capacities) < 1:
        raise ValueError("need at least two levels, each of capacity >= 1")
    if tie_break not in ("admit", "reject"):
        raise ValueError("tie_break must be 'admit' or 'reject'")
    window_cap = round(window_fraction * level_capacities[0])
    # a space is [capacity, probation, protected, protected_capacity]; the
    # L1 spaces are plain LRU, which is an SLRU whose protected part is empty
    window = [window_cap, [], [], 0]
    veterans = [level_capacities[0] - window_cap, [], [], 0]
    mains = [[c, [], [], math.ceil(PROTECTED_FRACTION * c)]
             for c in level_capacities[1:]]
    levels = [None, None] + mains  # levels[n] is the space of level n >= 2
    top = veterans if veterans[0] > 0 else window  # where L2 hits promote to

    def size(space):
        return len(space[1]) + len(space[2])

    def full(space):
        return size(space) >= space[0]

    def victim(space):
        return space[1][0] if space[1] else space[2][0]

    def holds(space, key):
        return key in space[1] or key in space[2]

    def insert(space, key):
        space[1].append(key)

    def remove(space, key):
        (space[1] if key in space[1] else space[2]).remove(key)

    def touch(space, key):
        if space[3] == 0:  # plain LRU
            space[1].remove(key)
            space[1].append(key)
        elif key in space[2]:
            space[2].remove(key)
            space[2].append(key)
        else:
            space[1].remove(key)
            space[2].append(key)
            if len(space[2]) > space[3]:
                space[1].append(space[2].pop(0))

    def wins(candidate, incumbent):
        ce, ve = sketch.estimate(candidate), sketch.estimate(incumbent)
        return ce > ve if tie_break == "reject" else ce >= ve

    def admit_down(candidate, level, writes):
        # filtered admission at `level`; each displaced victim tries the
        # next level down, a loser or the bottom victim leaves the cache
        for n in range(level, len(levels)):
            space = levels[n]
            if not full(space):
                insert(space, candidate)
                writes.append((n, 1))
                return
            out = victim(space)
            if not wins(candidate, out):
                return
            remove(space, out)
            insert(space, candidate)
            writes.append((n, 1))
            candidate = out

    outcomes = []
    for key in keys:
        sketch.record(key)
        writes: list = []
        if holds(window, key):
            touch(window, key)
            outcomes.append(("hit_l1_window", ()))
            continue
        if holds(veterans, key):
            touch(veterans, key)
            outcomes.append(("hit_l1_veterans", ()))
            continue
        level = next((n for n in range(2, len(levels)) if holds(levels[n], key)), None)
        if level is not None:
            src = levels[level]
            dst, dst_level = (top, 1) if level == 2 else (levels[level - 1], level - 1)
            if not full(dst):
                remove(src, key)
                insert(dst, key)
                writes.append((dst_level, 1))
            else:
                out = victim(dst)
                if wins(key, out):
                    remove(src, key)
                    remove(dst, out)
                    insert(dst, key)
                    insert(src, out)  # into the slot the hit vacated
                    writes += [(dst_level, 1), (level, 1)]
                else:
                    touch(src, key)
            outcomes.append((f"hit_l{level}", tuple(writes)))
            continue
        if window[0] > 0:
            evicted = full(window)
            if evicted:
                out = victim(window)
                remove(window, out)
            insert(window, key)
            writes.append((1, 1))
            if evicted:
                admit_down(out, 2, writes)
        elif not full(veterans):
            insert(veterans, key)
            writes.append((1, 1))
        elif wins(key, victim(veterans)):
            out = victim(veterans)
            remove(veterans, out)
            insert(veterans, key)
            writes.append((1, 1))
            # the displaced veteran enters L2 unfiltered; what it displaces
            # there is filtered further down
            l2 = levels[2]
            if full(l2):
                pushed = victim(l2)
                remove(l2, pushed)
                insert(l2, out)
                writes.append((2, 1))
                admit_down(pushed, 3, writes)
            else:
                insert(l2, out)
                writes.append((2, 1))
        else:
            admit_down(key, 2, writes)
        outcomes.append(("miss", tuple(writes)))
    return outcomes


def reference_chain_outcomes(
    keys: Sequence,
    level_capacities: Sequence[int],
    promote_prob: float,
    demote_prob: float,
    rng,
) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """``(classification, writes)`` of every request under the chained-LRU
    baselines (Promote; Demote is p = q = 1, NaiveLRU is p = 0, q = 1).

    Every level is a python list (index 0 is the eviction end).  ``rng``
    must be a fresh ``random.Random`` seeded like the policy's own.  It is
    drawn from on every decision, even a forced one: once for the
    promotion on a hit below L1, then once per demotion hop, top down.
    """
    if len(level_capacities) < 2 or min(level_capacities) < 1:
        raise ValueError("need at least two levels, each of capacity >= 1")
    levels: list[list] = [[] for _ in level_capacities]

    def push_top(item, writes):
        # insert at L1; each overflow victim moves one level down if the
        # demotion draw lets it, else it leaves the cache
        for n, (level, cap) in enumerate(zip(levels, level_capacities), start=1):
            evicted = len(level) >= cap
            if evicted:
                out = level.pop(0)
            level.append(item)
            writes.append((n, 1))
            if not evicted or rng.random() >= demote_prob:
                return
            item = out

    outcomes = []
    for key in keys:
        found = next((n for n, level in enumerate(levels) if key in level), None)
        writes: list = []
        if found == 0:
            levels[0].remove(key)
            levels[0].append(key)
            outcomes.append(("hit_l1_window", ()))
            continue
        if found is None:
            push_top(key, writes)
            outcomes.append(("miss", tuple(writes)))
            continue
        levels[found].remove(key)
        if rng.random() < promote_prob:
            push_top(key, writes)
        else:
            levels[found].append(key)  # refreshed in place
        outcomes.append((f"hit_l{found + 1}", tuple(writes)))
    return outcomes


def reference_sketch_counters(
    keys: Sequence, config, seed: int
) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """``(counters, estimate)`` after every record into a count-min sketch.

    Restates ``FrequencySketch`` with one python list per row.  Every
    access is hashed from scratch: an int (Python or numpy, bools
    included), or any other finite real number (a ``numbers.Real`` or a
    ``Decimal``) that equals an int, through ``mix64`` of that int, a
    string through keyed blake2b of its UTF-8 bytes, anything else
    through blake2b of ``str(key)``.  A row's
    counter index is the top-folded product of that base with the row's
    odd multiplier, masked to the width.  Counters saturate at
    ``config.counter_cap``, and every ``config.sample_size`` records all
    of them are halved.  ``counters`` is the row-major matrix right after
    the record (and any halving it triggers); ``estimate`` is the minimum
    over the recorded key's counters at that point.
    """
    m64 = (1 << 64) - 1
    salt = mix64(seed)
    multipliers = [mix64(0x9E3779B97F4A7C15 * (r + 1)) | 1 for r in range(config.depth)]
    rows = [[0] * config.width for _ in range(config.depth)]

    def base(key) -> int:
        if isinstance(key, (int, np.integer, np.bool_)):
            return mix64(int(key) ^ salt)
        if isinstance(key, Decimal):
            integral = key.is_finite() and key == key.to_integral_value()
        elif isinstance(key, numbers.Rational):
            integral = key.denominator == 1
        else:
            integral = isinstance(key, numbers.Real) and math.isfinite(key) and key == int(key)
        if integral:
            return mix64(int(key) ^ salt)
        data = (key if isinstance(key, str) else str(key)).encode("utf-8")
        digest = hashlib.blake2b(data, digest_size=8, key=salt.to_bytes(8, "little"))
        return int.from_bytes(digest.digest(), "little")

    def slots(key) -> list[int]:
        b = base(key)
        out = []
        for mult in multipliers:
            x = (b * mult) & m64
            out.append((x ^ (x >> 32)) % config.width)
        return out

    snapshots = []
    recorded = 0
    for key in keys:
        where = slots(key)
        for row, i in zip(rows, where):
            row[i] = min(row[i] + 1, config.counter_cap)
        recorded += 1
        if recorded == config.sample_size:
            rows = [[c // 2 for c in row] for row in rows]
            recorded = 0
        estimate = min(row[i] for row, i in zip(rows, where))
        snapshots.append((tuple(tuple(row) for row in rows), estimate))
    return snapshots


def reference_outcome_tally(outcomes: Sequence, n_levels: int) -> dict:
    """The counters ``SimStats`` reports, by one plain pass over a list of
    ``(classification, writes)`` outcomes.

    ``hits`` and ``writes`` are lists indexed by level - 1.  A
    classification is parsed from its text: ``"miss"``, the two L1
    buckets, or ``"hit_l<i>"`` for the hit level ``i``.
    """
    tally = {"requests": 0, "misses": 0, "h_l1_window": 0, "h_l1_veterans": 0,
             "hits": [0] * n_levels, "writes": [0] * n_levels}
    for classification, writes in outcomes:
        tally["requests"] += 1
        if classification == "miss":
            tally["misses"] += 1
        elif classification in ("hit_l1_window", "hit_l1_veterans"):
            tally["h_" + classification[4:]] += 1
            tally["hits"][0] += 1
        else:
            tally["hits"][int(classification.removeprefix("hit_l")) - 1] += 1
        for level, count in writes:
            tally["writes"][level - 1] += count
    return tally


def exact_zipf_probabilities(ground_set: int, skew: float) -> list[float]:
    """P(rank = r) for r in 1..ground_set, normalized by direct summation."""
    if ground_set < 1:
        raise ValueError("ground_set must be >= 1")
    weights = [r ** -skew for r in range(1, ground_set + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def reference_synthetic_stream(spec: SyntheticSpec) -> tuple[list[int], list[bool]]:
    """``generate_synthetic``'s keys and branch flags, one event at a time.

    The same block draws in the same order; each event then either
    re-emits ``recent[pick]`` from a deque of the last ``RECENT_BUFFER``
    keys or takes its Zipf draw.
    """
    rng = np.random.default_rng(spec.rng_seed)
    cum = zipf_cumulative(spec.ground_set, spec.skew)
    total = cum[-1]
    recent: deque = deque(maxlen=RECENT_BUFFER)
    keys: list[int] = []
    flags: list[bool] = []
    while len(keys) < spec.length:
        n = min(_BLOCK, spec.length - len(keys))
        u_branch = rng.random(n)
        zipf_keys = np.searchsorted(cum, rng.random(n) * total, side="right") + 1
        picks = rng.integers(0, RECENT_BUFFER, size=n)
        for j in range(n):
            took_recent = len(keys) >= RECENT_BUFFER and u_branch[j] < spec.recency
            key = recent[picks[j]] if took_recent else int(zipf_keys[j])
            recent.append(key)
            keys.append(key)
            flags.append(bool(took_recent))
    return keys, flags


def reference_ingest_trace(path) -> Iterator[str]:
    """``ingest_trace``'s keys, parsed and expanded one line at a time.

    Every line is stripped and split on commas on its own, and each of
    a sized access's ceil(size / ``CHUNK_BYTES``) chunk keys (at least
    one) is built with its own f-string and yielded on its own.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) > 2:
                raise TraceFormatError(f"line {lineno}: too many fields: {line!r}")
            key = parts[0].strip()
            if not key:
                raise TraceFormatError(f"line {lineno}: empty key: {line!r}")
            if len(parts) == 1:
                yield f"{key}#0"
                continue
            try:
                size = int(parts[1].strip())
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: size is not an integer: {line!r}"
                ) from None
            if size < 0:
                raise TraceFormatError(f"line {lineno}: negative size: {line!r}")
            for i in range(max(1, (size + CHUNK_BYTES - 1) // CHUNK_BYTES)):
                yield f"{key}#{i}"
