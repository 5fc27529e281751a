"""Per-simulation counters and the latency model derived from them.

A replay's counters are a histogram of its outcomes: ``SimStats.add``
and ``add_all`` count each ``AccessOutcome`` once, and hits and writes
per level are read off the histogram at the end.  Latency numerators are accumulated
exactly (integer arithmetic whenever the configured latencies are whole
nanoseconds) and divided once at the end, so results are reproducible
to the last bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .checks import integer, number, sequence
from .policies import HIT_L1_VETERANS, HIT_L1_WINDOW, MISS, AccessOutcome, hit_at_level


@dataclass(frozen=True)
class LatencyParams:
    """Access costs in nanoseconds, each finite and > 0: one per cache
    level, plus the miss cost."""

    level_ns: tuple[float, ...] = (100.0, 200_000.0)
    miss_ns: float = 2_000_000.0

    def __post_init__(self):
        object.__setattr__(self, "level_ns", sequence(
            "level_ns", self.level_ns, lambda t: number("level_ns", t, "numbers")))
        object.__setattr__(self, "miss_ns", number("miss_ns", self.miss_ns))
        if not self.level_ns:
            raise ValueError("need at least one level latency")
        times = (*self.level_ns, self.miss_ns)
        if not all(math.isfinite(t) and t > 0 for t in times):
            raise ValueError(f"latencies must be finite and positive, got {times}")


def check_latency_covers(latency: LatencyParams, n_levels: int, what: str) -> None:
    """Raise, saying what to pass, unless ``latency`` is a LatencyParams
    that prices every one of ``n_levels`` levels."""
    if not isinstance(latency, LatencyParams):
        raise ValueError(f"latency must be a LatencyParams, got {latency!r}")
    given = len(latency.level_ns)
    if given < n_levels:
        raise ValueError(
            f"a {n_levels}-level {what} needs {n_levels} level latencies, {given} given; "
            f"pass latency=LatencyParams(level_ns=(t_l1, ..., t_l{n_levels}), miss_ns=t_miss)"
        )


# DRAM-vs-flash style alternative where misses are cheap reads from the
# backing store but L2 writes still hurt.
FAST_MISS_LATENCY = LatencyParams(level_ns=(2.0, 200_000.0), miss_ns=100.0)


class SimStats:
    """A histogram of the outcomes of one simulated trace replay.

    ``counts`` maps each distinct ``AccessOutcome`` to the number of
    requests that had it; ``add`` counts one outcome, ``add_all`` a
    whole iterable in one call.  Requests, misses, hits and writes per level are read
    off the histogram, and ``check`` refuses a histogram holding an
    outcome it cannot place.
    """

    __slots__ = ("n_levels", "counts")

    def __init__(self, n_levels: int):
        self.n_levels = integer("n_levels", n_levels, 1)
        self.counts: Counter[AccessOutcome] = Counter()

    def add(self, outcome: AccessOutcome) -> None:
        self.counts[outcome] += 1

    def add_all(self, outcomes) -> None:
        self.counts.update(outcomes)

    def _tally(self, classification: str) -> int:
        return sum(n for o, n in self.counts.items() if o.classification == classification)

    @property
    def requests(self) -> int:
        return sum(self.counts.values())

    @property
    def misses(self) -> int:
        return self._tally(MISS)

    @property
    def h_l1_window(self) -> int:
        return self._tally(HIT_L1_WINDOW)

    @property
    def h_l1_veterans(self) -> int:
        return self._tally(HIT_L1_VETERANS)

    def hits_at(self, level: int) -> int:
        level = integer("level", level)
        if not 1 <= level <= self.n_levels:
            raise ValueError(f"no such level: {level}")
        if level == 1:
            return self.h_l1_window + self.h_l1_veterans
        return self._tally(hit_at_level(level))

    def writes_at(self, level: int) -> int:
        level = integer("level", level)
        if not 1 <= level <= self.n_levels:
            raise ValueError(f"no such level: {level}")
        return sum(n * count for o, n in self.counts.items()
                   for at, count in o.writes if at == level)

    @property
    def total_hits(self) -> int:
        return sum(self.hits_at(level) for level in range(1, self.n_levels + 1))

    def check(self) -> None:
        """Raise AssertionError unless every outcome has a known
        classification and writes only to levels 1..n_levels, and the
        hits and misses add up to the requests."""
        known = {MISS, HIT_L1_WINDOW, HIT_L1_VETERANS,
                 *map(hit_at_level, range(2, self.n_levels + 1))}
        for outcome in self.counts:
            if outcome.classification not in known:
                raise AssertionError(
                    f"cannot place {outcome.classification!r} at {self.n_levels} levels")
            for at, _ in outcome.writes:
                if not 1 <= at <= self.n_levels:
                    raise AssertionError(
                        f"write at level {at} outside 1..{self.n_levels}")
        if self.total_hits + self.misses != self.requests:
            raise AssertionError("hits and misses do not add up to the requests")


def _exact(x: float):
    # keep whole-nanosecond latencies in int arithmetic for lossless sums
    xi = int(x)
    return xi if xi == x else x


def hit_ratio(stats: SimStats) -> float:
    if stats.requests == 0:
        raise ValueError("no requests recorded")
    return stats.total_hits / stats.requests


def _mean_latency(stats: SimStats, params: LatencyParams, with_writes: bool) -> float:
    """Mean nanoseconds per request; the read-only mean adds 0 in place
    of each level's writes, so both sum in the same order."""
    if stats.requests == 0:
        raise ValueError("no requests recorded")
    check_latency_covers(params, stats.n_levels, "histogram")
    num = _exact(params.miss_ns) * stats.misses
    for level in range(1, stats.n_levels + 1):
        t = _exact(params.level_ns[level - 1])
        num += t * stats.hits_at(level) + (t * stats.writes_at(level) if with_writes else 0)
    return num / stats.requests


def avg_read_latency(stats: SimStats, params: LatencyParams) -> float:
    """Mean nanoseconds to serve a request, ignoring write traffic."""
    return _mean_latency(stats, params, with_writes=False)


def avg_rw_latency(stats: SimStats, params: LatencyParams) -> float:
    """Mean nanoseconds per request including the writes each one caused."""
    return _mean_latency(stats, params, with_writes=True)
