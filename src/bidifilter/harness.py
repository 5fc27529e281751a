"""Trace replay and parameter sweeps over policies and cache geometries.

A trace is compiled (``compile_trace``) before a filtered policy replays
it: each distinct key gets a dense id in first-seen order, and the trace
becomes an ``array`` of ids plus one list of the distinct keys.  Keys
that compare equal (1, True, 1.0, np.int64(1)) share one id, as they
share one entry in the policies' dicts, and the key seen first stands
for it.  The policy's sketch is bound to that list, so each distinct key
is hashed once per cell, into a slot table indexed by id.

Demote is one global LRU order spread across the levels, so over a
compiled trace its rows need no replay: the trace's LRU profile
(``lru_profile``: each access's stack distance, as in Mattson et al.,
"Evaluation techniques for storage hierarchies", 1970), computed on
first use and kept, gives its row at every geometry
(``Demote.outcome_counts``).

A sweep reads and compiles its trace once and runs every cell through
``run_single``; under ``jobs > 1`` each worker process receives the
trace once, when it starts.  A first pass counts distinct keys so
capacities can be expressed as fractions of the workload's footprint.
Every cell gets its own seed derived from the master seed and the cell
index, so results are reproducible row for row regardless of execution
order or parallelism.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .checks import integer, number, sequence
from .metrics import (
    LatencyParams,
    SimStats,
    avg_read_latency,
    avg_rw_latency,
    check_latency_covers,
    hit_ratio,
)
from .policies import _FILTERED_KINDS, PolicySpec, make_policy
from .sketch import derive_seed
from .workload import SyntheticSpec, count_uniques, generate_synthetic, ingest_trace


@dataclass(frozen=True)
class ResultRow:
    """One simulated cell, flattened for CSV/JSONL output.

    window_fraction and tie_break are None for policies they do not
    apply to (blank in CSV, null in JSONL).
    """

    trace_id: str
    policy_name: str
    l2_capacity: int
    l1_capacity: int
    window_fraction: float | None
    tie_break: str | None
    requests: int
    h_l1_window: int
    h_l1_veterans: int
    h_l2: int
    misses: int
    w_l1: int
    w_l2: int
    hit_ratio: float
    avg_read_latency_ns: float
    avg_rw_latency_ns: float
    rng_seed: int

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in RESULT_FIELDS}


RESULT_FIELDS = tuple(field.name for field in fields(ResultRow))


@dataclass(frozen=True)
class CompiledTrace:
    """A trace as dense key ids: ``ids[i]`` indexes ``keys``, the distinct
    keys in first-seen order.  Iterating it yields the ids."""

    ids: array
    keys: list

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    @cached_property
    def profile(self) -> tuple[np.ndarray, np.ndarray]:
        """This trace's ``lru_profile``, computed on first use and kept."""
        return lru_profile(self)


def compile_trace(trace: Iterable) -> CompiledTrace:
    """The trace as dense key ids, handed out in first-seen order.

    Keys that compare equal get one id, and the first of them seen is
    the id's key, so a prefix of a trace gets the ids it would get if
    compiled alone.  A CompiledTrace is returned as it is.
    """
    if isinstance(trace, CompiledTrace):
        return trace
    ids = array("I")
    index: dict = {}
    for key in trace:
        ids.append(index.setdefault(key, len(index)))
    return CompiledTrace(ids, list(index))


def run_single(
    policy_spec: PolicySpec,
    trace: Iterable,
    latency: LatencyParams | None = None,
    trace_id: str = "",
) -> ResultRow:
    """The row of one trace through one freshly built policy instance.

    A filtered kind compiles the trace (``compile_trace``) and binds its
    distinct keys to the policy, so the sketch hashes each key once.
    Demote reads its row off a CompiledTrace's ``profile``, which every
    later Demote row over that trace reuses.  Raw keys, Demote's
    included, are replayed as they come: the replay holds only the
    cache, where the profile needs the whole trace as ids and a few
    arrays of its length (at 1M accesses, about 80 MB above the start
    against 23 MB).  The outcomes are counted in one bulk call and
    checked once, at the end; a policy's own invariants
    (``check_invariants``) are left to callers that replay it
    themselves.
    """
    if latency is None:
        latency = LatencyParams()
    check_latency_covers(latency, policy_spec.n_levels, "policy")
    policy = make_policy(policy_spec)
    stats = SimStats(policy.n_levels)
    if policy_spec.kind == "Demote" and isinstance(trace, CompiledTrace):
        stats.add_all(policy.outcome_counts(*trace.profile))
    else:
        if policy_spec.kind in _FILTERED_KINDS:
            trace = compile_trace(trace)
            policy.bind_keys(trace.keys)
        stats.add_all(map(policy.handle, trace))
    return _result_row(policy_spec, stats, latency, trace_id)


def _result_row(
    policy_spec: PolicySpec, stats: SimStats, latency: LatencyParams, trace_id: str
) -> ResultRow:
    """The row of one cell from its outcome histogram, checked once."""
    if stats.requests == 0:
        raise ValueError("trace is empty")
    stats.check()
    filtered = policy_spec.kind in _FILTERED_KINDS
    united = policy_spec.kind == "BiDiFilterUnited"
    return ResultRow(
        trace_id=trace_id,
        policy_name=policy_spec.kind,
        l2_capacity=policy_spec.level_capacities[1],
        l1_capacity=policy_spec.level_capacities[0],
        window_fraction=None if (not filtered or united) else policy_spec.window_fraction,
        tie_break=policy_spec.tie_break if filtered else None,
        requests=stats.requests,
        h_l1_window=stats.h_l1_window,
        h_l1_veterans=stats.h_l1_veterans,
        h_l2=stats.hits_at(2),
        misses=stats.misses,
        w_l1=stats.writes_at(1),
        w_l2=stats.writes_at(2),
        hit_ratio=hit_ratio(stats),
        avg_read_latency_ns=avg_read_latency(stats, latency),
        avg_rw_latency_ns=avg_rw_latency(stats, latency),
        rng_seed=policy_spec.rng_seed,
    )


def lru_profile(trace: CompiledTrace) -> tuple[np.ndarray, np.ndarray]:
    """Each access's LRU stack distance, and the distinct keys before it.

    The stack distance of access i is 1 + the number of distinct keys
    requested since the previous access to its key, at index p, and 0
    for a first access.  Every access at or before p has its own
    previous access before p, so with ``prev`` the index of each
    access's previous access (-1 for none) it equals
    #{j < i : prev[j] < p} - p.  Those counts come from one pass per bit
    of ``v = prev + 1`` over a wavelet matrix, most significant bit
    first: the order at each level is stable by the bits above it, so
    the accesses j < i that share those bits with i sit in one run just
    before i, and when i has the level's bit set, the zeros in that run
    are the accesses whose v is smaller at this bit.  Memory is a few
    arrays of the trace's length.
    """
    ids = np.frombuffer(trace.ids, dtype=np.uint32)
    n = len(ids)
    dtype = np.int32 if n < 2**31 else np.int64
    by_key = np.argsort(ids, kind="stable")
    repeat = np.flatnonzero(ids[by_key[1:]] == ids[by_key[:-1]]) + 1
    v = np.zeros(n, dtype=dtype)  # prev + 1: 0 for a first access
    v[by_key[repeat]] = by_key[repeat - 1] + 1
    del by_key, repeat
    # in level order: each access's v, its original index, the start of
    # its run of equal high bits, and its count of smaller v so far
    vals, where = v, np.arange(n, dtype=dtype)
    start = np.zeros(n, dtype=dtype)
    smaller = np.zeros(n, dtype=dtype)
    zeros = np.zeros(n + 1, dtype=dtype)  # zeros[k]: clear bits before position k
    for bit in reversed(range(max(1, (n - 1).bit_length()))):
        ones = (vals >> bit & 1).astype(bool)
        np.cumsum(~ones, out=zeros[1:])
        zeros_to_start = zeros[start]
        smaller += np.where(ones, zeros[:-1] - zeros_to_start, 0)
        start = np.where(ones, zeros[-1] + start - zeros_to_start, zeros_to_start)
        # stable partition: clear bits first, each side in its old order
        order = np.concatenate((np.flatnonzero(~ones), np.flatnonzero(ones)))
        vals, where, start, smaller = vals[order], where[order], start[order], smaller[order]
    distances = np.empty(n, dtype=dtype)
    distances[where] = smaller
    first = v == 0
    distances = np.where(first, 0, distances - v + 1)
    distinct_before = np.cumsum(first, dtype=dtype) - first
    return distances, distinct_before


@dataclass(frozen=True)
class SweepSpec:
    """A full experiment: one trace source crossed with geometries/policies.

    policies are PolicySpec templates; their level_capacities and
    rng_seed are replaced per cell.  l2_size_percents are fractions of
    the trace's distinct-key count; l1_ratios are L1:L2 size ratios.
    n_levels and master_seed are integers; every kind runs at any
    n_levels, and levels beyond two extend the hierarchy geometrically
    with the same ratio.
    """

    trace_source: SyntheticSpec | str | Path
    policies: tuple[PolicySpec, ...]
    l2_size_percents: tuple[float, ...]
    l1_ratios: tuple[float, ...]
    latency: LatencyParams = LatencyParams()
    master_seed: int = 0
    n_levels: int = 2

    def __post_init__(self):
        # an int would be opened as a file descriptor
        if not isinstance(self.trace_source, (SyntheticSpec, str, os.PathLike)):
            raise ValueError(
                "trace_source must be a SyntheticSpec, a str or a path, "
                f"got {self.trace_source!r}"
            )
        object.__setattr__(self, "policies", sequence("policies", self.policies))
        object.__setattr__(self, "l2_size_percents", sequence(
            "l2_size_percents", self.l2_size_percents, lambda p: number(
                "l2_size_percents", p, "numbers in (0, 1]", lambda x: 0.0 < x <= 1.0)))
        object.__setattr__(self, "l1_ratios", sequence(
            "l1_ratios", self.l1_ratios, lambda r: number(
                "l1_ratios", r, "numbers in (0, 1)", lambda x: 0.0 < x < 1.0)))
        if not self.policies:
            raise ValueError("need at least one policy")
        if not all(isinstance(p, PolicySpec) for p in self.policies):
            raise ValueError(f"policies must be PolicySpecs, got {self.policies!r}")
        if not self.l2_size_percents or not self.l1_ratios:
            raise ValueError("need at least one geometry point")
        object.__setattr__(self, "n_levels", integer("n_levels", self.n_levels, 2))
        object.__setattr__(self, "master_seed", integer("master_seed", self.master_seed))
        check_latency_covers(self.latency, self.n_levels, "sweep")


def trace_label(source) -> str:
    if isinstance(source, SyntheticSpec):
        return (
            f"zipf-n{source.length}-g{source.ground_set}"
            f"-s{source.skew:g}-r{source.recency:g}-seed{source.rng_seed}"
        )
    return Path(source).name


def open_trace(source) -> Iterable:
    """Fresh key stream for a trace source; callable any number of times."""
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    return ingest_trace(source)


def level_capacities_for(
    uniques: int, l2_percent: float, l1_ratio: float, n_levels: int = 2
) -> tuple[int, ...]:
    """Resolve a geometry point against the workload footprint.

    L2 is a fraction of the distinct-key count, L1 a fraction of L2;
    deeper levels keep growing by the inverse ratio.  Every capacity is
    clamped up to 1.
    """
    uniques = integer("uniques", uniques, 0)
    l2_percent = number("l2_percent", l2_percent, "a number in (0, 1]", lambda x: 0.0 < x <= 1.0)
    l1_ratio = number("l1_ratio", l1_ratio, "a number in (0, 1)", lambda x: 0.0 < x < 1.0)
    n_levels = integer("n_levels", n_levels, 2)
    l2 = max(1, round(l2_percent * uniques))
    l1 = max(1, round(l1_ratio * l2))
    caps = [l1, l2]
    while len(caps) < n_levels:
        caps.append(max(1, round(caps[-1] / l1_ratio)))
    return tuple(caps)


_worker_cell_args: tuple = ()  # (trace, latency, trace_id) in a sweep pool worker


def _share_with_worker(trace, latency: LatencyParams, trace_id: str) -> None:
    global _worker_cell_args
    _worker_cell_args = (trace, latency, trace_id)


def _run_worker_cell(spec: PolicySpec) -> ResultRow:
    trace, latency, trace_id = _worker_cell_args
    return run_single(spec, trace, latency, trace_id=trace_id)


def run_sweep(sweep: SweepSpec, jobs: int = 1) -> list[ResultRow]:
    """All cells of a sweep, in deterministic (policy, percent, ratio) order.

    Every cell is one ``run_single`` over the sweep's compiled trace, so
    the Demote cells of one process share the trace's LRU profile and
    none of them replays.
    ``jobs`` is an integer >= 1 that bounds the worker processes; a
    sweep starts at most one per cell that replays (every kind but
    Demote), and none when at most one cell replays.
    """
    jobs = integer("jobs", jobs, 1)
    trace = compile_trace(open_trace(sweep.trace_source))
    uniques, accesses = count_uniques(trace)
    if accesses == 0:
        raise ValueError("trace is empty")
    label = trace_label(sweep.trace_source)
    specs = []
    index = 0
    for template in sweep.policies:
        for percent in sweep.l2_size_percents:
            for ratio in sweep.l1_ratios:
                caps = level_capacities_for(uniques, percent, ratio, sweep.n_levels)
                spec = replace(
                    template,
                    level_capacities=caps,
                    rng_seed=derive_seed(sweep.master_seed, index),
                )
                specs.append(spec)
                index += 1
    workers = min(jobs, sum(spec.kind != "Demote" for spec in specs))
    if workers > 1:
        # each worker receives the trace once, at start-up (inherited
        # under fork); a task carries only its PolicySpec
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_share_with_worker,
            initargs=(trace, sweep.latency, label),
        ) as pool:
            return list(pool.map(_run_worker_cell, specs))
    return [run_single(spec, trace, sweep.latency, trace_id=label) for spec in specs]


def write_rows_csv(rows: Sequence[ResultRow], fh) -> None:
    """CSV with the canonical header; None renders as an empty field."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RESULT_FIELDS)
    for row in rows:
        writer.writerow(
            "" if value is None else value for value in row.as_dict().values()
        )


def write_rows_jsonl(rows: Sequence[ResultRow], fh) -> None:
    """One JSON object per line, same field order as the CSV header."""
    for row in rows:
        fh.write(json.dumps(row.as_dict()))
        fh.write("\n")


_WRITERS = {"csv": write_rows_csv, "jsonl": write_rows_jsonl}


def write_rows(rows: Sequence[ResultRow], path, fmt: str = "csv") -> None:
    """Write rows in ``fmt`` (csv or jsonl) to ``path``, or to standard
    output when ``path`` is ``"-"``."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format: {fmt!r}")
    if path == "-":
        _WRITERS[fmt](rows, sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _WRITERS[fmt](rows, fh)
