"""Acceptance suite: the headline guarantees, one test and one line each.

Every numbered check prints a single PASS/FAIL summary to the terminal
(bypassing capture) so a full run reads as a checklist.  Scales and
tolerances are fixed below; the heavier simulations share their runs
through module-scoped fixtures.
"""

import hashlib
import io
import itertools
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np
import pytest

from bidifilter import (
    AccessOutcome,
    CascadeFilter,
    CompiledTrace,
    Demote,
    FrequencySketch,
    LatencyParams,
    PolicySpec,
    SimStats,
    SketchConfig,
    SyntheticSpec,
    avg_read_latency,
    avg_rw_latency,
    compile_trace,
    generate_synthetic,
    hit_at_level,
    hit_ratio,
    level_capacities_for,
    make_policy,
    run_single,
    write_rows_csv,
)
from bidifilter.cli import main
from bidifilter.oracles import (
    reference_chain_outcomes,
    reference_filter_outcomes,
    reference_lru_hits,
)
from bidifilter.policies import HIT_L1_WINDOW, HIT_L2, MISS, default_sketch


def _emit(capsys, index, label, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance [{index}/9] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- 1: sketch soundness ----------------------------------------------------

def test_sketch_estimates_are_sound(capsys):
    # 100 randomized trials of 1e5 records over <= 1e4 keys; estimates may
    # never fall below min(true count, counter cap), and at depth 4 and
    # width 2^16 almost nothing should be overestimated either.  Each trial
    # counts the way a filtered replay does: bind the keys, then record and
    # estimate by key id
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cfg = SketchConfig(sample_size=200_000, tracked_capacity=10_000, width=2**16)
    cap = cfg.counter_cap
    violations = 0
    overestimated = 0
    keys_seen = 0
    for _ in range(100):
        n_keys = int(rng.integers(1_000, 10_001))
        sketch = FrequencySketch(cfg, seed=int(rng.integers(0, 2**63)))
        keys = rng.integers(0, n_keys, size=100_000)
        sketch.bind_keys(list(range(n_keys)))  # key k has id k
        record = sketch.record
        for key in keys.tolist():
            record(key)
        counts = np.bincount(keys, minlength=n_keys)
        present = np.nonzero(counts)[0]
        floor = np.minimum(counts[present], cap)
        estimates = np.array([sketch.estimate(key) for key in present.tolist()])
        violations += int(np.sum(estimates < floor))
        overestimated += int(np.sum(estimates > floor))
        keys_seen += len(present)
    elapsed = time.perf_counter() - t0
    over_frac = overestimated / keys_seen
    ok = violations == 0 and over_frac < 0.01 and elapsed < 30
    _emit(capsys, 1, "sketch soundness", ok,
          f"{violations} violations, overestimate {over_frac:.3%} (<1%), {elapsed:.1f}s (<30s)")
    assert violations == 0
    assert over_frac < 0.01
    assert elapsed < 30


# --- 2: Demote is a global LRU ----------------------------------------------

def test_demote_matches_global_lru(capsys):
    rnd = random.Random(202)
    splits = ((10, 90), (25, 75), (50, 50), (75, 25), (90, 10))
    mismatches = 0
    cells = 0
    for trial in range(50):
        spec = SyntheticSpec(
            length=10_000, ground_set=500,
            skew=rnd.uniform(0.3, 1.2), recency=rnd.uniform(0.0, 0.8),
            rng_seed=trial,
        )
        keys = list(generate_synthetic(spec))
        ref_total = reference_lru_hits(keys, 100)
        for l1, l2 in splits:
            pol = Demote((l1, l2))
            hits = l1_hits = 0
            for k in keys:
                c = pol.handle(k).classification
                if c != MISS:
                    hits += 1
                    if c == HIT_L1_WINDOW:
                        l1_hits += 1
            cells += 1
            if hits != ref_total or l1_hits != reference_lru_hits(keys, l1):
                mismatches += 1
    ok = mismatches == 0
    _emit(capsys, 2, "Demote equals global LRU", ok,
          f"{cells} trace/split cells, {mismatches} mismatches")
    assert mismatches == 0


# --- 3: invariants under load -----------------------------------------------

def test_invariants_hold_across_policies(capsys):
    spec = SyntheticSpec(length=200_000, ground_set=150, skew=0.7, recency=0.3,
                         rng_seed=303)
    keys = list(generate_synthetic(spec))
    policy_specs = [
        PolicySpec("BiDiFilter", (6, 30), window_fraction=0.5, rng_seed=1),
        PolicySpec("BiDiFilterUnited", (6, 30), rng_seed=2),
        PolicySpec("Demote", (6, 30)),
        PolicySpec("NaiveLRU", (6, 30)),
        PolicySpec("Promote", (6, 30), rng_seed=3),
    ]
    events = 0
    failure = None
    for pspec in policy_specs:
        pol = make_policy(pspec)
        try:
            for k in keys:
                pol.handle(k)
                pol.check_invariants()
                events += 1
        except AssertionError as exc:
            failure = f"{pspec.kind} after {events} events: {exc}"
            break
    ok = failure is None and events == 5 * len(keys)
    _emit(capsys, 3, "exclusivity/capacity invariants", ok,
          failure or f"{events:,} events across 5 policies, 0 violations")
    assert failure is None, failure
    assert events == 1_000_000


# --- 4 and 5: desk-scale write-saving analogues -------------------------------

class L2Writes(NamedTuple):
    """L2 writes of one run, split at the end of the cold fill."""

    total: int
    prefix: int

    @property
    def steady(self) -> int:
        return self.total - self.prefix

    def __str__(self):
        return f"{self.total:,}/{self.prefix:,}/{self.steady:,}"


def _full_and_cold_rows(pspec, trace, fill):
    """One policy's rows over ``trace`` and over its first ``fill``
    accesses, and the seconds the full run took."""
    t0 = time.perf_counter()
    full = run_single(pspec, trace)
    elapsed = time.perf_counter() - t0
    return full, run_single(pspec, CompiledTrace(trace.ids[:fill], trace.keys)), elapsed


@pytest.fixture(scope="module")
def write_gap_rows():
    """Shared heavy runs: one trace, three policies at one geometry.

    Every policy also runs the cold-fill prefix, the accesses up to the
    one that brings the trace to L1 + L2 distinct keys.  Until then no
    exclusive policy has had to drop a key, and each of the L2 slots is
    written at least once whatever the policy, so checks 4 and 5 compare
    the steady-state L2 writes after it: full run minus prefix run
    (every run is deterministic, so the prefix run is exactly the start
    of the full one).  The cold fill's length is read off the trace's
    LRU profile: access i brings the trace to ``distinct_before[i]``
    distinct keys, plus one if it is a first access (distance 0).

    The trace is compiled once and every run reads it.  Ids are handed
    out in first-seen order, so the prefix gets the ids it would get if
    compiled alone.  The two BiDiFilter policies replay in two worker
    processes, while Demote reads its rows off the profile here.  Each
    policy's time is the compile plus its own full run, so check 4's
    budget still covers compiling.  Besides the L2 writes it returns the
    trace and each policy's full and cold-fill rows.
    """
    spec = SyntheticSpec(length=10**6, ground_set=10**5, skew=0.8, recency=0.2,
                         rng_seed=404)
    keys = list(generate_synthetic(spec))
    t0 = time.perf_counter()
    trace = compile_trace(keys)
    compile_s = time.perf_counter() - t0
    uniques = len(trace.keys)
    l2 = max(1, round(0.5 * uniques))
    l1 = max(1, round(0.1 * l2))
    distances, distinct_before = trace.profile
    reached = np.flatnonzero(distinct_before + (distances == 0) >= l1 + l2)
    assert len(reached), f"trace has fewer than {l1 + l2:,} distinct keys"
    fill = int(reached[0]) + 1
    specs = {
        name: PolicySpec("BiDiFilter", (l1, l2), window_fraction=0.5, tie_break=name,
                         rng_seed=0)
        for name in ("admit", "reject")
    }
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        # the workers get the trace without the profile this process keeps
        bare = CompiledTrace(trace.ids, trace.keys)
        futures = {name: pool.submit(_full_and_cold_rows, pspec, bare, fill)
                   for name, pspec in specs.items()}
        demote = _full_and_cold_rows(PolicySpec("Demote", (l1, l2)), trace, fill)
        results = {name: future.result() for name, future in futures.items()}
    results["demote"] = demote
    timings, writes, rows = {}, {}, {}
    for name, (full, cold, elapsed) in results.items():
        timings[name] = compile_s + elapsed
        writes[name] = L2Writes(full.w_l2, cold.w_l2)
        rows[name] = full, cold
    # the split's premise: the cold fill writes every L2 slot at least once
    for name, w in writes.items():
        assert w.prefix >= l2, f"{name}: {w.prefix:,} L2 writes in the cold fill < {l2:,}"
    return writes, timings, (l1, l2, uniques, fill), trace, rows


def _rows_digest(rows):
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _split_detail(writes, names, fill):
    per_policy = ", ".join(f"{name} {writes[name]}" for name in names)
    return f"L2 writes total/prefix/steady after a {fill:,}-access cold fill: {per_policy}"


def test_reject_tie_break_write_gap(write_gap_rows, capsys):
    # reject-on-tie must cut steady-state L2 writes by >= 10x against
    # admit-on-tie
    writes, timings, (l1, l2, uniques, fill), _, _ = write_gap_rows
    admit_w2, reject_w2 = writes["admit"].steady, writes["reject"].steady
    ratio = admit_w2 / reject_w2
    elapsed = timings["admit"] + timings["reject"]
    cap = SketchConfig.for_capacity(l1 + l2).counter_cap
    ok = admit_w2 >= 10 * reject_w2 and elapsed < 120
    _emit(capsys, 4, "tie-break L2 write gap", ok,
          f"steady-state admit {admit_w2:,} / reject {reject_w2:,} = {ratio:.2f}x "
          f"(need >=10x); {_split_detail(writes, ('admit', 'reject'), fill)}; "
          f"{elapsed:.0f}s (<120s), geometry l1={l1} l2={l2}")
    assert elapsed < 120
    assert admit_w2 >= 10 * reject_w2, (
        f"steady-state L2 write ratio admit/reject = {ratio:.2f}, required >= 10; "
        f"admit wins tied promotion contests, most of them tied at the sketch's "
        f"counter cap {cap}, and each one writes the displaced veteran to L2"
    )


def test_write_savings_vs_demote(write_gap_rows, capsys):
    # the strict filter (reject on ties) must write L2 >= 5x less than the
    # Demote baseline in steady state; admit must land between the two
    writes, _, (_, _, _, fill), _, _ = write_gap_rows
    demote_w2 = writes["demote"].steady
    reject_w2, admit_w2 = writes["reject"].steady, writes["admit"].steady
    ratio = demote_w2 / reject_w2
    ordered = reject_w2 < admit_w2 < demote_w2
    ok = demote_w2 >= 5 * reject_w2 and ordered
    _emit(capsys, 5, "L2 write savings vs Demote", ok,
          f"steady-state Demote {demote_w2:,} / reject {reject_w2:,} = {ratio:.2f}x "
          f"(need >=5x), admit {demote_w2 / admit_w2:.2f}x, "
          f"reject < admit < Demote: {ordered}; "
          f"{_split_detail(writes, ('demote', 'reject', 'admit'), fill)}")
    assert demote_w2 >= 5 * reject_w2, (
        f"steady-state L2 write ratio demote/reject = {ratio:.2f}, required >= 5"
    )
    assert ordered, (
        f"steady-state L2 writes not ordered reject < admit < Demote: "
        f"{reject_w2:,}, {admit_w2:,}, {demote_w2:,}"
    )


def test_lru_profile_gives_the_replayed_demote_rows(write_gap_rows):
    # run_single reads a compiled trace's Demote rows off its LRU
    # profile; at check 5's scale their counts must equal those of the
    # Demote engine's own replay, over the whole trace and its cold fill
    _, _, (l1, l2, _, fill), trace, rows = write_gap_rows
    full, cold = rows["demote"]
    policy = make_policy(PolicySpec("Demote", (l1, l2)))
    stats = SimStats(2)
    ids = iter(trace.ids)
    stats.add_all(map(policy.handle, itertools.islice(ids, fill)))
    at_fill = SimStats(2)
    at_fill.add_all(stats.counts)
    stats.add_all(map(policy.handle, ids))
    for replayed, row in ((stats, full), (at_fill, cold)):
        replayed.check()
        assert (row.requests, row.h_l1_window, row.h_l1_veterans, row.h_l2, row.misses,
                row.w_l1, row.w_l2) == (
            replayed.requests, replayed.h_l1_window, replayed.h_l1_veterans,
            replayed.hits_at(2), replayed.misses, replayed.writes_at(1),
            replayed.writes_at(2))


def test_write_gap_rows_csv_digest(write_gap_rows):
    # the equality oracle at acceptance scale: the full and cold-fill rows
    # of admit, reject and Demote that checks 4 and 5 read, as one CSV
    *_, rows = write_gap_rows
    digest = _rows_digest([row for name in ("admit", "reject", "demote")
                           for row in rows[name]])
    assert digest == "c6b587e9056864a91eb2813c6277fa82d2dfbd8e0e9d3dc61714c278b0d0cac0"


@pytest.fixture(scope="module")
def three_level_trace():
    """200k accesses of the acceptance shape, and 3-level capacities:
    L2 a tenth of the footprint, L1 a tenth of L2, L3 ten times L2."""
    spec = SyntheticSpec(length=200_000, ground_set=10**5, skew=0.8, recency=0.2,
                         rng_seed=404)
    trace = compile_trace(generate_synthetic(spec))
    return trace, level_capacities_for(len(trace.keys), 0.1, 0.1, 3)


_THREE_LEVEL_DIGESTS = {
    (0.0, "admit"): "e320f45f9915b3454c05d118630b9bcbbfd9ff2218e048f166373a675868ff2e",
    (0.0, "reject"): "6ced0453523dc7b90a5797b93578786948acbd8e1c08a7e86e3469b5b8629b3f",
    (0.5, "admit"): "eecea7b9d5822db813bd804d3ed095ec2a67d2222e1d2e2b5507a509b8567441",
    (0.5, "reject"): "95556b53c2df7877f45dad7a53559d20612da543a58f7b72cf52161344c40d25",
}


def _three_level_stats(trace, caps, window_fraction, tie_break):
    """One BiDiFilter's outcome histogram over ``trace``, replayed as
    ``run_single`` replays it, in one whole-trace loop; and its digest,
    each (outcome, count) sorted."""
    policy = make_policy(PolicySpec("BiDiFilter", caps, window_fraction=window_fraction,
                                    tie_break=tie_break))
    policy.bind_keys(trace.keys)
    stats = SimStats(3)
    stats.add_all(policy._replay(trace.ids))
    stats.check()
    histogram = repr(sorted((tuple(outcome), n) for outcome, n in stats.counts.items()))
    return stats, hashlib.sha256(histogram.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("window_fraction, tie_break", list(_THREE_LEVEL_DIGESTS))
def test_three_level_histogram_digest(three_level_trace, window_fraction, tie_break):
    # the equality oracle at three levels: a ResultRow drops every L3 count,
    # so the whole outcome histogram is pinned
    trace, caps = three_level_trace
    stats, digest = _three_level_stats(trace, caps, window_fraction, tie_break)
    assert stats.writes_at(3) and stats.hits_at(3)
    assert digest == _THREE_LEVEL_DIGESTS[window_fraction, tie_break]


def test_three_level_histogram_digest_where_l3_evicts(three_level_trace):
    # the fixture's L3 holds the whole footprint; at L2 a hundredth of it
    # L3 fills and evicts.  A key leaves L3 by promotion (an L3 hit that
    # writes L2) or by eviction, so the keys written there, less its
    # capacity and those promoted, were evicted.  The digest was taken
    # from a replay through handle, one request at a time
    trace, _ = three_level_trace
    caps = level_capacities_for(len(trace.keys), 0.01, 0.2, 3)
    assert caps == (105, 527, 2635)
    stats, digest = _three_level_stats(trace, caps, 0.5, "admit")
    promoted = sum(n for outcome, n in stats.counts.items()
                   if outcome.classification == hit_at_level(3) and outcome.writes)
    assert stats.writes_at(3) - caps[2] - promoted > 0
    assert digest == "18653ed69bf74d5e94d54b68a76a4727c0f772e651db29b440bf8813777cc66a"


# --- 6: window-fraction crossover ---------------------------------------------

def _crossover_rows(recency):
    """The rows of wf=1 and wf=0 on check 6's trace at one recency."""
    spec = SyntheticSpec(length=10**6, ground_set=10**5, skew=0.5,
                         recency=recency, rng_seed=606)
    trace = compile_trace(generate_synthetic(spec))
    uniques = len(trace.keys)
    l2 = max(1, round(0.5 * uniques))
    l1 = max(1, round(0.1 * l2))
    return tuple(
        run_single(PolicySpec("BiDiFilter", (l1, l2), window_fraction=wf, rng_seed=0),
                   trace)
        for wf in (1.0, 0.0)
    )


@pytest.fixture(scope="module")
def crossover_rows():
    """Check 6's 22 rows, one (wf=1, wf=0) pair per recency 0.0..1.0; the
    11 independent traces replay in parallel, one per worker process.
    Also returns the elapsed seconds and the worker count."""
    t0 = time.perf_counter()
    recencies = [tenths / 10 for tenths in range(11)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(recencies), cpus)
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        pairs = list(pool.map(_crossover_rows, recencies))
    return pairs, time.perf_counter() - t0, workers


def _l1_hits(row):
    return row.h_l1_window + row.h_l1_veterans


def test_window_fraction_crossover(crossover_rows, capsys):
    # sweeping recency, the L1-hit curves of a pure window (wf=1) and a
    # pure veterans space (wf=0) must cross somewhere
    pairs, elapsed, workers = crossover_rows
    diffs = [_l1_hits(window) - _l1_hits(veterans) for window, veterans in pairs]
    signs = [d for d in diffs if d != 0]
    crossed = any(a * b < 0 for a, b in zip(signs, signs[1:]))
    pattern = "".join("+" if d > 0 else "-" if d < 0 else "0" for d in diffs)
    _emit(capsys, 6, "window-fraction crossover", crossed,
          f"sign(l1hits(wf=1)-l1hits(wf=0)) over recency 0.0..1.0 = {pattern}, "
          f"{elapsed:.0f}s on {workers} workers")
    assert crossed, f"no sign change in {diffs}"


def test_crossover_rows_csv_digest(crossover_rows):
    # check 6's 22 rows as one CSV, recency ascending, wf=1 before wf=0
    pairs, _, _ = crossover_rows
    digest = _rows_digest([row for pair in pairs for row in pair])
    assert digest == "b1504d155d23ada0c4e5089119cbaa6c8541df84073d31249d9edf52820c9b3c"


# --- 7: latency formulas -------------------------------------------------------

def _stats_from(h_l1=0, h_l2=0, h_l3=0, misses=0, w_l1=0, w_l2=0, w_l3=0,
                n_levels=2):
    events = (
        [(HIT_L1_WINDOW, ())] * h_l1
        + [(HIT_L2, ())] * h_l2
        + [(hit_at_level(3), ())] * h_l3
        + [(MISS, ())] * misses
    )
    writes = tuple(p for p in [(1, w_l1), (2, w_l2), (3, w_l3)] if p[1])
    stats = SimStats(n_levels)
    for i, (c, w) in enumerate(events):
        stats.add(AccessOutcome(c, writes if i == 0 else w))
    return stats


def _billion_l1_hits():
    # integer accumulation must survive counts far beyond float32 territory
    stats = SimStats(2)
    stats.counts[AccessOutcome(HIT_L1_WINDOW)] = 10**9
    return stats


def test_latency_formulas_match_hand_values(capsys):
    default = LatencyParams()
    three = LatencyParams((100.0, 200_000.0, 500_000.0), 2_000_000.0)
    fractional = LatencyParams((0.5, 1000.0), 1.5)
    fast_miss = LatencyParams((2.0, 200_000.0), 100.0)  # cheap misses, costly L2 writes
    fixtures = [
        # (stats, params, expected_read_ns, expected_rw_ns)
        (_stats_from(h_l1=50, h_l2=30, misses=20, w_l1=100, w_l2=10),
         default, 460_050.0, 480_150.0),  # the worked 460.05us/480.15us pair
        (_stats_from(h_l1=100), default, 100.0, 100.0),
        (_stats_from(misses=10, w_l1=10), default, 2_000_000.0, 2_000_100.0),
        (_stats_from(h_l2=10), default, 200_000.0, 200_000.0),
        (_stats_from(h_l1=1, h_l2=1, misses=1, w_l1=1, w_l2=1),
         default, 2_200_100 / 3, 2_400_200 / 3),
        (_stats_from(h_l1=7, h_l2=3, misses=90, w_l1=95, w_l2=2),
         default, 1_806_007.0, 1_810_102.0),
        (_stats_from(misses=5, w_l1=5), fast_miss, 100.0, 102.0),
        (_stats_from(h_l1=10, h_l2=5, h_l3=5, w_l3=2, n_levels=3),
         three, 175_050.0, 225_050.0),
        (_stats_from(h_l1=3, h_l2=1, misses=2),
         fractional, 1004.5 / 6, 1004.5 / 6),
        (_billion_l1_hits(), default, 100.0, 100.0),
    ]
    worst = 0.0
    for stats, params, want_read, want_rw in fixtures:
        got_read = avg_read_latency(stats, params)
        got_rw = avg_rw_latency(stats, params)
        assert abs(got_read - want_read) <= math.ulp(want_read), (got_read, want_read)
        assert abs(got_rw - want_rw) <= math.ulp(want_rw), (got_rw, want_rw)
        worst = max(worst, abs(got_read - want_read) / (math.ulp(want_read) or 1),
                    abs(got_rw - want_rw) / (math.ulp(want_rw) or 1))
    _emit(capsys, 7, "latency formulas", True,
          f"10 fixtures within 1 ulp (worst {worst:.1f} ulp), "
          f"incl. 460050.0/480150.0 ns")


# --- 8: byte-identical sweeps ---------------------------------------------------

def test_sweep_outputs_are_byte_identical(tmp_path, capsys):
    base = [
        "sweep", "--synthetic", "20000:500:0.8:0.3",
        "--policy", "BiDiFilter,Demote", "--l2-pct", "0.2,0.5",
        "--l1-ratio", "0.1,0.3", "--seed", "11",
    ]
    all_equal = True
    checked = []
    for fmt in ("csv", "jsonl"):
        paths = [tmp_path / f"{tag}.{fmt}" for tag in ("first", "second", "jobs2")]
        extra = [[], [], ["--jobs", "2"]]
        for path, more in zip(paths, extra):
            code = main(base + ["--format", fmt, "--out", str(path)] + more)
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        all_equal &= blobs[0] == blobs[1] == blobs[2]
        checked.append(f"{fmt}:{len(blobs[0])}B")
    _emit(capsys, 8, "sweep determinism", all_equal,
          f"repeat and jobs=2 byte-identical ({', '.join(checked)})")
    assert all_equal


# --- 9: degenerate-parameter equivalences ---------------------------------------

_COUNT_FIELDS = ("requests", "h_l1_window", "h_l1_veterans", "h_l2", "misses",
                 "w_l1", "w_l2", "hit_ratio", "avg_read_latency_ns",
                 "avg_rw_latency_ns")


def _reference_counts(outcomes):
    # the row fields a run derives from its outcomes, from the reference's
    stats = SimStats(2)
    for classification, writes in outcomes:
        stats.add(AccessOutcome(classification, writes))
    latency = LatencyParams()
    return (stats.requests, stats.h_l1_window, stats.h_l1_veterans,
            stats.hits_at(2), stats.misses, stats.writes_at(1),
            stats.writes_at(2), hit_ratio(stats),
            avg_read_latency(stats, latency), avg_rw_latency(stats, latency))


def test_degenerate_equivalences(capsys):
    # Demote and NaiveLRU are Promote(1,1) and Promote(0,1) themselves, so
    # each run is held to the list-based reference instead of to the other
    rnd = random.Random(909)
    row_mismatches = 0
    for trial in range(20):
        spec = SyntheticSpec(
            length=3000, ground_set=rnd.randint(50, 400),
            skew=rnd.uniform(0.3, 1.1), recency=rnd.uniform(0.0, 0.7),
            rng_seed=trial,
        )
        keys = list(generate_synthetic(spec))
        caps = (rnd.randint(2, 20), rnd.randint(4, 60))
        seed = rnd.randint(0, 2**31)
        for kind, p, q in (("Demote", 1.0, 1.0), ("Promote", 1.0, 1.0),
                           ("NaiveLRU", 0.0, 1.0), ("Promote", 0.0, 1.0)):
            row = run_single(PolicySpec(kind, caps, promote_prob=p, demote_prob=q,
                                        rng_seed=seed), keys)
            reference = reference_chain_outcomes(keys, caps, p, q, random.Random(seed))
            if tuple(getattr(row, f) for f in _COUNT_FIELDS) != _reference_counts(reference):
                row_mismatches += 1
    event_mismatches = 0
    for trial in range(20):
        caps = (rnd.randint(1, 10), rnd.randint(2, 20))
        wf = rnd.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        tie = rnd.choice(["admit", "reject"])
        seed = rnd.randint(0, 2**31)
        cascade = CascadeFilter(caps, window_fraction=wf, tie_break=tie,
                                rng_seed=seed)
        keys = [rnd.randint(0, 40) for _ in range(2000)]
        reference = reference_filter_outcomes(
            keys, caps, default_sketch(caps, seed), wf, tie)
        event_mismatches += sum(
            cascade.handle(k) != ref for k, ref in zip(keys, reference))
    ok = row_mismatches == 0 and event_mismatches == 0
    _emit(capsys, 9, "degenerate equivalences", ok,
          f"Demote, Promote(1,1), NaiveLRU, Promote(0,1) vs list reference on "
          f"20 traces, {row_mismatches} row mismatches; 2-level cascade vs list "
          f"reference, {event_mismatches} event mismatches")
    assert row_mismatches == 0
    assert event_mismatches == 0
    assert event_mismatches == 0