import math
import random

import numpy as np
import pytest

from bidifilter import (
    FAST_MISS_LATENCY,
    AccessOutcome,
    BiDiFilter,
    LatencyParams,
    SimStats,
    avg_read_latency,
    avg_rw_latency,
    hit_at_level,
    hit_ratio,
)
from bidifilter.oracles import reference_outcome_tally
from bidifilter.policies import HIT_L1_VETERANS, HIT_L1_WINDOW, HIT_L2, MISS


def make_stats(h_l1=0, h_l2=0, misses=0, w_l1=0, w_l2=0, n_levels=2):
    """Build a SimStats from counts; all the writes ride on the first event."""
    events = [HIT_L1_WINDOW] * h_l1 + [HIT_L2] * h_l2 + [MISS] * misses
    writes = tuple(p for p in [(1, w_l1), (2, w_l2)] if p[1])
    s = SimStats(n_levels)
    for i, c in enumerate(events):
        s.add(AccessOutcome(c, writes if i == 0 else ()))
    return s


def test_latency_params_validation():
    LatencyParams((1.0,), 2.0)
    with pytest.raises(ValueError):
        LatencyParams((), 2.0)
    with pytest.raises(ValueError):
        LatencyParams((0.0, 5.0), 2.0)
    with pytest.raises(ValueError):
        LatencyParams((1.0, 5.0), 0.0)
    for bad in ("100", None, b"1", True):
        with pytest.raises(ValueError, match="level_ns"):
            LatencyParams(level_ns=(bad, 200.0))
        with pytest.raises(ValueError, match="miss_ns"):
            LatencyParams(miss_ns=bad)
    # a bare number, or a string, is no list of level latencies
    for bad in (100.0, 100, "12", np.float64(100.0)):
        with pytest.raises(ValueError, match="level_ns must be a sequence"):
            LatencyParams(level_ns=bad)
    assert LatencyParams((np.float32(2.0), 5), np.int64(7)).miss_ns == 7
    # every time is stored as a Python float
    params = LatencyParams((np.float32(2.0), 5), np.int64(7))
    assert all(type(t) is float for t in (*params.level_ns, params.miss_ns))
    assert FAST_MISS_LATENCY.level_ns == (2.0, 200_000.0)
    assert FAST_MISS_LATENCY.miss_ns == 100.0


@pytest.mark.parametrize("level_ns, miss_ns", [
    ((100.0, math.inf), 2e6),
    ((100.0, math.nan), 2e6),
    ((100.0, 200.0), math.inf),
    ((100.0, 200.0), math.nan),
    ((-math.inf, 200.0), 2e6),
])
def test_latency_params_must_be_finite(level_ns, miss_ns):
    with pytest.raises(ValueError, match="finite and positive"):
        LatencyParams(level_ns, miss_ns)


def test_simstats_counting_and_closure():
    s = SimStats(2)
    s.add(AccessOutcome(MISS, ((1, 1), (2, 1))))
    s.add(AccessOutcome(HIT_L1_WINDOW))
    s.add(AccessOutcome(HIT_L1_VETERANS))
    s.add(AccessOutcome(HIT_L2, ((1, 1), (2, 1))))
    assert s.requests == 4
    assert s.misses == 1
    assert s.h_l1_window == 1
    assert s.h_l1_veterans == 1
    assert s.hits_at(1) == 2
    assert s.hits_at(2) == 1
    assert s.total_hits == 3
    assert s.writes_at(1) == 2
    assert s.writes_at(2) == 2
    s.check()
    assert hit_ratio(s) == 0.75


def test_simstats_level_range_errors():
    s = SimStats(2)
    s.add(AccessOutcome(MISS, ((1, 1),)))
    s.add(AccessOutcome(HIT_L2, ((1, 1),)))
    for bad in (0, 3, -1, True, 2.0, np.float64(2.0), 1.5, "2", None):
        with pytest.raises(ValueError):
            s.hits_at(bad)
        with pytest.raises(ValueError):
            s.writes_at(bad)
    assert (s.hits_at(np.int64(2)), s.writes_at(np.int64(1))) == (s.hits_at(2), s.writes_at(1))
    assert (s.hits_at(2), s.writes_at(1)) == (1, 2)
    for bad in (0, 2.5, 2.0, "2", None, True):
        with pytest.raises(ValueError, match="n_levels"):
            SimStats(bad)
    s = SimStats(np.int64(3))
    assert type(s.n_levels) is int and s.n_levels == 3


@pytest.mark.parametrize("outcome", [
    AccessOutcome(MISS, ((0, 1),)),  # a write above L1
    AccessOutcome("hit_l0"),  # a hit above L1
    AccessOutcome("hit_l-1", ((-1, 1),)),  # a negative level
    AccessOutcome(hit_at_level(3)),  # a hit below the bottom level
    AccessOutcome(HIT_L2, ((3, 1),)),  # a write below the bottom level
    AccessOutcome("hit_l2_window"),  # no such bucket
])
def test_check_refuses_outcomes_it_cannot_place(outcome):
    s = SimStats(2)
    s.add(AccessOutcome(HIT_L2, ((1, 1), (2, 1))))
    s.add(outcome)
    with pytest.raises(AssertionError):
        s.check()
    # nothing stray is booked to a real level
    hits = 1 + (outcome.classification == HIT_L2)
    assert s.total_hits == s.hits_at(1) + s.hits_at(2) == hits
    assert (s.writes_at(1), s.writes_at(2)) == (1, 1)


def _random_outcomes(rnd, n_levels, n):
    labels = [MISS, HIT_L1_WINDOW, HIT_L1_VETERANS,
              *(hit_at_level(i) for i in range(2, n_levels + 1))]
    interned = {}
    outcomes = []
    for _ in range(n):
        levels = sorted(rnd.sample(range(1, n_levels + 1), rnd.randint(0, n_levels)))
        writes = tuple((level, rnd.choice((1, 1, 2, 3))) for level in levels)
        outcome = AccessOutcome(rnd.choice(labels), writes)
        # half the stream reuses one object per outcome, as the engines do
        if rnd.random() < 0.5:
            outcome = interned.setdefault(outcome, outcome)
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("n_levels", [2, 3, 4])
def test_histogram_matches_plain_tally(n_levels):
    rnd = random.Random(n_levels)
    for trial in range(20):
        outcomes = _random_outcomes(rnd, n_levels, rnd.randint(1, 400))
        s = SimStats(n_levels)
        for outcome in outcomes:
            s.add(outcome)
        s.check()
        want = reference_outcome_tally(outcomes, n_levels)
        levels = range(1, n_levels + 1)
        assert (s.requests, s.misses, s.h_l1_window, s.h_l1_veterans) == (
            want["requests"], want["misses"], want["h_l1_window"],
            want["h_l1_veterans"]), trial
        assert [s.hits_at(level) for level in levels] == want["hits"], trial
        assert [s.writes_at(level) for level in levels] == want["writes"], trial
        assert s.total_hits == sum(want["hits"]), trial
        assert sum(s.counts.values()) == len(outcomes)


@pytest.mark.parametrize("n_levels", [2, 3, 4])
def test_add_all_matches_add_and_plain_tally(n_levels):
    # the bulk count a replay makes, over two calls, against one add per
    # outcome and the plain tally
    rnd = random.Random(100 + n_levels)
    for trial in range(20):
        outcomes = _random_outcomes(rnd, n_levels, rnd.randint(1, 400))
        cut = rnd.randint(0, len(outcomes))
        bulk, one_by_one = SimStats(n_levels), SimStats(n_levels)
        bulk.add_all(outcomes[:cut])
        bulk.add_all(iter(outcomes[cut:]))
        for outcome in outcomes:
            one_by_one.add(outcome)
        bulk.check()
        assert bulk.counts == one_by_one.counts, trial
        want = reference_outcome_tally(outcomes, n_levels)
        levels = range(1, n_levels + 1)
        assert (bulk.requests, bulk.misses, bulk.h_l1_window, bulk.h_l1_veterans) == (
            want["requests"], want["misses"], want["h_l1_window"],
            want["h_l1_veterans"]), trial
        assert [bulk.hits_at(level) for level in levels] == want["hits"], trial
        assert [bulk.writes_at(level) for level in levels] == want["writes"], trial


def test_empty_stats_refuse_ratios():
    s = SimStats(2)
    p = LatencyParams()
    with pytest.raises(ValueError):
        hit_ratio(s)
    with pytest.raises(ValueError):
        avg_read_latency(s, p)
    with pytest.raises(ValueError):
        avg_rw_latency(s, p)


def test_params_must_cover_all_levels():
    s = SimStats(3)
    s.add(AccessOutcome(MISS, ((1, 1),)))
    for mean in (avg_read_latency, avg_rw_latency):
        with pytest.raises(ValueError, match="3-level histogram needs 3 level latencies"):
            mean(s, LatencyParams((100.0, 200.0), 300.0))
        for bad in (None, (100.0, 200.0, 300.0)):
            with pytest.raises(ValueError, match="latency must be a LatencyParams"):
                mean(s, bad)


def test_worked_latency_fixture():
    # 200 requests: 50 window hits, 30 L2 hits, 20 misses... scaled up:
    # h1=50, h2=30, m=20 over 100 requests, w1=100, w2=10
    s = make_stats(h_l1=50, h_l2=30, misses=20, w_l1=100, w_l2=10)
    p = LatencyParams()
    # reads: (50*100 + 30*200000 + 20*2000000) / 100 = 460050
    assert avg_read_latency(s, p) == 460050.0
    # + writes: (100*100 + 10*200000) / 100 = 20100 more
    assert avg_rw_latency(s, p) == 480150.0


def test_all_l1_hits():
    s = make_stats(h_l1=100)
    p = LatencyParams()
    assert avg_read_latency(s, p) == 100.0
    assert avg_rw_latency(s, p) == 100.0
    assert hit_ratio(s) == 1.0


def test_all_misses_with_l1_fills():
    s = make_stats(misses=10, w_l1=10)
    p = LatencyParams()
    assert avg_read_latency(s, p) == 2_000_000.0
    assert avg_rw_latency(s, p) == 2_000_100.0
    assert hit_ratio(s) == 0.0


def test_pure_l2_reads():
    s = make_stats(h_l2=10)
    p = LatencyParams()
    assert avg_read_latency(s, p) == 200_000.0
    assert avg_rw_latency(s, p) == 200_000.0


def test_one_of_each():
    s = make_stats(h_l1=1, h_l2=1, misses=1, w_l1=1, w_l2=1)
    p = LatencyParams()
    assert avg_read_latency(s, p) == (100 + 200_000 + 2_000_000) / 3
    assert avg_rw_latency(s, p) == (100 + 200_000 + 2_000_000 + 100 + 200_000) / 3


def test_mixed_uneven_fixture():
    s = make_stats(h_l1=7, h_l2=3, misses=90, w_l1=95, w_l2=2)
    p = LatencyParams()
    # (7*100 + 3*200000 + 90*2000000) / 100
    assert avg_read_latency(s, p) == 1_806_007.0
    # + (95*100 + 2*200000) / 100 = 4095
    assert avg_rw_latency(s, p) == 1_810_102.0


def test_fast_miss_profile():
    s = make_stats(misses=5, w_l1=5)
    assert avg_read_latency(s, FAST_MISS_LATENCY) == 100.0
    assert avg_rw_latency(s, FAST_MISS_LATENCY) == 102.0


def test_three_level_latency():
    s = SimStats(3)
    for _ in range(10):
        s.add(AccessOutcome(HIT_L1_WINDOW))
    for _ in range(5):
        s.add(AccessOutcome(HIT_L2))
    s.add(AccessOutcome(hit_at_level(3), ((3, 2),)))
    for _ in range(4):
        s.add(AccessOutcome(hit_at_level(3)))
    p = LatencyParams((100.0, 200_000.0, 500_000.0), 2_000_000.0)
    # (10*100 + 5*200000 + 5*500000) / 20 = 175050
    assert avg_read_latency(s, p) == 175_050.0
    # + 2*500000/20 = 50000
    assert avg_rw_latency(s, p) == 225_050.0


def test_non_integer_latencies_use_float_path():
    s = make_stats(h_l1=3, h_l2=1, misses=2)
    p = LatencyParams((0.5, 1000.0), 1.5)
    expected = (3 * 0.5 + 1 * 1000.0 + 2 * 1.5) / 6
    assert avg_read_latency(s, p) == expected


def test_three_level_float_latencies_with_writes():
    s = SimStats(3)
    s.counts[AccessOutcome(HIT_L1_WINDOW)] = 7
    s.counts[AccessOutcome(HIT_L2, ((1, 1),))] = 3
    s.counts[AccessOutcome(hit_at_level(3), ((2, 1), (3, 1)))] = 2
    s.counts[AccessOutcome(MISS, ((1, 1), (2, 1), (3, 1)))] = 5
    p = LatencyParams((0.3, 7.1, 123.45), 999.9)
    # summed as the means always have: misses first, then level by level
    # its hits, and for the read-write mean its writes in the same step
    hits, writes = (7, 3, 2), (8, 7, 7)
    read = rw = p.miss_ns * 5
    for t, h, w in zip(p.level_ns, hits, writes):
        read += t * h
        rw += t * h + t * w
    assert avg_read_latency(s, p) == read / 17
    assert avg_rw_latency(s, p) == rw / 17


def test_big_counts_stay_exact():
    # integer accumulation: a billion L1 hits divide back to exactly 100
    s = SimStats(2)
    s.counts[AccessOutcome(HIT_L1_WINDOW)] = 10**9
    assert avg_read_latency(s, LatencyParams()) == 100.0


def test_doubling_counts_preserves_averages():
    rnd = random.Random(13)
    for _ in range(20):
        h1, h2, m = rnd.randint(0, 50), rnd.randint(0, 50), rnd.randint(1, 50)
        w1, w2 = rnd.randint(0, 80), rnd.randint(0, 80)
        a = make_stats(h1, h2, m, w1, w2)
        b = make_stats(2 * h1, 2 * h2, 2 * m, 2 * w1, 2 * w2)
        p = LatencyParams()
        assert math.isclose(avg_read_latency(a, p), avg_read_latency(b, p), rel_tol=1e-12)
        assert math.isclose(avg_rw_latency(a, p), avg_rw_latency(b, p), rel_tol=1e-12)
        assert hit_ratio(a) == hit_ratio(b)


def test_stats_from_real_policy_run():
    rnd = random.Random(77)
    pol = BiDiFilter((4, 12), rng_seed=77)
    s = SimStats(2)
    for _ in range(3000):
        s.add(pol.handle(rnd.randint(0, 60)))
    s.check()
    assert s.requests == 3000
    assert s.writes_at(1) == pol.window.insert_count + pol.veterans.insert_count
    assert s.writes_at(2) == pol.mains[0].insert_count
    assert 0.0 < hit_ratio(s) < 1.0
    r, rw = avg_read_latency(s, LatencyParams()), avg_rw_latency(s, LatencyParams())
    assert rw >= r > 0.0