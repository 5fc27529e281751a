import random

import numpy as np
import pytest

from bidifilter import (
    HIT_L1_VETERANS,
    HIT_L1_WINDOW,
    HIT_L2,
    MISS,
    AccessOutcome,
    BiDiFilter,
    BiDiFilterUnited,
    CascadeFilter,
    Demote,
    FrequencySketch,
    LatencyParams,
    NaiveLRU,
    PolicySpec,
    Promote,
    SimStats,
    SketchConfig,
    compile_trace,
    hit_at_level,
    ingest_trace,
    lru_profile,
    make_policy,
    run_single,
)
from bidifilter.oracles import (
    reference_chain_outcomes,
    reference_filter_outcomes,
    reference_lru_hits,
    reference_sketch_counters,
)
from bidifilter.policies import default_sketch


def wide_sketch(total_capacity, seed=11):
    # large width so the tiny hand-traced fixtures see no collisions
    cfg = SketchConfig(
        sample_size=10 * total_capacity,
        tracked_capacity=total_capacity,
        width=16384,
    )
    return FrequencySketch(cfg, seed=seed)


def run(policy, keys):
    return [policy.handle(k) for k in keys]


def test_policyspec_validation():
    with pytest.raises(ValueError):
        PolicySpec(kind="Nope", level_capacities=(1, 1))
    with pytest.raises(ValueError):
        PolicySpec(kind="Demote", level_capacities=(4,))
    with pytest.raises(ValueError):
        PolicySpec(kind="Demote", level_capacities=(0, 4))
    with pytest.raises(ValueError):
        PolicySpec(kind="BiDiFilter", level_capacities=(2, 4), window_fraction=1.5)
    with pytest.raises(ValueError):
        PolicySpec(kind="BiDiFilter", level_capacities=(2, 4), tie_break="maybe")
    with pytest.raises(ValueError):
        PolicySpec(kind="Promote", level_capacities=(2, 4), promote_prob=-0.1)
    with pytest.raises(ValueError, match="exactly two levels"):
        PolicySpec(kind="BiDiFilterUnited", level_capacities=(2, 4, 8))
    for caps in ((2, 4.5), (2.0, 4), (2, 4, 8.0), (2, "4")):
        for kind in ("Demote", "BiDiFilter"):
            with pytest.raises(ValueError, match="integer"):
                PolicySpec(kind=kind, level_capacities=caps)
    spec = PolicySpec("BiDiFilter", (np.int64(2), np.uint32(4)))
    assert spec.level_capacities == (2, 4)
    assert all(type(c) is int for c in spec.level_capacities)


def test_engine_constructors_reject_bad_capacities():
    engines = (CascadeFilter, BiDiFilter, BiDiFilterUnited, Promote, Demote, NaiveLRU)
    for engine in engines:
        for caps in ((2, 4.5), (2.0, 4), (2, 0), (4,)):
            with pytest.raises(ValueError):
                engine(caps)
        assert engine((np.int64(2), np.int64(4))).n_levels == 2


def test_seeds_must_be_integers():
    # a seed is refused at construction unless it is an integer; numpy
    # integers are stored as Python ints, as capacities are
    for bad in (1.5, "3", None):
        for kind in ("BiDiFilter", "BiDiFilterUnited", "Demote", "NaiveLRU", "Promote"):
            with pytest.raises(ValueError, match="rng_seed"):
                PolicySpec(kind, (2, 4), rng_seed=bad)
        for engine in (CascadeFilter, BiDiFilter, BiDiFilterUnited, Promote):
            with pytest.raises(ValueError, match="rng_seed"):
                engine((2, 4), rng_seed=bad)
    for seed in (np.int64(5), np.uint64(5), np.int32(-5)):
        spec = PolicySpec("Promote", (2, 4), rng_seed=seed)
        assert type(spec.rng_seed) is int and spec.rng_seed == seed


def test_make_policy_kinds():
    assert isinstance(make_policy(PolicySpec("BiDiFilter", (2, 4))), BiDiFilter)
    assert isinstance(make_policy(PolicySpec("BiDiFilter", (2, 4, 8))), CascadeFilter)
    assert isinstance(make_policy(PolicySpec("BiDiFilterUnited", (2, 4))), BiDiFilterUnited)
    assert isinstance(make_policy(PolicySpec("Demote", (2, 4))), Demote)
    assert isinstance(make_policy(PolicySpec("NaiveLRU", (2, 4))), NaiveLRU)
    assert isinstance(make_policy(PolicySpec("Promote", (2, 4))), Promote)


def test_bidi_cold_miss_writes_only_l1():
    pol = BiDiFilter((2, 2), rng_seed=7)
    out = pol.handle("a")
    assert out == AccessOutcome(MISS, ((1, 1),))


def test_bidi_two_level_walkthrough():
    # window 1 / veterans 1 / L2 cap 2; derived by hand and frozen
    pol = BiDiFilter((2, 2), window_fraction=0.5, tie_break="admit",
                     sketch=wide_sketch(4, seed=7))
    outcomes = run(pol, ["a", "b", "a", "c"])
    assert [o.classification for o in outcomes] == [MISS, MISS, HIT_L2, MISS]
    assert [o.writes for o in outcomes] == [
        ((1, 1),),            # a fills the window
        ((1, 1), (2, 1)),     # b displaces a; a warm-fills L2
        ((1, 1),),            # L2 hit on a promotes into empty veterans
        ((1, 1), (2, 1)),     # c displaces b; b warm-fills the freed L2 slot
    ]
    assert list(pol.window.keys()) == ["c"]
    assert list(pol.veterans.keys()) == ["a"]
    assert list(pol.l2.keys()) == ["b"]


def test_bidi_tie_break_admit_vs_reject():
    # equal estimates: admit lets the candidate displace the L2 victim,
    # reject drops it
    for tie, expect_l2 in (("admit", ["b"]), ("reject", ["a"])):
        pol = BiDiFilter((1, 1), window_fraction=1.0, tie_break=tie,
                         sketch=wide_sketch(2, seed=5))
        pol.handle("a")   # window
        pol.handle("b")   # a -> L2 warm
        out = pol.handle("c")  # b is the candidate vs L2 victim a, both est 1
        assert out.classification == MISS
        assert list(pol.l2.keys()) == expect_l2
        if tie == "admit":
            assert out.writes == ((1, 1), (2, 1))
        else:
            assert out.writes == ((1, 1),)


def test_bidi_promotion_swap_and_refusal():
    # veterans full: a promotion must beat the veterans victim
    pol = BiDiFilter((1, 2), window_fraction=0.0, tie_break="reject",
                     sketch=wide_sketch(3, seed=9))
    pol.handle("v")             # veterans warm fill (window_fraction 0)
    pol.handle("v")
    pol.handle("v")             # est(v) = 3
    pol.handle("x")             # x loses to v (1 < 3), lands in L2 warm
    assert list(pol.veterans.keys()) == ["v"]
    assert "x" in pol.l2
    out = pol.handle("x")       # L2 hit; est(x)=2 < est(v)=3: stays put
    assert out == AccessOutcome(HIT_L2, ())
    out = pol.handle("x")
    out = pol.handle("x")       # est(x)=4 > 3: swap
    assert out.classification == HIT_L2
    assert out.writes == ((1, 1), (2, 1))
    assert list(pol.veterans.keys()) == ["x"]
    assert "v" in pol.l2


def test_bidi_window_zero_missed_key_is_filtered():
    # with no window the missed key itself faces the filters: first the
    # veterans victim, then (if it loses) the L2 victim
    pol = BiDiFilter((1, 1), window_fraction=0.0, tie_break="reject",
                     sketch=wide_sketch(2, seed=3))
    pol.handle("a")            # warm into veterans
    pol.handle("a")            # est 2
    out = pol.handle("b")      # loses to a, warm-fills L2
    assert out == AccessOutcome(MISS, ((2, 1),))
    assert "b" in pol.l2
    out = pol.handle("c")      # loses to a, then ties b at L2: rejected
    assert out == AccessOutcome(MISS, ())
    assert "c" not in pol.l2


def test_bidi_window_zero_demotion_bypasses_filter():
    # x reaches est 3, y reaches est 3, then z climbs to est 4 and takes
    # veterans; x demotes even though 3 > 3 fails the reject filter, so
    # the demotion is provably unconditional
    pol = BiDiFilter((1, 1), window_fraction=0.0, tie_break="reject",
                     sketch=wide_sketch(2, seed=3))
    for _ in range(3):
        pol.handle("x")        # veterans: x, est 3
    pol.handle("y")            # warm-fills L2
    pol.handle("y")            # L2 hits; 2 > 3 and 3 > 3 both fail
    pol.handle("y")
    assert list(pol.veterans.keys()) == ["x"]
    assert list(pol.l2.keys()) == ["y"]
    for _ in range(3):         # z at est 1..3 loses everywhere, stays out
        out = pol.handle("z")
        assert out == AccessOutcome(MISS, ())
    out = pol.handle("z")      # est 4 > 3: z takes veterans
    assert out == AccessOutcome(MISS, ((1, 1), (2, 1)))
    assert list(pol.veterans.keys()) == ["z"]
    assert list(pol.l2.keys()) == ["x"]  # y evicted despite the tie
    assert pol.handle("z") == AccessOutcome(HIT_L1_VETERANS)


def test_bidi_window_one_promotes_into_window():
    pol = BiDiFilter((1, 1), window_fraction=1.0, tie_break="admit",
                     sketch=wide_sketch(2, seed=3))
    pol.handle("a")
    pol.handle("b")            # a -> L2
    out = pol.handle("a")      # L2 hit, window full with b (both est... a=2,b=1)
    assert out.classification == HIT_L2
    # a promoted into window, displaced b admitted to the freed L2 slot
    assert out.writes == ((1, 1), (2, 1))
    assert list(pol.window.keys()) == ["a"]
    assert "b" in pol.l2


def test_bidi_united_single_l1():
    pol = BiDiFilterUnited((2, 2), sketch=wide_sketch(4, seed=13))
    outcomes = run(pol, ["a", "b", "c", "a"])
    assert [o.classification for o in outcomes] == [MISS, MISS, MISS, HIT_L2]
    # L1 hits report in the window bucket for single-region policies
    out = pol.handle("a")
    assert out.classification == HIT_L1_WINDOW


def test_cascade_three_level_walkthrough():
    # 18 hand-traced events on a (2,2,2) hierarchy; the final miss cascades
    # with strict wins at both filters: window victim z (est 3) beats L2
    # victim x (est 2), and x beats L3 victim s (est 1)
    pol = CascadeFilter((2, 2, 2), window_fraction=0.5, tie_break="admit",
                        sketch=wide_sketch(6, seed=11))
    events = ["p", "q", "r", "s", "t", "v", "v", "v", "v", "v",
              "x", "v", "x", "y", "z", "z", "z", "n"]
    outcomes = run(pol, events)
    expected = [
        (MISS, ((1, 1),)),
        (MISS, ((1, 1), (2, 1))),
        (MISS, ((1, 1), (2, 1))),
        (MISS, ((1, 1), (2, 1), (3, 1))),
        (MISS, ((1, 1), (2, 1), (3, 1))),
        (MISS, ((1, 1), (2, 1), (3, 1))),
        (HIT_L1_WINDOW, ()),
        (HIT_L1_WINDOW, ()),
        (HIT_L1_WINDOW, ()),
        (HIT_L1_WINDOW, ()),
        (MISS, ((1, 1), (2, 1), (3, 1))),
        (hit_at_level(2), ((1, 1),)),
        (HIT_L1_WINDOW, ()),
        (MISS, ((1, 1), (2, 1))),
        (MISS, ((1, 1), (2, 1), (3, 1))),
        (HIT_L1_WINDOW, ()),
        (HIT_L1_WINDOW, ()),
        (MISS, ((1, 1), (2, 1), (3, 1))),
    ]
    assert [(o.classification, o.writes) for o in outcomes] == expected
    assert list(pol.window.keys()) == ["n"]
    assert list(pol.veterans.keys()) == ["v"]
    assert set(pol.mains[0].keys()) == {"y", "z"}
    assert set(pol.mains[1].keys()) == {"t", "x"}


def test_cascade_deep_hit_promotes_one_level():
    pol = CascadeFilter((2, 2, 2), window_fraction=0.5, tie_break="admit",
                        sketch=wide_sketch(6, seed=11))
    for k in ["p", "q", "r", "s", "t"]:
        pol.handle(k)
    assert "q" in pol.mains[1]
    out = pol.handle("q")  # hit at L3; L2 full, tie admits
    assert out.classification == hit_at_level(3)
    assert out.writes == ((2, 1), (3, 1))
    assert "q" in pol.mains[0]


def test_cascade_rejected_candidate_is_dropped():
    pol = CascadeFilter((1, 1, 1), window_fraction=1.0, tie_break="reject",
                        sketch=wide_sketch(3, seed=2))
    pol.handle("a")
    pol.handle("b")   # a warm-fills L2
    pol.handle("c")   # b ties a at L2: rejected, never reaches L3
    assert "b" not in pol.mains[0] and "b" not in pol.mains[1]
    assert len(pol.mains[1]) == 0


def test_cascade_window_zero_refilters_below_the_forced_hop():
    # with no window, a veteran displaced by a missed key enters L2
    # unfiltered, but what it displaces there is filtered into L3 again
    pol = CascadeFilter((1, 1, 1), window_fraction=0.0, tie_break="reject",
                        sketch=wide_sketch(3, seed=3))
    run(pol, "aab")            # a: veterans at est 2; b loses to a, fills L2
    pol.handle("c")            # loses to a, ties b at L2 at 1: dropped
    out = pol.handle("c")      # ties a at 2, beats b (2 > 1); b fills L3
    assert out == AccessOutcome(MISS, ((2, 1), (3, 1)))
    out = pol.handle("b")      # L3 hit ties c at 2: stays in L3
    assert out == AccessOutcome(hit_at_level(3))
    assert run(pol, "dd") == [AccessOutcome(MISS)] * 2  # loses to a, then c
    out = pol.handle("d")      # est 3 > 2: d takes a's veterans slot
    # a enters L2 unfiltered though it only ties c there; c then ties
    # L3's b at 2 and is dropped
    assert out == AccessOutcome(MISS, ((1, 1), (2, 1)))
    assert list(pol.veterans.keys()) == ["d"]
    assert [list(space.keys()) for space in pol.mains] == [["a"], ["b"]]


def test_cascade_n2_matches_bidifilter_exactly():
    # BiDiFilter is the two-level CascadeFilter itself, so the two-level
    # engine is held to the list-based reference instead
    rnd = random.Random(42)
    for trial in range(25):
        caps = (rnd.randint(1, 8), rnd.randint(1, 12))
        wf = rnd.choice([0.0, 0.25, 0.5, 1.0])
        tie = rnd.choice(["admit", "reject"])
        seed = rnd.randint(0, 2**32)
        pol = CascadeFilter(caps, window_fraction=wf, tie_break=tie, rng_seed=seed)
        keys = [rnd.randint(1, 30) for _ in range(500)]
        ref = reference_filter_outcomes(keys, caps, default_sketch(caps, seed), wf, tie)
        assert run(pol, keys) == ref


def test_filtered_kinds_match_list_reference():
    # every request of both filtered kinds, at 2-4 levels, against the
    # list-based reference fed an identically seeded sketch
    rnd = random.Random(77)
    cases = [("BiDiFilter", n, wf, tie)
             for n in (2, 3, 4)
             for wf in (0.0, 0.25, 0.5, 1.0)
             for tie in ("admit", "reject")]
    cases += [("BiDiFilterUnited", 2, 1.0, tie) for tie in ("admit", "reject")]
    for kind, n_levels, wf, tie in cases * 2:
        caps = tuple(rnd.randint(1, 8) for _ in range(n_levels))
        seed = rnd.randint(0, 2**32)
        span = 3 * sum(caps)
        keys = [rnd.randint(0, span if rnd.random() < 0.5 else span // 4)
                for _ in range(1500)]
        if rnd.random() < 0.3:
            keys = [f"k{k}" for k in keys]
        pol = make_policy(PolicySpec(kind, caps, window_fraction=wf,
                                     tie_break=tie, rng_seed=seed))
        fast = run(pol, keys)
        ref = reference_filter_outcomes(keys, caps, default_sketch(caps, seed), wf, tie)
        assert fast == ref, (kind, caps, wf, tie)


def test_sketch_state_depends_on_the_trace_alone():
    # every request is recorded before any decision, so after a bound
    # replay the counters are those of a sketch fed the trace and nothing
    # else, whatever the policy admitted; a small sketch collides and halves
    rnd = random.Random(29)
    for n_levels in (2, 3):
        for wf in (0.0, 0.5, 1.0):
            for tie in ("admit", "reject"):
                caps = tuple(rnd.randint(2, 6) for _ in range(n_levels))
                cfg = SketchConfig(sample_size=rnd.randint(20, 60),
                                   tracked_capacity=sum(caps), depth=2)
                seed = rnd.randint(0, 2**32)
                keys = [rnd.randint(0, 3 * sum(caps)) for _ in range(800)]
                if tie == "reject":  # string keys hash through blake2b
                    keys = [f"k{k}" for k in keys]
                trace = compile_trace(keys)
                pol = CascadeFilter(caps, window_fraction=wf, tie_break=tie,
                                    sketch=FrequencySketch(cfg, seed=seed))
                pol.bind_keys(trace.keys)
                run(pol, trace)
                expected, _ = reference_sketch_counters(keys, cfg, seed)[-1]
                assert pol.sketch.counters.tolist() == [list(row) for row in expected], \
                    (caps, wf, tie)


def test_bound_replay_over_chunk_keys_matches_reference_sketch(tmp_path):
    # an all-str key list binds through joined blake2b digests; the counters
    # a bound replay leaves must be those of an independent blake2b sketch
    rnd = random.Random(53)
    sizes = [rnd.choice([0, 4096, 4097, 20_000, 70_000]) for _ in range(150)]
    trace_file = tmp_path / "objects.trace"
    trace_file.write_text("".join(
        f"obj-{o},{sizes[o]}\n" for o in (rnd.randrange(150) for _ in range(600))
    ))
    keys = list(ingest_trace(trace_file))
    assert len(set(keys)) > 300
    for seed in (0, 77):
        cfg = SketchConfig(sample_size=400, tracked_capacity=40, depth=4)
        trace = compile_trace(keys)
        pol = CascadeFilter((8, 32), tie_break="reject",
                            sketch=FrequencySketch(cfg, seed=seed))
        pol.bind_keys(trace.keys)
        run(pol, trace)
        expected, _ = reference_sketch_counters(keys, cfg, seed)[-1]
        assert pol.sketch.counters.tolist() == [list(row) for row in expected], seed


def test_chain_kinds_match_list_reference():
    # every request of the three unfiltered kinds, at 2-4 levels, against
    # the list-based reference, which draws on every decision; the engine
    # may skip draws only where no draw can change an outcome
    rnd = random.Random(91)
    probs = [(0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (1.0, 0.5), (0.5, 0.0), (0.0, 0.0)]
    cases = [("Promote", n, p, q) for n in (2, 3, 4) for p, q in probs]
    cases += [(kind, n, p, q)
              for kind, p, q in (("Demote", 1.0, 1.0), ("NaiveLRU", 0.0, 1.0))
              for n in (2, 3, 4)]
    for kind, n_levels, p, q in cases * 2:
        caps = tuple(rnd.randint(1, 8) for _ in range(n_levels))
        seed = rnd.randint(0, 2**32)
        span = 3 * sum(caps)
        keys = [rnd.randint(0, span if rnd.random() < 0.5 else span // 4)
                for _ in range(1500)]
        if rnd.random() < 0.3:
            keys = [f"k{k}" for k in keys]
        pol = make_policy(PolicySpec(kind, caps, promote_prob=p, demote_prob=q,
                                     rng_seed=seed))
        fast = run(pol, keys)
        ref = reference_chain_outcomes(keys, caps, p, q, random.Random(seed))
        assert fast == ref, (kind, caps, p, q)


def test_none_is_a_key_like_any_other():
    # None must not be mistaken for "no victim": a trace holding None
    # replays like the same trace with None renamed to an unused key
    rnd = random.Random(8)
    latency = LatencyParams((100.0, 200.0, 300.0))
    assert run_single(PolicySpec("Demote", (1, 1)), [None, 1, None]).misses == 2
    for trial in range(10):
        caps = tuple(rnd.randint(1, 4) for _ in range(rnd.choice([2, 3])))
        keys = [rnd.choice((None, *range(1, 7))) for _ in range(400)]
        renamed = [99 if k is None else k for k in keys]
        for kind in ("Demote", "NaiveLRU", "Promote"):
            spec = PolicySpec(kind, caps, rng_seed=trial)
            row = run_single(spec, keys, latency)
            assert row == run_single(spec, renamed, latency), (kind, caps)
            ref = reference_chain_outcomes(keys, caps, spec.promote_prob,
                                           spec.demote_prob, random.Random(trial))
            assert ref == reference_chain_outcomes(renamed, caps, spec.promote_prob,
                                                   spec.demote_prob, random.Random(trial))
        row = run_single(PolicySpec("Demote", caps), keys, latency)
        assert row.requests - row.misses == reference_lru_hits(renamed, sum(caps))
        # the filtered engine and its reference, with a sketch that sees
        # None as 99
        wf, tie = rnd.choice([0.0, 0.5, 1.0]), rnd.choice(["admit", "reject"])
        outcomes = []
        for trace, sketch in ((keys, _Renaming(default_sketch(caps, trial))),
                              (renamed, default_sketch(caps, trial))):
            pol = CascadeFilter(caps, window_fraction=wf, tie_break=tie, sketch=sketch)
            outcomes.append(run(pol, trace))
            pol.check_invariants()
        assert outcomes[0] == outcomes[1], (caps, wf, tie)
        assert outcomes[0] == reference_filter_outcomes(
            keys, caps, _Renaming(default_sketch(caps, trial)), wf, tie)


class _Renaming:
    """A sketch stand-in that records and estimates None as the key 99."""

    def __init__(self, sketch):
        self.sketch = sketch

    def record(self, key):
        self.sketch.record(99 if key is None else key)

    def estimate(self, key):
        return self.sketch.estimate(99 if key is None else key)


def test_admission_soundness_decision_log():
    rnd = random.Random(3)
    for tie in ("admit", "reject"):
        pol = BiDiFilter((3, 5), window_fraction=0.5, tie_break=tie, rng_seed=1)
        pol.decision_log = []
        for _ in range(3000):
            pol.handle(rnd.randint(0, 40))
        assert pol.decision_log, "filter was never consulted"
        for cand, victim, ce, ve, admitted in pol.decision_log:
            if tie == "admit":
                assert admitted == (ce >= ve)
            else:
                assert admitted == (ce > ve)


def test_demote_walkthrough():
    pol = Demote((1, 1))
    outcomes = run(pol, ["a", "b", "a"])
    assert [(o.classification, o.writes) for o in outcomes] == [
        (MISS, ((1, 1),)),
        (MISS, ((1, 1), (2, 1))),
        (hit_at_level(2), ((1, 1), (2, 1))),
    ]
    assert list(pol.levels[0].keys()) == ["a"]
    assert list(pol.levels[1].keys()) == ["b"]


def test_demote_equals_global_lru():
    rnd = random.Random(21)
    for trial in range(15):
        caps = tuple(rnd.randint(1, 6) for _ in range(rnd.choice([2, 3])))
        keys = [rnd.randint(0, 14) for _ in range(400)]
        pol = Demote(caps)
        hits = h_l1 = 0
        for k in keys:
            c = pol.handle(k).classification
            if c != MISS:
                hits += 1
                if c == HIT_L1_WINDOW:
                    h_l1 += 1
        assert hits == reference_lru_hits(keys, sum(caps))
        assert h_l1 == reference_lru_hits(keys, caps[0])


def test_demote_outcome_counts_match_the_engine():
    # the histogram Demote's rule reads off the LRU profile equals the
    # engine's own replay, cell by cell, at 2-4 levels; the traces mix
    # None, True and 1.0 (one key with 1) with other keys, and include
    # single accesses and capacities beyond the footprint
    rnd = random.Random(1515)
    cells = single = roomy = 0
    for trial in range(80):
        pool = [None, True, 1.0, 1, "1", *range(2, rnd.randint(3, 60))]
        length = 1 if trial % 10 == 0 else rnd.randint(2, 500)
        keys = [rnd.choice(pool) for _ in range(length)]
        profile = lru_profile(compile_trace(keys))
        footprint = len(set(keys))
        for _ in range(3):
            caps = tuple(rnd.randint(1, footprint // 2 + 2)
                         for _ in range(rnd.randint(2, 4)))
            engine = Demote(caps)
            stats = SimStats(engine.n_levels)
            stats.add_all(map(engine.handle, keys))
            assert Demote(caps).outcome_counts(*profile) == stats.counts, (keys, caps)
            cells += 1
            single += length == 1
            roomy += sum(caps) > footprint
    assert cells >= 200 and single and roomy


def test_naive_lru_hits_never_promote():
    pol = NaiveLRU((1, 2))
    pol.handle("a")
    pol.handle("b")   # a demoted
    for _ in range(3):
        out = pol.handle("a")
        assert out == AccessOutcome(hit_at_level(2), ())
    assert "a" in pol.levels[1]  # still down there
    assert list(pol.levels[0].keys()) == ["b"]


def test_naive_lru_miss_writes():
    pol = NaiveLRU((1, 1))
    assert pol.handle("a").writes == ((1, 1),)
    assert pol.handle("b").writes == ((1, 1), (2, 1))


def test_naive_lru_l2_writes_bounded_by_misses():
    rnd = random.Random(31)
    for trial in range(10):
        pol = NaiveLRU((rnd.randint(1, 4), rnd.randint(1, 6)))
        misses = w2 = 0
        for _ in range(500):
            out = pol.handle(rnd.randint(0, 12))
            if out.classification == MISS:
                misses += 1
            w2 += sum(c for lvl, c in out.writes if lvl == 2)
        assert w2 <= misses


def test_promote_degenerate_equivalences():
    # Demote and NaiveLRU are Promote(1, 1) and Promote(0, 1) themselves,
    # so every run is held to the list-based reference instead
    rnd = random.Random(8)
    for trial in range(10):
        caps = tuple(rnd.randint(1, 5) for _ in range(rnd.choice([2, 3])))
        keys = [rnd.randint(0, 12) for _ in range(600)]
        for pol, p, q in (
            (Demote(caps), 1.0, 1.0),
            (Promote(caps, promote_prob=1.0, demote_prob=1.0, rng_seed=trial), 1.0, 1.0),
            (NaiveLRU(caps), 0.0, 1.0),
            (Promote(caps, promote_prob=0.0, demote_prob=1.0, rng_seed=trial), 0.0, 1.0),
        ):
            ref = reference_chain_outcomes(keys, caps, p, q, random.Random(trial))
            assert run(pol, keys) == ref


def test_promote_is_deterministic_per_seed():
    rnd = random.Random(1)
    keys = [rnd.randint(0, 9) for _ in range(300)]
    a = run(Promote((2, 3), rng_seed=42), keys)
    b = run(Promote((2, 3), rng_seed=42), keys)
    assert a == b
    c = run(Promote((2, 3), rng_seed=43), keys)
    assert a != c  # different coins somewhere in 300 events


def test_promote_q_zero_never_writes_l2():
    pol = Promote((1, 3), promote_prob=0.5, demote_prob=0.0, rng_seed=5)
    rnd = random.Random(5)
    for _ in range(400):
        out = pol.handle(rnd.randint(0, 9))
        assert all(lvl != 2 for lvl, _ in out.writes)


def test_exclusivity_and_capacity_property():
    rnd = random.Random(50)
    specs = [
        PolicySpec("BiDiFilter", (3, 6), window_fraction=0.5, rng_seed=1),
        PolicySpec("BiDiFilter", (3, 6), window_fraction=0.0, tie_break="reject", rng_seed=2),
        PolicySpec("BiDiFilter", (2, 4, 8), rng_seed=3),
        PolicySpec("BiDiFilterUnited", (3, 6), rng_seed=4),
        PolicySpec("Demote", (3, 6)),
        PolicySpec("NaiveLRU", (3, 6)),
        PolicySpec("Promote", (3, 6), rng_seed=5),
    ]
    for spec in specs:
        pol = make_policy(spec)
        for _ in range(2000):
            pol.handle(rnd.randint(0, 25))
            pol.check_invariants()


def test_write_accounting_matches_space_instrumentation():
    # reported per-level writes must equal actual inserts into the spaces
    rnd = random.Random(60)
    spec = PolicySpec("BiDiFilter", (4, 8), rng_seed=9)
    pol = make_policy(spec)
    w1 = w2 = 0
    for _ in range(5000):
        out = pol.handle(rnd.randint(0, 30))
        for lvl, cnt in out.writes:
            if lvl == 1:
                w1 += cnt
            else:
                w2 += cnt
    assert w1 == pol.window.insert_count + pol.veterans.insert_count
    assert w2 == pol.l2.insert_count


def test_l1_split_rounding():
    pol = BiDiFilter((5, 10), window_fraction=0.5)
    assert pol.window.capacity == 2  # round(2.5) banker's
    assert pol.veterans.capacity == 3
    pol = BiDiFilter((4, 10), window_fraction=0.25)
    assert pol.window.capacity == 1
    assert pol.veterans.capacity == 3
