import random

import numpy as np
import pytest

from bidifilter import FrequencySketch, SketchConfig
from bidifilter.harness import compile_trace
from bidifilter.oracles import exact_counts, reference_sketch_counters


def test_config_cap_rule():
    cfg = SketchConfig(sample_size=160, tracked_capacity=16)
    assert cfg.counter_cap == 10
    assert SketchConfig(sample_size=8, tracked_capacity=1).counter_cap == 8
    assert SketchConfig(sample_size=160, tracked_capacity=10).counter_cap == 16


def test_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(sample_size=0, tracked_capacity=1)
    with pytest.raises(ValueError):
        SketchConfig(sample_size=10, tracked_capacity=0)
    with pytest.raises(ValueError):
        SketchConfig(sample_size=10, tracked_capacity=4, width=3)  # width < C
    with pytest.raises(ValueError):
        SketchConfig(sample_size=10, tracked_capacity=4, width=24)  # not a power of two
    with pytest.raises(ValueError):
        SketchConfig(sample_size=10, tracked_capacity=1, depth=0)
    for bad in (1.5, "3", True, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            FrequencySketch(SketchConfig(10, 1), seed=bad)
    # a numpy int seed is the Python int it equals
    sketches = [FrequencySketch(SketchConfig(40, 4), seed=s) for s in (7, np.int64(7))]
    for sk in sketches:
        for key in (1, 2, 2, "a", 3):
            sk.record(key)
    assert (sketches[0].counters == sketches[1].counters).all()


@pytest.mark.parametrize("field, value", [
    ("sample_size", 50.5),
    ("tracked_capacity", 5.0),
    ("depth", 2.0),
    ("width", 64.0),
    ("sample_size", "50"),
    ("sample_size", True),
    ("depth", True),
])
def test_config_fields_must_be_integers(field, value):
    fields = {"sample_size": 50, "tracked_capacity": 5, "depth": 2, "width": 64,
              field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SketchConfig(**fields)


def test_config_takes_numpy_ints_as_python_ints():
    cfg = SketchConfig(sample_size=np.int64(50), tracked_capacity=np.int32(5),
                       depth=np.uint8(2), width=np.int64(64))
    assert cfg == SketchConfig(50, 5, depth=2, width=64)
    assert all(type(v) is int for v in (cfg.sample_size, cfg.tracked_capacity, cfg.depth,
                                         cfg.width, cfg.counter_cap))
    assert SketchConfig(np.int64(100), np.int64(10)).width == 16


def test_default_width_is_pow2_at_least_capacity():
    for c in (1, 2, 3, 5, 16, 100, 1000):
        cfg = SketchConfig.for_capacity(c)
        assert cfg.width >= c
        assert cfg.width & (cfg.width - 1) == 0
        assert cfg.sample_size == 10 * c
        assert cfg.counter_cap == 10


def test_record_then_estimate_lower_bound():
    sk = FrequencySketch(SketchConfig(sample_size=100, tracked_capacity=10), seed=1)
    for _ in range(3):
        sk.record("x")
    assert sk.estimate("x") >= 3


def test_saturation_at_cap():
    cfg = SketchConfig(sample_size=160, tracked_capacity=16)
    sk = FrequencySketch(cfg, seed=2)
    for _ in range(15):
        sk.record("x")
    assert sk.estimate("x") == 10
    assert sk.counters.max() <= cfg.counter_cap


def test_never_recorded_key_estimates_zero():
    sk = FrequencySketch(SketchConfig(sample_size=100, tracked_capacity=10), seed=0)
    assert sk.estimate("ghost") == 0
    assert sk.estimate(12345) == 0


def test_halving_at_sample_boundary():
    # width chosen so the eight keys land on distinct counters with this seed
    cfg = SketchConfig(sample_size=8, tracked_capacity=1, width=4096)
    sk = FrequencySketch(cfg, seed=0)
    for key in range(7):
        sk.record(key)
    assert sk.counters.max() == 1  # collision-free placement
    assert sk.increments_since_reset == 7
    sk.record(7)
    assert sk.increments_since_reset == 0
    assert sk.counters.max() == 0  # every touched counter halved 1 -> 0
    assert all(sk.estimate(k) == 0 for k in range(8))


def test_halve_floor_division():
    sk = FrequencySketch(SketchConfig(sample_size=160, tracked_capacity=16), seed=4)
    for _ in range(7):
        sk.record("a")
    sk.halve()
    assert sk.estimate("a") == 3
    sk.halve()
    assert sk.estimate("a") == 1
    sk.halve()
    assert sk.estimate("a") == 0
    sk.halve()  # idempotent on zero
    assert sk.counters.max() == 0


def test_halving_caps_before_it_shifts():
    # 15 records of one key at cap 10 read as 10, so halving leaves 5
    sk = FrequencySketch(SketchConfig(sample_size=160, tracked_capacity=16), seed=4)
    for _ in range(15):
        sk.record(0)
    assert sk.estimate(0) == 10
    assert sk.counters.max() == 10
    sk.halve()
    assert sk.estimate(0) == 5 and sk.counters.max() == 5


def test_halve_nonincreasing_elementwise():
    sk = FrequencySketch(SketchConfig(sample_size=50, tracked_capacity=5), seed=9)
    for k in range(40):
        sk.record(k % 7)
    before = sk.counters
    sk.halve()
    after = sk.counters
    assert (after <= before).all()
    assert (after == before // 2).all()


def test_adversarial_collision_pair_depth1_width2():
    # brute-force a pair of keys sharing the single row's index, then
    # check the shared counter sums their occurrences
    cfg = SketchConfig(sample_size=20, tracked_capacity=2, depth=1, width=2)
    sk = FrequencySketch(cfg, seed=3)

    def row_index(key):
        base = sk._base(key)
        off, mult = sk._rows[0]
        x = (base * mult) & ((1 << 64) - 1)
        return (x ^ (x >> 32)) % 2

    first = 1
    second = next(k for k in range(2, 1000) if row_index(k) == row_index(first))
    for _ in range(3):
        sk.record(first)
    for _ in range(2):
        sk.record(second)
    assert sk.estimate(first) == 5
    assert sk.estimate(second) == 5


def test_one_sided_error_against_oracle():
    rnd = random.Random(6)
    # cap here is ceil(10000/100) = 100
    cfg = SketchConfig(sample_size=10_000, tracked_capacity=100, width=256)
    sk = FrequencySketch(cfg, seed=5)
    stream = [rnd.randint(0, 300) for _ in range(5000)]
    for k in stream:
        sk.record(k)
    counts = exact_counts(stream)
    cap = cfg.counter_cap
    for key, exact in counts.items():
        assert sk.estimate(key) >= min(exact, cap)


def test_bounded_overestimate_single_trial():
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 10_000, size=100_000)
    cfg = SketchConfig(sample_size=150_000, tracked_capacity=10_000, width=2**16)
    sk = FrequencySketch(cfg, seed=7)
    sk.bind_keys(list(range(10_000)))  # key k has id k
    for key in keys.tolist():
        sk.record(key)
    counts = exact_counts(keys.tolist())
    cap = cfg.counter_cap
    over = sum(
        1 for key, exact in counts.items()
        if exact < cap and sk.estimate(key) > exact
    )
    assert over / len(counts) < 0.01


def test_aging_boundedness():
    cfg = SketchConfig(sample_size=13, tracked_capacity=2)
    sk = FrequencySketch(cfg, seed=8)
    rnd = random.Random(8)
    for i in range(300):
        sk.record(rnd.randint(0, 50))
        assert 0 <= sk.increments_since_reset < cfg.sample_size


def test_numpy_and_python_int_keys_are_the_same_key():
    # a numpy-typed trace must count and estimate exactly like python ints
    cfg = SketchConfig(sample_size=1000, tracked_capacity=128)
    py, npy = (FrequencySketch(cfg, seed=4) for _ in range(2))
    keys = list(range(1, 200))
    for k in keys:
        py.record(k)
        npy.record(np.int64(k))
    assert (py.counters == npy.counters).all()
    for k in (5, 77, 500):
        expected = py.estimate(k)
        assert npy.estimate(np.int64(k)) == expected
        assert npy.estimate(np.uint32(k)) == expected


def test_string_and_int_keys_are_independent_spaces():
    sk = FrequencySketch(SketchConfig(sample_size=1000, tracked_capacity=100), seed=11)
    for _ in range(5):
        sk.record("1")
    # the int 1 may collide by chance but must not inherit the count exactly
    assert sk.estimate("1") >= 5


def test_same_seed_same_estimates_across_instances():
    cfg = SketchConfig(sample_size=500, tracked_capacity=50)
    a = FrequencySketch(cfg, seed=42)
    b = FrequencySketch(cfg, seed=42)
    rnd = random.Random(0)
    stream = [rnd.randint(0, 200) for _ in range(2000)]
    for k in stream:
        a.record(k)
        b.record(k)
    assert (a.counters == b.counters).all()
    c = FrequencySketch(cfg, seed=43)
    for k in stream:
        c.record(k)
    # a different seed relocates counters; content must differ somewhere
    assert (a.counters != c.counters).any()


def _stream(kind, rnd, n):
    if kind == "int":
        pool = list(range(-40, 120)) + [2**63 + 5, 2**70 + 1, -(2**65)]
        return [rnd.choice(pool) for _ in range(n)]
    if kind == "str":
        return [rnd.choice(("k", "chunk#", "é", "")) + str(rnd.randint(0, 150)) for _ in range(n)]
    if kind == "np.int64":
        return [np.int64(rnd.randint(-40, 150)) for _ in range(n)]
    # values that compare equal (1, True, np.int64(1), 1.0) hash alike; "1"
    # is a string key, and 2.5, no integral float, goes through str()
    mixed = (1, True, np.int64(1), 1.0, "1", 2, "2", np.float64(2.0), 2.5)
    return [rnd.choice(mixed) for _ in range(n)]


@pytest.mark.parametrize("kind", ["int", "str", "np.int64", "mixed"])
def test_scalar_ops_match_reference_after_every_record(kind):
    # each trial drives a bare sketch by key and a bound twin by key id;
    # most records fall on a few hot keys, so keys reach the cap between
    # halvings and the bound twin skips the records it can skip
    rnd = random.Random(kind)  # str seeds are not salted
    at_cap = 0
    for trial in range(12):
        tracked = rnd.randint(1, 8)
        cfg = SketchConfig(
            sample_size=rnd.randint(5, 40) if trial % 3 else tracked,  # else cap 1
            tracked_capacity=tracked,
            depth=1 + trial % 4,
            width=rnd.choice([8, 16, 32, 64]),
        )
        hot = _stream(kind, rnd, rnd.randint(1, 3))
        keys = [rnd.choice(hot) if rnd.random() < 0.7 else key for key in _stream(kind, rnd, 300)]
        assert len(keys) // cfg.sample_size >= 5  # several halvings
        sk = FrequencySketch(cfg, seed=trial)
        expected = reference_sketch_counters(keys, cfg, seed=trial)
        trace = compile_trace(keys)
        bound = FrequencySketch(cfg, seed=trial)
        bound.bind_keys(trace.keys)
        # the bound twin counts equal keys as the first of them seen
        bound_expected = reference_sketch_counters(
            [trace.keys[i] for i in trace.ids], cfg, seed=trial
        )
        since_halving = {}
        for step, (key, i, (counters, estimate), (bound_counters, bound_estimate)) in enumerate(
            zip(keys, trace.ids, expected, bound_expected)
        ):
            if rnd.random() < 0.5:
                sk.estimate(key)  # first sight through estimate, not record
                bound.estimate(i)
            at_cap += since_halving.get(i, 0) >= cfg.counter_cap
            since_halving[i] = since_halving.get(i, 0) + 1
            if (step + 1) % cfg.sample_size == 0:
                since_halving.clear()
            sk.record(key)
            bound.record(i)
            assert sk.counters.tolist() == [list(row) for row in counters], (trial, step)
            assert sk.estimate(key) == estimate, (trial, step, key)
            assert bound.counters.tolist() == [list(row) for row in bound_counters], (trial, step)
            assert bound.estimate(i) == bound_estimate, (trial, step, key)
    assert at_cap >= 12 * 300 // 5  # records on keys already at the cap


@pytest.mark.parametrize("sample_size, tracked", [(160, 16), (7, 2), (9, 2), (2000, 2)])
def test_bound_key_counts_again_after_halving(sample_size, tracked):
    # one bound key: no collisions, so its estimate is its capped count;
    # caps 10, 4, 5 and 1000, each reached well before W records halve
    cfg = SketchConfig(sample_size=sample_size, tracked_capacity=tracked)
    cap = cfg.counter_cap
    sk = FrequencySketch(cfg, seed=3)
    sk.bind_keys(["only"])
    for _ in range(cap + 1):
        sk.record(0)
    assert sk.estimate(0) == cap and sk.counters.max() == cap
    sk.halve()
    assert sk.estimate(0) == cap >> 1
    sk.record(0)
    assert sk.estimate(0) == (cap >> 1) + 1
    assert sk.counters.max() == (cap >> 1) + 1


def test_slot_table_matches_scalar_slots():
    # int keys, Python or numpy, that numpy reads as one integer array are
    # hashed in one vectorized pass, negative and unsigned ones included;
    # all-str lists from joined blake2b digests; lists numpy reads as float
    # or object, and lists that mix str with other keys, key by key
    cfg = SketchConfig(sample_size=50, tracked_capacity=5, depth=4, width=64)
    key_lists = [
        [*range(-300, 300), 2**63 - 1, -(2**63)],
        [5, -7, 2**63, 2**70 + 1, -(2**65), 0],
        ["a", "chunk#3", "é", "", "1"],
        [f"obj-{i // 7}#{i % 7}" for i in range(2000)],
        ["a", 2.5, None, "b"],
        ["x", 1, "y"],
        [],
        [np.int64(k) for k in (-5, 0, 7, 2**63 - 1, -(2**63))],
        [np.uint64(2**63), np.uint64(2**64 - 1), np.uint64(3)],
        [2**63, 2**64 - 1, 1],
        [1, np.int64(-2), 3, np.int64(2**40)],
        [np.int8(-1), np.int8(5)],
        [-1, 2**63],
        [3, 2.5, -1],
    ]
    rnd = random.Random(8)
    for keys in key_lists:
        bound = FrequencySketch(cfg, seed=9)
        bound.bind_keys(keys)
        assert list(zip(*bound._slot_rows)) == [bound._slots(k) for k in keys]
        # recording and estimating by index is recording the key itself
        bare = FrequencySketch(cfg, seed=9)
        for _ in range(3 * cfg.sample_size if keys else 0):
            i = rnd.randrange(len(keys))
            bound.record(i)
            bare.record(keys[i])
            j = rnd.randrange(len(keys))
            assert bound.estimate(j) == bare.estimate(keys[j])
        assert (bound.counters == bare.counters).all()
