import math
import random
from collections import OrderedDict

import numpy as np
import pytest

from bidifilter import FrequencySketch, SketchConfig
from bidifilter.oracles import (
    exact_counts,
    exact_zipf_probabilities,
    reference_chain_outcomes,
    reference_filter_outcomes,
    reference_lru_hits,
    reference_sketch_counters,
    reference_stack_distances,
)


def test_exact_counts_tiny():
    keys = ["a", "b", "a", "a", "c"]
    counts = exact_counts(keys)
    assert counts == {"a": 3, "b": 1, "c": 1}
    assert exact_counts([]) == {}


def test_lru_hits_hand_cases():
    assert reference_lru_hits(["a", "a"], 1) == 1
    assert reference_lru_hits(["a", "b", "a"], 1) == 0
    assert reference_lru_hits(["a", "b", "a"], 2) == 1
    # classic: cyclic scan one past capacity never hits
    assert reference_lru_hits([1, 2, 3, 1, 2, 3, 1, 2, 3], 2) == 0
    assert reference_lru_hits([1, 2, 3, 1, 2, 3], 3) == 3
    with pytest.raises(ValueError):
        reference_lru_hits(["a"], 0)


def test_lru_agrees_with_ordereddict_simulation():
    # two independent slow implementations must agree everywhere
    rnd = random.Random(4)
    for _ in range(30):
        cap = rnd.randint(1, 8)
        keys = [rnd.randint(0, 15) for _ in range(300)]
        od: OrderedDict = OrderedDict()
        hits = 0
        for k in keys:
            if k in od:
                od.move_to_end(k)
                hits += 1
            else:
                od[k] = None
                if len(od) > cap:
                    od.popitem(last=False)
        assert reference_lru_hits(keys, cap) == hits


def test_lru_hits_monotone_in_capacity():
    rnd = random.Random(9)
    keys = [rnd.randint(0, 20) for _ in range(500)]
    hits = [reference_lru_hits(keys, c) for c in range(1, 25)]
    assert all(a <= b for a, b in zip(hits, hits[1:]))
    # capacity >= distinct keys: only cold misses remain
    assert hits[-1] == len(keys) - len(set(keys))


def test_stack_distances_hand_cases_and_lru_hits():
    assert reference_stack_distances([]) == []
    assert reference_stack_distances(["a", "a", "b", "a", "c", "b"]) == [0, 1, 0, 2, 0, 3]
    # True and 1.0 are the key 1; "1" is another
    assert reference_stack_distances([1, True, "1", 1.0]) == [0, 1, 0, 2]
    # an LRU cache of capacity c hits exactly the accesses at distance 1..c
    rnd = random.Random(10)
    keys = [rnd.randint(0, 20) for _ in range(500)]
    distances = reference_stack_distances(keys)
    for cap in range(1, 25):
        assert sum(1 <= d <= cap for d in distances) == reference_lru_hits(keys, cap)


def test_zipf_probabilities_properties():
    probs = exact_zipf_probabilities(5, 1.0)
    h5 = sum(1 / r for r in range(1, 6))
    assert math.isclose(probs[0], 1 / h5, rel_tol=1e-12)
    assert math.isclose(sum(probs), 1.0, rel_tol=1e-12)
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    # skew 0 is uniform
    assert exact_zipf_probabilities(4, 0.0) == [0.25] * 4
    with pytest.raises(ValueError):
        exact_zipf_probabilities(0, 1.0)

def test_filter_reference_hand_walkthrough():
    # window 1 / veterans 1 / L2 2: the hand trace the fast policy's own
    # walkthrough test freezes
    cfg = SketchConfig(sample_size=40, tracked_capacity=4, width=16384)
    outcomes = reference_filter_outcomes(
        ["a", "b", "a", "c", "c", "c"], (2, 2), FrequencySketch(cfg, seed=7),
        0.5, "admit")
    assert outcomes == [
        ("miss", ((1, 1),)),
        ("miss", ((1, 1), (2, 1))),      # b displaces a; a warm-fills L2
        ("hit_l2", ((1, 1),)),           # a promotes into empty veterans
        ("miss", ((1, 1), (2, 1))),      # c displaces b into the freed slot
        ("hit_l1_window", ()),
        ("hit_l1_window", ()),
    ]
    with pytest.raises(ValueError):
        reference_filter_outcomes([], (4,), FrequencySketch(cfg), 0.5, "admit")
    with pytest.raises(ValueError):
        reference_filter_outcomes([], (4, 4), FrequencySketch(cfg), 0.5, "maybe")


class _Coins:
    """Stands in for ``random.Random``: hands out fixed draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_chain_reference_hand_walkthrough():
    # levels 1/1/1 at p = q = 0.5: a draw below 0.5 promotes or demotes
    coins = _Coins([0.9, 0.1, 0.1, 0.1, 0.9, 0.2, 0.3])
    keys = ["a", "b", "c", "b", "c", "a", "a"]
    assert reference_chain_outcomes(keys, (1, 1, 1), 0.5, 0.5, coins) == [
        ("miss", ((1, 1),)),                   # no victim, no draw
        ("miss", ((1, 1),)),                   # a displaced; 0.9: dropped
        ("miss", ((1, 1), (2, 1))),            # b displaced; 0.1: into L2
        ("hit_l2", ((1, 1), (2, 1))),          # 0.1: b promotes; c demotes (0.1)
        ("hit_l2", ()),                        # 0.9: c refreshes in place
        ("miss", ((1, 1), (2, 1), (3, 1))),    # b (0.2) and c (0.3) move down
        ("hit_l1_window", ()),                 # L1 hits draw nothing
    ]
    assert coins.draws == []


def test_sketch_reference_hand_walkthrough():
    # one key alone: its counters climb to the cap ceil(6/2) = 3, hold
    # there, and the sixth record halves them to 1; every other counter
    # stays 0, so each row sums to the estimate
    cfg = SketchConfig(sample_size=6, tracked_capacity=2, depth=3, width=8)
    snapshots = reference_sketch_counters(["a"] * 7, cfg, seed=5)
    assert [estimate for _, estimate in snapshots] == [1, 2, 3, 3, 3, 1, 2]
    for counters, estimate in snapshots:
        assert len(counters) == 3 and all(len(row) == 8 for row in counters)
        assert all(sum(row) == estimate for row in counters)
    # 1, True, numpy 1 and the integral floats are the same int; 2.5
    # hashes as the string "2.5"
    for same in (True, np.int64(1), 1.0, np.float64(1.0), np.float32(1.0)):
        assert reference_sketch_counters([same], cfg, 5) == reference_sketch_counters([1], cfg, 5)
    assert reference_sketch_counters([2.5], cfg, 5) == reference_sketch_counters(["2.5"], cfg, 5)
