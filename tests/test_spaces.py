import itertools
import random

import numpy as np
import pytest

from bidifilter import LruSpace, SlruSpace
from bidifilter.spaces import lru_cascade, lru_chain


def test_lru_insert_order():
    sp = LruSpace(2)
    sp.insert("a")
    assert list(sp.keys()) == ["a"]
    sp.insert("b")
    assert list(sp.keys()) == ["a", "b"]  # b most recent


def test_lru_touch_moves_to_mru():
    sp = LruSpace(3)
    for k in "abc":
        sp.insert(k)
    sp.touch("a")
    assert list(sp.keys()) == ["b", "c", "a"]


def test_lru_errors():
    sp = LruSpace(1)
    sp.insert("a")
    with pytest.raises(ValueError):
        sp.insert("a")  # duplicate
    with pytest.raises(ValueError):
        sp.insert("b")  # over capacity
    assert list(sp.keys()) == ["a"] and sp.insert_count == 1
    with pytest.raises(KeyError):
        sp.touch("zzz")


@pytest.mark.parametrize("space", [LruSpace, SlruSpace])
def test_capacity_must_be_an_integer(space):
    for bad in (2.5, 2.0, -1, "3", None, True, False):
        with pytest.raises(ValueError, match="capacity must be an integer >= 0"):
            space(bad)
    for good in (0, 3, np.int64(3), np.uint8(3)):
        sp = space(good)
        assert sp.capacity == int(good) and type(sp.capacity) is int
    sp = space(np.int32(2))
    for k in "ab":
        sp.insert(k)
    with pytest.raises(ValueError):
        sp.insert("c")  # the capacity, read as an int, is reached
    assert list(sp.keys()) == ["a", "b"]


def test_insert_count_instrumentation():
    for space_cls in (LruSpace, SlruSpace):
        sp = space_cls(5)
        for k in range(5):
            sp.insert(k)
        sp.touch(0)  # a recency update is free
        for refused in (0, 9):  # present, then full
            with pytest.raises(ValueError):
                sp.insert(refused)
        assert sp.insert_count == 5


def test_size_deltas():
    # touch keeps size; insert +1; a refused insert keeps it
    sp = SlruSpace(4)
    sp.insert("a")
    n = len(sp)
    sp.touch("a")
    assert len(sp) == n
    sp.insert("b")
    assert len(sp) == n + 1
    with pytest.raises(ValueError):
        sp.insert("a")
    assert len(sp) == n + 1


def test_slru_insert_goes_to_probation():
    sp = SlruSpace(10)
    sp.insert("a")
    assert "a" in sp._probation
    assert "a" not in sp._protected


def test_slru_touch_promotes_to_protected():
    sp = SlruSpace(10)
    sp.insert("a")
    sp.touch("a")
    assert "a" in sp._protected


def test_slru_protected_overflow_demotes_to_probation_mru():
    # capacity 5, protected quota = ceil(0.8*5) = 4
    sp = SlruSpace(5)
    for k in "abcde":
        sp.insert(k)
    for k in "abcd":
        sp.touch(k)
    assert len(sp._protected) == 4
    sp.touch("e")  # fifth promotion exceeds the quota
    assert "e" in sp._protected
    assert "a" in sp._probation  # protected LRU pushed back
    assert len(sp) == 5  # internal exchange, no eviction
    sp.check()


def test_slru_victim_prefers_probation():
    # keys() lists the eviction order the engine reads: probation's LRU
    # first, protected's LRU once probation is empty
    sp = SlruSpace(4)
    for k in "abcd":
        sp.insert(k)
    sp.touch("a")
    sp.touch("b")
    assert list(sp.keys()) == ["c", "d", "a", "b"]  # c, not protected's a
    sp.touch("c")
    sp.touch("d")
    assert not sp._probation and len(sp._protected) == 4
    assert list(sp.keys()) == ["a", "b", "c", "d"]  # probation empty: a
    sp.check()


def test_slru_errors_and_quota():
    sp = SlruSpace(2)
    sp.insert("a")
    sp.insert("b")
    with pytest.raises(ValueError):
        sp.insert("c")
    with pytest.raises(ValueError):
        sp.insert("a")
    sp.touch("b")
    assert list(sp.keys()) == ["a", "b"] and sp.insert_count == 2
    with pytest.raises(KeyError):
        sp.touch("nope")
    assert sp.protected_capacity == 2  # ceil(0.8*2)
    roomy = SlruSpace(3)
    roomy.insert("a")
    roomy.touch("a")
    with pytest.raises(ValueError):
        roomy.insert("a")  # duplicate in protected, with room to spare
    assert list(roomy.keys()) == ["a"] and roomy.insert_count == 1


def _drive_lru(space, key):
    # the standard caller contract: a hit touches, a miss is inserted by a
    # one-level cascade, which evicts the LRU key of a full space
    if key in space:
        space.touch(key)
    else:
        lru_cascade(lru_chain([space]), key, itertools.repeat(0.5).__next__, 1.0)


def test_lru_inclusion_property():
    # contents of an LRU of capacity c stay a subset of capacity c+1
    rnd = random.Random(13)
    for trial in range(20):
        small = LruSpace(rnd.randint(1, 8))
        big = LruSpace(small.capacity + 1)
        for _ in range(300):
            k = rnd.randint(0, 20)
            _drive_lru(small, k)
            _drive_lru(big, k)
            assert set(small.keys()) <= set(big.keys())


def test_lru_space_is_an_slru_with_no_protected_part():
    # one set of space methods: LruSpace only sets the protected size to 0
    assert issubclass(LruSpace, SlruSpace)
    own = {"__init__", "insert", "touch", "check", "keys", "__len__", "__contains__"}
    assert not own & vars(LruSpace).keys()
    sp = LruSpace(5)
    for k in "abc":
        sp.insert(k)
    sp.touch("a")  # promoted and demoted at once: probation's MRU end
    assert sp.protected_capacity == 0 and not sp._protected
    assert list(sp._probation) == ["b", "c", "a"]
    sp.check()


def test_capacity_zero_space():
    for space_cls in (LruSpace, SlruSpace):
        sp = space_cls(0)
        with pytest.raises(ValueError):
            sp.insert("a")
        assert len(sp) == 0 and sp.insert_count == 0


class _ListSlru:
    """An SlruSpace as two python lists (index 0 is the LRU end); with a
    protected capacity of 0 it is a plain LRU, which never promotes."""

    def __init__(self, capacity, protected_capacity):
        self.capacity, self.protected_capacity = capacity, protected_capacity
        self.probation, self.protected = [], []
        self.insert_count = 0

    def keys(self):
        return self.probation + self.protected

    def insert(self, key):
        self.probation.append(key)
        self.insert_count += 1

    def touch(self, key):
        if not self.protected_capacity:
            self.probation.remove(key)
            self.probation.append(key)
            return
        (self.protected if key in self.protected else self.probation).remove(key)
        self.protected.append(key)
        if len(self.protected) > self.protected_capacity:
            self.probation.append(self.protected.pop(0))


def test_insert_and_touch_match_list_model():
    # random inserts and touches on both space classes; an insert into a
    # full space, or of a present key, is refused and changes nothing;
    # after every step the order and the insert count agree
    rnd = random.Random(15)
    for trial in range(60):
        capacity = rnd.randint(1, 7)
        sp = rnd.choice((LruSpace, SlruSpace))(capacity)
        model = _ListSlru(capacity, sp.protected_capacity)
        for _ in range(300):
            key = rnd.choice((None, *range(12)))
            present = key in model.keys()
            if present and rnd.random() < 0.8:
                sp.touch(key)
                model.touch(key)
            elif present or len(model.keys()) == capacity:
                with pytest.raises(ValueError):
                    sp.insert(key)
            else:
                sp.insert(key)
                model.insert(key)
            assert list(sp.keys()) == model.keys(), trial
            assert sp.insert_count == model.insert_count
            assert (key in sp) == (key in model.keys())
            sp.check()


def test_lru_cascade_hand_traced():
    # capacities 1, 2, 3; keys listed LRU first per level
    spaces = [LruSpace(c) for c in (1, 2, 3)]
    chain = lru_chain(spaces)

    def state():
        return [list(sp.keys()) for sp in spaces], [sp.insert_count for sp in spaces]

    carry = itertools.repeat(0.5).__next__  # every draw < 1: victims move on
    assert lru_cascade(chain, "a", carry, 1.0) == 1  # L1 had room
    assert lru_cascade(chain, "b", carry, 1.0) == 2  # a carried into L2
    assert state() == ([["b"], ["a"], []], [2, 1, 0])
    assert lru_cascade(chain, None, carry, 1.0) == 2  # b joins a in L2
    assert state() == ([[None], ["a", "b"], []], [3, 2, 0])
    assert lru_cascade(chain, "c", carry, 1.0) == 3  # None to L2, a on to L3
    assert state() == ([["c"], ["b", None], ["a"]], [4, 3, 1])
    # a coin that stops after one hop: c is carried into L2, whose victim b
    # then leaves the cache; exactly two draws are made
    draws = iter([0.1, 0.9])
    assert lru_cascade(chain, "d", draws.__next__, 0.5) == 2
    assert next(draws, "spent") == "spent"
    assert state() == ([["d"], [None, "c"], ["a"]], [5, 4, 1])
    # None is carried down as a victim like any other key
    assert lru_cascade(chain, "e", carry, 1.0) == 3
    assert state() == ([["e"], ["c", "d"], ["a", None]], [6, 5, 2])
    assert lru_cascade(chain, "f", carry, 1.0) == 3
    assert state() == ([["f"], ["d", "e"], ["a", None, "c"]], [7, 6, 3])
    # the bottom level's victim leaves the cache, and its hop draws too
    draws = iter([0.1, 0.1, 0.1])
    assert lru_cascade(chain, "g", draws.__next__, 0.5) == 3
    assert next(draws, "spent") == "spent"
    assert state() == ([["g"], ["e", "f"], [None, "c", "d"]], [8, 7, 4])
    for sp in spaces:
        sp.check()


def test_lru_chain_needs_room_in_every_space():
    # one entry format for every space: an LruSpace's protected dict is
    # its own, and stays empty
    top, bottom = LruSpace(1), SlruSpace(3)
    chain = lru_chain([top, bottom])
    assert chain == ((1, top, {}, {}, 1), (2, bottom, {}, {}, 3))
    for (_, sp, probation, protected, _), want in zip(chain, (top, bottom)):
        assert sp is want and probation is sp._probation and protected is sp._protected
    with pytest.raises(ValueError):
        lru_chain([LruSpace(1), LruSpace(0)])
    with pytest.raises(ValueError):
        lru_chain([LruSpace(1), SlruSpace(0)])
