"""Approximate frequency tracking for cache admission decisions.

A count-min matrix of small saturating counters, aged by halving every
``sample_size`` increments so estimates track the recent past instead of
the whole history.  Estimates never undercount within a sample window;
hash collisions can only inflate them.

Counts are stored unsaturated and capped wherever they are read, so a
record is at most one plain increment per row.  Capping on read gives
the same observable state as saturating on write, since ``min(min(u,
cap) + 1, cap) == min(u + 1, cap)`` for any count ``u``, and halving
caps before it shifts.

There is one way to count and one way to read: the scalar ``record``
and ``estimate``.  A replay binds its distinct keys first
(``FrequencySketch.bind_keys``), which hashes them in one batch, and
then passes key ids to those same two calls.  A bound key also keeps a
countdown of the records it still needs before every counter it owns is
known to be at the cap.  At zero, ``record`` skips the rows and
``estimate`` returns the cap: between halvings counters only grow, each
record of the key adds one to all of its counters, and every read caps,
so no read can tell a skipped increment from a made one.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass

import numpy as np

from .checks import integer

_M64 = (1 << 64) - 1
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """64-bit finalizing mixer (splitmix64 style). Also used to derive seeds."""
    x &= _M64
    x ^= x >> 33
    x = (x * _MIX1) & _M64
    x ^= x >> 33
    x = (x * _MIX2) & _M64
    x ^= x >> 33
    return x


def derive_seed(master: int, index: int) -> int:
    """Stable per-cell seed from a master seed and a cell index."""
    return mix64(mix64(master) ^ mix64(index + 0x1D8AF066))


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class SketchConfig:
    """Geometry of the frequency sketch.

    sample_size: increments between aging halvings (W).
    tracked_capacity: cache capacity the sketch protects (C); together with
        sample_size it fixes the counter saturation cap ceil(W/C).
    depth: rows; a key has one counter in each.
    width: counters per row: a power of two >= C, by default the smallest.
    """

    sample_size: int
    tracked_capacity: int
    depth: int = 4
    width: int | None = None

    def __post_init__(self):
        for name in ("sample_size", "tracked_capacity", "depth"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 1))
        width = next_pow2(self.tracked_capacity) if self.width is None else self.width
        object.__setattr__(self, "width", integer("width", width))
        if self.width < self.tracked_capacity:
            raise ValueError("width must be >= tracked_capacity")
        if self.width & (self.width - 1):
            raise ValueError("width must be a power of two")

    @property
    def counter_cap(self) -> int:
        """Saturation value: ceil(sample_size / tracked_capacity)."""
        return -(-self.sample_size // self.tracked_capacity)

    @classmethod
    def for_capacity(cls, capacity: int) -> "SketchConfig":
        """Default geometry for a cache of ``capacity`` items: W = 10 * C,
        so a cap of 10, at the default depth and width."""
        return cls(sample_size=10 * capacity, tracked_capacity=capacity)


class FrequencySketch:
    """Count-min sketch with saturating counters and periodic halving.

    The counter table is a flat list of Python ints holding unsaturated
    counts: ``record`` adds one per row, and every read (``estimate``,
    ``counters``, ``halve``) caps what it reads, so what can be observed
    is the saturating sketch's state exactly.
    Between halvings a count grows by at most ``sample_size``.

    Keys may be ints, Python or numpy alike (hashed with a splitmix64-style
    mixer), or strings (hashed with blake2b keyed by the seed: the sketch
    keys one state up front and hashes each string from a copy of it);
    a float, Python or numpy, with an integral value hashes as the int it
    equals, and any other key as its ``str()``.  Neither path touches
    Python's salted ``hash()``, so estimates are reproducible across
    processes.  Other keys that compare equal can hash apart (``(1,)``
    and ``(1.0,)``).

    A bare sketch hashes its key on every ``record`` and ``estimate``.
    A replay binds its distinct keys up front with ``bind_keys``: each
    key is hashed once, there, and from then on ``record`` and
    ``estimate`` take the key's index in that list and read its counter
    indexes from the table.  The harness binds one key per class of
    equal keys (``harness.compile_trace``), so the sketch counts them as
    the one key the cache treats them as.  The table lives as long as
    the sketch; halving ages the counters and leaves it alone.

    Each bound key also has a countdown, set to the cap by ``bind_keys``
    and by every ``halve``.  A record of the key with its countdown above
    zero decrements it and increments the rows; once it is zero, all of
    the key's counters are at least the cap (each of those records added
    one to every one of them, and nothing but halving lowers a counter),
    so ``record`` leaves the rows alone and ``estimate`` returns the cap
    without reading them.  Every read caps, so the skipped increments
    change no estimate, no ``counters`` snapshot and no halving.
    ``increments_since_reset`` still counts every record.
    """

    def __init__(self, config: SketchConfig, seed: int = 0):
        self.config = config
        self._seed = mix64(integer("seed", seed))
        # keyed once here; a string hashes from a copy of this state
        self._blake = hashlib.blake2b(digest_size=8, key=self._seed.to_bytes(8, "little"))
        self._cap = config.counter_cap
        self._sample_size = config.sample_size
        self._width = config.width
        self._depth = config.depth
        self._table = [0] * (self._depth * self._width)  # unsaturated counts
        self._mask = self._width - 1
        # (row offset, odd multiplier) per row; multipliers are fixed constants
        self._rows = tuple(
            (r * self._width, mix64(_GOLDEN * (r + 1)) | 1) for r in range(self._depth)
        )
        self._slot_rows = None  # per row, the counter index of each bound key
        self._left = None  # per bound key, records until its counters are all at the cap
        self.increments_since_reset = 0

    # -- hashing ---------------------------------------------------------

    def _base(self, key) -> int:
        if not isinstance(key, str):
            if isinstance(key, (int, np.integer)):
                return mix64(int(key) ^ self._seed)
            if isinstance(key, (float, np.floating)) and key.is_integer():
                return mix64(int(key) ^ self._seed)  # 1.0 as the 1 it equals
            key = str(key)
        h = self._blake.copy()
        h.update(key.encode("utf-8"))
        return int.from_bytes(h.digest(), "little")

    def _slots(self, key) -> tuple[int, ...]:
        """Flat table index of ``key``'s counter in every row."""
        base = self._base(key)
        mask = self._mask
        slots = []
        for off, mult in self._rows:
            x = (base * mult) & _M64
            slots.append(off + ((x ^ (x >> 32)) & mask))
        return tuple(slots)

    def _base_many(self, keys: np.ndarray) -> np.ndarray:
        x = keys.astype(np.uint64) ^ np.uint64(self._seed)
        x ^= x >> np.uint64(33)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(33)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(33)
        return x

    def _indexes_many(self, bases: np.ndarray, mult: int) -> np.ndarray:
        x = bases * np.uint64(mult)
        x ^= x >> np.uint64(32)
        return (x & np.uint64(self._mask)).astype(np.intp)

    # -- operations ----------------------------------------------------------

    def bind_keys(self, keys) -> None:
        """Hash every key in ``keys`` once; afterwards ``record`` and
        ``estimate`` take an index into ``keys`` in place of a key.

        The table holds one array of counter indexes per row, so a bound
        key costs ``depth`` machine words, plus a list slot for its
        countdown, which starts at the cap.  A list whose first key is an
        int, Python or numpy, and that numpy reads as one signed or
        unsigned integer array is hashed in one vectorized pass.  A list
        of exact ``str`` keys is hashed one digest per key, from copies of
        the keyed blake2b state, and the joined digests are read as one
        array.  Any other list is hashed key by key with ``_base``; an
        unbound sketch hashes each key as ``record``/``estimate`` see it.
        """
        arr = None
        if len(keys) and isinstance(keys[0], (int, np.integer)):
            arr = np.asarray(keys)
        if arr is not None and arr.dtype.kind in "iu":
            bases = self._base_many(arr)
        elif len(keys) and set(map(type, keys)) == {str}:
            copy = self._blake.copy
            digests = []
            for key in keys:
                h = copy()
                h.update(key.encode("utf-8"))
                digests.append(h.digest())
            bases = np.frombuffer(b"".join(digests), dtype="<u8")
        else:
            bases = np.array([self._base(key) for key in keys], dtype=np.uint64)
        self._slot_rows = tuple(
            array("q", (off + self._indexes_many(bases, mult)).astype(np.int64).tobytes())
            for off, mult in self._rows
        )
        self._left = [self._cap] * len(keys)

    def record(self, key) -> None:
        """Count one occurrence of ``key``; ages the sketch every W records."""
        rows = self._slot_rows
        if rows is None:
            tbl = self._table
            for i in self._slots(key):
                tbl[i] += 1
        else:
            left = self._left
            n = left[key]
            if n:
                left[key] = n - 1
                tbl = self._table
                for row in rows:
                    tbl[row[key]] += 1
        self.increments_since_reset += 1
        if self.increments_since_reset >= self._sample_size:
            self.halve()
            self.increments_since_reset = 0

    def estimate(self, key) -> int:
        """Minimum counter over the key's rows; never mutates state."""
        tbl = self._table
        best = self._cap
        rows = self._slot_rows
        if rows is None:
            for i in self._slots(key):
                c = tbl[i]
                if c < best:
                    best = c
        elif self._left[key]:
            for row in rows:
                c = tbl[row[key]]
                if c < best:
                    best = c
        return best

    def halve(self) -> None:
        """Age every counter: cap it, then floor-divide by two."""
        cap = self._cap
        self._table = [(c if c < cap else cap) >> 1 for c in self._table]
        if self._left is not None:
            self._left = [cap] * len(self._left)

    @property
    def counters(self) -> np.ndarray:
        """Read-only (depth, width) int64 snapshot of the counter matrix,
        every count capped."""
        snap = np.minimum(np.array(self._table, dtype=np.int64), self._cap)
        snap = snap.reshape(self._depth, self._width)
        snap.flags.writeable = False
        return snap
