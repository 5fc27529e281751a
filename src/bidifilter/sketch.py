"""Approximate frequency tracking for cache admission decisions.

A count-min matrix of small saturating counters, aged by halving every
``sample_size`` increments so estimates track the recent past instead of
the whole history.  Estimates never undercount within a sample window;
hash collisions can only inflate them.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass

import numpy as np

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
    width: counters per row: a power of two >= C, by default the smallest.
    counter_bits: cap must fit in this many bits.
    """

    sample_size: int
    tracked_capacity: int
    depth: int = 4
    width: int | None = None
    counter_bits: int = 4

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.tracked_capacity < 1:
            raise ValueError("tracked_capacity must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        if self.width is None:
            object.__setattr__(self, "width", next_pow2(self.tracked_capacity))
        if self.width < self.tracked_capacity:
            raise ValueError("width must be >= tracked_capacity")
        if self.width & (self.width - 1):
            raise ValueError("width must be a power of two")
        if self.counter_cap > (1 << self.counter_bits) - 1:
            raise ValueError(
                f"counter cap {self.counter_cap} does not fit in "
                f"{self.counter_bits} bits; raise counter_bits or shrink "
                f"sample_size/tracked_capacity"
            )

    @property
    def counter_cap(self) -> int:
        """Saturation value: ceil(sample_size / tracked_capacity)."""
        return -(-self.sample_size // self.tracked_capacity)

    @classmethod
    def for_capacity(cls, capacity: int) -> "SketchConfig":
        """Default geometry for a cache of ``capacity`` items: W = 10 * C,
        the default depth and counter width."""
        return cls(sample_size=10 * capacity, tracked_capacity=capacity)


class FrequencySketch:
    """Count-min sketch with saturating counters and periodic halving.

    Keys may be ints, Python or numpy alike (hashed with a splitmix64-style
    mixer), or strings (hashed with keyed blake2b); any other key hashes
    as its ``str()``.  Neither path touches Python's salted ``hash()``, so
    estimates are reproducible across processes.  Keys that compare equal
    can hash apart (1 and 1.0 as "1.0").

    A bare sketch hashes its key on every ``record`` and ``estimate``.
    A replay binds its distinct keys up front with ``bind_keys``: each
    key is hashed once, there, and from then on ``record`` and
    ``estimate`` take the key's index in that list and read its counter
    indexes from the table.  The harness binds one key per class of
    equal keys (``harness.compile_trace``), so the sketch counts them as
    the one key the cache treats them as.  The table lives as long as
    the sketch; halving ages the counters and leaves it alone.

    ``record_many``/``estimate_many`` are vectorized twins of the scalar
    operations for integer key arrays; they produce bit-identical counter
    state (saturating adds commute, and batches are split at halving
    boundaries).
    """

    def __init__(self, config: SketchConfig, seed: int = 0):
        self.config = config
        self._seed = mix64(seed)
        self._seed_bytes = self._seed.to_bytes(8, "little")
        self._cap = config.counter_cap
        self._width = config.width
        self._depth = config.depth
        typecode = "B" if self._cap <= 0xFF else ("H" if self._cap <= 0xFFFF else "Q")
        self._table = array(typecode, [0]) * (self._depth * self._width)
        self._mask = self._width - 1
        # (row offset, odd multiplier) per row; multipliers are fixed constants
        self._rows = tuple(
            (r * self._width, mix64(_GOLDEN * (r + 1)) | 1) for r in range(self._depth)
        )
        self._slot_rows = None  # per row, the counter index of each bound key
        self.increments_since_reset = 0

    # -- hashing ---------------------------------------------------------

    def _base(self, key) -> int:
        if not isinstance(key, str):
            if isinstance(key, (int, np.integer)):
                return mix64(int(key) ^ self._seed)
            key = str(key)
        digest = hashlib.blake2b(
            key.encode("utf-8"), digest_size=8, key=self._seed_bytes
        ).digest()
        return int.from_bytes(digest, "little")

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

    # -- scalar operations -------------------------------------------------

    def bind_keys(self, keys) -> None:
        """Hash every key in ``keys`` once; afterwards ``record`` and
        ``estimate`` take an index into ``keys`` in place of a key.

        The table holds one array of counter indexes per row, so a bound
        key costs ``depth`` machine words.  A list of exactly-``int``
        keys within the int64 range is hashed in one vectorized pass;
        any other list key by key with ``_base``.  The bulk operations
        still hash the keys they are given.
        """
        bases = None
        if all(type(key) is int for key in keys):
            try:
                bases = self._base_many(np.array(keys, dtype=np.int64))
            except OverflowError:
                pass  # an int beyond int64: hash key by key below
        if bases is None:
            bases = np.array([self._base(key) for key in keys], dtype=np.uint64)
        self._slot_rows = tuple(
            array("q", (off + self._indexes_many(bases, mult)).astype(np.int64).tobytes())
            for off, mult in self._rows
        )

    def record(self, key) -> None:
        """Count one occurrence of ``key``; ages the sketch every W records."""
        tbl = self._table
        cap = self._cap
        rows = self._slot_rows
        if rows is None:
            for i in self._slots(key):
                c = tbl[i]
                if c < cap:
                    tbl[i] = c + 1
        else:
            for row in rows:
                i = row[key]
                c = tbl[i]
                if c < cap:
                    tbl[i] = c + 1
        self.increments_since_reset += 1
        if self.increments_since_reset >= self.config.sample_size:
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
        else:
            for row in rows:
                c = tbl[row[key]]
                if c < best:
                    best = c
        return best

    def halve(self) -> None:
        """Age every counter by floor division by two."""
        self._view()[:] >>= 1

    def _view(self) -> np.ndarray:
        return np.frombuffer(self._table, dtype=np.dtype(self._table.typecode))

    @property
    def counters(self) -> np.ndarray:
        """Read-only (depth, width) snapshot of the counter matrix."""
        snap = self._view().reshape(self._depth, self._width).copy()
        snap.flags.writeable = False
        return snap

    # -- bulk operations ----------------------------------------------------

    def record_many(self, keys) -> None:
        """Record a batch of integer keys; state matches scalar record calls."""
        arr = np.asarray(keys)
        if arr.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError("record_many accepts integer keys only")
        bases = self._base_many(arr)
        view = self._view()
        cap = self._cap
        n = len(bases)
        pos = 0
        while pos < n:
            room = self.config.sample_size - self.increments_since_reset
            take = min(room, n - pos)
            chunk = bases[pos : pos + take]
            for off, mult in self._rows:
                idx = self._indexes_many(chunk, mult)
                counts = np.bincount(idx, minlength=self._width)
                row = view[off : off + self._width]
                np.minimum(row + counts, cap, out=row, casting="unsafe")
            self.increments_since_reset += take
            pos += take
            if self.increments_since_reset >= self.config.sample_size:
                self.halve()
                self.increments_since_reset = 0

    def estimate_many(self, keys) -> np.ndarray:
        """Vectorized estimate for a batch of integer keys."""
        arr = np.asarray(keys)
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError("estimate_many accepts integer keys only")
        bases = self._base_many(arr)
        view = self._view()
        best = None
        for off, mult in self._rows:
            vals = view[off + self._indexes_many(bases, mult)]
            best = vals if best is None else np.minimum(best, vals)
        return best.astype(np.int64)
