"""Synthetic workload generation and trace file ingestion.

The synthetic stream mixes a static Zipf popularity law with short-term
repetition: each event either re-emits one of the last few keys or draws
a fresh rank from the Zipf law.  It is generated one block of events
at a time in numpy: the block's uniform draws come first, then every
re-emitted key is traced back to the Zipf draw it copies by pointer
jumping over an array of source indexes.  Every uniform is still drawn,
but only the Zipf events' ranks are looked up, in sorted order.  The
generator is lazy and yields Python ints, so its memory stays one block
whatever the length.
Trace files are plain text, one access per line, with optional byte
sizes that expand into per-chunk keys.  They are read one block of
lines at a time, and each distinct line of a block is parsed and
expanded once, so a repeated access costs one dict lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .checks import integer, number

_BLOCK = 8192
RECENT_BUFFER = 10  # recently emitted keys a recent-branch event picks from
CHUNK_BYTES = 4096  # bytes per chunk key of a sized trace access
_LINES_HINT = 1 << 15  # characters of trace text read per block
# chunk i of an access is keyed key + "#i"; the suffixes of the first
# 256 chunks (1 MiB) are built once
_CHUNK_SUFFIXES = tuple(f"#{i}" for i in range(256))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic key stream.

    recency is the probability that an event repeats one of the
    ``RECENT_BUFFER`` (10) most recently emitted keys (picked uniformly,
    duplicates and all); otherwise the key is a Zipf(skew) draw over
    ``{1..ground_set}``.  The first ``RECENT_BUFFER`` events always take
    the Zipf branch so the buffer never starts empty.  length and
    ground_set are integers >= 1 and rng_seed an integer >= 0.
    """

    length: int
    ground_set: int
    skew: float
    recency: float
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("length", 1), ("ground_set", 1), ("rng_seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        object.__setattr__(self, "skew", number(
            "skew", self.skew, "finite and >= 0", lambda x: math.isfinite(x) and x >= 0.0))
        object.__setattr__(self, "recency", number(
            "recency", self.recency, "a number in [0, 1]", lambda x: 0.0 <= x <= 1.0))


def zipf_cumulative(ground_set: int, skew: float) -> np.ndarray:
    """Cumulative (unnormalized) Zipf weights: entry r-1 is sum of k^-skew."""
    ranks = np.arange(1, ground_set + 1, dtype=np.float64)
    return np.cumsum(ranks ** -skew)


def generate_synthetic(spec: SyntheticSpec) -> Iterator[int]:
    """Yield the key stream for ``spec``; identical streams per rng_seed.

    Keys are Python ints in 1..ground_set.  Uniform draws are consumed
    in blocks of ``_BLOCK`` events: branch, Zipf and buffer-pick draws
    for every event of the block, whether used or not.  So the stream is
    a pure function of ``spec``, and streams of two lengths agree
    through the last whole block of the shorter one; past it the
    shorter stream's ragged last block draws fewer values of each kind,
    so the two part.

    A recent-branch event at index e re-emits the key emitted at
    e - RECENT_BUFFER + pick.  Each block resolves those links at once:
    an array of source indexes over the previous block's last
    ``RECENT_BUFFER`` keys and this block's events, jumped (``src =
    src[src]``) until every index names a Zipf event or a carried key.
    So only the Zipf events need a rank: their scaled uniforms are
    sorted, looked up in the cumulative table in one ascending
    ``searchsorted``, and the ranks scattered back to their events.  A
    recent-branch event's Zipf uniform is drawn but never looked up.
    A repeat yields the very int object it repeats, as a per-event loop
    would.  The generator stays lazy, holding one block at a time.
    ``oracles.reference_synthetic_stream`` gives the same keys one event
    at a time, with each event's branch flag.
    """
    rng = np.random.default_rng(spec.rng_seed)
    cum = zipf_cumulative(spec.ground_set, spec.skew)
    total = cum[-1]
    carried: list[int] = []  # the last RECENT_BUFFER keys emitted
    emitted = 0
    while emitted < spec.length:
        n = min(_BLOCK, spec.length - emitted)
        u_branch = rng.random(n)
        u_zipf = rng.random(n)
        picks = rng.integers(0, RECENT_BUFFER, size=n)
        took_recent = u_branch < spec.recency
        took_recent[: max(0, RECENT_BUFFER - emitted)] = False  # the buffer fills first
        # index h + j is event j of this block; 0..h-1 are the carried keys
        h = len(carried)
        src = np.arange(h + n)
        repeats = np.flatnonzero(took_recent)
        src[h + repeats] += picks[repeats] - RECENT_BUFFER
        while True:
            jumped = src[src]
            if np.array_equal(jumped, src):
                break
            src = jumped
        # src names only Zipf events and carried keys, so only Zipf events
        # get a rank.  Sorted queries keep searchsorted's probes of the
        # table in cache; equal uniforms get equal ranks, so the sort kind
        # does not matter.  One int object per Zipf draw, shared by every
        # event that repeats it.
        fresh = np.flatnonzero(~took_recent)
        targets = u_zipf[fresh] * total
        order = np.argsort(targets)
        pool = np.empty(h + n, dtype=object)
        pool[:h] = carried
        pool[h + fresh[order]] = np.searchsorted(cum, targets[order], side="right") + 1
        keys = pool[src[h:]].tolist()
        carried = keys[-RECENT_BUFFER:]
        emitted += n
        yield from keys


class TraceFormatError(ValueError):
    """A trace line that cannot be parsed; message names the line number."""


def expand_chunks(key: str, size_bytes: int) -> list[str]:
    """Per-chunk keys for a sized access: key#0 .. key#(n-1), where n is
    ceil(size_bytes / CHUNK_BYTES).

    Zero-byte accesses still touch one chunk.
    """
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    n = max(1, -(-size_bytes // CHUNK_BYTES))
    keys = [key + suffix for suffix in _CHUNK_SUFFIXES[:n]]
    keys += [f"{key}#{i}" for i in range(len(_CHUNK_SUFFIXES), n)]
    return keys


def ingest_trace(path) -> Iterator[str]:
    """Stream chunk keys from a text trace.

    Each non-empty, non-comment line is ``key`` or ``key,size_bytes``;
    '#'-prefixed lines are comments, and whitespace around a line, its
    key and its size is ignored.  A sized access expands into one key
    per ``CHUNK_BYTES`` (as ``expand_chunks``); an unsized one counts as
    one chunk.  A UTF-8 byte-order mark at the start of the file is
    dropped.  Malformed lines raise TraceFormatError naming the line.

    The file is read one block of about ``_LINES_HINT`` characters of
    whole lines at a time, with universal newlines.  Within a block each
    distinct line is parsed and expanded once, in first-seen order, and
    its repeats reuse its keys; then the block's keys are yielded.  So
    memory stays one block, and the keys of the good lines before a bad
    one are yielded before its error is raised, as a line-by-line reader
    would (``oracles.reference_ingest_trace``).  A first-seen bad line is
    the block's first bad line, since a line parses the same wherever it
    repeats.
    """
    lineno = 0  # lines in the blocks before this one
    with open(path, "r", encoding="utf-8-sig") as fh:
        while lines := fh.readlines(_LINES_HINT):
            memo = dict.fromkeys(lines)  # raw line -> its chunk keys
            try:
                for raw in memo:
                    memo[raw] = _chunk_keys(raw.strip())
            except ValueError as exc:
                at = lines.index(raw)
                yield from chain.from_iterable(map(memo.__getitem__, lines[:at]))
                raise TraceFormatError(
                    f"line {lineno + at + 1}: {exc}: {raw.strip()!r}") from None
            yield from chain.from_iterable(map(memo.__getitem__, lines))
            lineno += len(lines)


def _chunk_keys(line: str):
    """The chunk keys of a stripped trace line, ``()`` for a blank or
    comment line; a malformed line raises ValueError saying what is wrong."""
    if not line or line[0] == "#":
        return ()
    key, comma, size = line.partition(",")
    if not comma:
        return (line + _CHUNK_SUFFIXES[0],)
    if "," in size:
        raise ValueError("too many fields")
    key = key.rstrip()
    if not key:
        raise ValueError("empty key")
    try:
        size = int(size.strip())
    except ValueError:
        raise ValueError("size is not an integer") from None
    if size < 0:
        raise ValueError("negative size")
    return expand_chunks(key, size)


def count_uniques(keys: Iterable) -> tuple[int, int]:
    """(distinct keys, total accesses) for a key stream."""
    seen = set()
    total = 0
    for key in keys:
        seen.add(key)
        total += 1
    return len(seen), total
