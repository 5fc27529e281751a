"""Synthetic workload generation and trace file ingestion.

The synthetic stream mixes a static Zipf popularity law with short-term
repetition: each event either re-emits one of the last few keys or draws
a fresh rank from the Zipf law.  Trace files are plain text, one access
per line, with optional byte sizes that expand into per-chunk keys.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

_BLOCK = 8192
RECENT_BUFFER = 10  # recently emitted keys a recent-branch event picks from
CHUNK_BYTES = 4096  # bytes per chunk key of a sized trace access


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic key stream.

    recency is the probability that an event repeats one of the
    ``RECENT_BUFFER`` (10) most recently emitted keys (picked uniformly,
    duplicates and all); otherwise the key is a Zipf(skew) draw over
    ``{1..ground_set}``.  The first ``RECENT_BUFFER`` events always take
    the Zipf branch so the buffer never starts empty.
    """

    length: int
    ground_set: int
    skew: float
    recency: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.ground_set < 1:
            raise ValueError("ground_set must be >= 1")
        if self.skew < 0.0:
            raise ValueError("skew must be >= 0")
        if not 0.0 <= self.recency <= 1.0:
            raise ValueError("recency must be in [0, 1]")


def zipf_cumulative(ground_set: int, skew: float) -> np.ndarray:
    """Cumulative (unnormalized) Zipf weights: entry r-1 is sum of k^-skew."""
    ranks = np.arange(1, ground_set + 1, dtype=np.float64)
    return np.cumsum(ranks ** -skew)


def generate_synthetic(spec: SyntheticSpec, branch_log: list | None = None) -> Iterator[int]:
    """Yield the key stream for ``spec``; identical streams per rng_seed.

    Keys are ints in 1..ground_set.  Uniform draws are consumed in fixed
    blocks (branch, Zipf and buffer-pick draws for every event, whether
    used or not), so the stream is a pure function of ``spec``.  When
    ``branch_log`` is given, True is appended for recent-branch events.
    """
    rng = np.random.default_rng(spec.rng_seed)
    cum = zipf_cumulative(spec.ground_set, spec.skew)
    total = cum[-1]
    recent: deque = deque(maxlen=RECENT_BUFFER)
    emitted = 0
    while emitted < spec.length:
        n = min(_BLOCK, spec.length - emitted)
        u_branch = rng.random(n)
        zipf_keys = np.searchsorted(cum, rng.random(n) * total, side="right") + 1
        picks = rng.integers(0, RECENT_BUFFER, size=n)
        for j in range(n):
            if emitted >= RECENT_BUFFER and u_branch[j] < spec.recency:
                key = recent[picks[j]]
                took_recent = True
            else:
                key = int(zipf_keys[j])
                took_recent = False
            recent.append(key)
            emitted += 1
            if branch_log is not None:
                branch_log.append(took_recent)
            yield key


def stream_digest(keys: Iterable) -> str:
    """SHA-256 over the key reprs; lets tests compare streams cheaply."""
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode())
        h.update(b"\n")
    return h.hexdigest()


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
    return [f"{key}#{i}" for i in range(n)]


def ingest_trace(path) -> Iterator[str]:
    """Stream chunk keys from a text trace.

    Each non-empty, non-comment line is ``key`` or ``key,size_bytes``;
    '#'-prefixed lines are comments.  A sized access expands into one
    key per ``CHUNK_BYTES`` (``expand_chunks``); an unsized one counts
    as one chunk.  Malformed lines raise TraceFormatError naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) > 2:
                raise TraceFormatError(f"line {lineno}: too many fields: {line!r}")
            key = parts[0].strip()
            if not key:
                raise TraceFormatError(f"line {lineno}: empty key: {line!r}")
            if len(parts) == 1:
                yield f"{key}#0"
                continue
            try:
                size = int(parts[1].strip())
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: size is not an integer: {line!r}"
                ) from None
            if size < 0:
                raise TraceFormatError(f"line {lineno}: negative size: {line!r}")
            yield from expand_chunks(key, size)


def count_uniques(keys: Iterable) -> tuple[int, int]:
    """(distinct keys, total accesses) for a key stream."""
    seen = set()
    total = 0
    for key in keys:
        seen.add(key)
        total += 1
    return len(seen), total
