import hashlib
import itertools
import math
import random
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidifilter import workload
from bidifilter.oracles import (
    exact_zipf_probabilities,
    reference_ingest_trace,
    reference_synthetic_stream,
)
from bidifilter.workload import (
    _BLOCK,
    SyntheticSpec,
    TraceFormatError,
    count_uniques,
    expand_chunks,
    generate_synthetic,
    ingest_trace,
    zipf_cumulative,
)


def stream_digest(keys) -> str:
    """SHA-256 over the key reprs; compares streams cheaply."""
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_spec_validation():
    good = dict(length=10, ground_set=5, skew=0.8, recency=0.3)
    SyntheticSpec(**good)
    for field, bad in [
        ("length", 0),
        ("ground_set", 0),
        ("length", 100.5),
        ("ground_set", 10.5),
        ("length", 10.0),
        ("ground_set", "5"),
        ("skew", -0.1),
        ("skew", float("nan")),
        ("skew", float("inf")),
        ("recency", 1.5),
        ("recency", -0.1),
        ("length", True),
        ("ground_set", True),
        ("recency", True),
        ("skew", False),
    ]:
        with pytest.raises(ValueError):
            SyntheticSpec(**{**good, field: bad})
    # a non-numeric skew or recency is refused by name, not with a TypeError
    for field in ("skew", "recency"):
        for bad in ("0.5", None):
            with pytest.raises(ValueError, match=field):
                SyntheticSpec(**{**good, field: bad})
    # the seed is an integer >= 0, checked before the first draw
    for bad in (1.5, "3", None, -1, True):
        with pytest.raises(ValueError, match="rng_seed"):
            SyntheticSpec(**good, rng_seed=bad)


def test_spec_stores_numpy_integers_as_python_ints():
    spec = SyntheticSpec(length=np.int64(10), ground_set=np.uint32(5), skew=0.8,
                         recency=0.3, rng_seed=np.uint64(4))
    assert all(type(v) is int for v in (spec.length, spec.ground_set, spec.rng_seed))
    same = SyntheticSpec(length=10, ground_set=5, skew=0.8, recency=0.3, rng_seed=4)
    assert spec == same
    assert list(generate_synthetic(spec)) == list(generate_synthetic(same))


def test_zipf_cumulative_values():
    cum = zipf_cumulative(3, 1.0)
    assert np.allclose(cum, [1.0, 1.5, 1.5 + 1 / 3])
    # skew 0 degenerates to uniform weights
    assert np.allclose(zipf_cumulative(4, 0.0), [1, 2, 3, 4])
    # built in place, the table is bit for bit the plain formula's
    for skew in (0.0, 0.5, 0.8, 1.0, 1.7):
        ranks = np.arange(1, 100_001, dtype=np.float64)
        plain = np.cumsum(ranks ** -skew)
        assert zipf_cumulative(100_000, skew).tobytes() == plain.tobytes(), skew


def test_stream_is_deterministic_and_seed_sensitive():
    spec = SyntheticSpec(length=5000, ground_set=100, skew=0.9, recency=0.4, rng_seed=7)
    a = stream_digest(generate_synthetic(spec))
    b = stream_digest(generate_synthetic(spec))
    assert a == b
    other = SyntheticSpec(length=5000, ground_set=100, skew=0.9, recency=0.4, rng_seed=8)
    assert stream_digest(generate_synthetic(other)) != a


@pytest.mark.parametrize(
    "recency, digest",
    [
        (0.0, "84bac8a8101cbf41d0b3ac3ca3ae4f2373ce657c5e89572bc93fbd305f6f90fa"),
        (0.2, "0570fdb1cb034e5c133f7ed70df14c086a5cd910858828d1b11066909c8c1c11"),
        (0.6, "b901ad186f045e1e86ee535e13fedd73fa9933748d031484fe44c274c4fd203f"),
        (1.0, "8f18423e07231fca2d8cdca21d309fb50820b9db657163e3d38f070825b5ba79"),
    ],
)
def test_multi_block_stream_digest_is_pinned(recency, digest):
    # 20,000 events: two whole 8,192-draw blocks and a ragged third one
    spec = SyntheticSpec(length=20000, ground_set=1000, skew=0.8, recency=recency, rng_seed=12)
    assert stream_digest(generate_synthetic(spec)) == digest
    assert stream_digest(reference_synthetic_stream(spec)[0]) == digest


def test_multi_block_branch_log_digest_is_pinned():
    spec = SyntheticSpec(length=20000, ground_set=1000, skew=0.8, recency=0.6, rng_seed=12)
    keys, log = reference_synthetic_stream(spec)
    assert list(generate_synthetic(spec)) == keys
    assert sum(log) == 11977
    assert stream_digest(log) == "701c5e837b72aad7caa19b49169a50df5a91b3c17644a5ae4d0fe76f6e186115"


def test_stream_crosses_block_boundary_consistently():
    # streams of two lengths agree through the last whole block of the
    # shorter one; a ragged last block draws fewer values, so they part there
    def keys(length):
        spec = SyntheticSpec(length=length, ground_set=50, skew=0.7, recency=0.2, rng_seed=3)
        return list(generate_synthetic(spec))

    long_keys = keys(2 * _BLOCK + 808)
    assert all(1 <= k <= 50 for k in long_keys)
    assert all(type(k) is int for k in long_keys)
    for length in (_BLOCK, 2 * _BLOCK, 9000):
        whole = length // _BLOCK * _BLOCK
        assert keys(length)[:whole] == long_keys[:whole]
    # a stream shorter than one block is no prefix of a longer stream
    short = keys(5000)
    assert sum(a != b for a, b in zip(short, long_keys)) == 4809


# the block edges, and lengths drawn once from a fixed seed
_REFERENCE_LENGTHS = [1, 3, 9, 10, 11, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 10,
                      *random.Random(2024).sample(range(12, 3 * _BLOCK), 5)]


@pytest.mark.parametrize("length", _REFERENCE_LENGTHS)
def test_stream_matches_reference(length):
    rnd = random.Random(length)
    cases = [
        (1, rnd.uniform(0.1, 1.5), rnd.random()),  # one key only
        (rnd.randrange(2, 5000), 0.0, 0.0),  # uniform, Zipf branch only
        (rnd.randrange(2, 5000), rnd.uniform(0.1, 1.5), 1.0),  # recent branch only
        (rnd.randrange(2, 5000), rnd.uniform(0.1, 1.5), rnd.random()),
    ]
    for ground_set, skew, recency in cases:
        spec = SyntheticSpec(length=length, ground_set=ground_set, skew=skew,
                             recency=recency, rng_seed=rnd.randrange(10**6))
        keys = list(generate_synthetic(spec))
        assert keys == reference_synthetic_stream(spec)[0], spec
        assert all(type(k) is int for k in keys)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    # up to two whole blocks and a ragged third, often just past a block edge
    length=st.integers(1, 20_000) | st.integers(_BLOCK + 1, 2 * _BLOCK + 10),
    ground_set=st.integers(1, 5_000),
    skew=st.floats(0.0, 1.5),
    recency=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(min_value=0),
)
def test_stream_matches_reference_property(length, ground_set, skew, recency, seed):
    # the generator ranks only Zipf events, in sorted order; the reference
    # ranks every event in draw order
    spec = SyntheticSpec(length=length, ground_set=ground_set, skew=skew,
                         recency=recency, rng_seed=seed)
    assert list(generate_synthetic(spec)) == reference_synthetic_stream(spec)[0]


def test_block_opening_repeats_match_reference():
    # at recency 1 the first event of block 2 re-emits a carried key; over
    # 30 seeds its pick takes every buffer slot, the oldest one included
    for seed in range(30):
        spec = SyntheticSpec(length=_BLOCK + 5, ground_set=1000, skew=0.5,
                             recency=1.0, rng_seed=seed)
        assert list(generate_synthetic(spec)) == reference_synthetic_stream(spec)[0], seed


def test_repeats_share_the_key_object_they_repeat():
    # keys above 256 are not cached ints, so sharing is the generator's;
    # it keeps a trace's memory and dict lookups as a per-event loop had them
    spec = SyntheticSpec(length=2 * _BLOCK + 10, ground_set=10**6, skew=0.0,
                         recency=1.0, rng_seed=8)
    keys = list(generate_synthetic(spec))
    first = keys[:10]
    assert min(first) > 256
    assert all(any(key is seen for seen in first) for key in keys[10:])


def test_stream_is_lazy():
    # a whole-trace implementation would allocate gigabytes here
    spec = SyntheticSpec(length=10**9, ground_set=1000, skew=0.8, recency=0.5, rng_seed=6)
    t0 = time.perf_counter()
    head = list(itertools.islice(generate_synthetic(spec), 10))
    assert time.perf_counter() - t0 < 5.0
    assert len(head) == 10
    assert all(type(k) is int for k in head)
    one_block = SyntheticSpec(length=_BLOCK, ground_set=1000, skew=0.8, recency=0.5, rng_seed=6)
    assert head == list(generate_synthetic(one_block))[:10]


def test_stream_draws_nothing_before_its_first_key():
    # a stream is built without drawing, and its first key costs one block
    # whatever the length
    stream = generate_synthetic(SyntheticSpec(10**12, 1000, 0.8, 0.2))
    t0 = time.perf_counter()
    first = next(iter(stream))
    assert time.perf_counter() - t0 < 1.0
    assert first == next(generate_synthetic(SyntheticSpec(_BLOCK, 1000, 0.8, 0.2)))


def test_first_events_always_zipf_branch():
    spec = SyntheticSpec(length=200, ground_set=10, skew=0.5, recency=1.0, rng_seed=1)
    keys, log = reference_synthetic_stream(spec)
    assert list(generate_synthetic(spec)) == keys
    assert log[:10] == [False] * 10
    # with recency 1.0 everything after warm-up repeats the buffer
    assert all(log[10:])
    pool = set(keys[:10])
    for i in range(10, 200):
        assert keys[i] in set(keys[i - 10:i])
        pool.add(keys[i])
    assert pool <= set(range(1, 11))


def test_recency_zero_is_pure_zipf():
    spec = SyntheticSpec(length=500, ground_set=20, skew=0.8, recency=0.0, rng_seed=2)
    keys, log = reference_synthetic_stream(spec)
    assert list(generate_synthetic(spec)) == keys
    assert not any(log)


def test_recent_branch_fraction_matches_probability():
    spec = SyntheticSpec(length=40000, ground_set=200, skew=0.6, recency=0.35, rng_seed=5)
    keys, log = reference_synthetic_stream(spec)
    assert list(generate_synthetic(spec)) == keys
    frac = sum(log[10:]) / (len(log) - 10)
    # binomial std here is ~0.0024; allow 4 sigma
    assert abs(frac - 0.35) < 0.01


def test_zipf_marginal_matches_exact_probabilities():
    # recency 0 so every draw is a raw Zipf sample
    spec = SyntheticSpec(length=60000, ground_set=8, skew=1.0, recency=0.0, rng_seed=11)
    freqs = Counter(generate_synthetic(spec))
    probs = exact_zipf_probabilities(8, 1.0)
    assert math.isclose(sum(probs), 1.0, rel_tol=1e-12)
    for rank in range(1, 9):
        observed = freqs[rank] / spec.length
        assert abs(observed - probs[rank - 1]) < 0.01
    # monotone: rank 1 strictly dominates the tail in a sample this size
    assert freqs[1] > freqs[8]


def test_buffer_duplicates_amplify_repeats():
    # a buffer pick can land on any copy of a duplicated key, so hot keys
    # self-reinforce; just sanity-check the stream stays in range and the
    # recent picks really come from the trailing window
    spec = SyntheticSpec(length=3000, ground_set=30, skew=0.7, recency=0.6, rng_seed=9)
    keys, log = reference_synthetic_stream(spec)
    assert list(generate_synthetic(spec)) == keys
    for i, took in enumerate(log):
        if took:
            assert keys[i] in keys[i - 10:i]


def test_stream_digest_distinguishes_types():
    assert stream_digest([1, 2]) != stream_digest(["1", "2"])
    assert stream_digest([]) == stream_digest(iter([]))


def test_count_uniques_and_frequencies():
    keys = ["a", "b", "a", "c", "a"]
    assert count_uniques(keys) == (3, 5)
    assert count_uniques([]) == (0, 0)


def test_expand_chunks():
    assert expand_chunks("k", 0) == ["k#0"]
    assert expand_chunks("k", 1) == ["k#0"]
    assert expand_chunks("k", 4096) == ["k#0"]
    assert expand_chunks("k", 4097) == ["k#0", "k#1"]
    assert expand_chunks("k", 12288) == ["k#0", "k#1", "k#2"]
    assert expand_chunks("k", 12289) == ["k#0", "k#1", "k#2", "k#3"]
    # past 256 chunks (1 MiB) the keys carry on in the same form
    big = expand_chunks("k", (1 << 20) + 1)
    assert len(big) == 257 and big[255:] == ["k#255", "k#256"]
    assert expand_chunks("k", 3 << 20) == [f"k#{i}" for i in range(768)]
    with pytest.raises(ValueError):
        expand_chunks("k", -1)


def test_ingest_trace_basic(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text(
        "# header comment\n"
        "alpha\n"
        "\n"
        "beta,8192\n"
        "  gamma , 100 \n"
        "alpha,0\n"
    )
    keys = list(ingest_trace(trace))
    assert keys == ["alpha#0", "beta#0", "beta#1", "gamma#0", "alpha#0"]


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("a,b,c", "too many fields"),
        (",5", "empty key"),
        ("k,notanint", "not an integer"),
        ("k,-3", "negative size"),
    ],
)
def test_ingest_trace_errors_name_the_line(tmp_path, line, fragment):
    trace = tmp_path / "bad.txt"
    trace.write_text("ok\nok2,5\n" + line + "\n")
    with pytest.raises(TraceFormatError) as exc:
        list(ingest_trace(trace))
    assert "line 3" in str(exc.value)
    assert fragment in str(exc.value)


def test_ingest_trace_is_lazy(tmp_path):
    # errors surface only when the offending line is reached
    trace = tmp_path / "bad.txt"
    trace.write_text("ok\nbad,x\n")
    it = ingest_trace(trace)
    assert next(it) == "ok#0"
    with pytest.raises(TraceFormatError):
        next(it)


def test_ingest_trace_opens_the_file_at_the_first_key(tmp_path):
    keys = ingest_trace(tmp_path / "missing.trace")
    with pytest.raises(FileNotFoundError):
        next(keys)


def test_ingest_trace_closes_its_file(tmp_path, monkeypatch):
    # whether the stream ends, fails, or is stopped early and dropped
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(workload, "open", recording_open, raising=False)
    trace = tmp_path / "t.trace"
    trace.write_text("a\nb,9000\n" * 1000 + "bad,x\n")
    keys = ingest_trace(trace)
    assert not opened
    assert list(itertools.islice(keys, 5)) == ["a#0", "b#0", "b#1", "b#2", "a#0"]
    assert not opened[0].closed
    del keys
    assert opened[0].closed
    assert _drain(ingest_trace(trace))[1] == "line 2001: size is not an integer: 'bad,x'"
    assert opened[1].closed
    trace.write_text("a\n")
    assert list(ingest_trace(trace)) == ["a#0"]
    assert opened[2].closed


def test_ingest_trace_drops_a_byte_order_mark(tmp_path):
    # the mark belongs to the encoding, not to the first line
    trace = tmp_path / "bom.txt"
    trace.write_bytes("\ufeff# header\nk,5\n".encode("utf-8"))
    assert list(ingest_trace(trace)) == ["k#0"]
    trace.write_bytes("\ufeffk\r\nk\n".encode("utf-8"))
    assert list(ingest_trace(trace)) == ["k#0", "k#0"]


def _drain(keys):
    """(keys read, error message or None) of a trace key stream."""
    out = []
    try:
        for key in keys:
            out.append(key)
    except TraceFormatError as exc:
        return out, str(exc)
    return out, None


_KEYS = ["a", "obj-17", "k#3", "é", "x y", "12", "v.1"]
_SIZES = [0, 1, 4095, 4096, 4097, 12288, 1 << 20, (1 << 20) + 1, 3 << 20]
_BLANKS = ["", " ", "\t", " \x0b\x0c ", "\u2028", "\x1c"]
_BAD = ["a,b,c", ",5", " , 7", "k,notanint", "k,", "k,1.5", "k,-3", "k,1,", ",,"]


def _random_line(rnd):
    ws = lambda: rnd.choice(["", "", " ", "\t", "\x0b", "\x1c", "\u2028", "  "])
    roll = rnd.random()
    if roll < 0.1:
        return rnd.choice(_BLANKS)
    if roll < 0.2:
        return ws() + rnd.choice(["# c", "#", "#a,b,c", "# 1,2"])
    key = ws() + rnd.choice(_KEYS) + ws()
    if roll < 0.45:
        return key
    size = rnd.choice(_SIZES) if rnd.random() < 0.7 else rnd.randrange(50_000)
    return f"{key},{ws()}{size}{ws()}"


@pytest.mark.parametrize("trial", range(40))
def test_ingest_trace_matches_line_by_line_reference(tmp_path, monkeypatch, trial):
    # CRLF, lone-CR and LF endings, comments, blank lines, whitespace
    # (line separators Python's str.splitlines would split on included),
    # sizes on and around chunk and 1 MiB edges, lines repeated within and
    # across blocks of a few lines each, and at times one malformed line:
    # the same keys come back, and the same error after the same keys
    rnd = random.Random(trial)
    pool = [_random_line(rnd) for _ in range(rnd.randint(1, 12))]
    lines = [rnd.choice(pool) for _ in range(rnd.randint(1, 80))]
    if trial % 3:
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(_BAD))
    text = "".join(line + rnd.choice(["\n", "\r\n", "\r"]) for line in lines)
    if rnd.random() < 0.3:
        text = text.rstrip("\r\n")  # no end of line after the last line
    trace = tmp_path / "t.trace"
    trace.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(workload, "_LINES_HINT", rnd.choice([1, 5, 17, 60, 1 << 15]))
    got = _drain(ingest_trace(trace))
    assert got == _drain(reference_ingest_trace(trace))
    if trial % 3:
        assert got[1] is not None  # the malformed line was reached


_CHUNK_EDGES = [255 * 4096, 255 * 4096 + 1, 256 * 4096 - 1, (1 << 20) + 4096, (1 << 20) + 4097]
_WS = st.sampled_from(["", "", " ", "\t", "\x0b", "\x1c", "\u2028", "  "])
_SIZE_FIELD = st.tuples(_WS, st.sampled_from(_SIZES + _CHUNK_EDGES) | st.integers(0, 50_000),
                        _WS).map(lambda parts: ",%s%d%s" % parts)
_TRACE_LINE = st.one_of(
    st.sampled_from(_BLANKS),
    st.tuples(_WS, st.sampled_from(["# c", "#", "#a,b,c", "# 1,2"])).map("".join),
    st.tuples(_WS, st.sampled_from(_KEYS) | st.text("ab#é .1", min_size=1, max_size=4), _WS,
              st.just("") | _SIZE_FIELD).map("".join),
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    pool=st.lists(_TRACE_LINE, min_size=1, max_size=12),
    picks=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(["\n", "\r\n", "\r"])),
                   min_size=1, max_size=80),
    bad=st.none() | st.tuples(st.sampled_from(_BAD), st.integers(0, 80)),
    last_eol=st.booleans(),
    hint=st.sampled_from([1, 5, 17, 60, 1 << 15, workload._LINES_HINT]),
)
def test_ingest_trace_matches_line_by_line_reference_property(
        tmp_path_factory, pool, picks, bad, last_eol, hint):
    # drawn lines of the kinds the enumerated trials mix, sizes on the
    # 255th and 256th chunk's edges too, repeated within and across blocks
    # at every drawn block size, the default included
    lines = [(pool[i % len(pool)], eol) for i, eol in picks]
    if bad is not None:
        lines.insert(bad[1] % (len(lines) + 1), (bad[0], "\n"))
    text = "".join(line + eol for line, eol in lines)
    if not last_eol:
        text = text.rstrip("\r\n")
    trace = tmp_path_factory.getbasetemp() / "property.trace"
    trace.write_bytes(text.encode("utf-8"))
    with mock.patch.object(workload, "_LINES_HINT", hint):
        got = _drain(ingest_trace(trace))
    assert got == _drain(reference_ingest_trace(trace))
    if bad is not None:
        assert got[1] is not None


def test_synthetic_feeds_policies_without_surprises():
    # glue check: the generator output is directly consumable by handle()
    from bidifilter import BiDiFilter

    spec = SyntheticSpec(length=2000, ground_set=60, skew=0.8, recency=0.3, rng_seed=4)
    pol = BiDiFilter((4, 16), rng_seed=4)
    classes = [pol.handle(k).classification for k in generate_synthetic(spec)]
    assert len(classes) == 2000
    assert classes.count("miss") < 2000  # something hit
    pol.check_invariants()