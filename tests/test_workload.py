import math
import random
from collections import Counter

import numpy as np
import pytest

from bidifilter.oracles import exact_zipf_probabilities
from bidifilter.workload import (
    SyntheticSpec,
    TraceFormatError,
    count_uniques,
    expand_chunks,
    generate_synthetic,
    ingest_trace,
    stream_digest,
    zipf_cumulative,
)


def test_spec_validation():
    good = dict(length=10, ground_set=5, skew=0.8, recency=0.3)
    SyntheticSpec(**good)
    for field, bad in [
        ("length", 0),
        ("ground_set", 0),
        ("skew", -0.1),
        ("recency", 1.5),
        ("recency", -0.1),
    ]:
        with pytest.raises(ValueError):
            SyntheticSpec(**{**good, field: bad})


def test_zipf_cumulative_values():
    cum = zipf_cumulative(3, 1.0)
    assert np.allclose(cum, [1.0, 1.5, 1.5 + 1 / 3])
    # skew 0 degenerates to uniform weights
    assert np.allclose(zipf_cumulative(4, 0.0), [1, 2, 3, 4])


def test_stream_is_deterministic_and_seed_sensitive():
    spec = SyntheticSpec(length=5000, ground_set=100, skew=0.9, recency=0.4, rng_seed=7)
    a = stream_digest(generate_synthetic(spec))
    b = stream_digest(generate_synthetic(spec))
    assert a == b
    other = SyntheticSpec(length=5000, ground_set=100, skew=0.9, recency=0.4, rng_seed=8)
    assert stream_digest(generate_synthetic(other)) != a


def test_stream_crosses_block_boundary_consistently():
    # lengths straddling the internal draw block must agree on the prefix
    long_spec = SyntheticSpec(length=9000, ground_set=50, skew=0.7, recency=0.2, rng_seed=3)
    keys = list(generate_synthetic(long_spec))
    assert len(keys) == 9000
    assert all(1 <= k <= 50 for k in keys)
    assert all(type(k) is int for k in keys[:100])


def test_first_events_always_zipf_branch():
    spec = SyntheticSpec(length=200, ground_set=10, skew=0.5, recency=1.0, rng_seed=1)
    log: list = []
    keys = list(generate_synthetic(spec, branch_log=log))
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
    log: list = []
    list(generate_synthetic(spec, branch_log=log))
    assert not any(log)


def test_recent_branch_fraction_matches_probability():
    spec = SyntheticSpec(length=40000, ground_set=200, skew=0.6, recency=0.35, rng_seed=5)
    log: list = []
    list(generate_synthetic(spec, branch_log=log))
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
    log: list = []
    keys = list(generate_synthetic(spec, branch_log=log))
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


def test_synthetic_feeds_policies_without_surprises():
    # glue check: the generator output is directly consumable by handle()
    from bidifilter import BiDiFilter

    spec = SyntheticSpec(length=2000, ground_set=60, skew=0.8, recency=0.3, rng_seed=4)
    pol = BiDiFilter((4, 16), rng_seed=4)
    classes = [pol.handle(k).classification for k in generate_synthetic(spec)]
    assert len(classes) == 2000
    assert classes.count("miss") < 2000  # something hit
    pol.check_invariants()