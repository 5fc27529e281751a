import collections
import csv
import hashlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidifilter import (
    KINDS,
    RESULT_FIELDS,
    LatencyParams,
    PolicySpec,
    ResultRow,
    SimStats,
    SweepSpec,
    SyntheticSpec,
    compile_trace,
    generate_synthetic,
    level_capacities_for,
    lru_profile,
    make_policy,
    run_single,
    run_sweep,
    trace_label,
    write_rows,
    write_rows_csv,
    write_rows_jsonl,
)
from bidifilter import harness
from bidifilter.harness import open_trace
from bidifilter.oracles import reference_filter_outcomes, reference_stack_distances
from bidifilter.policies import default_sketch
from bidifilter.sketch import derive_seed
from bidifilter.workload import count_uniques

SMALL = SyntheticSpec(length=4000, ground_set=120, skew=0.8, recency=0.3, rng_seed=5)


def test_run_single_fields_and_closure():
    spec = PolicySpec("BiDiFilter", (8, 24), rng_seed=3)
    row = run_single(spec, open_trace(SMALL), trace_id="t0")
    assert row.trace_id == "t0"
    assert row.policy_name == "BiDiFilter"
    assert row.l1_capacity == 8 and row.l2_capacity == 24
    assert row.window_fraction == 0.5 and row.tie_break == "admit"
    assert row.requests == 4000
    total = row.h_l1_window + row.h_l1_veterans + row.h_l2 + row.misses
    assert total == row.requests
    assert row.hit_ratio == (row.requests - row.misses) / row.requests
    assert row.rng_seed == 3
    assert row.avg_rw_latency_ns >= row.avg_read_latency_ns > 0


def test_run_single_marks_inapplicable_knobs_none():
    demote = run_single(PolicySpec("Demote", (4, 12)), open_trace(SMALL))
    assert demote.window_fraction is None and demote.tie_break is None
    united = run_single(PolicySpec("BiDiFilterUnited", (4, 12)), open_trace(SMALL))
    assert united.window_fraction is None and united.tie_break == "admit"
    assert united.h_l1_veterans == 0


@pytest.mark.parametrize("caps", [(20, 200, 1000), (10, 50, 200, 800)])
@pytest.mark.parametrize("tie", ["admit", "reject"])
def test_deep_united_row_is_bidifilter_at_window_one(caps, tie):
    # every kind runs at every depth: BiDiFilterUnited is the filtered
    # engine whose window takes all of L1, in a sweep too
    latency = LatencyParams((100.0, 200_000.0, 400_000.0, 800_000.0))
    trace = compile_trace(open_trace(SMALL))
    united = run_single(PolicySpec("BiDiFilterUnited", caps, tie_break=tie, rng_seed=4),
                        trace, latency)
    bidi = run_single(PolicySpec("BiDiFilter", caps, window_fraction=1.0, tie_break=tie,
                                 rng_seed=4), trace, latency)
    assert united == replace(bidi, policy_name="BiDiFilterUnited", window_fraction=None)
    sweep = sweep_fixture(policies=(PolicySpec("BiDiFilterUnited", (1, 1)),),
                          latency=latency, n_levels=len(caps))
    assert [row.policy_name for row in run_sweep(sweep)] == ["BiDiFilterUnited"] * 2


def test_run_single_rejects_empty_trace():
    for kind in KINDS:
        for empty in (iter(()), compile_trace(())):
            with pytest.raises(ValueError, match="empty"):
                run_single(PolicySpec(kind, (2, 4)), empty)


def test_run_single_checks_latency_depth_before_replay():
    # the default latency params cover two levels; a 3-level spec must be
    # refused before the first key is read
    def untouchable():
        raise AssertionError("trace was read before the spec was checked")
        yield

    with pytest.raises(ValueError, match="latency"):
        run_single(PolicySpec("BiDiFilter", (2, 4, 8)), untouchable())
    for bad in ((1.0, 2.0, 3.0), ()):
        with pytest.raises(ValueError, match="latency must be a LatencyParams"):
            run_single(PolicySpec("Demote", (2, 4)), untouchable(), latency=bad)


def test_trace_label_forms():
    assert (
        trace_label(SyntheticSpec(length=100, ground_set=9, skew=0.75, recency=0.5, rng_seed=4))
        == "zipf-n100-g9-s0.75-r0.5-seed4"
    )
    assert trace_label("/tmp/some/dir/web.trace") == "web.trace"


def test_level_capacities_for():
    assert level_capacities_for(1000, 0.1, 0.2) == (20, 100)
    assert level_capacities_for(1000, 0.001, 0.5) == (1, 1)  # clamped
    assert level_capacities_for(1000, 0.1, 0.25, n_levels=4) == (25, 100, 400, 1600)
    assert level_capacities_for(50, 0.5, 0.3) == (8, 25)  # round(7.5) banker's
    assert level_capacities_for(1000, 0.1, 0.25, n_levels=np.int64(3)) == (25, 100, 400)
    for bad in (2.5, 1, 0, "3", None):
        with pytest.raises(ValueError, match="n_levels must be an integer >= 2"):
            level_capacities_for(100, 0.5, 0.1, bad)
    # a ratio of 0 would divide by zero at the third level
    for args, field in (((1000, 0.1, 0.0, 3), "l1_ratio"), ((1000, 0.1, True), "l1_ratio"),
                        ((1000, "0.1", 0.2), "l2_percent"), ((1000, 1.5, 0.2), "l2_percent"),
                        ((True, 0.1, 0.2), "uniques")):
        with pytest.raises(ValueError, match=field):
            level_capacities_for(*args)


def test_sweep_spec_validation():
    pols = (PolicySpec("Demote", (1, 1)),)
    with pytest.raises(ValueError):
        SweepSpec(SMALL, (), (0.1,), (0.2,))
    with pytest.raises(ValueError):
        SweepSpec(SMALL, pols, (), (0.2,))
    with pytest.raises(ValueError):
        SweepSpec(SMALL, pols, (0.1,), ())
    with pytest.raises(ValueError):
        SweepSpec(SMALL, pols, (1.5,), (0.2,))
    with pytest.raises(ValueError):
        SweepSpec(SMALL, pols, (0.0,), (0.2,))
    with pytest.raises(ValueError):
        SweepSpec(SMALL, pols, (0.1,), (1.0,))
    with pytest.raises(ValueError):
        SweepSpec(SMALL, pols, (0.1,), (0.2,), n_levels=1)
    with pytest.raises(ValueError):
        # default latency params only cover two levels
        SweepSpec(SMALL, pols, (0.1,), (0.2,), n_levels=3)
    # 2.5 levels would build 3-level cells (level_capacities_for loops
    # while it has fewer than n_levels), so only integers pass
    three = LatencyParams((100.0, 200_000.0, 500_000.0))
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="n_levels"):
            SweepSpec(SMALL, pols, (0.1,), (0.2,), latency=three, n_levels=bad)
    spec = SweepSpec(SMALL, pols, (0.1,), (0.2,), latency=three, n_levels=np.int64(3))
    assert type(spec.n_levels) is int
    assert spec == SweepSpec(SMALL, pols, (0.1,), (0.2,), latency=three, n_levels=3)
    for bad in (1.5, "3", None, True):
        with pytest.raises(ValueError, match="master_seed"):
            SweepSpec(SMALL, pols, (0.1,), (0.2,), master_seed=bad)
    for bad in ("0.5", None, [0.5], True):
        with pytest.raises(ValueError, match="l2_size_percents"):
            SweepSpec(SMALL, pols, (bad,), (0.1,))
        with pytest.raises(ValueError, match="l1_ratios"):
            SweepSpec(SMALL, pols, (0.5,), (0.1, bad))
    spec = SweepSpec(SMALL, pols, (np.float64(0.5), 1), (np.float32(0.25),))
    assert spec.l2_size_percents == (0.5, 1)
    # every entry is stored as a Python float
    assert all(type(x) is float for x in (*spec.l2_size_percents, *spec.l1_ratios))
    # an int trace source would be opened as a file descriptor (0 is
    # stdin), so it is refused here, before anything is opened
    for bad in (0, 42, True, np.int64(3), None, b"trace.txt"):
        with pytest.raises(ValueError, match="trace_source"):
            SweepSpec(bad, pols, (0.1,), (0.2,))
    for good in ("trace.txt", Path("trace.txt")):
        assert SweepSpec(good, pols, (0.1,), (0.2,)).trace_source == good
    # latency must be a LatencyParams, not a bare tuple of its numbers
    for bad in (None, (100.0, 200.0, 300.0)):
        with pytest.raises(ValueError, match="latency must be a LatencyParams"):
            SweepSpec(SMALL, pols, (0.1,), (0.2,), latency=bad)
    # a bare value, or a string, where a sequence belongs
    with pytest.raises(ValueError, match="policies must be a sequence"):
        SweepSpec(SMALL, pols[0], (0.1,), (0.2,))
    for bad in (0.5, "0.5"):
        with pytest.raises(ValueError, match="l2_size_percents must be a sequence"):
            SweepSpec(SMALL, pols, bad, (0.2,))
        with pytest.raises(ValueError, match="l1_ratios must be a sequence"):
            SweepSpec(SMALL, pols, (0.5,), bad)
    spec = SweepSpec(SMALL, iter(pols), [0.1], np.array([0.2]))
    assert (spec.policies, spec.l2_size_percents, spec.l1_ratios) == (pols, (0.1,), (0.2,))
    for bad in (("BiDiFilter",), (pols[0], None), [{"kind": "Demote"}]):
        with pytest.raises(ValueError, match="policies"):
            SweepSpec(SMALL, bad, (0.1,), (0.2,))


def test_latency_errors_say_what_to_pass():
    # a run or sweep deeper than its latencies names the count it needs,
    # the count given and the argument that fixes it
    with pytest.raises(ValueError, match=re.escape(
            "a 3-level policy needs 3 level latencies, 2 given; pass latency="
            "LatencyParams(level_ns=(t_l1, ..., t_l3), miss_ns=t_miss)")):
        run_single(PolicySpec("Demote", (1, 1, 1)), [1, 2, 1])
    three = LatencyParams((100.0, 200_000.0, 500_000.0))
    with pytest.raises(ValueError, match=re.escape(
            "a 4-level sweep needs 4 level latencies, 3 given; pass latency="
            "LatencyParams(level_ns=(t_l1, ..., t_l4), miss_ns=t_miss)")):
        SweepSpec(SMALL, (PolicySpec("Demote", (1, 1)),), (0.1,), (0.2,),
                  latency=three, n_levels=4)


def sweep_fixture(**overrides):
    base = dict(
        trace_source=SMALL,
        policies=(
            PolicySpec("BiDiFilter", (1, 1), rng_seed=0),
            PolicySpec("Demote", (1, 1)),
        ),
        l2_size_percents=(0.1, 0.3),
        l1_ratios=(0.2,),
        master_seed=99,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_run_sweep_order_and_seeds():
    rows = run_sweep(sweep_fixture())
    assert len(rows) == 4  # 2 policies x 2 percents x 1 ratio
    assert [r.policy_name for r in rows] == ["BiDiFilter", "BiDiFilter", "Demote", "Demote"]
    # capacities resolved against the distinct-key count of the trace
    uniques, _ = count_uniques(open_trace(SMALL))
    assert rows[0].l2_capacity == max(1, round(0.1 * uniques))
    assert rows[1].l2_capacity == max(1, round(0.3 * uniques))
    assert rows[0].l1_capacity == max(1, round(0.2 * rows[0].l2_capacity))
    # per-cell seeds derive from (master, cell index)
    assert [r.rng_seed for r in rows] == [derive_seed(99, i) for i in range(4)]
    assert all(r.trace_id == trace_label(SMALL) for r in rows)


def test_numpy_int_seeds_give_the_rows_of_python_ints():
    # every kind, through run_single and run_sweep: a numpy seed is the
    # Python int it equals
    for seed in (np.int64(5), np.uint64(5), np.int32(5)):
        for kind in KINDS:
            spec = PolicySpec(kind, (8, 24), tie_break="reject", promote_prob=0.3)
            want = run_single(replace(spec, rng_seed=5), open_trace(SMALL))
            row = run_single(replace(spec, rng_seed=seed), open_trace(SMALL))
            assert row == want and type(row.rng_seed) is int
        kinds = tuple(PolicySpec(k, (1, 1), rng_seed=seed) for k in KINDS)
        want = run_sweep(sweep_fixture(policies=kinds, master_seed=99))
        rows = run_sweep(sweep_fixture(policies=kinds, master_seed=np.int64(99)))
        assert rows == want
        assert all(type(row.rng_seed) is int for row in rows)


def _written(rows, fmt: str) -> str:
    buf = io.StringIO()
    {"csv": write_rows_csv, "jsonl": write_rows_jsonl}[fmt](rows, buf)
    return buf.getvalue()


def test_number_representations_write_identical_rows():
    # a window fraction of 1 in any representation is one spec and one
    # row, written byte for byte alike
    trace = list(generate_synthetic(replace(SMALL, length=2000)))
    specs = [PolicySpec("BiDiFilter", (8, 24), window_fraction=w)
             for w in (1, 1.0, np.float64(1.0), np.float32(1.0))]
    assert all(spec == specs[0] for spec in specs)
    rows = [[run_single(spec, trace)] for spec in specs]
    for fmt in ("csv", "jsonl"):
        written = {_written(row, fmt) for row in rows}
        assert len(written) == 1, fmt
    assert rows[0][0].window_fraction == 1.0
    # numpy float32 latencies give float means that JSONL can write
    latency = LatencyParams(tuple(map(np.float32, (2.5, 300.25))), np.float32(1e4))
    row = run_single(specs[3], trace, latency)
    assert type(row.avg_read_latency_ns) is float and type(row.avg_rw_latency_ns) is float
    assert json.loads(_written([row], "jsonl"))["avg_rw_latency_ns"] == row.avg_rw_latency_ns


def test_run_sweep_is_reproducible():
    assert run_sweep(sweep_fixture()) == run_sweep(sweep_fixture())


def test_run_sweep_parallel_matches_serial(tmp_path):
    spec = sweep_fixture()
    assert run_sweep(spec, jobs=2) == run_sweep(spec, jobs=1)
    assert run_sweep(spec, jobs=np.int64(2)) == run_sweep(spec, jobs=1)
    # a file trace: string chunk keys, sized accesses spanning chunks
    rnd = random.Random(3)
    trace = tmp_path / "chunks.trace"
    trace.write_text("".join(
        f"obj{rnd.randint(0, 80)},{rnd.randint(0, 20_000)}\n" for _ in range(1_500)
    ))
    spec = sweep_fixture(trace_source=str(trace))
    serial = run_sweep(spec, jobs=1)
    assert run_sweep(spec, jobs=2) == serial
    assert serial[0].requests > 1_500


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_reads_the_trace_once(jobs, monkeypatch, tmp_path):
    # calls are logged to a file, so a call made in a worker process counts
    log = tmp_path / "calls.log"

    def logged(fn):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(fn.__name__ + "\n")
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "open_trace", logged(harness.open_trace))
    monkeypatch.setattr(harness, "count_uniques", logged(harness.count_uniques))
    rows = run_sweep(sweep_fixture(), jobs=jobs)
    assert len(rows) == 4
    assert sorted(log.read_text().split()) == ["count_uniques", "open_trace"]


@pytest.mark.parametrize("jobs", [0, -2, 1.5, 2.0, "2", None, True])
def test_run_sweep_rejects_jobs_below_one(jobs, monkeypatch):
    # jobs must be an integer >= 1, checked before the trace is opened
    def untouchable(source):
        raise AssertionError("trace was opened before jobs was checked")

    monkeypatch.setattr(harness, "open_trace", untouchable)
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(sweep_fixture(), jobs=jobs)


def test_run_sweep_starts_at_most_one_worker_per_cell(monkeypatch):
    started = []

    class RecordingPool:
        """Stands in for the process pool: notes its size, runs in-process."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_worker_cell_args", ())
    # 8 cells, of which the 4 BiDiFilter cells replay: the Demote cells
    # are read off the trace's LRU profile, so a pool gets at most 4 workers
    sweep = sweep_fixture(l1_ratios=(0.2, 0.5))
    serial = run_sweep(sweep, jobs=1)
    for jobs in (2, 4, 64):
        assert run_sweep(sweep, jobs=jobs) == serial
    assert started == [2, 4, 4]
    one_cell = sweep_fixture(policies=(PolicySpec("BiDiFilter", (1, 1)),),
                             l2_size_percents=(0.1,))
    assert run_sweep(one_cell, jobs=8) == run_sweep(one_cell, jobs=1)
    assert started == [2, 4, 4]  # a single replayed cell runs serially
    demote_only = sweep_fixture(policies=(PolicySpec("Demote", (1, 1)),),
                                l1_ratios=(0.2, 0.5))
    rows = run_sweep(demote_only, jobs=8)
    assert len(rows) == 4 and rows == run_sweep(demote_only, jobs=1)
    assert started == [2, 4, 4]  # nothing replays, so no pool opens


def test_serial_sweep_profiles_its_trace_once(monkeypatch):
    calls = []

    def counted(trace):
        calls.append(len(trace.ids))
        return lru_profile(trace)

    monkeypatch.setattr(harness, "lru_profile", counted)
    sweep = sweep_fixture(policies=(PolicySpec("Demote", (1, 1)),
                                    PolicySpec("BiDiFilter", (1, 1)),
                                    PolicySpec("Demote", (1, 1), rng_seed=4)),
                          l1_ratios=(0.2, 0.5))
    rows = run_sweep(sweep, jobs=1)
    assert [r.policy_name for r in rows].count("Demote") == 8
    assert calls == [SMALL.length]


def test_run_sweep_n_levels_geometry():
    rows = run_sweep(sweep_fixture(policies=(PolicySpec("BiDiFilter", (1, 1)),),
                                   l2_size_percents=(0.2,), l1_ratios=(0.5,),
                                   n_levels=3,
                                   latency=LatencyParams((100.0, 200_000.0, 500_000.0))))
    assert len(rows) == 1
    # row reports the first two levels of the resolved geometry
    uniques, _ = count_uniques(open_trace(SMALL))
    l2 = max(1, round(0.2 * uniques))
    assert rows[0].l2_capacity == l2
    assert rows[0].l1_capacity == max(1, round(0.5 * l2))


def test_run_sweep_file_trace(tmp_path):
    trace = tmp_path / "tiny.trace"
    trace.write_text("a,8192\nb\na,4096\nc,100\nb\n")
    rows = run_sweep(sweep_fixture(trace_source=str(trace),
                                   policies=(PolicySpec("NaiveLRU", (1, 1)),),
                                   l2_size_percents=(0.5,), l1_ratios=(0.5,)))
    assert rows[0].trace_id == "tiny.trace"
    # a#0,a#1,b#0,a#0,c#0,b#0 -> 6 chunk accesses over 4 distinct chunks
    assert rows[0].requests == 6
    assert rows[0].l2_capacity == 2


def test_run_sweep_empty_trace_errors(tmp_path):
    trace = tmp_path / "empty.trace"
    trace.write_text("# nothing but comments\n\n")
    with pytest.raises(ValueError):
        run_sweep(sweep_fixture(trace_source=str(trace)))


def _trace_source(kind, tmp_path):
    if kind == "int":
        return SMALL
    rnd = random.Random(kind)
    path = tmp_path / f"{kind}.trace"
    if kind == "str":  # one unsized access per line: "obj#0" keys
        path.write_text("".join(f"obj{rnd.randint(0, 150)}\n" for _ in range(3_000)))
    else:  # key,size_bytes lines: several chunk keys per access
        path.write_text("".join(
            f"obj{rnd.randint(0, 60)},{rnd.randint(0, 20_000)}\n" for _ in range(800)
        ))
    return str(path)


def _bare_counts(spec, keys):
    """Row counts of a bare make_policy(spec) replay: raw keys, a sketch
    hashing every key afresh."""
    policy = make_policy(spec)
    stats = SimStats(policy.n_levels)
    for key in keys:
        stats.add(policy.handle(key))
    return (stats.requests, stats.h_l1_window, stats.h_l1_veterans,
            stats.hits_at(2), stats.misses, stats.writes_at(1), stats.writes_at(2))


def _row_counts(row):
    return (row.requests, row.h_l1_window, row.h_l1_veterans, row.h_l2,
            row.misses, row.w_l1, row.w_l2)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["int", "str", "file"])
def test_compiled_ids_give_the_rows_of_raw_keys(kind, jobs, tmp_path):
    source = _trace_source(kind, tmp_path)
    keys = list(open_trace(source))
    n_levels = 2 if kind == "file" else 3
    sweep = sweep_fixture(
        trace_source=source,
        policies=tuple(PolicySpec(k, (1, 1), window_fraction=wf, tie_break=tie)
                       for k in KINDS for wf, tie in ((0.0, "admit"), (0.5, "reject"))),
        n_levels=n_levels,
        latency=LatencyParams((100.0, 200_000.0, 500_000.0)),
    )
    rows = run_sweep(sweep, jobs=jobs)
    templates = [t for t in sweep.policies
                 for _ in sweep.l2_size_percents for _ in sweep.l1_ratios]
    geometry = [level_capacities_for(len(set(keys)), pct, ratio, n_levels)
                for pct in sweep.l2_size_percents for ratio in sweep.l1_ratios]
    assert len(rows) == len(templates)
    # numpy ints are the same keys as the Python ints they equal
    np_keys = [np.int64(k) for k in keys] if kind == "int" else None
    for row, template, caps in zip(rows, templates, geometry * len(sweep.policies)):
        spec = replace(template, level_capacities=caps, rng_seed=row.rng_seed)
        assert (row.l1_capacity, row.l2_capacity) == caps[:2]
        assert _row_counts(row) == _bare_counts(spec, keys), spec
        if np_keys is not None:
            assert run_single(spec, np_keys, sweep.latency, row.trace_id) == row


def test_equal_keys_of_mixed_types_share_one_id():
    # 1, True, 1.0 and np.int64(1) are one key to the policies' dicts, and
    # compile to one id whose key is the object seen first; "1" is another
    rnd = random.Random(12)
    mixed = [rnd.randint(0, 30) for _ in range(200)] + [
        rnd.choice((1, True, 1.0, np.int64(1), "1", 2, 2.0, rnd.randint(0, 30)))
        for _ in range(2_000)
    ]
    for source in (mixed, iter(mixed)):
        trace = compile_trace(source)
        assert len(trace.ids) == len(mixed)
        assert all(a != b for a, b in itertools.combinations(trace.keys, 2))
        seen = 0
        for key, i in zip(mixed, trace.ids):
            assert trace.keys[i] == key
            if i == seen:  # a new id: the object that brought it stands for it
                assert trace.keys[i] is key
                seen += 1
            assert i < seen
        assert seen == len(trace.keys)
    # the sketch hashes equal ints, bools and integral floats alike, so the
    # reference replays the raw keys
    for wf, tie in ((0.0, "admit"), (0.5, "reject")):
        caps = (4, 12)
        spec = PolicySpec("BiDiFilter", caps, window_fraction=wf, tie_break=tie,
                          rng_seed=5)
        row = run_single(spec, iter(mixed))
        outcomes = reference_filter_outcomes(
            mixed, caps, default_sketch(caps, spec.rng_seed), wf, tie)
        kinds = collections.Counter(kind for kind, _ in outcomes)
        writes = collections.Counter()
        for _, out in outcomes:
            for level, n in out:
                writes[level] += n
        assert _row_counts(row) == (
            len(outcomes), kinds["hit_l1_window"], kinds["hit_l1_veterans"],
            kinds["hit_l2"], kinds["miss"], writes[1], writes[2])


_EQUAL_NUMBERS = (1, True, 1.0, np.float64(1.0), Decimal(1), Fraction(1), 2, 2.0,
                  np.float64(2.0), Decimal("2.0"), Fraction(4, 2), 3, np.float64(3.0),
                  Decimal(3), 4, 5, 6, 7, 8, 9)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    length=st.integers(1, 1_500),
    trace_seed=st.integers(0, 2**32),
    kind=st.sampled_from(["BiDiFilter", "BiDiFilterUnited"]),
    caps=st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple),
    wf=st.sampled_from([0.0, 0.5]),
    tie=st.sampled_from(["admit", "reject"]),
    seed=st.integers(0, 2**32),
)
def test_raw_keys_of_equal_numbers_give_the_run_single_row(
        length, trace_seed, kind, caps, wf, tie, seed):
    # run_single compiles 1, True, 1.0, np.float64(1.0), Decimal(1) and
    # Fraction(1) to one id; a raw replay's sketch must count them as one
    # key too
    rnd = random.Random(trace_seed)
    keys = [rnd.choice(_EQUAL_NUMBERS) for _ in range(length)]
    spec = PolicySpec(kind, caps, window_fraction=wf, tie_break=tie, rng_seed=seed)
    row = run_single(spec, keys, LatencyParams((100.0, 200_000.0, 500_000.0)))
    assert _row_counts(row) == _bare_counts(spec, keys)


@pytest.mark.parametrize("kind", ["BiDiFilter", "BiDiFilterUnited"])
def test_ints_mixed_with_tuples_give_the_raw_key_row(kind):
    # an int first and a tuple later once made bind_keys hand numpy a
    # ragged list; the compiled run must be the raw-key replay's row
    spec = PolicySpec(kind, (2, 3))
    for keys in ([1, (1, 2), 3], [7, (1, 2), 3, 7, (1, 2), 2**70, (1,), 3, 1.0, "x"] * 30):
        row = run_single(spec, keys, LatencyParams())
        assert _row_counts(row) == _bare_counts(spec, keys)


def test_lru_profile_matches_reference_stack_distances():
    # every access's stack distance, and the distinct keys before it,
    # against a list-based LRU stack and a set of the keys seen so far
    rnd = random.Random(1516)
    traces = [[7], [None, None], [1, True, 1.0, "1", None, 2, None, True, 1],
              list(range(40)) * 2, list(open_trace(SMALL))]
    for _ in range(150):
        span = rnd.randint(0, 60)
        traces.append([rnd.randint(0, span) for _ in range(rnd.randint(1, 400))])
    for keys in traces:
        distances, distinct_before = lru_profile(compile_trace(keys))
        assert distances.tolist() == reference_stack_distances(keys)
        seen = set()
        expected = []
        for key in keys:
            expected.append(len(seen))
            seen.add(key)
        assert distinct_before.tolist() == expected


def _replayed_row(spec, keys, latency):
    """The row of a Demote engine replay of the raw keys, counted
    through SimStats."""
    policy = make_policy(spec)
    stats = SimStats(policy.n_levels)
    stats.add_all(map(policy.handle, keys))
    return harness._result_row(spec, stats, latency, "t")


def test_demote_rows_equal_an_engine_replay():
    # run_single reads a compiled trace's Demote rows off its LRU profile
    # and replays raw keys; both must give the rows of the engine
    # replaying the raw keys, at 2 to 4 levels
    rnd = random.Random(1616)
    latency = LatencyParams((100.0, 200_000.0, 400_000.0, 800_000.0))
    # True, 1 and 1.0 are one key, None another; a one-access trace; and
    # totals above the footprint (40 keys), where only first accesses miss
    mixed = [None, True, 1, 1.0, "1", None, 2, 1.0, True, None, 2.0, 1]
    cases = [(mixed, (1, 1)), (mixed, (2, 1, 1)), ([7], (1, 1)), (["k"], (3, 2, 1, 1)),
             (list(range(40)) * 3, (30, 50)), (list(range(40)) * 3, (5, 10, 20, 40))]
    for _ in range(60):
        n_levels = rnd.randint(2, 4)
        synth = SyntheticSpec(length=rnd.randint(1, 3_000), ground_set=rnd.randint(1, 300),
                              skew=rnd.uniform(0.0, 1.2), recency=rnd.uniform(0.0, 0.8),
                              rng_seed=rnd.randrange(10**6))
        caps = tuple(rnd.randint(1, 120) for _ in range(n_levels))
        cases.append((synth, caps))
    for source, caps in cases:
        spec = PolicySpec("Demote", caps)
        if isinstance(source, SyntheticSpec):
            keys = list(generate_synthetic(source))
            lazy = generate_synthetic(source)
        else:
            keys, lazy = source, iter(source)
        expected = _replayed_row(spec, keys, latency)
        assert run_single(spec, lazy, latency, "t") == expected, (source, caps)
        compiled = compile_trace(keys)
        assert run_single(spec, compiled, latency, "t") == expected, (source, caps)
        assert "profile" in vars(compiled)  # computed, and kept for later rows


def make_row(**overrides):
    base = dict(
        trace_id="t", policy_name="Demote", l2_capacity=10, l1_capacity=2,
        window_fraction=None, tie_break=None, requests=4, h_l1_window=1,
        h_l1_veterans=0, h_l2=1, misses=2, w_l1=3, w_l2=1, hit_ratio=0.5,
        avg_read_latency_ns=1050.5, avg_rw_latency_ns=2000.0, rng_seed=7,
    )
    base.update(overrides)
    return ResultRow(**base)


def test_csv_header_and_none_rendering():
    buf = io.StringIO()
    write_rows_csv([make_row()], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(RESULT_FIELDS)
    record = next(csv.DictReader(io.StringIO(buf.getvalue())))
    assert record["window_fraction"] == ""
    assert record["tie_break"] == ""
    assert record["hit_ratio"] == "0.5"
    assert record["avg_read_latency_ns"] == "1050.5"


def test_jsonl_round_trip():
    buf = io.StringIO()
    rows = [make_row(), make_row(trace_id="u", window_fraction=0.5, tie_break="admit")]
    write_rows_jsonl(rows, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert list(first) == list(RESULT_FIELDS)
    assert first["window_fraction"] is None
    second = json.loads(lines[1])
    assert second["window_fraction"] == 0.5
    assert second["tie_break"] == "admit"


def test_write_rows_to_files(tmp_path, capsys, monkeypatch):
    rows = [make_row()]
    csv_path = tmp_path / "out.csv"
    jsonl_path = tmp_path / "out.jsonl"
    write_rows(rows, csv_path, "csv")
    write_rows(rows, jsonl_path, "jsonl")
    assert csv_path.read_text().startswith("trace_id,")
    assert json.loads(jsonl_path.read_text())["policy_name"] == "Demote"
    with pytest.raises(ValueError):
        write_rows(rows, tmp_path / "x", "parquet")
    # "-" is standard output, not a file of that name
    monkeypatch.chdir(tmp_path)
    for path in (csv_path, jsonl_path):
        write_rows(rows, "-", path.suffix[1:])
        assert capsys.readouterr().out == path.read_text()
    assert not (tmp_path / "-").exists()


def test_csv_and_jsonl_agree_on_values():
    rows = run_sweep(sweep_fixture())
    cbuf, jbuf = io.StringIO(), io.StringIO()
    write_rows_csv(rows, cbuf)
    write_rows_jsonl(rows, jbuf)
    csv_rows = list(csv.DictReader(io.StringIO(cbuf.getvalue())))
    jsonl_rows = [json.loads(line) for line in jbuf.getvalue().splitlines()]
    assert len(csv_rows) == len(jsonl_rows) == len(rows)
    for c, j in zip(csv_rows, jsonl_rows):
        for field in RESULT_FIELDS:
            cv, jv = c[field], j[field]
            if jv is None:
                assert cv == ""
            elif isinstance(jv, float):
                assert math.isclose(float(cv), jv, rel_tol=0, abs_tol=0)
            else:
                assert cv == str(jv)

def test_sweep_oracle_csv_digest():
    # the equality oracle for refactors: every kind at 2 and 3 levels with
    # both tie-breaks and two window fractions, as one CSV, pinned by hash
    buf = io.StringIO()
    for n_levels in (2, 3):
        for tie in ("admit", "reject"):
            for wf in (0.0, 0.5):
                kinds = [k for k in KINDS
                         if n_levels == 2 or k != "BiDiFilterUnited"]
                sweep = SweepSpec(
                    trace_source=SyntheticSpec(5_000, 1_000, 0.8, 0.2, rng_seed=7),
                    policies=tuple(PolicySpec(k, (1, 1), window_fraction=wf,
                                              tie_break=tie) for k in kinds),
                    l2_size_percents=(0.05, 0.2),
                    l1_ratios=(0.2,),
                    latency=LatencyParams((100.0, 200_000.0, 400_000.0)),
                    master_seed=7,
                    n_levels=n_levels,
                )
                write_rows_csv(run_sweep(sweep), buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "473b3f39c355a4ee49d27a04d46fbdcae80206fe38cdac531e9b7669c7b4e7e5"
