#!/usr/bin/env python3
"""Host-time and simulated-outcome benchmark for the bidifilter simulator.

    python3 benchmarks/bench.py --workload zipf-2l --seed 404 --seconds 30 --trace 0

Builds one workload from ``--seed``, drives the simulator's public entry
points (``generate_synthetic``, ``ingest_trace``, ``count_uniques``,
``run_single`` and ``cli.main``) for ``--seconds`` seconds, checks the
outputs, and prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` is a separate run that wraps the layers' public objects
from outside (the policy's sketch, its decision log, ``SimStats``, the
harness and CLI entry points) and reports the per-layer metrics.  Both
modes run the correctness gates and exit nonzero if any fails.  The
README beside this file lists the workloads, the metrics and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "bidifilter" / "__init__.py").is_file():
    sys.exit(f"bench: simulator source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from bidifilter import cli, harness  # noqa: E402
from bidifilter import (  # noqa: E402
    KINDS,
    BiDiFilter,
    BiDiFilterUnited,
    CascadeFilter,
    LatencyParams,
    PolicySpec,
    SimStats,
    SyntheticSpec,
    count_uniques,
    generate_synthetic,
    ingest_trace,
    level_capacities_for,
    make_policy,
    run_single,
    write_rows_csv,
)
from bidifilter.oracles import reference_lru_hits  # noqa: E402

# (name, unit, better, bound); mirrored by BENCHMARK.json at the repo root
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    *((f"replay_rps.{kind}", "1/s", "higher", 0.2) for kind in KINDS),
    ("sweep_s.jobs1", "s", "lower", 0.25),
    ("sweep_s.jobs2", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("hit_ratio.BiDiFilter", "ratio", "higher", 0.1),
    ("l2_writes_per_kreq.BiDiFilter", "1/kreq", "lower", 0.25),
    ("success_ratio", "ratio", "higher", 0.01),
)

# (name, unit, better); the README says which end-to-end metric each moves
PER_LAYER = (
    ("sketch.record_ns", "ns", "lower"),
    ("sketch.estimate_ns", "ns", "lower"),
    ("sketch.calls_per_req", "count", "lower"),
    ("sketch.halvings", "count", "lower"),
    *((f"policies.handle_self_ns.{kind}", "ns", "lower") for kind in KINDS),
    ("policies.handle_ns.p50", "ns", "lower"),
    ("policies.handle_ns.p99", "ns", "lower"),
    ("policies.contests_per_req", "count", "lower"),
    ("policies.contest_win_ratio", "ratio", "lower"),
    ("policies.contest_tie_share", "ratio", "lower"),
    ("spaces.inserts_per_kreq.L1", "1/kreq", "lower"),
    ("spaces.inserts_per_kreq.L2", "1/kreq", "lower"),
    ("spaces.inserts_per_kreq.L3", "1/kreq", "lower"),
    ("metrics.add_ns", "ns", "lower"),
    ("workload.synth_keys_per_s", "1/s", "higher"),
    ("workload.ingest_chunks_per_s", "1/s", "higher"),
    ("workload.count_uniques_s", "s", "lower"),
    ("harness.first_pass_s", "s", "lower"),
    ("harness.cell_s.max", "s", "lower"),
    ("harness.jobs2_speedup", "ratio", "higher"),
    ("cli.emit_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

SETUP_REPEATS = 9
# the host-speed reference loop (HostClock); REF_SECONDS is its time on the
# 2-vCPU Xeon host the bounds were set on
REF_SEED = 7
REF_KEYS = 50_000
REF_SPAN = 100_000
REF_CAPACITY = 20_000
REF_SECONDS = 0.0085
REF_READS = 3
ORACLE_PREFIX = 8_000
SWEEP_POLICIES = "BiDiFilter,Demote"
CATALOG_SEED = 20_220_627


# -- workloads -----------------------------------------------------------------


@dataclass
class Inputs:
    """What set-up hands the timed phase: the materialized key list, the
    CLI arguments that name the same trace, and sub-step timings."""

    keys: list
    source_args: list
    step_s: dict


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # accesses, or trace lines for the chunked workload
    levels: int
    l2_pct: float
    l1_ratio: float
    sweep_l2_pcts: tuple
    latency: LatencyParams
    build: Callable[["Workload", int, Path], Inputs]
    ground_set: int = 100_000
    skew: float = 0.8
    recency: float = 0.2

    def capacities(self, keys) -> tuple:
        uniques, _ = count_uniques(keys)
        return level_capacities_for(uniques, self.l2_pct, self.l1_ratio, self.levels)

    def specs(self, caps) -> dict:
        """One replay spec per policy kind; BiDiFilterUnited supports only
        two levels, so on deeper workloads it gets the top two."""
        return {
            kind: PolicySpec(
                kind, caps[:2] if kind == "BiDiFilterUnited" else caps,
                tie_break="reject",
            )
            for kind in KINDS
        }

    def latency_args(self) -> list:
        if self.latency == LatencyParams():
            return []
        values = (*self.latency.level_ns, self.latency.miss_ns)
        return ["--latency", ",".join(f"{v:g}" for v in values)]


def _timed(step_s: dict, name: str, fn):
    t0 = time.perf_counter()
    result = fn()
    step_s[name] = time.perf_counter() - t0
    return result


def build_synthetic(wl: Workload, seed: int, workdir: Path) -> Inputs:
    spec = SyntheticSpec(length=wl.size, ground_set=wl.ground_set, skew=wl.skew,
                         recency=wl.recency, rng_seed=seed)
    step_s = {}
    keys = _timed(step_s, "synth", lambda: list(generate_synthetic(spec)))
    source = f"{wl.size}:{wl.ground_set}:{wl.skew:g}:{wl.recency:g}"
    return Inputs(keys, ["--synthetic", source, "--seed", str(seed)], step_s)


def build_chunked(wl: Workload, seed: int, workdir: Path) -> Inputs:
    """A key,size_bytes trace: the seed draws the accesses (Zipf object
    popularity, from the simulator's own generator) over a fixed catalog of
    lognormal object sizes (about 5 chunks mean).  Seed-drawn sizes of the
    few most popular objects would swing every result between seeds."""
    spec = SyntheticSpec(length=wl.size, ground_set=wl.ground_set, skew=wl.skew,
                         recency=0.0, rng_seed=seed)
    step_s = {}
    objects = _timed(step_s, "synth", lambda: list(generate_synthetic(spec)))
    sizes = np.random.default_rng(CATALOG_SEED).lognormal(9.7, 0.5, wl.ground_set + 1)
    sizes = sizes.astype(np.int64).tolist()
    path = workdir / "chunked.trace"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"obj-{obj},{sizes[obj]}\n" for obj in objects)
    keys = _timed(step_s, "ingest", lambda: list(ingest_trace(path)))
    return Inputs(keys, ["--trace", str(path), "--seed", str(seed)], step_s)


WORKLOADS = {
    wl.name: wl
    for wl in (
        # the acceptance trace shape; about 0.4 filter contests per request
        Workload("zipf-2l", 25_000, 2, 0.5, 0.1, (0.1, 0.5), LatencyParams(),
                 build_synthetic),
        # string chunk keys re-parsed from a file by every sweep cell
        Workload("chunked-sweep", 5_000, 2, 0.5, 0.1, (0.1, 0.5), LatencyParams(),
                 build_chunked, ground_set=5_000),
        # the only workload on the N-level code; most requests hit L1
        Workload("recency-3l", 25_000, 3, 0.1, 0.2, (0.1, 0.2),
                 LatencyParams((100.0, 200_000.0, 1_000_000.0), 2_000_000.0),
                 build_synthetic, skew=1.0, recency=0.6),
    )
}


# -- bookkeeping -----------------------------------------------------------------


class Tally:
    """Runs attempted and failed, gates included; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates = {}

    def run(self, name: str, fn, *args):
        """Call fn; an exception counts as a failed run and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a raised run is counted and reported, not fatal
            self.failed += 1
            print(f"bench: {name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: gate {name} failed {detail}", file=sys.stderr)
        if self.gates.get(name, True):
            self.gates[name] = bool(ok)


def rows_csv(rows) -> bytes:
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    return buf.getvalue().encode()


def sweep_argv(wl: Workload, inputs: Inputs, jobs: int, out: Path) -> list:
    return [
        "sweep", *inputs.source_args,
        "--policy", SWEEP_POLICIES,
        "--l2-pct", ",".join(f"{p:g}" for p in wl.sweep_l2_pcts),
        "--l1-ratio", f"{wl.l1_ratio:g}",
        "--levels", str(wl.levels),
        *wl.latency_args(),
        "--jobs", str(jobs),
        "--out", str(out),
    ]


def level_spaces(policy) -> list:
    """The spaces that make up each level, top first."""
    if isinstance(policy, (BiDiFilter, CascadeFilter)):
        deeper = (policy.l2,) if isinstance(policy, BiDiFilter) else policy.mains
        return [[policy.window, policy.veterans], *([sp] for sp in deeper)]
    if isinstance(policy, BiDiFilterUnited):
        return [[policy.l1], [policy.l2]]
    return [[sp] for sp in policy.levels]


# -- set-up and the untraced timed phase --------------------------------------------


class HostClock:
    """Times samples and scales them to a reference host speed.

    On a shared host, neighbouring load swings the time of identical work
    by 25% within seconds and by 12% between the medians of 25 s windows.
    So the clock times a fixed loop the benchmark owns (an OrderedDict LRU
    over fixed keys, stdlib only, so no change to the simulator can alter
    it) REF_READS times between samples.  A sample is scaled to a host on
    which that loop takes REF_SECONDS, by the median reading of the gaps
    just before and just after it.
    """

    def __init__(self):
        rng = np.random.default_rng(REF_SEED)
        cum = np.cumsum(np.arange(1, REF_SPAN + 1) ** -0.8)  # Zipf(0.8) ranks
        self._keys = np.searchsorted(cum, rng.random(REF_KEYS) * cum[-1]).tolist()
        self.gaps = [self._readings()]

    def _reference(self) -> float:
        t0 = time.perf_counter()
        lru = OrderedDict()
        for key in self._keys:
            if key in lru:
                lru.move_to_end(key)
            else:
                lru[key] = None
                if len(lru) > REF_CAPACITY:
                    lru.popitem(last=False)
        return time.perf_counter() - t0

    def _readings(self) -> list:
        return [self._reference() for _ in range(REF_READS)]

    def time(self, fn, *args):
        """(result, sample) of one call of fn; read the sample's seconds
        with raw() and scaled()."""
        gc.collect()  # no sample pays for garbage an earlier one left
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        self.gaps.append(self._readings())
        return result, (seconds, len(self.gaps) - 2)

    @staticmethod
    def raw(sample) -> float:
        return sample[0]

    def scaled(self, sample) -> float:
        seconds, gap = sample
        near = self.gaps[gap] + self.gaps[gap + 1]
        return seconds * REF_SECONDS / median(near)

    def reference_s(self) -> float:
        """Median reading of the whole run."""
        return median(x for readings in self.gaps for x in readings)


def setup(wl: Workload, seed: int, workdir: Path, tally: Tally, clock: HostClock):
    """Build the inputs SETUP_REPEATS times; returns the inputs and the
    HostClock samples."""
    samples, first = [], None
    for _ in range(SETUP_REPEATS):
        inputs, sample = clock.time(wl.build, wl, seed, workdir)
        samples.append(sample)
        first = first or inputs
        tally.gate("setup_deterministic", inputs.keys == first.keys)
    return inputs, samples


class Replayer:
    """Times run_single and the CLI sweep, and checks every output against
    the first one (and the --jobs 2 sweep CSV against --jobs 1)."""

    def __init__(self, wl: Workload, inputs: Inputs, workdir: Path, tally: Tally,
                 clock: HostClock):
        self.wl = wl
        self.clock = clock
        self.inputs = inputs
        self.workdir = workdir
        self.tally = tally
        self.caps = wl.capacities(inputs.keys)
        self.specs = wl.specs(self.caps)
        self.rows = {}
        self.sweep_csv = None

    def replay(self, kind: str):
        """One run_single; returns its HostClock sample or None."""
        row, sample = self.clock.time(
            self.tally.run, f"replay {kind}", run_single, self.specs[kind],
            self.inputs.keys, self.wl.latency, self.wl.name)
        if row is None:
            return None
        first = self.rows.setdefault(kind, row)
        self.tally.gate("replay_rows_repeat", row == first, kind)
        return sample

    def sweep(self, jobs: int):
        """One CLI sweep; returns its HostClock sample or None."""
        out = self.workdir / f"sweep-jobs{jobs}.csv"
        argv = sweep_argv(self.wl, self.inputs, jobs, out)
        rc, sample = self.clock.time(
            self.tally.run, f"sweep --jobs {jobs}", cli.main, argv)
        if rc != 0:
            if rc is not None:
                self.tally.gate(f"sweep --jobs {jobs} exit", False, f"rc={rc}")
            return None
        data = out.read_bytes()
        out.unlink()
        if self.sweep_csv is None:
            self.sweep_csv = data
        self.tally.gate("sweep_csv_identical", data == self.sweep_csv, f"jobs={jobs}")
        return sample


def timed_loop(tasks, seconds: float) -> dict:
    """Run (name, fn) tasks round-robin until ``seconds`` have passed,
    completing at least one round; fn returns a sample or None."""
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    first_round = True
    while True:
        for name, fn in tasks:
            if not first_round and time.perf_counter() >= deadline:
                return samples
            value = fn()
            if value is not None:
                samples[name].append(value)
        first_round = False


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(rep: Replayer, setup_samples: list, seconds: float):
    """End-to-end metrics from scaled times, and the same from raw times."""
    tasks = [(f"replay_rps.{kind}", lambda k=kind: rep.replay(k)) for kind in KINDS]
    # --jobs 2 also runs on the vCPU the reference loop does not measure, so
    # its samples spread more; it takes two per round
    tasks += [(f"sweep_s.jobs{j}", lambda j=j: rep.sweep(j)) for j in (1, 2, 2)]
    samples = timed_loop(tasks, seconds)
    samples["setup_s"] = setup_samples
    n = len(rep.inputs.keys)
    clock = rep.clock
    raw, values = {}, {}
    for name, taken in samples.items():
        for out, read in ((raw, clock.raw), (values, clock.scaled)):
            mid = median(read(sample) for sample in taken)
            out[name] = n / mid if name.startswith("replay_rps.") else mid
    values["peak_rss_mb"] = peak_rss_mb()
    row = rep.rows.get("BiDiFilter")
    if row is not None:
        values["hit_ratio.BiDiFilter"] = row.hit_ratio
        values["l2_writes_per_kreq.BiDiFilter"] = 1000 * row.w_l2 / row.requests
    return values, raw, {name: len(taken) for name, taken in samples.items()}


# -- the traced run ----------------------------------------------------------------------


class TimedSketch:
    """Stands in for ``policy.sketch``: forwards each call and times it."""

    def __init__(self, sketch):
        self.inner = sketch
        self.record_ns = self.estimate_ns = 0
        self.records = self.estimates = self.halvings = 0

    def record(self, key) -> None:
        inner = self.inner
        t0 = time.perf_counter_ns()
        inner.record(key)
        self.record_ns += time.perf_counter_ns() - t0
        self.records += 1
        if inner.increments_since_reset == 0:
            self.halvings += 1

    def estimate(self, key) -> int:
        t0 = time.perf_counter_ns()
        value = self.inner.estimate(key)
        self.estimate_ns += time.perf_counter_ns() - t0
        self.estimates += 1
        return value


class ContestSink:
    """Counting stand-in for ``policy.decision_log`` (a list by default)."""

    def __init__(self):
        self.contests = self.wins = self.ties = 0

    def append(self, entry) -> None:
        _, _, candidate_est, victim_est, admitted = entry
        self.contests += 1
        self.wins += bool(admitted)
        self.ties += candidate_est == victim_est


class PolicyProbe:
    """Wraps one policy from outside: per-request handle() time, plus the
    sketch and decision-log stand-ins for the filtered kinds."""

    def __init__(self, policy):
        self.policy = policy
        self.handle_ns = []
        self.sketch = self.contests = None
        if hasattr(policy, "sketch"):
            self.sketch = policy.sketch = TimedSketch(policy.sketch)
            self.contests = policy.decision_log = ContestSink()
        handle, times, clock = policy.handle, self.handle_ns, time.perf_counter_ns

        def timed_handle(key):
            t0 = clock()
            outcome = handle(key)
            times.append(clock() - t0)
            return outcome

        policy.handle = timed_handle


def traced_replay(rep: Replayer, kind: str):
    """run_single with the policy and SimStats wrapped; returns the probe,
    the SimStats add() nanoseconds and the HostClock sample."""
    probes, add_ns = [], [0]

    def probed_policy(spec):
        probe = PolicyProbe(make_policy(spec))
        probes.append(probe)
        return probe.policy

    class TimedStats(SimStats):
        def add(self, outcome):
            t0 = time.perf_counter_ns()
            SimStats.add(self, outcome)
            add_ns[0] += time.perf_counter_ns() - t0

    with mock.patch.object(harness, "make_policy", probed_policy), \
            mock.patch.object(harness, "SimStats", TimedStats):
        row, sample = rep.clock.time(
            rep.tally.run, f"traced replay {kind}", run_single, rep.specs[kind],
            rep.inputs.keys, rep.wl.latency, rep.wl.name)
    if row is None:
        return None
    rep.tally.gate("traced_rows_equal", row == rep.rows.get(kind, row), kind)
    return probes[0], add_ns[0], sample


def traced_sweeps(rep: Replayer) -> dict:
    """Both CLI sweeps with the harness's first pass, each in-process cell
    and the CLI's output step timed.  Cells of the --jobs 2 sweep run in
    worker processes, so cell times come from --jobs 1."""
    spans = defaultdict(list)

    def timing(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[name].append(time.perf_counter() - t0)
        return wrapper

    result = {}
    with mock.patch.object(harness, "count_uniques", timing("first_pass", count_uniques)), \
            mock.patch.object(harness, "run_single", timing("cell", run_single)), \
            mock.patch.object(cli, "write_rows", timing("emit", cli.write_rows)):
        jobs1 = rep.sweep(1)
        cells = list(spans["cell"])
        jobs2 = rep.sweep(2)
    if jobs1 is None or jobs2 is None or not cells:
        return result
    result["harness.first_pass_s"] = median(spans["first_pass"])
    result["harness.cell_s.max"] = max(cells)
    result["harness.jobs2_speedup"] = rep.clock.scaled(jobs1) / rep.clock.scaled(jobs2)
    result["cli.emit_s"] = median(spans["emit"])
    return result


def per_layer(wl: Workload, rep: Replayer, workdir: Path, seconds: float) -> dict:
    inputs = rep.inputs
    keys = inputs.keys
    n = len(keys)
    if "ingest" not in inputs.step_s:
        # the synthetic workloads read no file; time ingest on their keys
        path = workdir / "keys.trace"
        path.write_text("".join(f"{k}\n" for k in keys), encoding="utf-8")
        _timed(inputs.step_s, "ingest", lambda: list(ingest_trace(path)))
        path.unlink()
    t_unique = time.perf_counter()
    count_uniques(keys)
    t_unique = time.perf_counter() - t_unique

    acc = defaultdict(list)  # per-sample values, reduced by median below
    untraced_s = defaultdict(list)
    traced_s = defaultdict(list)

    def one_kind(kind):
        untraced = rep.replay(kind)
        if untraced is not None:
            untraced_s[kind].append(untraced)
        traced = traced_replay(rep, kind)
        if traced is None:
            return None
        probe, add_ns, sample = traced
        traced_s[kind].append(sample)
        sketch_ns = probe.sketch.record_ns + probe.sketch.estimate_ns if probe.sketch else 0
        acc[f"policies.handle_self_ns.{kind}"].append((sum(probe.handle_ns) - sketch_ns) / n)
        acc["metrics.add_ns"].append(add_ns / n)
        if kind == "BiDiFilter":
            sk, cs = probe.sketch, probe.contests
            acc["sketch.record_ns"].append(sk.record_ns / sk.records)
            acc["sketch.estimate_ns"].append(sk.estimate_ns / max(1, sk.estimates))
            acc["sketch.calls_per_req"].append((sk.records + sk.estimates) / n)
            acc["sketch.halvings"].append(sk.halvings)
            ns = np.asarray(probe.handle_ns)
            acc["policies.handle_ns.p50"].append(float(np.percentile(ns, 50)))
            acc["policies.handle_ns.p99"].append(float(np.percentile(ns, 99)))
            acc["policies.contests_per_req"].append(cs.contests / n)
            acc["policies.contest_win_ratio"].append(cs.wins / max(1, cs.contests))
            acc["policies.contest_tie_share"].append(cs.ties / max(1, cs.contests))
            inserts = [sum(sp.insert_count for sp in level)
                       for level in level_spaces(probe.policy)]
            for level in (1, 2, 3):
                count = inserts[level - 1] if level <= len(inserts) else 0
                acc[f"spaces.inserts_per_kreq.L{level}"].append(1000 * count / n)
        return sample

    def sweeps():
        values = traced_sweeps(rep)
        for name, value in values.items():
            acc[name].append(value)
        return values or None

    tasks = [(kind, lambda k=kind: one_kind(k)) for kind in KINDS]
    timed_loop(tasks + [("sweeps", sweeps)], seconds)

    values = {name: median(vals) for name, vals in acc.items()}
    values["workload.synth_keys_per_s"] = wl.size / inputs.step_s["synth"]
    values["workload.ingest_chunks_per_s"] = n / inputs.step_s["ingest"]
    values["workload.count_uniques_s"] = t_unique
    clock = rep.clock
    if untraced_s and traced_s:
        values["trace_overhead"] = (
            sum(median(map(clock.scaled, traced_s[k])) for k in traced_s)
            / sum(median(map(clock.scaled, untraced_s[k])) for k in traced_s)
        )
    # scale the layer times taken inside samples by the run's median reading
    factor = REF_SECONDS / clock.reference_s()
    for name, unit, _ in PER_LAYER:
        if name in values and unit in ("s", "ns"):
            values[name] *= factor
        elif name in values and unit == "1/s":
            values[name] /= factor
    return values


# -- correctness gates ---------------------------------------------------------------------


def check_outputs(wl: Workload, rep: Replayer, tally: Tally) -> dict:
    """Replay every kind with the benchmark's own SimStats and compare with
    the run_single rows and the spaces' insert counts; check Demote against
    the list-based LRU oracle on a prefix.  Returns per-level hits and
    writes (ResultRow carries only two levels)."""
    per_level = {}
    for kind, spec in rep.specs.items():
        def replay(spec=spec):
            policy = make_policy(spec)
            stats = SimStats(policy.n_levels)
            for key in rep.inputs.keys:
                stats.add(policy.handle(key))
            return policy, stats

        result = tally.run(f"gate replay {kind}", replay)
        if result is None:
            continue
        policy, stats = result
        try:
            stats.check()
            closed = stats.total_hits + stats.misses == stats.requests
        except AssertionError:
            closed = False
        tally.gate("simstats_check", closed, kind)
        levels = range(1, policy.n_levels + 1)
        inserts = [sum(sp.insert_count for sp in level) for level in level_spaces(policy)]
        writes = [stats.writes_at(level) for level in levels]
        tally.gate("inserts_equal_writes", inserts == writes, f"{kind}: {inserts} != {writes}")
        row = rep.rows.get(kind)
        if row is not None:
            same = (row.requests, row.misses, row.h_l1_window, row.h_l1_veterans,
                    row.h_l2, row.w_l1, row.w_l2) == (
                stats.requests, stats.misses, stats.h_l1_window, stats.h_l1_veterans,
                stats.hits_at(2), stats.writes_at(1), stats.writes_at(2))
            tally.gate("row_matches_own_stats", same, kind)
        per_level[kind] = {
            "hits": [stats.hits_at(level) for level in levels],
            "writes": writes,
            "misses": stats.misses,
        }

    prefix = rep.inputs.keys[:ORACLE_PREFIX]
    caps = wl.capacities(prefix)
    row = tally.run("oracle Demote", run_single, PolicySpec("Demote", caps), prefix,
                    wl.latency)
    if row is not None:
        hits = row.requests - row.misses
        expected = reference_lru_hits(prefix, sum(caps))
        tally.gate("demote_equals_lru_oracle", hits == expected, f"{hits} != {expected}")
    tally.gate("sweep_ran", rep.sweep_csv is not None)
    return per_level


# -- report ----------------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def digests(rep: Replayer) -> dict:
    replay = rows_csv([rep.rows[k] for k in KINDS if k in rep.rows])
    return {
        "replay_rows_sha256": hashlib.sha256(replay).hexdigest(),
        "sweep_rows_sha256": hashlib.sha256(rep.sweep_csv or b"").hexdigest(),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (report, result) dictionaries."""
    tally = Tally()
    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = HostClock()
    try:
        inputs, setup_samples = setup(wl, seed, workdir, tally, clock)
        rep = Replayer(wl, inputs, workdir, tally, clock)
        raw, counts = {}, {}
        if trace:
            values = per_layer(wl, rep, workdir, seconds)
            wanted = PER_LAYER
        else:
            values, raw, counts = end_to_end(rep, setup_samples, seconds)
            wanted = END_TO_END
        per_level = check_outputs(wl, rep, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    missing = [name for name, *_ in wanted if name not in values and name != "success_ratio"]
    tally.gate("all_metrics_measured", not missing, ",".join(missing))
    if not trace:
        values["success_ratio"] = 1 - tally.failed / tally.attempted
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, *_ in wanted if name in values}
    report = {
        "workload": wl.name,
        "trace": int(trace),
        "env": environment(seed),
        "inputs": {"keys": len(inputs.keys), "capacities": list(rep.caps)},
        "samples": counts,
        "reference_s": clock.reference_s(),
        "unscaled": raw,
        "digests": digests(rep),
        "per_level": per_level,
        "gates": tally.gates,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
