"""Self-check of the benchmark at tiny scale: python3 -m pytest benchmarks"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from bidifilter import LruSpace, PolicySpec, SyntheticSpec, generate_synthetic, run_single

ROOT = Path(__file__).resolve().parent.parent
TINY = {"zipf-2l": 4_000, "chunked-sweep": 800, "recency-3l": 4_000}


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], size=TINY[name])


def test_benchmark_json_mirrors_the_script():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert [tuple(m.values()) for m in doc["end_to_end"]] == list(bench.END_TO_END)
    assert [tuple(m.values()) for m in doc["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_reports_every_metric(name, trace):
    report, result = bench.run(tiny(name), 3, 0.2, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = bench.PER_LAYER if trace else bench.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (name, unit) for name, unit, *_ in wanted
    ]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(report["gates"].values())
    levels = bench.WORKLOADS[name].levels
    assert len(report["per_level"]["BiDiFilter"]["writes"]) == levels


def test_same_seed_same_rows_other_seed_other_rows():
    digests = [bench.run(tiny("zipf-2l"), seed, 0.1, False)[0]["digests"]
               for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_gates_catch_a_write_miscount(monkeypatch):
    real_insert = LruSpace.insert

    def insert_without_count(self, key):
        real_insert(self, key)
        self.insert_count -= 1

    monkeypatch.setattr(LruSpace, "insert", insert_without_count)
    report, result = bench.run(tiny("zipf-2l"), 3, 0.1, False)
    assert not result["correct"] and result["failed"] > 0
    assert report["gates"]["inserts_equal_writes"] is False
    assert result["metrics"]["success_ratio"]["value"] < 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "zipf-2l",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_acceptance_anchor_rows():
    """zipf-2l at 1M accesses and seed 404 reproduces the acceptance rows."""
    wl = bench.WORKLOADS["zipf-2l"]
    spec = SyntheticSpec(length=10**6, ground_set=wl.ground_set, skew=wl.skew,
                         recency=wl.recency, rng_seed=404)
    keys = list(generate_synthetic(spec))
    caps = wl.capacities(keys)
    assert caps == (4_697, 46_972)
    specs = wl.specs(caps)
    bidi = run_single(specs["BiDiFilter"], keys)
    demote = run_single(specs["Demote"], keys)
    assert round(bidi.hit_ratio, 6) == 0.833323 and bidi.w_l2 == 66_155
    assert demote.w_l2 == 506_918
    assert specs["BiDiFilter"] == PolicySpec("BiDiFilter", caps, tie_break="reject")
