import csv
import io
import json

import pytest

from bidifilter.cli import _parse_latency, _parse_synthetic, build_parser, main
from bidifilter.harness import RESULT_FIELDS

SYN = "3000:80:0.8:0.3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_synthetic():
    spec = _parse_synthetic("100:50:0.9:0.25", seed=7)
    assert (spec.length, spec.ground_set, spec.skew, spec.recency) == (100, 50, 0.9, 0.25)
    assert spec.rng_seed == 7
    with pytest.raises(ValueError):
        _parse_synthetic("100:50:0.9", seed=0)


def test_parse_latency():
    p = _parse_latency("100,200000,2000000")
    assert p.level_ns == (100.0, 200_000.0)
    assert p.miss_ns == 2_000_000.0
    p3 = _parse_latency("1,2,3,4")
    assert p3.level_ns == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        _parse_latency("100")


def test_parser_requires_subcommand_and_source():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run"])  # no --synthetic/--trace
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--synthetic", SYN, "--trace", "x"])


def test_run_writes_csv_to_stdout(capsys):
    code, out, err = run_cli(capsys, "run", "--synthetic", SYN, "--seed", "1")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert tuple(row.keys()) == RESULT_FIELDS
    assert row["policy_name"] == "BiDiFilter"
    assert row["trace_id"] == "zipf-n3000-g80-s0.8-r0.3-seed1"
    assert int(row["requests"]) == 3000
    total = sum(int(row[f]) for f in ("h_l1_window", "h_l1_veterans", "h_l2", "misses"))
    assert total == 3000


def test_run_policy_and_geometry_knobs(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--synthetic", SYN, "--policy", "Demote",
        "--l2-pct", "0.5", "--l1-ratio", "0.25",
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["policy_name"] == "Demote"
    assert row["window_fraction"] == "" and row["tie_break"] == ""
    assert int(row["l1_capacity"]) == round(0.25 * int(row["l2_capacity"]))


def test_run_jsonl_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--synthetic", SYN, "--format", "jsonl",
        "--policy", "NaiveLRU",
    )
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["policy_name"] == "NaiveLRU"
    assert row["window_fraction"] is None


def test_run_is_byte_identical_across_invocations(capsys):
    args = ("run", "--synthetic", SYN, "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_run_custom_latency_changes_only_latency_columns(capsys):
    base = ("run", "--synthetic", SYN, "--seed", "2")
    _, out_a, _ = run_cli(capsys, *base)
    _, out_b, _ = run_cli(capsys, *base, "--latency", "2,200000,100")
    a = next(csv.DictReader(io.StringIO(out_a)))
    b = next(csv.DictReader(io.StringIO(out_b)))
    for field in RESULT_FIELDS:
        if field.startswith("avg_"):
            assert a[field] != b[field]
        else:
            assert a[field] == b[field]


def test_run_trace_file(tmp_path, capsys):
    trace = tmp_path / "small.trace"
    trace.write_text("# demo\nx,8192\ny\nx,8192\n")
    code, out, _ = run_cli(
        capsys, "run", "--trace", str(trace), "--policy", "Demote",
        "--l2-pct", "1.0", "--l1-ratio", "0.5",
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["trace_id"] == "small.trace"
    assert int(row["requests"]) == 5  # x#0 x#1 y#0 x#0 x#1
    assert int(row["h_l1_window"]) + int(row["h_l2"]) == 2


def test_run_missing_trace_file_errors(capsys):
    code, out, err = run_cli(capsys, "run", "--trace", "/nonexistent/q.trace")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_run_malformed_trace_errors(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("ok\nbroken,line,extra\n")
    code, _, err = run_cli(capsys, "run", "--trace", str(trace))
    assert code == 1
    assert "line 2" in err


def test_run_empty_synthetic_rejected(capsys):
    code, _, err = run_cli(capsys, "run", "--synthetic", "0:10:1.0:0.0")
    assert code == 1
    assert "error:" in err


def test_run_deep_hierarchy_needs_latency(capsys):
    code, _, err = run_cli(capsys, "run", "--synthetic", SYN, "--levels", "3")
    assert code == 1
    code, out, err = run_cli(
        capsys, "run", "--synthetic", SYN, "--levels", "3",
        "--latency", "100,200000,500000,2000000",
    )
    assert code == 0


def test_deep_hierarchy_error_names_latency_and_its_length(capsys):
    for argv, given in (
        (["run", "--levels", "3"], "the default covers 2 levels"),
        (["sweep", "--levels", "4", "--latency", "1,2,3,4"], "4 given"),
    ):
        code, out, err = run_cli(capsys, *argv, "--synthetic", SYN)
        levels = int(argv[2])
        assert code == 1 and out == ""
        assert err == (
            f"error: --levels {levels} needs --latency with {levels + 1} values, "
            f"t_l1,...,t_l{levels},t_miss in ns; {given}\n"
        )


def test_run_rejects_out_of_range_geometry(capsys):
    for knob, value in (("--l2-pct", "0"), ("--l2-pct", "1.5"), ("--l1-ratio", "1.0")):
        code, out, err = run_cli(capsys, "run", "--synthetic", SYN, knob, value)
        assert code == 1 and out == ""
        assert err.startswith("error:")


def test_sweep_grid_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--synthetic", SYN,
        "--policy", "BiDiFilter,Demote,NaiveLRU",
        "--l2-pct", "0.2,0.6", "--l1-ratio", "0.1,0.3",
        "--seed", "4",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12  # 3 policies x 2 percents x 2 ratios
    assert [r["policy_name"] for r in rows[:4]] == ["BiDiFilter"] * 4
    seeds = [int(r["rng_seed"]) for r in rows]
    assert len(set(seeds)) == 12  # per-cell seeds all differ


def test_sweep_jobs_match_serial(capsys):
    args = (
        "sweep", "--synthetic", SYN, "--policy", "BiDiFilter,Promote",
        "--l2-pct", "0.3", "--l1-ratio", "0.2", "--seed", "8",
    )
    _, serial, _ = run_cli(capsys, *args, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "sweep", "--synthetic", SYN, "--jobs", jobs)
    assert code == 1 and out == ""
    assert "jobs" in err


def test_sweep_unknown_policy_errors(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--synthetic", SYN, "--policy", "BiDiFilter,Bogus",
    )
    assert code == 1
    assert "Bogus" in err


def test_out_file_csv_and_jsonl(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    code, out, _ = run_cli(
        capsys, "run", "--synthetic", SYN, "--out", str(csv_path),
    )
    assert code == 0 and out == ""
    assert csv_path.read_text().startswith("trace_id,")
    jsonl_path = tmp_path / "r.jsonl"
    run_cli(
        capsys, "run", "--synthetic", SYN, "--out", str(jsonl_path),
        "--format", "jsonl",
    )
    assert json.loads(jsonl_path.read_text())["requests"] == 3000


def test_stdout_and_file_output_agree(tmp_path, capsys):
    path = tmp_path / "o.csv"
    args = ("run", "--synthetic", SYN, "--seed", "3")
    _, out, _ = run_cli(capsys, *args)
    run_cli(capsys, *args, "--out", str(path))
    assert path.read_text() == out


def test_module_entrypoint(capsys):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "bidifilter", "run", "--synthetic", SYN],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("trace_id,")