import csv
import io
import json

import pytest

from bidifilter import KINDS, PolicySpec, harness, level_capacities_for, run_single
from bidifilter.cli import _parse_latency, _parse_synthetic, build_parser, main
from bidifilter.harness import RESULT_FIELDS, open_trace
from bidifilter.workload import count_uniques

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
    # a part that fails to parse is named with its flag
    for text, part, what in (("1e3:100:0.8:0.2", "1e3", "an integer"),
                             ("100:5x:0.8:0.2", "5x", "an integer"),
                             ("100:50:high:0.2", "high", "a number")):
        with pytest.raises(ValueError, match=f"--synthetic: '{part}' is not {what}"):
            _parse_synthetic(text, seed=0)


def test_parse_latency():
    p = _parse_latency("100,200000,2000000")
    assert p.level_ns == (100.0, 200_000.0)
    assert p.miss_ns == 2_000_000.0
    p3 = _parse_latency("1,2,3,4")
    assert p3.level_ns == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        _parse_latency("100")
    with pytest.raises(ValueError, match="--latency: 'x' is not a number"):
        _parse_latency("1,x")


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
    # both commands refuse it alike, and list the kinds there are
    for command, policy in (("sweep", "BiDiFilter,Bogus"), ("run", "Bogus")):
        code, out, err = run_cli(capsys, command, "--synthetic", SYN, "--policy", policy)
        assert code == 1 and out == ""
        assert err == f"error: unknown policy kind: 'Bogus'; choose from {', '.join(KINDS)}\n"


@pytest.mark.parametrize("args, fragment", [
    (("run", "--synthetic", "1e3:100:0.8:0.2"), "--synthetic: '1e3' is not an integer"),
    (("run", "--synthetic", SYN, "--latency", "1,x"), "--latency: 'x' is not a number"),
    (("sweep", "--synthetic", SYN, "--l2-pct", "0.1,abc"), "--l2-pct: 'abc' is not a number"),
    (("sweep", "--synthetic", SYN, "--l1-ratio", "0.1,"), "--l1-ratio: '' is not a number"),
    (("run", "--synthetic", SYN, "--l2-pct", "abc"), "--l2-pct: 'abc' is not a number"),
    (("run", "--synthetic", SYN, "--l1-ratio", "x"), "--l1-ratio: 'x' is not a number"),
], ids=["synthetic", "latency", "l2-pct", "l1-ratio", "run-l2-pct", "run-l1-ratio"])
def test_unparsable_numbers_name_their_flag(capsys, args, fragment):
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err == f"error: {fragment}\n"


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("run", "sweep")
      for flag in ("--window", "--promote-p", "--promote-q", "--levels", "--seed")),
    ("sweep", "--jobs"),
])
def test_malformed_numeric_flag_exits_1_naming_it(capsys, command, flag):
    # argparse parses no number, so these fail as --l2-pct and --latency do
    integer = flag in ("--levels", "--seed", "--jobs")
    what = "an integer" if integer else "a number"
    for text in ("abc", "", "2.0" if integer else "0.1,0.2"):
        code, out, err = run_cli(capsys, command, "--synthetic", SYN, f"{flag}={text}")
        assert code == 1 and out == ""
        assert err == f"error: {flag}: {text!r} is not {what}\n"


def test_parsed_numbers_reach_the_row(capsys):
    _, out, _ = run_cli(capsys, "run", "--synthetic", SYN, "--window", "0.25", "--seed", "3")
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["window_fraction"] == "0.25" and row["trace_id"].endswith("-seed3")
    promote = ("run", "--synthetic", SYN, "--policy", "Promote")
    _, default, _ = run_cli(capsys, *promote)
    _, skewed, _ = run_cli(capsys, *promote, "--promote-p", "0.1", "--promote-q", "0.9")
    assert skewed != default


@pytest.mark.parametrize("args, fragment", [
    (("--synthetic", "2000:50:0.8:0.1", "--latency", "100,inf,2000000"),
     "latencies must be finite and positive"),
    (("--synthetic", "2000:50:0.8:0.1", "--latency", "100,200000,nan"),
     "latencies must be finite and positive"),
    (("--synthetic", "2000:50:nan:0.1"), "skew must be finite and >= 0"),
    (("--synthetic", "2000:50:inf:0.1"), "skew must be finite and >= 0"),
], ids=["latency-inf", "latency-nan", "skew-nan", "skew-inf"])
def test_run_refuses_non_finite_values_before_any_replay(capsys, monkeypatch, args, fragment):
    def no_replay(*args, **kwargs):
        raise AssertionError("a cell was replayed")

    monkeypatch.setattr(harness, "run_single", no_replay)
    code, out, err = run_cli(capsys, "run", *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("flag, values", [
    ("--policy", "BiDiFilter,Demote"), ("--l2-pct", "0.1,0.5"), ("--l1-ratio", "0.1,0.2"),
])
def test_run_refuses_a_list_and_points_to_sweep(capsys, flag, values):
    code, out, err = run_cli(capsys, "run", "--synthetic", SYN, flag, values)
    assert code == 1 and out == ""
    assert err.startswith("error: run simulates one cell, not 2") and "use sweep" in err


def test_run_writes_the_bytes_of_a_one_cell_sweep(capsys):
    # run parses its values as sweep does, spaces around a name included
    cell = ("--synthetic", SYN, "--policy", " Promote", "--l2-pct", "0.3",
            "--l1-ratio", "0.2", "--seed", "6")
    for fmt in ("csv", "jsonl"):
        _, run_out, _ = run_cli(capsys, "run", *cell, "--format", fmt)
        _, sweep_out, _ = run_cli(capsys, "sweep", *cell, "--jobs", "1", "--format", fmt)
        assert run_out == sweep_out and run_out


def test_sweep_runs_every_kind_at_three_levels(capsys):
    # a BiDiFilterUnited row is the BiDiFilter row at window_fraction 1
    # with its cell's capacities and seed, at any depth
    latency = "100,1000,10000,100000"
    code, out, err = run_cli(
        capsys, "sweep", "--synthetic", SYN, "--policy", ",".join(KINDS),
        "--levels", "3", "--latency", latency, "--l2-pct", "0.1,0.5",
        "--l1-ratio", "0.2", "--format", "jsonl",
    )
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["policy_name"] for r in rows] == [k for k in KINDS for _ in range(2)]
    source = _parse_synthetic(SYN, seed=0)
    uniques, _ = count_uniques(open_trace(source))
    united = [r for r in rows if r["policy_name"] == "BiDiFilterUnited"]
    for row, pct in zip(united, (0.1, 0.5)):
        caps = level_capacities_for(uniques, pct, 0.2, 3)
        spec = PolicySpec("BiDiFilter", caps, window_fraction=1.0, rng_seed=row["rng_seed"])
        expected = run_single(spec, open_trace(source), _parse_latency(latency),
                              row["trace_id"]).as_dict()
        assert row == dict(expected, policy_name="BiDiFilterUnited", window_fraction=None)


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
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the pytest pythonpath setting reaches this process, not the child
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "bidifilter", "run", "--synthetic", SYN],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("trace_id,")