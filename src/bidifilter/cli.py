"""Command line front end: ``run`` simulates one cell, ``sweep`` a grid.

Both take the same flags and build one ``SweepSpec``.  ``--policy``,
``--l2-pct`` and ``--l1-ratio`` are comma lists, of one value each under
``run``.  An input error found after argument parsing exits 1.
"""

from __future__ import annotations

import argparse
import sys

from .harness import SweepSpec, run_sweep, write_rows
from .metrics import LatencyParams
from .policies import KINDS, TIE_BREAKS, PolicySpec
from .workload import SyntheticSpec


def _number(parse, text: str, flag: str):
    """``parse(text)``, or a ValueError that names the flag and the text."""
    try:
        return parse(text)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise ValueError(f"{flag}: {text!r} is not {what}") from None


def _parse_synthetic(text: str, seed: int) -> SyntheticSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(
            "--synthetic wants length:ground_set:skew:recency, "
            f"got {text!r}"
        )
    return SyntheticSpec(
        length=_number(int, parts[0], "--synthetic"),
        ground_set=_number(int, parts[1], "--synthetic"),
        skew=_number(float, parts[2], "--synthetic"),
        recency=_number(float, parts[3], "--synthetic"),
        rng_seed=seed,
    )


def _parse_latency(text: str) -> LatencyParams:
    values = _parse_floats(text, "--latency")
    if len(values) < 2:
        raise ValueError("--latency wants at least t_l1,...,t_miss")
    return LatencyParams(level_ns=values[:-1], miss_ns=values[-1])


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    return tuple(_number(float, v, flag) for v in text.split(","))


def _add_common(sub: argparse.ArgumentParser, l2_pct: str) -> None:
    sub.add_argument("--policy", default="BiDiFilter",
                     help=f"policies from {', '.join(KINDS)}; comma list, one for run")
    sub.add_argument("--l2-pct", default=l2_pct,
                     help="L2 sizes as fractions of distinct keys; comma list, one for run")
    sub.add_argument("--l1-ratio", default="0.1",
                     help="L1:L2 size ratios; comma list, one for run")
    sub.add_argument("--window", type=float, default=PolicySpec.window_fraction,
                     help="fraction of L1 given to the window space")
    sub.add_argument("--tie", choices=TIE_BREAKS, default=PolicySpec.tie_break,
                     help="filter behavior on equal frequency estimates")
    sub.add_argument("--promote-p", type=float, default=PolicySpec.promote_prob,
                     help="Promote: probability an L2 hit moves up")
    sub.add_argument("--promote-q", type=float, default=PolicySpec.demote_prob,
                     help="Promote: probability a demoted victim is written")
    sub.add_argument("--levels", type=int, default=2,
                     help="number of cache levels")
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", metavar="LEN:GROUND:SKEW:RECENCY",
                     help="generate a synthetic trace")
    src.add_argument("--trace", metavar="PATH",
                     help="replay a trace file (key[,size_bytes] per line)")
    sub.add_argument("--latency", metavar="T_L1,...,T_MISS", default=None,
                     help="per-level access costs plus miss cost, in ns")
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed for all randomness")
    sub.add_argument("--out", default="-",
                     help="output path, or - for stdout")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                     help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidifilter",
        description="Simulate multilevel cache policies over a key trace.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = subs.add_parser("run", help="simulate a single policy and geometry")
    _add_common(run_p, l2_pct="0.5")
    run_p.set_defaults(jobs=1)
    sweep_p = subs.add_parser("sweep", help="cross policies with geometries")
    _add_common(sweep_p, l2_pct="0.1,0.5,1.0")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for independent cells")
    return parser


def _template(kind: str, args) -> PolicySpec:
    return PolicySpec(
        kind=kind,
        level_capacities=(1, 1),  # replaced per cell
        window_fraction=args.window,
        tie_break=args.tie,
        promote_prob=args.promote_p,
        demote_prob=args.promote_q,
    )


def _latency(args) -> LatencyParams:
    latency = _parse_latency(args.latency) if args.latency else LatencyParams()
    covered = len(latency.level_ns)
    if covered < args.levels:
        given = (f"{covered + 1} given" if args.latency
                 else f"the default covers {covered} levels")
        raise ValueError(
            f"--levels {args.levels} needs --latency with {args.levels + 1} values, "
            f"t_l1,...,t_l{args.levels},t_miss in ns; {given}"
        )
    return latency


def _simulate(args) -> int:
    """Write the rows of the sweep the flags describe.  ``run`` is a
    one-cell sweep: it takes one value per grid flag."""
    sweep = SweepSpec(
        l2_size_percents=_parse_floats(args.l2_pct, "--l2-pct"),
        l1_ratios=_parse_floats(args.l1_ratio, "--l1-ratio"),
        trace_source=(args.trace if args.synthetic is None
                      else _parse_synthetic(args.synthetic, args.seed)),
        policies=tuple(_template(kind.strip(), args) for kind in args.policy.split(",")),
        latency=_latency(args),
        master_seed=args.seed,
        n_levels=args.levels,
    )
    cells = len(sweep.policies) * len(sweep.l2_size_percents) * len(sweep.l1_ratios)
    if args.command == "run" and cells > 1:
        raise ValueError(
            f"run simulates one cell, not {cells}: give --policy, --l2-pct and "
            "--l1-ratio one value each, or use sweep for a grid"
        )
    write_rows(run_sweep(sweep, jobs=args.jobs), args.out, args.format)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _simulate(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
