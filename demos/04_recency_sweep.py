"""Window vs veterans: who wins depends on the workload's recency.

Sweeps the synthetic generator's recency knob and compares L1 hits for
window_fraction=1.0 (all of L1 is a plain LRU window) against
window_fraction=0.0 (all of L1 is the filtered veterans space).  On
frequency-dominated streams the veterans space wins; as short-term
repetition grows, the window catches up and overtakes it, and at the
extreme the two converge.  This is a scaled-down version of the
acceptance suite's crossover check.

Run:  python3 demos/04_recency_sweep.py [SCALE]

SCALE (default 1) multiplies the trace length (200,000 accesses) and
its ground set (20,000 keys); at 1 the sweep takes tens of seconds.
"""

import sys

from bidifilter import (
    PolicySpec,
    SyntheticSpec,
    generate_synthetic,
    level_capacities_for,
    run_single,
)

SCALE = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
if SCALE <= 0:
    sys.exit("SCALE must be positive")
LENGTH = max(1, round(200_000 * SCALE))
GROUND = max(1, round(20_000 * SCALE))

print(f"trace: length={LENGTH} ground_set={GROUND} skew=0.5, "
      f"L2=50% of footprint, L1=10% of L2\n")
print(f"{'recency':>7} {'wf=1 L1 hits':>13} {'wf=0 L1 hits':>13} {'diff':>8} winner")
for tenths in range(0, 11, 2):
    recency = tenths / 10
    spec = SyntheticSpec(length=LENGTH, ground_set=GROUND, skew=0.5,
                         recency=recency, rng_seed=606)
    keys = list(generate_synthetic(spec))
    l1, l2 = level_capacities_for(len(set(keys)), 0.5, 0.1)
    hits = {}
    for wf in (1.0, 0.0):
        row = run_single(
            PolicySpec("BiDiFilter", (l1, l2), window_fraction=wf), keys
        )
        hits[wf] = row.h_l1_window + row.h_l1_veterans
    diff = hits[1.0] - hits[0.0]
    winner = "window" if diff > 0 else "veterans" if diff < 0 else "tie"
    print(f"{recency:>7.1f} {hits[1.0]:>13} {hits[0.0]:>13} {diff:>+8} {winner}")

print("\nthe sign flip in the diff column is the crossover: neither")
print("extreme split dominates across workloads, which is why the")
print("window fraction is a tunable.")
