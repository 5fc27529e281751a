"""All five policies on one workload: hit ratios, writes, latencies.

Runs the same skewed synthetic trace through each policy at the same
geometry and prints a comparison table.  The filtered policy should
roughly match the global-LRU baseline on hit ratio while writing far
less into L2; NaiveLRU writes least but hits worst.  Then it reads the
global-LRU hit ratio at several total capacities off the trace's LRU
stack-distance profile, the one Demote's row came from, next to
BiDiFilter's.

Run:  python3 demos/03_policy_comparison.py
"""

from bidifilter import (
    PolicySpec,
    SyntheticSpec,
    compile_trace,
    generate_synthetic,
    level_capacities_for,
    run_single,
)

spec = SyntheticSpec(length=200_000, ground_set=5_000, skew=0.9, recency=0.2,
                     rng_seed=11)
trace = compile_trace(generate_synthetic(spec))
uniques, total = len(trace.keys), len(trace.ids)
l1, l2 = level_capacities_for(uniques, 0.3, 0.1)
print(f"trace: {total} accesses, {uniques} distinct keys")
print(f"geometry: L1={l1} L2={l2} (30% of footprint, 1:10 ratio)\n")

policies = [
    PolicySpec("BiDiFilter", (l1, l2), window_fraction=0.5, tie_break="admit"),
    PolicySpec("BiDiFilter", (l1, l2), window_fraction=0.5, tie_break="reject"),
    PolicySpec("BiDiFilterUnited", (l1, l2)),
    PolicySpec("Demote", (l1, l2)),
    PolicySpec("NaiveLRU", (l1, l2)),
    PolicySpec("Promote", (l1, l2), promote_prob=0.5, demote_prob=0.5),
]

print(f"{'policy':<18} {'tie':<7} {'hit%':>6} {'L1 hits':>8} {'L2 hits':>8} "
      f"{'L2 writes':>9} {'read us':>8} {'rw us':>8}")
bidi_hit = {}
for pspec in policies:
    row = run_single(pspec, trace)
    if row.policy_name == "BiDiFilter":
        bidi_hit[row.tie_break] = row.hit_ratio
    tie = row.tie_break or "-"
    l1_hits = row.h_l1_window + row.h_l1_veterans
    print(f"{row.policy_name:<18} {tie:<7} {100 * row.hit_ratio:>6.2f} "
          f"{l1_hits:>8} {row.h_l2:>8} {row.w_l2:>9} "
          f"{row.avg_read_latency_ns / 1000:>8.1f} "
          f"{row.avg_rw_latency_ns / 1000:>8.1f}")

# an LRU cache of capacity C hits exactly the accesses at stack distance
# 1..C, so one profile gives global LRU's hit ratio at every capacity;
# the Demote row above was read off the same profile, which the compiled
# trace keeps
distances, _ = trace.profile
print("\nglobal LRU hit ratio by total capacity, from one stack-distance profile:")
print(f"{'capacity':>9} {'footprint':>9} {'hit%':>6}")
for capacity in sorted({round(f * uniques) for f in (0.05, 0.1, 0.2, 0.5, 1.0)}
                       | {l1 + l2}):
    hits = int(((distances > 0) & (distances <= capacity)).sum())
    line = f"{capacity:>9} {capacity / uniques:>9.0%} {100 * hits / total:>6.2f}"
    if capacity == l1 + l2:
        line += ("   <- L1+L2; BiDiFilter "
                 + ", ".join(f"{tie} {100 * h:.2f}" for tie, h in bidi_hit.items()))
    print(line)

print("""
Things to notice:
  * Demote hits well but pays for it with an L2 write on nearly every
    promotion's displaced victim.
  * reject-on-tie cuts L2 writes further than admit-on-tie by refusing
    equal-frequency churn.
  * NaiveLRU's L2 writes are bounded by its misses, but items never come
    back up, so its L1 hit share collapses.
  * At L1+L2 the global-LRU curve gives Demote's hit ratio, since Demote
    is one global LRU order across its levels; the strict filter matches
    or beats it there with a fraction of the L2 writes.""")
