"""Step-by-step tour of the two-level filtered policy on a tiny cache.

Every access prints its classification, the writes it caused, and the
resulting occupancy of the three spaces, so you can watch items move:
misses land in the window, window victims face the L2 admission filter,
and L2 hits face the veterans promotion filter.

Run:  python3 demos/02_two_level_walkthrough.py
"""

from bidifilter import BiDiFilter

pol = BiDiFilter((2, 2), window_fraction=0.5, tie_break="admit", rng_seed=0)
print("capacities: window=1 veterans=1 L2=2 (exclusive: one copy per key)\n")

accesses = ["a", "b", "a", "c", "a", "a", "b", "d", "b"]
print(f"{'#':>2} {'key':>4} {'result':<16} {'writes':<18} window/veterans/L2")
for i, key in enumerate(accesses, start=1):
    out = pol.handle(key)
    writes = " ".join(f"L{lvl}+{n}" for lvl, n in out.writes) or "(none)"
    state = (f"{list(pol.window.keys())} / {list(pol.veterans.keys())} "
             f"/ {list(pol.mains[0].keys())}")
    print(f"{i:>2} {key:>4} {out.classification:<16} {writes:<18} {state}")

print("""
Reading the log:
  * access 3 ("a" again): a sat in L2 after being displaced, so the hit
    promotes it into the empty veterans space and frees its L2 slot.
  * later misses displace window victims into L2 only while L2 has room
    or the victim's frequency estimate beats L2's eviction candidate.
  * every insert into a level from outside costs one write; recency
    refreshes are free, which is the whole point of filtering.""")

pol.check_invariants()
print("invariants hold: each key lives in exactly one space.")
