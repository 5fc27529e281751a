"""Replaying real trace files: chunking, ingestion, and the CLI.

Writes a small trace file in the supported format (one access per line,
optional byte size), shows how sized accesses expand into 4KB chunk
keys, runs a policy over it through the library, and prints the
equivalent command line invocations.

Run:  python3 demos/05_trace_files.py
"""

import tempfile
from pathlib import Path

from bidifilter import (
    PolicySpec,
    count_uniques,
    ingest_trace,
    level_capacities_for,
    run_single,
)

TRACE_TEXT = """\
# object store access log: key[,size_bytes]
video-7,130000
thumb-7,3500
video-7,130000
css-main,12000
thumb-7,3500
video-9,260000
video-7,130000
"""

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "objects.trace"
    path.write_text(TRACE_TEXT)

    chunks = list(ingest_trace(path))
    uniques, total = count_uniques(chunks)
    print(f"trace file: {sum(1 for l in TRACE_TEXT.splitlines() if l and not l.startswith('#'))} "
          f"logical accesses -> {total} chunk accesses, {uniques} distinct chunks")
    print("first chunks:", chunks[:6], "...")
    print("(a 130000-byte object spans 32 chunks of 4096 bytes; unsized")
    print(" lines count as a single chunk)\n")

    l1, l2 = level_capacities_for(uniques, 0.5, 0.2)
    row = run_single(
        PolicySpec("BiDiFilter", (l1, l2)), ingest_trace(path), trace_id=path.name
    )
    print(f"replay through BiDiFilter at L1={l1} L2={l2}:")
    print(f"  requests={row.requests} hit_ratio={row.hit_ratio:.3f} "
          f"w_l1={row.w_l1} w_l2={row.w_l2}")

print("""
The command line gives the same row as CSV:

  bidifilter run --trace objects.trace --l2-pct 0.5 --l1-ratio 0.2

and sweeps cross policies with geometries in one call:

  bidifilter sweep --trace objects.trace \\
      --policy BiDiFilter,Demote,NaiveLRU \\
      --l2-pct 0.25,0.5 --l1-ratio 0.1,0.2 --format jsonl --out rows.jsonl""")
