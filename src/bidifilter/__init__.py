"""Multilevel cache policies with bidirectional frequency filtering."""

from .harness import (
    RESULT_FIELDS,
    CompiledTrace,
    ResultRow,
    SweepSpec,
    compile_trace,
    level_capacities_for,
    lru_profile,
    run_single,
    run_sweep,
    trace_label,
    write_rows,
    write_rows_csv,
    write_rows_jsonl,
)
from .metrics import (
    LatencyParams,
    SimStats,
    avg_read_latency,
    avg_rw_latency,
    hit_ratio,
)
from .policies import (
    HIT_L1_VETERANS,
    HIT_L1_WINDOW,
    HIT_L2,
    KINDS,
    MISS,
    AccessOutcome,
    BiDiFilter,
    BiDiFilterUnited,
    CascadeFilter,
    Demote,
    NaiveLRU,
    PolicySpec,
    Promote,
    hit_at_level,
    make_policy,
)
from .sketch import FrequencySketch, SketchConfig, derive_seed, mix64
from .spaces import LruSpace, SlruSpace
from .workload import (
    SyntheticSpec,
    TraceFormatError,
    count_uniques,
    expand_chunks,
    generate_synthetic,
    ingest_trace,
    zipf_cumulative,
)

__version__ = "0.1.0"

__all__ = [
    "AccessOutcome", "BiDiFilter", "BiDiFilterUnited", "CascadeFilter",
    "CompiledTrace", "Demote", "FrequencySketch",
    "HIT_L1_VETERANS", "HIT_L1_WINDOW", "HIT_L2", "KINDS",
    "LatencyParams", "LruSpace", "MISS", "NaiveLRU", "PolicySpec",
    "Promote", "RESULT_FIELDS", "ResultRow", "SimStats", "SketchConfig",
    "SlruSpace", "SweepSpec", "SyntheticSpec", "TraceFormatError",
    "avg_read_latency", "avg_rw_latency", "compile_trace",
    "count_uniques", "derive_seed", "expand_chunks", "generate_synthetic",
    "hit_at_level", "hit_ratio", "ingest_trace",
    "level_capacities_for", "lru_profile", "make_policy", "mix64", "run_single",
    "run_sweep", "trace_label", "write_rows",
    "write_rows_csv", "write_rows_jsonl", "zipf_cumulative",
]
