"""Cross-engine observability: JSONL tracing and sample digests.

``repro.obs`` is the shared instrumentation layer of the three
execution engines (sequential, virtual Time Warp, multiprocess Time
Warp).  It has two halves:

- :mod:`repro.obs.metrics` — percentiles and sample digests (the
  counts themselves live on the objects that make them: every
  engine's result, the job server's caches, ring pool and job table);
- :mod:`repro.obs.tracer` — a JSONL trace recorder.  Each engine emits
  structured records (per-LP rollback depth, GVT-round latency, inbox
  queue depth, per-node busy/idle breakdown); in the process backend
  every worker writes its own shard and the parent merges them into
  one file ordered by ``(wall time, node)``.

:mod:`repro.obs.causality` reconstructs rollback cascades from the
enriched records, and :mod:`repro.obs.analyze` is the one reader of a
merged trace: record-kind counts, GVT and inbox digests, cascade
forensics, committed timelines, critical path and per-node wall-time
attribution, printed by ``run --analyze``, ``tools/trace_report.py``
and ``tools/partition_report.py --forensics``, plus the
per-partitioner scorecard behind ``tools/partition_report.py``.
"""

from repro.obs.analyze import (
    analyze_trace,
    render_analysis,
    render_scorecard,
    scorecard_row,
)
from repro.obs.causality import Cascade, RollbackEvent, build_cascades
from repro.obs.metrics import summarize
from repro.obs.tracer import (
    TraceWriter,
    merge_shards,
    read_trace,
    shard_path,
)

__all__ = [
    "Cascade",
    "RollbackEvent",
    "TraceWriter",
    "analyze_trace",
    "build_cascades",
    "merge_shards",
    "read_trace",
    "render_analysis",
    "render_scorecard",
    "scorecard_row",
    "shard_path",
    "summarize",
]
