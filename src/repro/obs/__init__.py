"""Post-hoc observability: tracing, metrics, phase spans, reports.

Every artifact is written during a run and read after it; nothing is
served live.  The pieces compose with the fork-based parallel runner:

- :mod:`repro.obs.trace` — schema-versioned per-document JSONL attack
  traces (``TraceRecorder`` / ``DocumentTrace``), sampled via
  ``trace_every_n``;
- :mod:`repro.obs.registry` — ``MetricsRegistry``, the one metrics
  type: counters, gauges, mergeable latency histograms and nestable phase
  spans (tokenize / candidate-gen / forward / greedy-select / lm-filter),
  picklable across pool workers;
- :mod:`repro.obs.report` — ``metrics.json`` + ``failures.jsonl``
  writers and the markdown run report behind
  ``python -m repro.experiments report <run_dir>``;
- :mod:`repro.obs.compare` — run-to-run regression comparison with
  relative-tolerance gates behind
  ``python -m repro.experiments compare <run_a> <run_b>``.
"""

from repro.obs.compare import (
    DEFAULT_REL_TOL,
    MetricDelta,
    RunComparison,
    compare_runs,
    metric_direction,
    render_compare_report,
    summarize_run_dir,
)
from repro.obs.registry import Histogram, MetricsRegistry, default_latency_bounds
from repro.obs.report import (
    FAILURES_FILENAME,
    METRICS_FILENAME,
    append_failure,
    load_failures,
    load_run_metrics,
    render_phase_table,
    render_report,
    write_run_metrics,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    DocumentTrace,
    TraceRecorder,
    TraceSchemaError,
    iter_trace_files,
    read_trace,
    validate_run_dir,
    validate_trace_line,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "DocumentTrace",
    "TraceSchemaError",
    "read_trace",
    "iter_trace_files",
    "validate_trace_line",
    "validate_run_dir",
    "Histogram",
    "MetricsRegistry",
    "default_latency_bounds",
    "METRICS_FILENAME",
    "FAILURES_FILENAME",
    "write_run_metrics",
    "append_failure",
    "load_run_metrics",
    "load_failures",
    "render_report",
    "render_phase_table",
    "DEFAULT_REL_TOL",
    "MetricDelta",
    "RunComparison",
    "compare_runs",
    "metric_direction",
    "render_compare_report",
    "summarize_run_dir",
]
