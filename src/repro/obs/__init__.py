"""Observability: structured run traces, streaming statistics, reports.

The engine is instrumented once, at the :class:`~repro.runtime.metrics.
MetricsCollector` seam every backend already feeds, so a simulated run
and a multiprocess run emit schema-identical traces (ARCHITECTURE.md
§10).  Three layers:

* :mod:`repro.obs.trace` — :class:`TraceRecorder` writes JSON-lines span
  events (run / epoch / superstep / per-worker phase / exchange round /
  checkpoint / failure / recovery) with parent/child span ids;
  :func:`load_trace` reads them back.
* :mod:`repro.obs.stats` — streaming statistics over per-superstep
  timing series: EWMA baselines, drift detection and per-worker
  straggler/skew scores.
* :mod:`repro.obs.report` — turns a trace file into phase breakdowns,
  straggler reports, and flagged anomalies (the ``repro report``
  subcommand); :mod:`repro.obs.chrome` exports the same trace as a
  ``chrome://tracing`` / Perfetto timeline.
* :mod:`repro.obs.live` + :mod:`repro.obs.export` — the *in-flight*
  plane (ARCHITECTURE.md §11): a shared-memory segment of per-worker
  seqlock'd slots each backend publishes every superstep, the online
  :class:`LiveMonitor` that flags stragglers/anomalies during the run,
  and the exporters over it — Prometheus text via ``--metrics-port``
  and the ``repro top`` table.
"""

from repro.obs.chrome import chrome_trace_events, export_chrome_trace
from repro.obs.export import (
    MetricsHTTPServer,
    format_table,
    format_top,
    prometheus_text,
)
from repro.obs.live import (
    LIVE_COUNTERS,
    LIVE_GAUGES,
    LiveMetrics,
    LiveMonitor,
    LiveSlotWriter,
    read_proc_stats,
)
from repro.obs.report import TraceReport, validate_trace
from repro.obs.stats import (
    EwmaBaseline,
    detect_drift,
    ewma,
    straggler_scores,
)
from repro.obs.trace import SPAN_KINDS, TraceRecorder, load_trace

__all__ = [
    "TraceRecorder",
    "load_trace",
    "SPAN_KINDS",
    "TraceReport",
    "validate_trace",
    "chrome_trace_events",
    "export_chrome_trace",
    "ewma",
    "detect_drift",
    "straggler_scores",
    "EwmaBaseline",
    "LIVE_COUNTERS",
    "LIVE_GAUGES",
    "LiveMetrics",
    "LiveMonitor",
    "LiveSlotWriter",
    "read_proc_stats",
    "MetricsHTTPServer",
    "format_table",
    "format_top",
    "prometheus_text",
]
