"""Span-based instrumentation across enactor, grid and cache.

The reproduction's measurement substrate: everything the paper's
analysis *reads* — job overhead, queue wait, the y-intercept/slope
decomposition of Section 5.1 — becomes first-class, correlated
telemetry instead of numbers mined post-hoc from scattered records.

Pieces (all dependency-free, all in simulated time):

* :mod:`~repro.observability.spans` — the :class:`Span` model: run →
  service invocation → grid job → job phases (submit / schedule /
  queue / run / stage-in / stage-out), retry attempts and cache
  lookups, correlated by trace/parent ids tied to token lineage;
* :mod:`~repro.observability.bus` — the pluggable
  :class:`InstrumentationBus` with an in-memory collector, a JSONL
  exporter, and a Chrome trace-event exporter (``chrome://tracing`` /
  Perfetto load the output directly);
* :mod:`~repro.observability.metrics` — the
  :class:`MetricsRegistry` of counters / gauges / histograms whose
  per-run snapshot rides on ``EnactmentResult.metrics``;
* :mod:`~repro.observability.drift` — the live model-drift reporter
  comparing each run against the Section 3.5 equations (1)-(4) and
  emitting y-intercept/slope ratio estimates;
* :mod:`~repro.observability.logbridge` — module-level loggers for the
  library, a stdout channel for the CLI, and a subscriber that narrates
  spans onto :mod:`logging`;
* :mod:`~repro.observability.critical_path` — the **observed**
  critical path reconstructed from one run's span tree: the gating
  chain of invocations whose phase-attributed durations sum exactly to
  the run makespan, plus a diff against the static
  :func:`repro.workflow.analysis.critical_path` prediction;
* :mod:`~repro.observability.timeline` — per-CE utilization and
  queue-depth step functions and a dependency-free ASCII Gantt
  renderer;
* :mod:`~repro.observability.runstore` — the append-only run-history
  store (one JSON summary per run) and the budgeted
  :func:`~repro.observability.runstore.compare` regression gate;
* :mod:`~repro.observability.health` — rolling robust statistics
  (median/MAD with a zero-variance guard) scoring every computing
  element online: straggler and blackhole detection;
* :mod:`~repro.observability.alerts` — typed :class:`Alert` records,
  threshold configuration and the streaming JSONL alert writer;
* :mod:`~repro.observability.failures` — failure-report rows rebuilt
  from an exported span stream (``kind="failed"`` / ``"poisoned"``
  invocation spans joined with per-attempt grid spans), the post-mortem
  side of the enactor's live :class:`~repro.core.failures.FailureReport`;
* :mod:`~repro.observability.monitor` — the live :class:`RunMonitor`
  subscriber: per-service progress/ETA blending the Section 3.5 model
  with the observed rate, per-CE health, the alert pipeline, and the
  health-provider hook the broker uses to demote flagged CEs;
* :mod:`~repro.observability.profiling` — host-cost attribution from
  stdlib ``cProfile`` (imported on demand by the commands that profile):
  per-function call counts or self time, collapsed-stack export and the
  per-component ``compare-runs`` regression attribution;
* :mod:`~repro.observability.dataflow` — the data plane's ledger: the
  :class:`DataFlowCollector` accounting every transfer as a typed,
  attributed record (purpose, owning service/tenant/run), per-link
  bandwidth timelines and sparklines, the deterministic DOT data-flow
  graph with strict parser, and the always-on byte counters
  (``bytes.enactor_moved`` vs ``bytes.peer_moved``,
  ``bytes.intermediate_saved_by_grouping``) behind the
  ``compare-runs --budget-bytes`` gate.

Usage::

    from repro.observability import InstrumentationBus, JsonlExporter

    bus = InstrumentationBus()
    collector = bus.collector()
    bus.subscribe(JsonlExporter("run.jsonl"))
    result = MoteurEnactor(engine, wf, config, grid=grid,
                           instrumentation=bus).run(dataset)
    result.metrics.counter("grid.jobs.submitted")   # per-run snapshot
    # then: python -m repro.experiments report-trace run.jsonl
"""

from __future__ import annotations

from repro.observability.alerts import (
    ALERT_KINDS,
    Alert,
    AlertError,
    AlertRules,
    JsonlAlertWriter,
    alert_sort_key,
    alerts_from_jsonl,
    alerts_to_jsonl,
)
from repro.observability.bus import (
    ChromeTraceExporter,
    InMemoryCollector,
    InstrumentationBus,
    JsonlExporter,
    Subscriber,
    chrome_trace_json,
)
from repro.observability.dataflow import (
    TRANSFER_PURPOSES,
    DataFlowCollector,
    DotParseError,
    TransferRecord,
    bandwidth_profile,
    dataflow_dot,
    format_dataflow_report,
    link_activity,
    parse_dot,
    sample_profile,
    sparkline,
)
from repro.observability.critical_path import (
    CriticalPathDiff,
    CriticalPathError,
    CriticalPathStep,
    ObservedCriticalPath,
    diff_against_static,
    observed_critical_path,
)
from repro.observability.drift import (
    DriftError,
    DriftReport,
    drift_report,
    drift_report_from_trace,
    overhead_by_job_from_records,
    overhead_by_job_from_spans,
    policy_key,
    time_matrix,
)
from repro.observability.durability import (
    DurabilityReport,
    DurabilityReportError,
    build_durability_report,
    format_durability_report,
    parse_durability_report,
)
from repro.observability.failures import failure_rows_from_spans, failure_summary
from repro.observability.health import (
    CEHealth,
    FleetHealth,
    HealthThresholds,
    RobustStats,
    RollingSample,
    robust_stats,
    robust_z,
)
from repro.observability.logbridge import LoggingSubscriber, cli_logger, get_logger
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.observability.monitor import HealthProvider, RunMonitor, ServiceProgress
from repro.observability.runstore import (
    Budgets,
    Regression,
    RunComparison,
    RunStore,
    RunStoreError,
    RunSummary,
    compare,
    summarize_run,
)
from repro.observability.spans import Span, SpanError, spans_from_jsonl, spans_to_jsonl
from repro.observability.timeline import (
    ce_queue_depth,
    ce_utilization,
    render_gantt,
    step_function,
    utilization_table,
)

__all__ = [
    "Span",
    "SpanError",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "Subscriber",
    "InstrumentationBus",
    "InMemoryCollector",
    "JsonlExporter",
    "ChromeTraceExporter",
    "chrome_trace_json",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DriftError",
    "DriftReport",
    "drift_report",
    "drift_report_from_trace",
    "overhead_by_job_from_records",
    "overhead_by_job_from_spans",
    "policy_key",
    "time_matrix",
    "LoggingSubscriber",
    "cli_logger",
    "get_logger",
    "CriticalPathError",
    "CriticalPathStep",
    "CriticalPathDiff",
    "ObservedCriticalPath",
    "observed_critical_path",
    "diff_against_static",
    "step_function",
    "ce_utilization",
    "ce_queue_depth",
    "utilization_table",
    "render_gantt",
    "RunStoreError",
    "RunSummary",
    "RunStore",
    "Budgets",
    "Regression",
    "RunComparison",
    "summarize_run",
    "compare",
    "RobustStats",
    "robust_stats",
    "robust_z",
    "RollingSample",
    "HealthThresholds",
    "CEHealth",
    "FleetHealth",
    "ALERT_KINDS",
    "Alert",
    "AlertError",
    "AlertRules",
    "JsonlAlertWriter",
    "alert_sort_key",
    "alerts_to_jsonl",
    "alerts_from_jsonl",
    "HealthProvider",
    "RunMonitor",
    "ServiceProgress",
    "failure_rows_from_spans",
    "failure_summary",
    "DurabilityReport",
    "DurabilityReportError",
    "build_durability_report",
    "format_durability_report",
    "parse_durability_report",
    "TRANSFER_PURPOSES",
    "TransferRecord",
    "DataFlowCollector",
    "dataflow_dot",
    "parse_dot",
    "DotParseError",
    "link_activity",
    "bandwidth_profile",
    "sample_profile",
    "sparkline",
    "format_dataflow_report",
]
