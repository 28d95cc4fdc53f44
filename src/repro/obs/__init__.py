"""Unified observability: events, traces, metrics, profiles, exports, SLOs.

Building blocks shared by training, serving and the autograd engine:

- :mod:`repro.obs.events` — structured event logging. ``get_logger()``
  returns the process-global logger (human stderr sink by default);
  ``configure_logging`` rewires levels, namespace filters and JSONL sinks.
- :mod:`repro.obs.tracing` — nested timed spans.
  ``with trace("epoch", epoch=i) as span: span.set(loss=...)`` is free when
  no tracer is installed and streams JSONL when one is. A
  :class:`TraceStore` merges spans from several processes into one
  ``repro.obs.trace/1`` file per distributed request.
- :mod:`repro.obs.context` — the request-scoped :class:`TraceContext`
  carried via ``contextvars`` and W3C-style ``traceparent`` headers so
  worker spans parent under the front-end request span.
- :mod:`repro.obs.drift` — :class:`DriftMonitor` measures a serving-time
  rolling window against the checkpoint's :class:`BaselineProfile` with
  PSI/KL; the SLO monitor's ``drift_psi`` rule judges it.
- :mod:`repro.obs.metrics` — named counters/gauges/histograms in a
  :class:`MetricsRegistry`; :class:`repro.serve.ServingMetrics` is a facade
  over it.
- :mod:`repro.obs.profiler` — :class:`OpProfiler` attributes wall time and
  call counts to every autograd tape op, forward and backward.
- :mod:`repro.obs.flame` — :class:`SamplingProfiler`, a 100 Hz
  background-thread stack sampler producing folded stacks tagged with
  span/op context, flamegraph SVGs, and self-time diffs between runs
  (``repro train --flame``, ``repro obs flame <run> --diff <other>``).
- :mod:`repro.obs.memory` — :class:`MemoryProfiler` attributes allocated
  bytes, peak live bytes and allocation lifetimes to tape ops, with a
  live-tensor census by shape/dtype.
- :mod:`repro.obs.export` — Prometheus text / JSON snapshot writers over a
  registry and a :class:`PeriodicExporter` background flusher.
- :mod:`repro.obs.runs` — persistent :class:`RunRegistry` of per-run JSON
  records (``results/runs/``) and :func:`diff_runs` regression gating.
- :mod:`repro.obs.slo` — rolling-window :class:`SloMonitor` emitting
  structured breach/recover events from inside the serving path.
- :mod:`repro.obs.lifecycle` — exit-time flushing for buffered writers.

CLI surface: ``repro train --trace t.jsonl --profile --profile-memory``
records a run (and a ``results/runs/`` record by default), ``repro obs
report t.jsonl [--json]`` renders it, ``repro obs diff <a> <b>`` gates two
run records, and ``repro serve http`` serves the scrape endpoint
(``/metrics``) and ``/v1/healthz`` on its own port.
"""

from .context import (
    REQUEST_ID_HEADER,
    TRACEPARENT_HEADER,
    TraceContext,
    current_context,
    extract_context,
    inject,
    new_request_id,
    new_trace_id,
    reset_context,
    set_context,
)
from .drift import (
    BASELINE_SCHEMA,
    BaselineProfile,
    DRIFT_BASELINE_FILE,
    DriftMonitor,
    bernoulli_psi,
    kl_divergence,
    load_baseline,
    psi,
)
from .events import (
    Event,
    EventLogger,
    HumanSink,
    JsonlSink,
    LEVELS,
    configure_logging,
    get_logger,
    read_events,
    reset_logging,
)
from .export import (
    PeriodicExporter,
    PROMETHEUS_CONTENT_TYPE,
    SNAPSHOT_SCHEMA,
    json_snapshot,
    parse_prometheus,
    prometheus_name,
    render_prometheus,
    write_json_snapshot,
    write_prometheus,
)
from .flame import (
    PROFILE_DIFF_SCHEMA,
    PROFILE_SCHEMA,
    Profile,
    SamplingProfiler,
    current_tags,
    diff_profiles,
    merge_profiles,
    render_diff,
    render_flamegraph_svg,
    render_top,
    tag,
    write_flamegraph,
)
from .lifecycle import flush_all, flush_at_exit, unregister_flush
from .memory import MemoryProfiler, render_memory
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    reset_registry,
)
from .profiler import OpProfiler, render_profile
from .report import (
    REPORT_SCHEMA,
    TRACE_RENDER_SCHEMA,
    aggregate_spans,
    render_spans,
    render_timeline,
    render_trace_file,
    report_to_dict,
    self_times,
    timeline_to_dict,
)
from .runs import (
    DIFF_SCHEMA,
    RUN_SCHEMA,
    RunDiff,
    RunRecord,
    RunRegistry,
    Threshold,
    config_digest,
    current_git_sha,
    default_runs_dir,
    diff_runs,
    parse_threshold_specs,
)
from .slo import SloMonitor, SloRule, SloStatus, default_serving_rules
from .tracing import (
    NULL_SPAN,
    Span,
    TRACE_SCHEMA,
    TraceStore,
    Tracer,
    get_tracer,
    install_tracer,
    new_span_id,
    read_trace,
    span_record,
    trace,
    uninstall_tracer,
)

__all__ = [
    # context
    "REQUEST_ID_HEADER",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "current_context",
    "extract_context",
    "inject",
    "new_request_id",
    "new_trace_id",
    "reset_context",
    "set_context",
    # drift
    "BASELINE_SCHEMA",
    "BaselineProfile",
    "DRIFT_BASELINE_FILE",
    "DriftMonitor",
    "bernoulli_psi",
    "kl_divergence",
    "load_baseline",
    "psi",
    # events
    "Event",
    "EventLogger",
    "HumanSink",
    "JsonlSink",
    "LEVELS",
    "configure_logging",
    "get_logger",
    "read_events",
    "reset_logging",
    # export
    "PeriodicExporter",
    "PROMETHEUS_CONTENT_TYPE",
    "SNAPSHOT_SCHEMA",
    "json_snapshot",
    "parse_prometheus",
    "prometheus_name",
    "render_prometheus",
    "write_json_snapshot",
    "write_prometheus",
    # flame
    "PROFILE_DIFF_SCHEMA",
    "PROFILE_SCHEMA",
    "Profile",
    "SamplingProfiler",
    "current_tags",
    "diff_profiles",
    "merge_profiles",
    "render_diff",
    "render_flamegraph_svg",
    "render_top",
    "tag",
    "write_flamegraph",
    # lifecycle
    "flush_all",
    "flush_at_exit",
    "unregister_flush",
    # memory
    "MemoryProfiler",
    "render_memory",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "percentile",
    "reset_registry",
    # profiler
    "OpProfiler",
    "render_profile",
    # runs
    "DIFF_SCHEMA",
    "RUN_SCHEMA",
    "RunDiff",
    "RunRecord",
    "RunRegistry",
    "Threshold",
    "config_digest",
    "current_git_sha",
    "default_runs_dir",
    "diff_runs",
    "parse_threshold_specs",
    # slo
    "SloMonitor",
    "SloRule",
    "SloStatus",
    "default_serving_rules",
    # tracing
    "NULL_SPAN",
    "Span",
    "TRACE_SCHEMA",
    "TraceStore",
    "Tracer",
    "get_tracer",
    "install_tracer",
    "new_span_id",
    "read_trace",
    "span_record",
    "trace",
    "uninstall_tracer",
    # report
    "REPORT_SCHEMA",
    "TRACE_RENDER_SCHEMA",
    "aggregate_spans",
    "render_spans",
    "render_timeline",
    "render_trace_file",
    "report_to_dict",
    "self_times",
    "timeline_to_dict",
]
