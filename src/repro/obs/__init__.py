"""Deep observability: timelines, telemetry, tracing, SLOs.

Coordinated layers over the tracing/metrics substrate of
:mod:`repro.des` (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.timeline` — failure→action causal chains stitched
  from provenance-annotated trace records (``pckpt timeline``);
* :mod:`repro.obs.telemetry` — streaming campaign snapshots with an
  OpenMetrics exposition (``pckpt top``);
* :mod:`repro.obs.context` — cross-layer trace-context propagation
  (``X-Pckpt-Trace`` → job → campaign → kernel spans);
* :mod:`repro.obs.stitch` — multi-process fragments of one trace id
  reassembled into a single Chrome trace (``pckpt obs stitch``);
* :mod:`repro.obs.slo` — per-tenant latency/error/cache SLOs with
  burn-rate grading (``pckpt obs slo``, labeled ``/metrics`` series);
* :mod:`repro.obs.gantt` — schedule Gantt/occupancy exports over the
  batch-queue engine's placement records (``pckpt sched gantt``);
* :mod:`repro.obs.records` — :func:`~repro.obs.records.check_record`,
  the one checker of a JSON record against a declared field table.

Everything importable here is stdlib-only; numpy-backed layers are
reached lazily (``repro.obs.gantt.run_gantt`` imports the scheduler at
call time), so the observability plane costs nothing when disabled.
"""

from .context import (SPAN_FIELDS, SPAN_KIND, SPAN_SCHEMA_VERSION,
                      TRACE_HEADER, SpanWriter, TraceContext, activate,
                      current, format_trace_header, mint_context,
                      parse_trace_header, trace_fragment_dir)
from .gantt import (GANTT_FIELDS, GANTT_KIND, GANTT_ROW_FIELDS,
                    GANTT_SCHEMA_VERSION, build_gantt, format_gantt,
                    gantt_to_chrome, run_gantt)
from .slo import (DEFAULT_WINDOW_SECONDS, SLO_FIELDS, SLO_KIND,
                  SLO_SCHEMA_VERSION, SLO_STATUSES, SLOObjectives,
                  compute_slo, format_slo, load_job_records,
                  render_slo_metrics)
from .stitch import collect_trace, list_traces, resolve_job_trace, \
    stitch_chrome
from .telemetry import (OBS_SCHEMA_VERSION, OPENMETRICS_CONTENT_TYPE,
                        TELEMETRY_FILENAME, TELEMETRY_KIND,
                        CampaignTelemetry, format_top, latest_snapshot,
                        read_telemetry, render_openmetrics)
from .timeline import (TIMELINE_CHAIN_KINDS, TIMELINE_KIND,
                       TIMELINE_SCHEMA_VERSION, CausalChain,
                       extract_timelines, format_timelines,
                       timelines_to_jsonl)

__all__ = [
    "CausalChain",
    "TIMELINE_CHAIN_KINDS",
    "TIMELINE_KIND",
    "TIMELINE_SCHEMA_VERSION",
    "extract_timelines",
    "format_timelines",
    "timelines_to_jsonl",
    "CampaignTelemetry",
    "OBS_SCHEMA_VERSION",
    "OPENMETRICS_CONTENT_TYPE",
    "TELEMETRY_FILENAME",
    "TELEMETRY_KIND",
    "format_top",
    "latest_snapshot",
    "read_telemetry",
    "render_openmetrics",
    "TraceContext",
    "SPAN_FIELDS",
    "SPAN_KIND",
    "SPAN_SCHEMA_VERSION",
    "TRACE_HEADER",
    "SpanWriter",
    "activate",
    "current",
    "format_trace_header",
    "mint_context",
    "parse_trace_header",
    "trace_fragment_dir",
    "collect_trace",
    "list_traces",
    "resolve_job_trace",
    "stitch_chrome",
    "SLOObjectives",
    "SLO_FIELDS",
    "SLO_KIND",
    "SLO_SCHEMA_VERSION",
    "SLO_STATUSES",
    "DEFAULT_WINDOW_SECONDS",
    "compute_slo",
    "format_slo",
    "load_job_records",
    "render_slo_metrics",
    "GANTT_FIELDS",
    "GANTT_KIND",
    "GANTT_ROW_FIELDS",
    "GANTT_SCHEMA_VERSION",
    "build_gantt",
    "format_gantt",
    "gantt_to_chrome",
    "run_gantt",
]
