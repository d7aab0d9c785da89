"""Stitch one request's cross-process fragments into a Chrome trace.

A traced request leaves records in up to three places under the store,
written by different layers (and as many processes as the campaign pool
used):

* **the service journal** — ``<store>/service/journal/``
  (:mod:`repro.obs.journal`): a service job's lifecycle and bridged
  telemetry events (:mod:`repro.service.jobs`), each stamped with the
  job's ``trace_id``, and the spans of the serve's own process: the
  ``request`` root span, the campaign's ``campaign.run`` span and one
  ``kernel.run`` span per replication it ran in process;
* **span fragments** — ``<store>/obs/trace/<trace_id>/*.jsonl``
  (:mod:`repro.obs.context`): the spans of pool workers in other
  processes and of campaigns run outside the service;
* **the store's telemetry feed** — ``<store>/telemetry.jsonl``
  (:mod:`repro.obs.telemetry`), snapshots stamped likewise.

:func:`collect_trace` gathers everything for one ``trace_id``;
:func:`stitch_chrome` lays it out as one Chrome-trace JSON file
(`Trace Event Format`) loadable in Perfetto / ``chrome://tracing``:
**one pid per process/role** (the fragment ``source``), the service
request as the root span, job lifecycle as instants on the request's
track, and bridged telemetry as counter tracks.  All timestamps are
wall-clock epoch seconds rebased to the earliest event — the one
timebase every process shares.

``pckpt obs stitch <store> --trace-id T`` (or ``--job J``, which
resolves the job's trace id first) is the CLI face of this module.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Dict, List, Optional, Union

from .context import SPAN_KIND, read_spans, trace_fragment_dir
from .journal import read_journal
from .telemetry import TELEMETRY_FILENAME, read_telemetry

__all__ = [
    "collect_trace",
    "resolve_job_trace",
    "stitch_chrome",
    "list_traces",
]


#: Record kinds of the service journal read here (importing them from
#: ``repro.service.jobs`` would load the server with this package).
_JOB_KIND = "pckpt-job"
_EVENT_KIND = "pckpt-job-event"


def list_traces(store_root: Union[str, Path]) -> List[str]:
    """Trace ids with at least one span under *store_root*."""
    base = Path(store_root) / "obs" / "trace"
    traces = {record["trace_id"] for record in read_journal(store_root)
              if record.get("kind") == SPAN_KIND}
    if base.is_dir():
        traces.update(entry.name for entry in base.iterdir()
                      if entry.is_dir() and any(entry.glob("*.jsonl")))
    return sorted(traces)


def resolve_job_trace(store_root: Union[str, Path],
                      job_id: str) -> Optional[str]:
    """The ``trace_id`` of a journaled service job, or ``None``."""
    trace_id = None
    for record in read_journal(store_root):
        if record.get("kind") == _JOB_KIND and record.get("id") == job_id:
            trace_id = record.get("trace_id")
    return trace_id if isinstance(trace_id, str) else None


def collect_trace(store_root: Union[str, Path],
                  trace_id: str) -> Dict[str, object]:
    """Everything recorded for *trace_id* under *store_root*.

    Returns ``{"trace_id", "spans", "events", "telemetry"}`` — spans
    from the journal and the fragment files (ordered by start time),
    job events and telemetry snapshots filtered to the trace.  A job's
    telemetry snapshots are the ``data`` of its ``telemetry`` events.
    """
    store_root = Path(store_root)
    spans: List[Dict[str, object]] = []
    events: List[Dict[str, object]] = []
    telemetry: List[Dict[str, object]] = []
    for record in read_journal(store_root):
        if record.get("trace_id") != trace_id:
            continue
        if record.get("kind") == SPAN_KIND:
            spans.append(record)
        elif record.get("kind") == _EVENT_KIND:
            events.append(record)
            if record.get("event") == "telemetry":
                telemetry.append(record.get("data"))
    frag_dir = trace_fragment_dir(store_root, trace_id)
    if frag_dir.is_dir():
        for path in sorted(frag_dir.glob("*.jsonl")):
            for record in read_spans(path):
                if record.get("trace_id") == trace_id:
                    spans.append(record)
    spans.sort(key=lambda rec: (rec.get("t0") or 0.0))
    feed = store_root / TELEMETRY_FILENAME
    for record in read_telemetry(feed) if feed.exists() else ():
        if record.get("trace_id") == trace_id:
            telemetry.append(record)
    return {
        "trace_id": trace_id,
        "spans": spans,
        "events": events,
        "telemetry": telemetry,
    }


def stitch_chrome(collection: Dict[str, object],
                  path_or_fp: Union[str, os.PathLike, IO[str]],
                  time_scale: float = 1e6) -> int:
    """Write *collection* as one Chrome-trace JSON file.

    One pid per fragment ``source`` (the ``request`` span's source gets
    pid 1 and sorts first); job-lifecycle events ride the owning job's
    request track as instants; bridged telemetry becomes Chrome counter
    tracks.  Returns the number of trace events written.
    """
    trace_id = str(collection.get("trace_id", ""))
    spans = list(collection.get("spans") or [])
    events = list(collection.get("events") or [])
    telemetry_events = [
        record for record in events if record.get("event") == "telemetry"
    ]

    stamps = [float(rec["t0"]) for rec in spans if rec.get("t0") is not None]
    stamps += [float(rec["ts"]) for rec in events if rec.get("ts") is not None]
    base = min(stamps) if stamps else 0.0

    def rel(t: float) -> float:
        return (float(t) - base) * time_scale

    # pid per source; the root request's source first.
    sources: List[str] = []
    root_sources = [
        str(rec.get("source")) for rec in spans
        if rec.get("name") == "request"
    ]
    for name in root_sources:
        if name not in sources:
            sources.append(name)
    for rec in spans:
        name = str(rec.get("source"))
        if name not in sources:
            sources.append(name)
    for rec in events:
        name = f"service/{rec.get('job_id')}"
        if name not in sources:
            sources.append(name)
    pids = {name: i + 1 for i, name in enumerate(sources)}

    out: List[Dict[str, object]] = []
    for name, pid in pids.items():
        out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": name}})
        out.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                    "tid": 0, "args": {"sort_index": pid}})

    for rec in spans:
        pid = pids[str(rec.get("source"))]
        args = dict(rec.get("args") or {})
        args.update({"trace_id": trace_id, "span_id": rec.get("span_id"),
                     "parent_id": rec.get("parent_id")})
        event: Dict[str, object] = {
            "name": rec.get("name"),
            "cat": "span",
            "pid": pid,
            "tid": 1,
            "ts": rel(rec["t0"]),
            "args": args,
        }
        if rec.get("ph") == "X" and rec.get("t1") is not None:
            event["ph"] = "X"
            event["dur"] = max(rel(rec["t1"]) - rel(rec["t0"]), 0.0)
        else:
            event["ph"] = "i"
            event["s"] = "p"
        out.append(event)

    for rec in events:
        if rec.get("event") == "telemetry":
            continue  # rendered as counters below
        pid = pids[f"service/{rec.get('job_id')}"]
        out.append({
            "name": f"job.{rec.get('event')}",
            "cat": "service",
            "ph": "i",
            "s": "p",
            "pid": pid,
            "tid": 1,
            "ts": rel(rec["ts"]),
            "args": {"trace_id": trace_id, "job_id": rec.get("job_id"),
                     "state": rec.get("state"), "seq": rec.get("seq")},
        })

    for rec in telemetry_events:
        data = rec.get("data") or {}
        if not isinstance(data, dict):
            continue
        pid = pids[f"service/{rec.get('job_id')}"]
        out.append({
            "name": "campaign.progress",
            "cat": "telemetry",
            "ph": "C",
            "pid": pid,
            "tid": 1,
            "ts": rel(rec["ts"]),
            "args": {
                "cells_done": data.get("cells_done", 0),
                "replications_executed":
                    data.get("replications_executed", 0),
                "replications_cached": data.get("replications_cached", 0),
            },
        })

    payload = {
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id, "time_scale": time_scale,
                      "base_epoch_seconds": base},
        "traceEvents": out,
    }
    if hasattr(path_or_fp, "write"):
        json.dump(payload, path_or_fp)  # type: ignore[arg-type]
    else:
        with open(os.fspath(path_or_fp), "w", encoding="utf-8") as fp:
            json.dump(payload, fp)
    return len(out)
