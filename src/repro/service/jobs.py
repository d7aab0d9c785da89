"""Job model for the campaign service: states, events, records.

One **job** is one submitted :class:`~repro.spec.schema.ExperimentSpec`
document, identified by its :func:`~repro.spec.loader.spec_hash`.  The
state machine is deliberately small::

    queued ──> running ──> done
                     └───> failed

``queued``
    Admitted and waiting in the fair-share queue.
``running``
    Executing on a worker task: one in-process campaign, stepped on the
    event loop a replication at a time, which keeps every job
    bit-identical to a serial ``pckpt run --spec``.
``done`` / ``failed``
    Terminal.  ``done`` jobs serve their result set from
    ``GET /v1/jobs/<id>/result``; ``failed`` jobs carry ``error``.

A :class:`Job` lives in the server's job table only while it is queued
or running.  Its admission entry (:data:`JOB_ENTRY_FIELDS`), its events,
its job record at dispatch and at the end, and its result index
(:data:`JOB_CELLS_FIELDS`) are lines of the service journal
(:mod:`repro.obs.journal`); once the terminal record is there, the
server drops the job and answers for it from those lines.

Every observable change appends one **event** to the job's history —
the NDJSON records ``GET /v1/jobs/<id>/events`` streams.  Event kinds:
the four state entries plus ``telemetry`` (one per campaign-progress
snapshot, recorded live by the job's campaign).  Each event is
serialized once, to the line the job keeps; the journal and every
stream reader write those same bytes.

The declarative tables below (:data:`JOB_STATES`,
:data:`JOB_TRANSITIONS`, :data:`EVENT_KINDS`, :data:`JOB_FIELDS`,
:data:`EVENT_FIELDS`, :data:`JOB_CELLS_FIELDS`, :data:`JOB_ENTRY_FIELDS`)
are the single source of truth shared with ``docs/SERVICE.md`` and
``tools/check_schemas.py``, following the ``SNAPSHOT_FIELDS``
convention of :mod:`repro.obs.telemetry`.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "JOB_KIND",
    "JOB_EVENT_KIND",
    "JOB_RESULT_KIND",
    "JOB_CELLS_KIND",
    "JOB_ENTRY_KIND",
    "SERVICE_STATUS_KIND",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JOB_TRANSITIONS",
    "EVENT_KINDS",
    "JOB_FIELDS",
    "EVENT_FIELDS",
    "JOB_CELLS_FIELDS",
    "JOB_ENTRY_FIELDS",
    "Job",
]

#: Schema version stamped on every record the service emits (job
#: records, NDJSON events, result payloads, status).  Bump on any
#: incompatible layout change.  Version 2 added the nullable
#: ``trace_id`` request-correlation field to job records and events.
SERVICE_SCHEMA_VERSION: int = 2

#: Record discriminators, mirroring the bench/telemetry convention.
JOB_KIND: str = "pckpt-job"
JOB_EVENT_KIND: str = "pckpt-job-event"
JOB_RESULT_KIND: str = "pckpt-job-result"
JOB_CELLS_KIND: str = "pckpt-job-cells"
JOB_ENTRY_KIND: str = "pckpt-job-entry"
SERVICE_STATUS_KIND: str = "pckpt-service-status"

#: Every state a job can be in, in lifecycle order.
JOB_STATES: Tuple[str, ...] = ("queued", "running", "done", "failed")

#: States with no outgoing transition.
TERMINAL_STATES: Tuple[str, ...] = ("done", "failed")

#: The legal state machine: state -> admissible successor states.
JOB_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "queued": ("running",),
    "running": ("done", "failed"),
}

#: Event kinds on the NDJSON stream: one per state entry, plus a
#: ``telemetry`` event per campaign-progress snapshot.
EVENT_KINDS: Tuple[str, ...] = (
    "queued", "running", "telemetry", "done", "failed",
)

#: Job-record fields: ``{name: (type, nullable)}`` — the shape of
#: ``GET /v1/jobs/<id>`` and of every entry in ``GET /v1/jobs``.
JOB_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "id": (str, False),
    "tenant": (str, False),
    "state": (str, False),
    "trace_id": (str, True),
    "spec_hash": (str, False),
    "spec_name": (str, True),
    "cells": (int, False),
    "replications": (int, False),
    "submitted_at": (float, False),
    "started_at": (float, True),
    "finished_at": (float, True),
    "error": (str, True),
    "replications_executed": (int, True),
    "cache_hit_rate": (float, True),
    "events": (int, False),
}

#: NDJSON event fields: ``{name: (type, nullable)}``.  ``data`` carries
#: the event payload: the full telemetry snapshot for ``telemetry``
#: events, the completion summary for ``done``, the error for
#: ``failed``, null otherwise.
EVENT_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "job_id": (str, False),
    "trace_id": (str, True),
    "seq": (int, False),
    "ts": (float, False),
    "event": (str, False),
    "state": (str, False),
    "data": (dict, True),
}

#: Result-index fields: ``{name: (type, nullable)}``.  A done job's
#: result set, by reference, as its worker appends it to the journal:
#: ``cells`` holds one ``{"key": [...], "store_key": "<hex>"}`` per grid
#: cell, in grid order, and ``GET /v1/jobs/<id>/result`` reads the store
#: entry each one names.
JOB_CELLS_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "job_id": (str, False),
    "spec_hash": (str, False),
    "cells": (list, False),
}

#: Admission-entry fields: ``{name: (type, nullable)}``.  What a
#: restarted serve needs to re-enqueue a job that was still waiting:
#: ``trace`` holds the ``trace_id``/``span_id``/``parent_id`` the job
#: runs under, ``spec`` the validated document (``spec_to_dict``).  The
#: server appends it with the job's ``queued`` event, just before it.
JOB_ENTRY_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "id": (str, False),
    "tenant": (str, False),
    "submitted_at": (float, False),
    "trace": (dict, False),
    "spec": (dict, False),
}


class Job:
    """In-memory job: spec + state + event history.

    All mutation happens on the server's event loop thread, the job's
    campaign included (it runs there a replication per step), so no
    lock is needed; streaming readers wake on :attr:`turnstile`, an
    ``asyncio.Event`` rotated on every append.
    """

    def __init__(self, job_id: str, tenant: str, spec,
                 spec_hash: str, cells: int,
                 submitted_at: Optional[float] = None,
                 trace=None, campaign: Sequence = ()) -> None:
        self.id = job_id
        self.tenant = tenant
        self.spec = spec                      # validated ExperimentSpec
        self.spec_hash = spec_hash
        self.cells = int(cells)
        #: The campaign cells the job runs, built once at admission.
        self.campaign = campaign
        #: :class:`~repro.obs.context.TraceContext` naming the request
        #: that created this job (``None`` only for legacy callers; the
        #: server always mints one when no header is supplied).
        self.trace = trace
        self.state = "queued"
        self.submitted_at = (time.time() if submitted_at is None
                             else float(submitted_at))
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.replications_executed: Optional[int] = None
        self.cache_hit_rate: Optional[float] = None
        #: The event history: one newline-terminated NDJSON line per
        #: event, the only copy the job keeps (:attr:`events` parses it).
        self.lines: List[bytes] = []
        #: Where each event line after the first is also appended (set
        #: by the server at admission; ``None`` keeps events in memory).
        self.sink: Optional[Callable[[bytes], Any]] = None
        self.turnstile: Any = None            # asyncio.Event, set by server
        self.record_event("queued")

    # -- identity ------------------------------------------------------------
    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.trace_id if self.trace is not None else None

    # -- state machine -------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: str,
                   data: Optional[Dict[str, Any]] = None) -> None:
        """Move to *state* (validated against :data:`JOB_TRANSITIONS`)."""
        allowed = JOB_TRANSITIONS.get(self.state, ())
        if state not in allowed:
            raise ValueError(
                f"job {self.id}: illegal transition "
                f"{self.state!r} -> {state!r} (allowed: {list(allowed)})"
            )
        self.state = state
        now = time.time()
        if state == "running":
            self.started_at = now
        if state in TERMINAL_STATES:
            self.finished_at = now
        self.record_event(state, data)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The event history as records, parsed from :attr:`lines`."""
        return [json.loads(line) for line in self.lines]

    def record_event(self, event: str,
                     data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Append one event, pass it to the sink, wake stream readers.

        The server's sink appends the line to the journal and flushes
        it before this returns, which keeps the on-disk stream live for
        ``pckpt obs stitch`` even if the service later dies uncleanly.
        """
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {event!r}")
        record = {
            "kind": JOB_EVENT_KIND,
            "schema_version": SERVICE_SCHEMA_VERSION,
            "job_id": self.id,
            "trace_id": self.trace_id,
            "seq": len(self.lines),
            "ts": time.time(),
            "event": event,
            "state": self.state,
            "data": data,
        }
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        self.lines.append(line)
        if self.sink is not None:
            self.sink(line)
        turnstile = self.turnstile
        if turnstile is not None:
            # Rotate: wake everyone blocked on the old event, give new
            # waiters a fresh one.
            self.turnstile = asyncio.Event()
            turnstile.set()
        return record

    # -- serialization -------------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        """The job as a :data:`JOB_FIELDS`-shaped JSON-ready dict."""
        return {
            "kind": JOB_KIND,
            "schema_version": SERVICE_SCHEMA_VERSION,
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "trace_id": self.trace_id,
            "spec_hash": self.spec_hash,
            "spec_name": self.spec.name,
            "cells": self.cells,
            "replications": self.cells * self.spec.replications,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "replications_executed": self.replications_executed,
            "cache_hit_rate": self.cache_hit_rate,
            "events": len(self.lines),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Job {self.id} tenant={self.tenant} state={self.state} "
                f"hash={self.spec_hash[:12]}>")
