"""The campaign service: an asyncio HTTP job-queue server.

``pckpt serve --store DIR --jobs N --port P`` turns the campaign engine
into a shared, multi-tenant facility.  One process owns one
content-addressed :class:`~repro.campaign.store.ResultStore`; many
clients submit canonical :class:`~repro.spec.schema.ExperimentSpec`
documents over HTTP and stream progress back.  Identical work is never
done twice:

* **in-flight dedup** — a submission whose
  :func:`~repro.spec.loader.spec_hash` matches a queued or running job
  coalesces onto it (any tenant; the response carries
  ``"deduped": true`` and the original job's record);
* **completed-work dedup** — every job runs the campaign scheduler
  with ``resume=True`` against the shared store, so cells another job
  (or a local ``pckpt run --store``) already computed are served from
  cache by :func:`~repro.campaign.plan.content_key` and execute zero
  replications.

Scheduling is **fair-share**, not FIFO: admitted jobs wait in
per-tenant lanes and a weighted round-robin dispatcher feeds ``--jobs``
worker tasks (:mod:`repro.service.queue`).  Admission is bounded —
``429`` + ``Retry-After`` once ``queue_limit`` jobs wait.

Everything runs on one thread, the event loop's.  A worker task steps
its job's campaign one replication at a time
(:func:`~repro.campaign.scheduler.campaign_steps`, ``workers=1``) and
yields to the loop between steps, so running jobs interleave with each
other and with every request, and no request waits behind more than one
replication.  The simulation is pure Python under one interpreter lock,
so job threads would add lock handoffs, not parallelism.  In-process
execution keeps every result set **bit-identical** to a local ``pckpt
run --spec`` of the same document.

Transport is deliberately minimal: HTTP/1.1 over ``asyncio`` streams,
``Connection: close``, JSON bodies, NDJSON event streaming — stdlib
only.  Endpoints (full reference in ``docs/SERVICE.md``)::

    POST /v1/jobs                submit a spec          -> job record
    GET  /v1/jobs                list jobs, one page (?after=<id>&limit=<n>)
    GET  /v1/jobs/<id>           one job record
    GET  /v1/jobs/<id>/events    NDJSON event stream (live until terminal)
    GET  /v1/jobs/<id>/result    per-cell SimulationResults (done jobs)
    GET  /v1/status              service + campaign-store status
    GET  /metrics                OpenMetrics exposition
    POST /v1/shutdown            graceful drain + exit

The serve's one state file is an append-only journal,
``<store>/service/journal/`` (:mod:`repro.obs.journal`).  A job creates
no file but its store entries: its admission entry, events, job
records, result index and spans are lines of the journal.  A restarted
``pckpt serve`` replays it once and re-enqueues every job that was
admitted and not dispatched — combined with store-level resume, an
interrupted service loses no completed cell.

Memory holds what is live, not every job ever run.  The job table
(:attr:`PckptService.jobs`) keeps queued and running jobs; a job leaves
it once its terminal record is in the journal, and the server answers
for it from its journal lines (located by :class:`_JobIndex`) and the
store entries its result index names, with the bytes the live job would
have produced.  Status and metrics read running counts and a
window-trimmed list of compact terminal records.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import re
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..campaign.progress import CampaignProgress
from ..campaign.scheduler import campaign_steps
# Not called here: benchmarks/e2e/layers.py wraps the campaign layer at
# this name, and a wrapper whose target is gone reports its metrics null.
from ..campaign.scheduler import run_campaign  # noqa: F401
from ..campaign.store import ResultStore, status_payload
from ..des.metrics import MetricsRegistry
from ..obs.context import (SpanWriter, TraceContext, activate,
                           mint_context, parse_trace_header)
from ..obs.journal import Journal, journal_dir
from ..obs.slo import (DEFAULT_WINDOW_SECONDS, SLOObjectives, compute_slo,
                       render_slo_metrics)
from ..obs.telemetry import OPENMETRICS_CONTENT_TYPE, CampaignTelemetry
from ..spec import (SpecError, build_cells, spec_from_dict, spec_hash,
                    spec_to_dict)
from .jobs import (
    JOB_CELLS_KIND,
    JOB_ENTRY_KIND,
    JOB_EVENT_KIND,
    JOB_KIND,
    JOB_RESULT_KIND,
    JOB_STATES,
    SERVICE_SCHEMA_VERSION,
    SERVICE_STATUS_KIND,
    TERMINAL_STATES,
    Job,
)
from .queue import FairShareQueue, QueueFull

__all__ = [
    "DEFAULT_PORT",
    "PckptService",
    "ServiceThread",
    "load_tokens",
    "serve",
]

#: Default TCP port for ``pckpt serve`` / the client.
DEFAULT_PORT: int = 8787

#: ``GET /v1/jobs`` page size: the default and the largest accepted.
PAGE_LIMIT: int = 100
MAX_PAGE_LIMIT: int = 1000

#: A job id, ``j<seq>-<spec-hash prefix>``; group 1 is the sequence
#: number that orders the listing (``j99999`` sorts before ``j100000``).
_JOB_ID = re.compile(r"j(\d+)-([0-9a-f]{8})\Z")

#: Bytes that pick lines out of the journal without decoding them:
#: ``sort_keys`` puts ``job_id`` and ``kind`` side by side, and a string
#: value holds no unescaped quote.  A job's events and result index:
_EVENT_OF = '"job_id": "%s", "kind": "' + JOB_EVENT_KIND + '"'
_CELLS_OF = '"job_id": "%s", "kind": "' + JOB_CELLS_KIND + '"'
#: A job's admission entry, whose first key is ``id``:
_ENTRY_OF = '{"id": "%s", "kind": "' + JOB_ENTRY_KIND + '", '
#: What a restarted serve decodes: job records and ``queued`` events.
_RECORD_MARK = b'"kind": "' + JOB_KIND.encode() + b'", '
_QUEUED_MARK = b'"event": "queued", '

#: Response head of an event stream, live or read back from disk.
_NDJSON_HEAD = (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Cache-Control: no-store\r\nConnection: close\r\n\r\n")

_MAX_BODY = 8 * 1024 * 1024  # spec documents are small; 8 MiB is generous

_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 401: "Unauthorized",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    410: "Gone", 429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _json_line(payload: Dict[str, Any]) -> bytes:
    """*payload* as the service sends and journals it."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _entry_line(job: Job) -> bytes:
    """The job's admission entry, a ``JOB_ENTRY_FIELDS`` line."""
    return _json_line({
        "kind": JOB_ENTRY_KIND,
        "schema_version": SERVICE_SCHEMA_VERSION,
        "id": job.id,
        "tenant": job.tenant,
        "submitted_at": job.submitted_at,
        "trace": {"trace_id": job.trace.trace_id,
                  "span_id": job.trace.span_id,
                  "parent_id": job.trace.parent_id},
        "spec": spec_to_dict(job.spec),
    })


def load_tokens(path: Union[str, Path]) -> Dict[str, Tuple[str, int]]:
    """Parse a tokens file into ``{token: (tenant, weight)}``.

    The file maps each bearer token to either a tenant name or an
    object ``{"tenant": ..., "weight": N}`` (weight defaults to 1)::

        {"tok-alice": "alice",
         "tok-batch": {"tenant": "batch", "weight": 4}}
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"tokens file {path} must hold a JSON object")
    out: Dict[str, Tuple[str, int]] = {}
    for token, entry in data.items():
        if isinstance(entry, str):
            out[token] = (entry, 1)
        elif isinstance(entry, dict) and isinstance(entry.get("tenant"), str):
            weight = entry.get("weight", 1)
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(
                    f"tokens file {path}: weight for {entry['tenant']!r} "
                    f"must be a positive integer, got {weight!r}"
                )
            out[token] = (entry["tenant"], weight)
        else:
            raise ValueError(
                f"tokens file {path}: entry for token {token!r} must be "
                "a tenant name or {'tenant': ..., 'weight': N}"
            )
    return out


class _FinishedJobs:
    """What the SLO rows need of this serve's finished jobs, oldest first.

    ``compute_slo`` reads six job-record fields: ``tenant``, ``state``
    and the four numbers in :attr:`NUMBERS`.  They are kept in flat
    arrays, not as a tuple of float objects per job.  Small objects
    that outlive the requests around them pin the heap pages those
    requests freed, and the process would keep growing.
    """

    #: The numeric fields, in their order within :attr:`numbers`.
    NUMBERS: Tuple[str, ...] = ("submitted_at", "started_at", "finished_at",
                                "cache_hit_rate")
    _FINISHED_AT = NUMBERS.index("finished_at")

    def __init__(self) -> None:
        self.tenants: List[str] = []
        self.failed = array("b")
        self.numbers = array("d")    # NUMBERS per job; NaN stands for null
        self.expired = 0             # leading jobs known to be out of window

    def append(self, job: Job) -> None:
        self.tenants.append(sys.intern(job.tenant))
        self.failed.append(job.state == "failed")
        for name in self.NUMBERS:
            value = getattr(job, name)
            self.numbers.append(math.nan if value is None else value)

    def trim(self, cutoff: float) -> None:
        """Forget the jobs that finished before *cutoff*.

        They are deleted once they are half the list, so a job costs
        O(1) amortized; until then :meth:`records` skips them.
        """
        width = len(self.NUMBERS)
        count = len(self.tenants)
        while self.expired < count and \
                self.numbers[self.expired * width + self._FINISHED_AT] < cutoff:
            self.expired += 1
        if self.expired and 2 * self.expired >= count:
            del self.tenants[:self.expired]
            del self.failed[:self.expired]
            del self.numbers[:self.expired * width]
            self.expired = 0

    def records(self) -> Iterator[Dict[str, Any]]:
        """The kept jobs as job records holding the six fields."""
        width = len(self.NUMBERS)
        for i in range(self.expired, len(self.tenants)):
            record: Dict[str, Any] = {
                "tenant": self.tenants[i],
                "state": "failed" if self.failed[i] else "done",
            }
            for name, value in zip(self.NUMBERS,
                                   self.numbers[i * width:(i + 1) * width]):
                record[name] = None if math.isnan(value) else value
            yield record


class _JobIndex:
    """Where each job's lines lie in the journal, in flat arrays.

    Sorted by job sequence number: the spec-hash prefix that completes
    the job's id, the offset of the ``queued`` event of its latest
    registration, and the span of its terminal record (-1 until it has
    one), the job's last line.  A job costs 32 bytes here.
    """

    def __init__(self) -> None:
        self.seqs, self.prefixes = array("I"), array("I")
        self.first, self.record, self.end = array("q"), array("q"), array("q")

    def job_id(self, i: int) -> str:
        return f"j{self.seqs[i]:05d}-{self.prefixes[i]:08x}"

    def find(self, job_id: str) -> Optional[int]:
        """The slot of *job_id*, or ``None`` if it was never registered."""
        match = _JOB_ID.match(job_id)
        i = bisect_left(self.seqs, int(match.group(1))) if match else -1
        return i if 0 <= i < len(self.seqs) and self.job_id(i) == job_id \
            else None

    def registered(self, job_id: str, offset: int) -> None:
        """*job_id*'s ``queued`` event is at *offset*: it is queued anew."""
        match = _JOB_ID.match(job_id)
        if match is None:
            return
        seq = int(match.group(1))
        i = bisect_left(self.seqs, seq)
        if i == len(self.seqs) or self.seqs[i] != seq:
            for column in (self.seqs, self.prefixes, self.first,
                           self.record, self.end):
                column.insert(i, 0)
        # A torn admission can hand an unacknowledged job's sequence
        # number to a new job: the slot then names the new one.
        self.seqs[i], self.prefixes[i] = seq, int(match.group(2), 16)
        self.first[i], self.record[i] = offset, -1

    def finished(self, job_id: str, offset: int, end: int) -> None:
        """*job_id*'s terminal record is ``[offset, end)``."""
        i = self.find(job_id)
        if i is not None:
            self.record[i], self.end[i] = offset, end


class PckptService:
    """The service: store + queue + worker tasks + HTTP front end.

    Parameters
    ----------
    store:
        Result-store directory (created if missing); the service journal
        lives under ``<store>/service/journal/``.
    jobs:
        How many jobs run at once, interleaved on the event loop one
        replication at a time.
    queue_limit:
        Maximum jobs waiting for a worker (backpressure bound).
    tokens:
        ``{token: (tenant, weight)}`` for closed-mode auth, or ``None``
        for open mode (the bearer token itself names the tenant;
        unauthenticated requests map to tenant ``"anonymous"``).
    retry_after:
        ``Retry-After`` seconds suggested on 429 responses.
    slo:
        Per-tenant :class:`~repro.obs.slo.SLOObjectives` graded on the
        ``/metrics`` exposition (default: no objectives — indicators
        are exported, burn rates stay null).
    slo_window:
        Rolling window (seconds) for the per-tenant indicators.
    """

    def __init__(self, store: Union[str, Path], jobs: int = 2,
                 queue_limit: int = 64,
                 tokens: Optional[Dict[str, Tuple[str, int]]] = None,
                 retry_after: float = 2.0,
                 slo: Optional[SLOObjectives] = None,
                 slo_window: float = DEFAULT_WINDOW_SECONDS) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.store = ResultStore(store)
        #: Every job's lines (entry, events, records, result index, spans).
        self.journal = Journal(journal_dir(self.store.root))
        self._index = _JobIndex()
        self.workers = int(jobs)
        self.tokens = tokens
        self.queue = FairShareQueue(queue_limit, retry_after)
        self.slo = slo or SLOObjectives()
        self.slo_window = float(slo_window)
        self.metrics = MetricsRegistry()
        #: The live jobs, queued or running; see :meth:`_retire`.
        self.jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}   # spec_hash -> live job
        # This serve's jobs: how many per state and per tenant, and what
        # the SLO rows need of those that finished inside the window.
        self._states: Dict[str, int] = dict.fromkeys(JOB_STATES, 0)
        self._tenants: Dict[str, int] = {}
        self._finished = _FinishedJobs()
        self._next_seq = 1
        self._started_at = time.time()
        self._closing = False
        self._stopped = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_tasks: List[asyncio.Task] = []
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = DEFAULT_PORT) -> None:
        """Restore the waiting queue, bind the listener, start workers."""
        self._loop = asyncio.get_running_loop()
        waiting = self._replay_journal()
        self.journal.open()
        for line in waiting:
            self._restore(json.loads(line))
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._worker_tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(self.workers)
        ]

    async def run(self, host: str = "127.0.0.1",
                  port: int = DEFAULT_PORT) -> None:
        """Start and serve until :meth:`shutdown` completes."""
        await self.start(host, port)
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: finish running jobs, leave waiting ones waiting.

        New submissions are refused (503) immediately; jobs already on a
        worker run to completion (their cells persist to the store
        either way); jobs still waiting stay ``queued`` in the journal,
        which holds their entries since admission, and a restarted
        service re-enqueues them.
        """
        if self._closing:
            return
        self._closing = True
        self.queue.drain()
        self.queue.close()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self.journal.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    # -- restart -------------------------------------------------------------
    def _replay_journal(self) -> List[bytes]:
        """Rebuild :attr:`_index` from the journal, in one read; returns
        the admission entries of the jobs still waiting.

        Only job records and ``queued`` events are decoded.  A torn last
        line is no line (:meth:`~repro.obs.journal.Journal.lines`), so a
        job whose terminal record was torn is not answered.  A job waits
        from its ``queued`` event to its first job record (``running``);
        its entry is the line just before that event, appended with it.
        Keyed by job id, a job restored by several serves waits once, at
        its first admission's place.
        """
        waiting: Dict[str, bytes] = {}
        previous = b""
        for offset, line in self.journal.lines():
            if _RECORD_MARK in line or _QUEUED_MARK in line:
                record = json.loads(line)
                if record.get("kind") == JOB_KIND:
                    waiting.pop(record["id"], None)
                    if record["state"] in TERMINAL_STATES:
                        self._index.finished(record["id"], offset,
                                             offset + len(line))
                elif record.get("kind") == JOB_EVENT_KIND and \
                        record["seq"] == 0:
                    job_id = record["job_id"]
                    self._index.registered(job_id, offset)
                    if previous.startswith((_ENTRY_OF % job_id).encode()):
                        waiting[job_id] = previous
            previous = line
        seqs = self._index.seqs
        self._next_seq = seqs[-1] + 1 if seqs else 1
        return list(waiting.values())

    def _restore(self, entry: Dict[str, Any]) -> None:
        """Re-enqueue a job from its admission entry, under its id."""
        spec = spec_from_dict(entry["spec"])
        trace = entry["trace"]
        job = self._register_job(
            spec, entry["tenant"], spec_hash(spec),
            submitted_at=entry["submitted_at"], job_id=entry["id"],
            trace=TraceContext(trace["trace_id"], trace["span_id"],
                               trace["parent_id"]),
        )
        self.queue.push(job)

    # -- job admission -------------------------------------------------------
    def _register_job(self, spec, tenant: str, digest: str,
                      submitted_at: Optional[float] = None,
                      job_id: Optional[str] = None,
                      trace: Optional[TraceContext] = None) -> Job:
        if job_id is None:
            job_id = f"j{self._next_seq:05d}-{digest[:8]}"
            self._next_seq += 1
        # build_cells resolves on the fly and routes sched specs to
        # build_sched_cells (a resolved experiment has no sched block).
        cells = build_cells(spec)
        job = Job(job_id, tenant, spec, digest, cells=len(cells),
                  submitted_at=submitted_at, trace=trace or mint_context(),
                  campaign=cells)
        job.turnstile = asyncio.Event()
        # The entry and the queued line now, in one append; the rest as
        # they happen.
        entry = _entry_line(job)
        offset = self.journal.append(entry + job.lines[0])
        self._index.registered(job.id, offset + len(entry))
        job.sink = self.journal.append
        self.jobs[job.id] = job
        self._inflight[digest] = job
        self._states["queued"] += 1
        self._tenants[tenant] = self._tenants.get(tenant, 0) + 1
        return job

    def submit(self, spec, tenant: str, weight: int = 1,
               trace: Optional[TraceContext] = None) -> Tuple[Job, bool]:
        """Admit *spec* for *tenant*; returns ``(job, deduped)``.

        *trace* is the request's trace context (minted when ``None``).
        A deduped submission keeps the original job's context — the
        response record names the trace that actually ran the work.
        An admitted job's journal lines are flushed before this returns.

        Raises :class:`~repro.service.queue.QueueFull` on backpressure
        and ``RuntimeError`` once the service is shutting down.
        """
        if self._closing:
            raise RuntimeError("service is shutting down")
        digest = spec_hash(spec)
        existing = self._inflight.get(digest)
        if existing is not None:
            self.metrics.counter("service.jobs.deduped").inc()
            return existing, True
        try:
            # Before registration: a refused job takes no id and writes
            # no line.
            self.queue.check_room()
        except QueueFull:
            self.metrics.counter("service.jobs.rejected").inc()
            raise
        if weight > 1:
            self.queue.set_weight(tenant, weight)
        job = self._register_job(spec, tenant, digest, trace=trace)
        self.queue.push(job)
        self.metrics.counter("service.jobs.submitted").inc()
        self.metrics.counter(f"service.tenant.{tenant}.submitted").inc()
        return job, False

    # -- execution -----------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self.queue.pop()
            if job is None:
                return
            self._transition(job, "running")
            self._persist_job(job)
            try:
                summary = await self._execute(job)
                job.replications_executed = summary["replications_executed"]
                job.cache_hit_rate = summary["cache_hit_rate"]
                self._transition(job, "done", summary)
                self.metrics.counter("service.jobs.completed").inc()
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                self._transition(job, "failed", {"error": job.error})
                self.metrics.counter("service.jobs.failed").inc()
            finally:
                self._write_request_spans(job)
                self._persist_job(job)
                self._retire(job)

    def _transition(self, job: Job, state: str,
                    data: Optional[Dict[str, Any]] = None) -> None:
        """:meth:`Job.transition`, kept in the per-state counts."""
        before = job.state
        job.transition(state, data)
        self._states[before] -= 1
        self._states[state] += 1

    def _retire(self, job: Job) -> None:
        """Drop a terminal job from memory; the journal now answers for it.

        Keeps only what the SLO rows read of it (:class:`_FinishedJobs`).
        A stream reader that was following the job keeps its own
        reference until it has sent the terminal event.
        """
        del self.jobs[job.id]
        if self._inflight.get(job.spec_hash) is job:
            del self._inflight[job.spec_hash]
        self._finished.append(job)
        self._finished.trim(job.finished_at - self.slo_window)

    def _persist_job(self, job: Job) -> None:
        """Append the job record to the journal (dispatch and terminal).

        The journaled record is what ``pckpt obs slo`` / ``pckpt obs
        stitch`` analyze after the service exits.  The terminal record
        is the job's last line: until it is whole, no serve answers for
        the job from the journal.
        """
        line = _json_line(job.to_record())
        offset = self.journal.append(line)
        if job.terminal:
            self._index.finished(job.id, offset, offset + len(line))

    def _write_request_spans(self, job: Job) -> None:
        """The service's spans of one finished job, to the journal.

        The ``request`` span (admission → terminal state) roots the
        stitched trace; ``queue.wait`` and ``execute`` children split
        it at dispatch time.
        """
        if job.trace is None or job.finished_at is None:
            return
        writer = SpanWriter(None, job.trace.trace_id, f"service/{job.id}",
                            sink=self.journal.append)
        writer.span(
            "request", job.submitted_at, job.finished_at,
            span_id=job.trace.span_id, parent_id=job.trace.parent_id,
            args={"job_id": job.id, "tenant": job.tenant,
                  "state": job.state, "spec_hash": job.spec_hash},
        )
        if job.started_at is not None:
            writer.span("queue.wait", job.submitted_at, job.started_at,
                        parent_id=job.trace.span_id)
            writer.span("execute", job.started_at, job.finished_at,
                        parent_id=job.trace.span_id,
                        args={"state": job.state})

    async def _execute(self, job: Job) -> Dict[str, Any]:
        """Run the job's campaign on the loop, one replication per step."""
        # Each stamped snapshot becomes a telemetry event, written once.
        progress = CampaignProgress(telemetry=CampaignTelemetry(
            functools.partial(job.record_event, "telemetry"),
            trace_id=job.trace_id))
        cells = job.campaign
        # workers=1: in-process execution is bit-identical to `pckpt run
        # --spec` by the campaign scheduler's determinism contract — the
        # trace context activated here only adds wall-clock span lines
        # to the journal.  It is this task's own: the jobs interleaving
        # with this one activate theirs.
        with activate(job.trace, sink=self.journal.append):
            steps = campaign_steps(cells, store=self.store, workers=1,
                                   progress=progress, resume=True)
            while True:
                # Between steps every request and job waiting for the
                # loop runs: none waits behind more than one replication.
                await asyncio.sleep(0)
                try:
                    next(steps)
                except StopIteration as stop:
                    results = stop.value
                    break
        # The result set by reference.  The terminal record, appended
        # after this, is what makes a reader trust it.
        self.journal.append(_json_line({
            "kind": JOB_CELLS_KIND,
            "schema_version": SERVICE_SCHEMA_VERSION,
            "job_id": job.id,
            "spec_hash": job.spec_hash,
            "cells": [{"key": list(cell_key), "store_key": store_key}
                      for cell_key, store_key in zip(results, progress.keys)],
        }))
        executed = int(
            progress.metrics.counter("campaign.replications.executed").value
        )
        cached = int(
            progress.metrics.counter("campaign.replications.cached").value
        )
        total = executed + cached
        return {
            "cells": len(cells),
            "replications_executed": executed,
            "replications_cached": cached,
            "cache_hit_rate": (cached / total) if total else 0.0,
        }

    # -- status / metrics ----------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The ``GET /v1/status`` body; job counts cover this serve's jobs."""
        payload = status_payload(self.store)
        return {
            "kind": SERVICE_STATUS_KIND,
            "schema_version": SERVICE_SCHEMA_VERSION,
            "uptime_seconds": time.time() - self._started_at,
            "workers": self.workers,
            "closing": self._closing,
            "queue": {
                "depth": len(self.queue),
                "limit": self.queue.limit,
                "by_tenant": self.queue.depth_by_tenant(),
            },
            "jobs": dict(self._states, total=sum(self._states.values())),
            "tenants": {tenant: {"jobs": count}
                        for tenant, count in self._tenants.items()},
            "store": payload["store"],
            "store_telemetry": payload["telemetry"],
        }

    def render_metrics(self) -> str:
        """Service-level OpenMetrics exposition (``GET /metrics``).

        Includes the per-tenant SLO series (``pckpt_tenant_*``, labeled
        by tenant) over this serve's jobs in the SLO window: the live
        jobs' records and what :class:`_FinishedJobs` keeps of the
        finished ones, in submit order as ``pckpt obs slo`` reads them
        from disk; see :mod:`repro.obs.slo`.
        """
        lines = [
            "# TYPE pckpt_service_info gauge",
            f'pckpt_service_info{{schema_version="{SERVICE_SCHEMA_VERSION}"}}'
            " 1",
            "# TYPE pckpt_service_jobs gauge",
        ]
        for state in JOB_STATES:
            lines.append(
                f'pckpt_service_jobs{{state="{state}"}} '
                f'{self._states[state]}'
            )
        for name in ("submitted", "deduped", "rejected", "completed",
                     "failed"):
            # OpenMetrics: a counter family is declared WITHOUT the
            # `_total` suffix; only the sample carries it.
            metric = f"pckpt_service_jobs_{name}"
            value = self.metrics.counter(f"service.jobs.{name}").value
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total {value:g}")
        for metric, value in (
            ("pckpt_service_queue_depth", len(self.queue)),
            ("pckpt_service_queue_limit", self.queue.limit),
            ("pckpt_service_workers", self.workers),
            ("pckpt_service_store_cells", len(self.store)),
            ("pckpt_service_uptime_seconds",
             time.time() - self._started_at),
        ):
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {float(value):g}")
        now = time.time()
        self._finished.trim(now - self.slo_window)
        records = list(self._finished.records())
        records.extend(job.to_record() for job in self.jobs.values())
        records.sort(key=lambda rec: rec["submitted_at"])
        rows = compute_slo(records, window_seconds=self.slo_window,
                           objectives=self.slo, now=now)
        lines.extend(render_slo_metrics(rows))
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    # -- HTTP front end ------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            await self._route(method, path, headers, body, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        except Exception as exc:  # defensive: one bad request != one crash
            try:
                await self._send_json(
                    writer, 500,
                    {"error": f"internal error: {type(exc).__name__}: {exc}"},
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > _MAX_BODY:
                raise ValueError("request body too large")
            body = await reader.readexactly(length)
        return method, target, headers, body

    def _tenant_for(self, headers: Dict[str, str]
                    ) -> Optional[Tuple[str, int]]:
        """``(tenant, weight)`` for the request, or ``None`` (401)."""
        auth = headers.get("authorization", "")
        token = auth[7:].strip() if auth.lower().startswith("bearer ") else ""
        if self.tokens is not None:
            return self.tokens.get(token)
        return (token, 1) if token else ("anonymous", 1)

    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     body: bytes, writer: asyncio.StreamWriter) -> None:
        path, _, query = path.partition("?")
        if path == "/metrics" and method == "GET":
            await self._send_text(
                writer, 200, self.render_metrics(),
                content_type=OPENMETRICS_CONTENT_TYPE,
            )
            return
        if path == "/v1/status" and method == "GET":
            await self._send_json(writer, 200, self.status())
            return
        if path == "/v1/shutdown" and method == "POST":
            await self._send_json(writer, 200, {"state": "draining"})
            asyncio.ensure_future(self.shutdown())
            return
        if path == "/v1/jobs" and method == "POST":
            await self._post_job(headers, body, writer)
            return
        if path == "/v1/jobs" and method == "GET":
            params = dict(part.partition("=")[::2]
                          for part in query.split("&") if part)
            try:
                limit = int(params.get("limit", PAGE_LIMIT))
                if not 1 <= limit <= MAX_PAGE_LIMIT:
                    raise ValueError(f"limit must be 1..{MAX_PAGE_LIMIT}")
                page = self._job_page(params.get("after") or None, limit)
            except ValueError as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
                return
            await self._send_json(writer, 200, page)
            return
        if path.startswith("/v1/jobs/"):
            await self._job_route(method, path, writer)
            return
        await self._send_json(writer, 404, {"error": f"no such path {path}"})

    async def _post_job(self, headers: Dict[str, str], body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        identity = self._tenant_for(headers)
        if identity is None:
            await self._send_json(
                writer, 401, {"error": "unknown or missing bearer token"}
            )
            return
        if self._closing:
            await self._send_json(
                writer, 503, {"error": "service is shutting down"}
            )
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._send_json(
                writer, 400, {"error": f"request body is not JSON: {exc}"}
            )
            return
        document = payload.get("spec", payload) \
            if isinstance(payload, dict) else payload
        trace_header = headers.get("x-pckpt-trace")
        trace: Optional[TraceContext] = None
        if trace_header:
            try:
                trace = parse_trace_header(trace_header)
            except ValueError as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
                return
        try:
            spec = spec_from_dict(document)
        except SpecError as exc:
            await self._send_json(
                writer, 400,
                {"error": "invalid spec", "problems": exc.problems},
            )
            return
        tenant, weight = identity
        try:
            job, deduped = self.submit(spec, tenant, weight, trace=trace)
        except QueueFull as exc:
            await self._send_json(
                writer, 429,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers={
                    "Retry-After": str(int(max(exc.retry_after, 1)))
                },
            )
            return
        except RuntimeError as exc:
            await self._send_json(writer, 503, {"error": str(exc)})
            return
        await self._send_json(
            writer, 200 if deduped else 201,
            {"job": job.to_record(), "deduped": deduped},
        )

    def _job_page(self, after: Optional[str] = None,
                 limit: int = PAGE_LIMIT) -> Dict[str, Any]:
        """One ``GET /v1/jobs`` page: the records of the jobs after *after*.

        Jobs are in job-sequence order, oldest first, and include the
        jobs earlier serves on this store finished.  The page covers the
        next *limit* jobs the journal registered; one with no terminal
        record that is not live either (a serve died while it ran) is
        left out.  ``next`` is the *after* of the following page,
        ``None`` on the last one.
        """
        start = 0
        if after is not None:
            match = _JOB_ID.match(after)
            if match is None:
                raise ValueError(f"after: not a job id: {after!r}")
            start = int(match.group(1))
        index = self._index
        first = bisect_right(index.seqs, start)
        stop = min(first + limit, len(index.seqs))
        records = []
        for i in range(first, stop):
            job = self.jobs.get(index.job_id(i))
            if job is not None:
                records.append(job.to_record())
            elif index.record[i] >= 0:
                records.append(json.loads(self._record_line(i)))
        return {"jobs": records,
                "next": index.job_id(stop - 1)
                if len(index.seqs) > stop else None}

    def _record_line(self, i: int) -> bytes:
        """The newest job record of index slot *i*, as journaled."""
        return self.journal.read(self._index.record[i], self._index.end[i])

    def _job_lines(self, i: int, marker: str) -> List[bytes]:
        """The lines of slot *i*'s job holding *marker* % its id."""
        index = self._index
        key = (marker % index.job_id(i)).encode("utf-8")
        data = self.journal.read(index.first[i], index.end[i])
        return [line + b"\n" for line in data.split(b"\n") if key in line]

    def _result_payload(self, i: int) -> Dict[str, Any]:
        """A done job's ``/result`` body, read back from disk.

        The job's result index names each cell's store entry, and the
        entry holds ``result_to_dict`` of the result the job computed,
        so the body is the one the job's in-memory results would give.
        Raises ``FileNotFoundError`` once an entry is gone.
        """
        index = json.loads(self._job_lines(i, _CELLS_OF)[0])
        cells = []
        for cell in index["cells"]:
            entry = json.loads(
                self.store.path_for(cell["store_key"]).read_bytes())
            cells.append({"key": cell["key"], "store_key": cell["store_key"],
                          "result": entry["result"]})
        return {
            "kind": JOB_RESULT_KIND,
            "schema_version": SERVICE_SCHEMA_VERSION,
            "job_id": index["job_id"],
            "spec_hash": index["spec_hash"],
            "cells": cells,
        }

    async def _job_route(self, method: str, path: str,
                         writer: asyncio.StreamWriter) -> None:
        parts = path.strip("/").split("/")   # v1 jobs <id> [sub]
        job_id = parts[2] if len(parts) >= 3 else ""
        job = self.jobs.get(job_id)
        slot = None if job is not None else self._index.find(job_id)
        if slot is not None and self._index.record[slot] < 0:
            slot = None      # dispatched by a serve that died: no answer
        if job is None and slot is None:
            await self._send_json(writer, 404, {"error": "no such job"})
            return
        sub = parts[3] if len(parts) == 4 else None
        if method != "GET" or len(parts) > 4:
            await self._send_json(writer, 405, {"error": "method not allowed"})
            return
        if sub not in (None, "events", "result"):
            await self._send_json(writer, 404, {"error": f"no such view {sub}"})
        elif slot is not None:
            await self._finished_view(slot, sub, writer)
        elif sub is None:
            await self._send_json(writer, 200, job.to_record())
        elif sub == "events":
            await self._stream_events(job, writer)
        else:
            await self._send_json(
                writer, 409, {"error": "job not finished", "state": job.state}
            )

    async def _finished_view(self, i: int, sub: Optional[str],
                             writer: asyncio.StreamWriter) -> None:
        """Answer for a job no longer in memory, from its journal lines."""
        line = self._record_line(i)
        if sub is None:
            await self._send_body(writer, 200, line, "application/json")
        elif sub == "events":
            writer.write(_NDJSON_HEAD
                         + b"".join(self._job_lines(i, _EVENT_OF)))
            await writer.drain()
        elif (record := json.loads(line))["state"] == "failed":
            await self._send_json(
                writer, 409,
                {"error": f"job failed: {record['error']}", "state": "failed"},
            )
        else:
            try:
                payload = self._result_payload(i)
            except FileNotFoundError:
                await self._send_json(writer, 410, {
                    "error": "the job's result cells are no longer in the "
                             "store", "state": "done"})
                return
            await self._send_json(writer, 200, payload)

    async def _stream_events(self, job: Job,
                             writer: asyncio.StreamWriter) -> None:
        """NDJSON: replay history, then follow live until terminal."""
        writer.write(_NDJSON_HEAD)
        sent = 0
        while True:
            while sent < len(job.lines):
                writer.write(job.lines[sent])
                sent += 1
            await writer.drain()
            if job.terminal and sent == len(job.lines):
                return
            turnstile = job.turnstile
            await turnstile.wait()

    # -- response helpers ----------------------------------------------------
    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: Dict[str, Any],
                         extra_headers: Optional[Dict[str, str]] = None
                         ) -> None:
        await self._send_text(
            writer, status, json.dumps(payload, sort_keys=True) + "\n",
            content_type="application/json", extra_headers=extra_headers,
        )

    async def _send_text(self, writer: asyncio.StreamWriter, status: int,
                         text: str, content_type: str = "text/plain",
                         extra_headers: Optional[Dict[str, str]] = None
                         ) -> None:
        await self._send_body(writer, status, text.encode("utf-8"),
                              content_type, extra_headers)

    async def _send_body(self, writer: asyncio.StreamWriter, status: int,
                         body: bytes, content_type: str,
                         extra_headers: Optional[Dict[str, str]] = None
                         ) -> None:
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()


class ServiceThread:
    """A service on a background thread — tests and the load generator.

    Usage::

        with ServiceThread(store_dir, jobs=4) as svc:
            client = ServiceClient(port=svc.port)
            ...

    The context manager waits for the socket to bind on entry (an
    ephemeral port by default) and performs a full graceful shutdown on
    exit.
    """

    def __init__(self, store: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0, **kwargs: Any) -> None:
        import threading

        self.service = PckptService(store, **kwargs)
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="pckpt-serve", daemon=True
        )

    @property
    def host(self) -> str:
        return self.service.host or self._host

    @property
    def port(self) -> int:
        assert self.service.port is not None, "service not started"
        return self.service.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures to start()
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        await self.service.start(self._host, self._port)
        self._ready.set()
        await self.service._stopped.wait()

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(30)
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        if self.service.port is None:
            raise RuntimeError("service did not bind within 30s")
        return self

    def stop(self, timeout: float = 120.0) -> None:
        loop = self.service._loop
        if loop is not None and not self.service._stopped.is_set():
            shutdown = self.service.shutdown()
            try:
                asyncio.run_coroutine_threadsafe(shutdown, loop)
            except RuntimeError:
                shutdown.close()  # loop already closed
        self._thread.join(timeout)
        if self._error is not None:
            raise RuntimeError("service thread crashed") from self._error

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(store: Union[str, Path], host: str = "127.0.0.1",
          port: int = DEFAULT_PORT, jobs: int = 2, queue_limit: int = 64,
          tokens: Optional[Dict[str, Tuple[str, int]]] = None,
          retry_after: float = 2.0,
          slo: Optional[SLOObjectives] = None,
          slo_window: float = DEFAULT_WINDOW_SECONDS,
          ready: Optional[Any] = None) -> PckptService:
    """Run a service until SIGINT/SIGTERM or ``POST /v1/shutdown``.

    Blocking, single-command entry point behind ``pckpt serve``.
    *ready*, if given, is called with the service once the socket is
    bound (tests use it to learn the ephemeral port).  Returns the
    (stopped) service.
    """
    import signal

    service = PckptService(store, jobs=jobs, queue_limit=queue_limit,
                           tokens=tokens, retry_after=retry_after,
                           slo=slo, slo_window=slo_window)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(service.shutdown())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without signal support
        await service.start(host, port)
        if ready is not None:
            ready(service)
        await service._stopped.wait()

    asyncio.run(_main())
    return service
