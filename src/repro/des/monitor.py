"""Structured tracing for simulations.

:class:`Trace` collects timestamped records emitted by simulation
components.  Two record shapes exist:

* **instant events** (:meth:`Trace.emit`) — a point-in-time fact
  ("failure struck node 12");
* **spans** (:meth:`Trace.span_begin` / :meth:`Trace.span_end`) — a
  named interval bracketing a protocol phase (a BB checkpoint, a p-ckpt
  phase 1, a recovery restore).  Span durations are accumulated per name
  in :attr:`Trace.span_totals`.

Every recording method takes an optional ``time``: a component that
computes a stretch of simulated time ahead of the clock stamps its
records with their own instants.  A release may be *held* for a time
not reached yet (:meth:`Trace.hold`): a drain's landing is known when
the drain starts, so its ``drain_flush`` END is recorded just before
the first record stamped at or after the landing, with no kernel event
scheduled for it.

Traces export to JSONL (one record per line, :meth:`Trace.to_jsonl` /
:func:`load_jsonl`) and to the Chrome trace-event format
(:meth:`Trace.to_chrome_trace`) viewable in Perfetto or
``chrome://tracing``, with one displayed "thread" per record source.
See ``docs/OBSERVABILITY.md`` for the vocabulary and a walkthrough.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, IO, Iterator, List,
                    Optional, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["TraceRecord", "Trace", "load_jsonl", "INSTANT", "BEGIN", "END"]

_INF = float("inf")

#: Record phase markers (mirroring the Chrome trace-event vocabulary).
INSTANT = "I"
BEGIN = "B"
END = "E"


@dataclass(slots=True)
class TraceRecord:
    """One trace entry.

    A slots class rather than a frozen one: a traced replication builds
    thousands, and a frozen dataclass's ``__init__`` costs several times
    as much.  Records are never hashed, and nothing mutates one once
    stored.

    Attributes
    ----------
    time:
        Simulation time of the record.
    source:
        Component that emitted it (e.g. ``"node/17"`` or ``"pckpt"``).
        Sources map to "threads" in the Chrome trace export.
    kind:
        Short machine-readable tag (e.g. ``"ckpt_bb_start"``).  For span
        records this is the span name.
    detail:
        Arbitrary payload for humans / assertions.
    ph:
        Record phase: :data:`INSTANT` (default), :data:`BEGIN`, or
        :data:`END` for span boundaries.
    sid:
        Span id linking a BEGIN to its END (0 for instants).
    """

    time: float
    source: str
    kind: str
    detail: Any = None
    ph: str = INSTANT
    sid: int = 0


class _OpenSpan:
    """Bookkeeping for a span whose END has not been emitted yet."""

    __slots__ = ("sid", "source", "kind", "begin")

    def __init__(self, sid: int, source: str, kind: str, begin: float) -> None:
        self.sid = sid
        self.source = source
        self.kind = kind
        self.begin = begin


class Trace:
    """An append-only, filterable record of simulation activity.

    Tracing is off by default in production runs; models accept an optional
    trace and emit only when one is supplied, so the hot path stays clean.

    Parameters
    ----------
    env:
        The environment whose clock timestamps records.
    trace_id:
        Optional request-correlation id (see :mod:`repro.obs.context`);
        stamped on every :meth:`to_jsonl` line and into the Chrome
        export's ``otherData`` so per-replication traces name the
        request that caused them.
    """

    def __init__(self, env: "Environment",
                 trace_id: Optional[str] = None) -> None:
        self.env = env
        self.trace_id = trace_id
        self._records: List[TraceRecord] = []
        self._counts: Dict[str, int] = {}
        self._next_sid = 1
        self._open_spans: Dict[int, _OpenSpan] = {}
        #: Completed-span accounting: kind -> [count, total seconds].
        self.span_totals: Dict[str, List[float]] = {}
        #: Time of the held release (``inf`` when none is held).
        self.due = _INF
        self._release: Optional[Callable[[], None]] = None

    @property
    def records(self) -> List[TraceRecord]:
        """Stored records as a list (oldest first)."""
        return self._records

    # -- recording ----------------------------------------------------------
    def hold(self, time: float,
             release: Optional[Callable[[], None]]) -> None:
        """Call *release* before storing any record stamped at or after *time*.

        *release* records what happens at *time* with explicit stamps (a
        drain landing: its span END, the next drain's BEGIN) and may hold
        again.  One release is held at a time; a new hold replaces it and
        ``hold(inf, None)`` withdraws it.  :meth:`flush` releases what is
        due without a record.
        """
        self.due = time
        self._release = release

    def flush(self, until: float) -> None:
        """Run every held release due at or before *until*, in time order."""
        while until >= self.due:
            release = self._release
            self.due, self._release = _INF, None
            release()

    def emit(self, source: str, kind: str, detail: Any = None,
             time: Optional[float] = None) -> None:
        """Append an instant record at *time* (default: the clock)."""
        if time is None:
            time = self.env.now
        if time >= self.due:
            self.flush(time)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self._records.append(TraceRecord(time, source, kind, detail))

    # -- spans ---------------------------------------------------------------
    def span_begin(self, source: str, kind: str, detail: Any = None,
                   time: Optional[float] = None) -> int:
        """Open a span at *time* (default: the clock); returns its id."""
        if time is None:
            time = self.env.now
        if time >= self.due:
            self.flush(time)
        sid = self._next_sid
        self._next_sid += 1
        self._open_spans[sid] = _OpenSpan(sid, source, kind, time)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self._records.append(
            TraceRecord(time, source, kind, detail, BEGIN, sid)
        )
        return sid

    def span_end(self, sid: int, detail: Any = None,
                 time: Optional[float] = None) -> float:
        """Close span *sid* at *time* (default: the clock).

        Returns its duration (0.0 for an unknown id).
        """
        if time is None:
            time = self.env.now
        if time >= self.due:
            self.flush(time)
        span = self._open_spans.pop(sid, None)
        if span is None:
            return 0.0
        duration = time - span.begin
        totals = self.span_totals.get(span.kind)
        if totals is None:
            totals = self.span_totals[span.kind] = [0, 0.0]
        totals[0] += 1
        totals[1] += duration
        self._records.append(
            TraceRecord(time, span.source, span.kind, detail, END, sid)
        )
        return duration

    def open_spans(self) -> Tuple[Tuple[str, str], ...]:
        """(source, kind) of spans still open (diagnostics)."""
        return tuple(
            (s.source, s.kind) for s in self._open_spans.values()
        )

    def span_seconds(self, kind: str) -> float:
        """Total accumulated duration of completed spans named *kind*."""
        totals = self.span_totals.get(kind)
        return totals[1] if totals else 0.0

    # -- queries -----------------------------------------------------------
    def count(self, kind: str) -> int:
        """Number of records of *kind*."""
        return self._counts.get(kind, 0)

    def filter(self, kind: Optional[str] = None, source: Optional[str] = None,
               ph: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate records matching the given kind, source, and/or phase."""
        for rec in self._records:
            if kind is not None and rec.kind != kind:
                continue
            if source is not None and rec.source != source:
                continue
            if ph is not None and rec.ph != ph:
                continue
            yield rec

    def kinds(self) -> Tuple[str, ...]:
        """All record kinds seen so far, in first-seen order."""
        return tuple(self._counts)

    def sources(self) -> Tuple[str, ...]:
        """All sources present in the stored records, in first-seen order."""
        seen: Dict[str, None] = {}
        for rec in self._records:
            seen.setdefault(rec.source, None)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def format(self, limit: Optional[int] = None) -> str:
        """Render the trace as aligned text lines (for examples/debugging)."""
        records = self.records
        rows = records if limit is None else records[:limit]
        marks = {INSTANT: " ", BEGIN: ">", END: "<"}
        lines = [
            f"[{rec.time:14.3f}s] {marks[rec.ph]} {rec.source:<16s} "
            f"{rec.kind:<24s} {rec.detail!r}"
            for rec in rows
        ]
        if limit is not None and len(records) > limit:
            lines.append(f"... ({len(records) - limit} more records)")
        return "\n".join(lines)

    # -- exporters ------------------------------------------------------------
    def to_jsonl(self, path_or_fp: Union[str, IO[str]]) -> int:
        """Write every stored record as one JSON object per line.

        Non-JSON-native details are stringified; records whose detail is
        built from JSON types round-trip exactly through
        :func:`load_jsonl`.  Returns the number of records written.
        """
        def _write(fp: IO[str]) -> int:
            n = 0
            for rec in self._records:
                line = {"t": rec.time, "source": rec.source,
                        "kind": rec.kind, "ph": rec.ph, "sid": rec.sid,
                        "detail": rec.detail}
                if self.trace_id is not None:
                    line["trace_id"] = self.trace_id
                fp.write(json.dumps(
                    line, default=str, separators=(",", ":"),
                ))
                fp.write("\n")
                n += 1
            return n

        if isinstance(path_or_fp, str):
            with open(path_or_fp, "w", encoding="utf-8") as fp:
                return _write(fp)
        return _write(path_or_fp)

    def to_chrome_trace(self, path_or_fp: Union[str, IO[str]],
                        time_scale: float = 1e6) -> int:
        """Write the trace in Chrome trace-event JSON (Perfetto-viewable).

        Each source becomes one named "thread"; spans map to ``B``/``E``
        duration events and instants to scoped ``i`` events.  Simulation
        seconds are scaled by *time_scale* into the format's microsecond
        timestamps (the default renders 1 sim-second as 1 display-second).
        Returns the number of trace events written (metadata included).
        """
        tids: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for rec in self._records:
            tid = tids.get(rec.source)
            if tid is None:
                tid = tids[rec.source] = len(tids) + 1
            ev: Dict[str, Any] = {
                "name": rec.kind,
                "ph": "i" if rec.ph == INSTANT else rec.ph,
                "ts": rec.time * time_scale,
                "pid": 1,
                "tid": tid,
            }
            if rec.ph == INSTANT:
                ev["s"] = "t"  # thread-scoped instant
            if rec.detail is not None:
                ev["args"] = {"detail": _jsonable(rec.detail)}
            events.append(ev)
        meta = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "simulation"}},
        ] + [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": source}}
            for source, tid in tids.items()
        ]
        payload = {"traceEvents": meta + events, "displayTimeUnit": "ms"}
        if self.trace_id is not None:
            payload["otherData"] = {"trace_id": self.trace_id}
        if isinstance(path_or_fp, str):
            with open(path_or_fp, "w", encoding="utf-8") as fp:
                json.dump(payload, fp)
        else:
            json.dump(payload, path_or_fp)
        return len(meta) + len(events)


def _jsonable(detail: Any) -> Any:
    """Best-effort conversion of a record detail to JSON-native types."""
    try:
        json.dumps(detail)
        return detail
    except (TypeError, ValueError):
        if isinstance(detail, dict):
            return {str(k): _jsonable(v) for k, v in detail.items()}
        if isinstance(detail, (list, tuple, set, frozenset)):
            return [_jsonable(v) for v in detail]
        return str(detail)


def load_jsonl(path_or_fp: Union[str, IO[str]]) -> List[TraceRecord]:
    """Read records written by :meth:`Trace.to_jsonl`."""
    def _read(fp: IO[str]) -> List[TraceRecord]:
        out: List[TraceRecord] = []
        for line in fp:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            out.append(TraceRecord(
                time=obj["t"], source=obj["source"], kind=obj["kind"],
                detail=obj.get("detail"), ph=obj.get("ph", INSTANT),
                sid=obj.get("sid", 0),
            ))
        return out

    if isinstance(path_or_fp, str):
        with open(path_or_fp, "r", encoding="utf-8") as fp:
            return _read(fp)
    return _read(path_or_fp)
