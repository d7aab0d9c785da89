"""Cross-layer trace context: one id from HTTP header to kernel span.

A **trace context** is a ``(trace_id, span_id)`` pair (plus an optional
``parent_id``) naming one logical request as it crosses layers: the
service mints (or adopts, from an ``X-Pckpt-Trace`` header) a context
per job, activates it around the job's campaign, and every layer below
— campaign scheduler, pool workers, telemetry snapshots, job events —
stamps its records with the same ``trace_id``.  ``pckpt obs stitch``
later reassembles the fragments into one Chrome trace.

Design constraints, in order:

* **Zero overhead when disabled.**  Nothing here touches simulation
  state: ids come from :mod:`secrets`, never from an experiment's
  ``SeedSequence``, so activating a trace cannot perturb results, and
  :func:`current` is a context-variable read returning ``None`` when
  no context is active.
* **Crash-safe multi-process collection.**  Each process/role appends
  to its **own** fragment file under
  ``<store>/obs/trace/<trace_id>/`` (:func:`trace_fragment_dir`), one
  JSON object per line, flushed per span — no cross-process file
  sharing, no partial-line interleaving, and a killed worker loses at
  most its open spans.  Under ``pckpt serve`` they go to the service
  journal instead (:func:`current_sink`).

Fragment records follow the declarative-table convention
(:data:`SPAN_FIELDS`, ``SPAN_SCHEMA_VERSION``) shared with
``docs/OBSERVABILITY.md`` and ``tools/check_schemas.py``.
"""

from __future__ import annotations

import json
import os
import re
import secrets
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import IO, Callable, Dict, Iterator, Optional, Tuple, Union

__all__ = [
    "SPAN_SCHEMA_VERSION",
    "SPAN_KIND",
    "SPAN_FIELDS",
    "TRACE_HEADER",
    "TRACE_DIRNAME",
    "TraceContext",
    "mint_context",
    "parse_trace_header",
    "format_trace_header",
    "activate",
    "current",
    "current_sink",
    "trace_fragment_dir",
    "SpanWriter",
    "read_spans",
]

#: Schema version stamped on every span-fragment record (bump on any
#: incompatible layout change).
SPAN_SCHEMA_VERSION: int = 1

#: Record discriminator for span-fragment lines.
SPAN_KIND: str = "pckpt-span"

#: HTTP request header carrying an externally minted trace context.
TRACE_HEADER: str = "X-Pckpt-Trace"

#: Directory under a store root holding per-trace fragment directories.
TRACE_DIRNAME: str = os.path.join("obs", "trace")

#: Span-record fields: ``{name: (type, nullable)}`` — the single source
#: of truth shared with ``tools/check_schemas.py`` and the docs.
#: ``t0``/``t1`` are wall-clock epoch seconds (the one timebase every
#: process shares); ``t1`` is null for instant events (``ph`` = "i").
SPAN_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "trace_id": (str, False),
    "span_id": (str, False),
    "parent_id": (str, True),
    "name": (str, False),
    "source": (str, False),
    "ph": (str, False),
    "t0": (float, False),
    "t1": (float, True),
    "args": (dict, True),
}

_ID = re.compile(r"^[0-9a-f]{4,32}$")


class TraceContext:
    """One request's identity: ``trace_id`` / ``span_id`` / ``parent_id``.

    Immutable; derive child contexts with :meth:`child` rather than
    mutating.  ``span_id`` names the span *this* holder is inside of —
    records written under the context use it as their ``parent_id``.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str] = None) -> None:
        for label, value in (("trace_id", trace_id), ("span_id", span_id)):
            if not _ID.match(value):
                raise ValueError(
                    f"{label} must be 4-32 lowercase hex chars, got {value!r}"
                )
        if parent_id is not None and not _ID.match(parent_id):
            raise ValueError(
                f"parent_id must be 4-32 lowercase hex chars, "
                f"got {parent_id!r}"
            )
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)
        object.__setattr__(self, "parent_id", parent_id)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TraceContext is immutable")

    def child(self, span_id: Optional[str] = None) -> "TraceContext":
        """A context one level down: same trace, this span as parent."""
        return TraceContext(self.trace_id, span_id or _mint_id(),
                            parent_id=self.span_id)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TraceContext)
                and other.trace_id == self.trace_id
                and other.span_id == self.span_id
                and other.parent_id == self.parent_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, parent_id={self.parent_id!r})")


def _mint_id() -> str:
    return secrets.token_hex(8)


def mint_context() -> TraceContext:
    """A fresh root context (random ids from the OS, never from a
    simulation's ``SeedSequence``)."""
    return TraceContext(_mint_id(), _mint_id())


def parse_trace_header(value: str) -> TraceContext:
    """Parse an ``X-Pckpt-Trace`` header: ``<trace_id>[-<span_id>]``.

    With a caller span id the server's root span becomes its child
    (``parent_id`` = the caller's span); with a bare trace id the
    server's span is the root.  Raises ``ValueError`` on malformed
    input.
    """
    value = value.strip().lower()
    trace_id, sep, caller_span = value.partition("-")
    if not _ID.match(trace_id):
        raise ValueError(
            f"malformed trace header {value!r}: trace_id must be "
            "4-32 lowercase hex chars"
        )
    if sep and not _ID.match(caller_span):
        raise ValueError(
            f"malformed trace header {value!r}: span_id must be "
            "4-32 lowercase hex chars"
        )
    return TraceContext(trace_id, _mint_id(),
                        parent_id=caller_span or None)


def format_trace_header(ctx: TraceContext) -> str:
    """The wire form of *ctx*: ``<trace_id>-<span_id>``."""
    return f"{ctx.trace_id}-{ctx.span_id}"


#: The active ``(context, sink)``.  A context variable, not a
#: thread-local: each asyncio task runs in its own copy, so jobs that
#: interleave on one event loop never see each other's trace.  A new
#: thread starts with none; a forked process keeps its parent's.
_active: ContextVar[Tuple[Optional[TraceContext],
                          Optional[Callable[[bytes], object]]]] = \
    ContextVar("pckpt_trace", default=(None, None))


def current() -> Optional[TraceContext]:
    """The active context, or ``None`` (the common, free case)."""
    return _active.get()[0]


def current_sink() -> Optional[Callable[[bytes], object]]:
    """The span sink activated with the active context, or ``None``:
    a callable taking whole lines, such as ``Journal.append``."""
    return _active.get()[1]


@contextmanager
def activate(ctx: Optional[TraceContext],
             sink: Optional[Callable[[bytes], object]] = None
             ) -> Iterator[Optional[TraceContext]]:
    """Make *ctx* (and *sink*) the active context for the body.

    Nests (the previous context is restored on exit); ``activate(None)``
    is a no-op pass-through so callers need not branch.  The body may
    span ``await`` points: the activation belongs to the task that made
    it.
    """
    if ctx is None:
        yield None
        return
    token = _active.set((ctx, sink))
    try:
        yield ctx
    finally:
        _active.reset(token)


def trace_fragment_dir(store_root: Union[str, Path],
                       trace_id: str) -> Path:
    """``<store>/obs/trace/<trace_id>`` — where fragments for one trace
    live (not created; writers create it lazily on first span)."""
    return Path(store_root) / TRACE_DIRNAME / trace_id


class SpanWriter:
    """Append-only span-fragment writer for **one** process/role.

    Opens lazily on first span (constructing a writer that never emits
    costs nothing but the object), appends one JSON line per record,
    and flushes per line so a crash loses at most the open span.  One
    file per process/role is the concurrency discipline — never share a
    ``SpanWriter`` path across processes.  With a *sink* each line goes
    to the sink instead, and *path* is not used.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]],
                 trace_id: str, source: str,
                 sink: Optional[Callable[[bytes], object]] = None) -> None:
        self.path = None if path is None else Path(path)
        self.trace_id = trace_id
        self.source = source
        self._sink = sink
        self._fp: Optional[IO[str]] = None

    def _emit(self, record: Dict[str, object]) -> Dict[str, object]:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        if self._sink is not None:
            self._sink(line.encode("utf-8") + b"\n")
            return record
        if self._fp is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fp = open(self.path, "a", encoding="utf-8")
        self._fp.write(line + "\n")
        self._fp.flush()
        return record

    def span(self, name: str, t0: float, t1: float,
             parent_id: Optional[str] = None,
             span_id: Optional[str] = None,
             args: Optional[Dict[str, object]] = None
             ) -> Dict[str, object]:
        """One complete span: wall-clock ``[t0, t1]`` epoch seconds."""
        return self._emit({
            "kind": SPAN_KIND,
            "schema_version": SPAN_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "span_id": span_id or _mint_id(),
            "parent_id": parent_id,
            "name": name,
            "source": self.source,
            "ph": "X",
            "t0": float(t0),
            "t1": float(t1),
            "args": args,
        })

    def instant(self, name: str, t: float,
                parent_id: Optional[str] = None,
                args: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        """One instant event at wall-clock epoch second *t*."""
        return self._emit({
            "kind": SPAN_KIND,
            "schema_version": SPAN_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "span_id": _mint_id(),
            "parent_id": parent_id,
            "name": name,
            "source": self.source,
            "ph": "i",
            "t0": float(t),
            "t1": None,
            "args": args,
        })

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_spans(path: Union[str, Path]) -> list:
    """All span records in one fragment file, in append order.

    Tolerates a torn final line (a writer may have died mid-append).
    """
    out = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break
            raise
    return out
