"""Asynchronous BB→PFS checkpoint draining.

Periodic checkpoints are staged to the node-local BBs (blocking the
application only for the fast BB write) and later *bled off* to the PFS in
the background.  The bleed-off is throttled — only a bounded number of
nodes transfer concurrently — so it does not contend with application I/O
(paper Sec. II).  A snapshot becomes usable for replacement-node recovery
only when its drain completes; a rollback cancels in-flight drains of
now-invalid snapshots.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..des import Environment, Event, Infinity, Trace
from ..des.metrics import MetricsRegistry
from ..platform.pfs import PFSSpec
from .checkpoint import Snapshot, SnapshotLedger

__all__ = ["DrainManager"]


class DrainManager:
    """Owns the background drain pipeline of one application.

    Drains are serialized (one snapshot in flight at a time) in a FIFO:
    with a sane OCI the pipe is empty long before the next checkpoint, but
    the manager stays correct if configuration makes drains slower than
    the checkpoint cadence.

    Nothing but time can end a drain, so each landing time is computed
    when the drain is armed: a new drain lands at ``start + remaining``,
    a queued one starts at its predecessor's landing, and a drain that
    survives a cancel is re-armed for what is left of its transfer.
    :meth:`settle` applies every landing due at or before the clock;
    every reader of drain or ledger state calls it first (:meth:`submit`,
    :meth:`cancel_newer_than` and :attr:`busy` do so themselves).  An
    untraced manager schedules nothing on the kernel.  A traced one arms
    one :class:`~repro.des.Timeout` per drain whose callback settles it,
    so its ``drain_flush`` span closes at the landing time.  Either way a
    landing is applied before anything else that reads drain state at
    the same instant.

    Parameters
    ----------
    env:
        Simulation environment.
    pfs:
        PFS spec (provides :meth:`~repro.platform.pfs.PFSSpec.drain_time`).
    ledger:
        Snapshot ledger to notify on completion.
    nodes:
        Application node count.
    bytes_per_node:
        Per-node checkpoint size.
    on_drained:
        Optional callback invoked with the snapshot when its landing is
        applied: at the landing time when traced, at the next
        :meth:`settle` otherwise.
    trace:
        Optional trace; each drain becomes a ``drain_flush`` span on the
        ``drain`` source (cancellations close the span early).
    metrics:
        Optional registry fed ``drain.completed`` / ``drain.cancelled``
        counters and a ``drain.seconds`` histogram.
    """

    #: Owner name the kernel profiler files landing events under.
    name = "drain-worker"

    def __init__(
        self,
        env: Environment,
        pfs: PFSSpec,
        ledger: SnapshotLedger,
        nodes: int,
        bytes_per_node: float,
        on_drained: Optional[Callable[[Snapshot], None]] = None,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.env = env
        self.pfs = pfs
        self.ledger = ledger
        self.nodes = nodes
        self.bytes_per_node = bytes_per_node
        self.on_drained = on_drained
        self.trace = trace
        self.metrics = metrics
        #: Seconds one snapshot takes to drain (fixed for the job).
        self.duration = pfs.drain_time(nodes, bytes_per_node)
        self._pending: List[Snapshot] = []
        # The snapshot in flight, its drain_flush span id, the
        # (remaining, start) pair a surviving cancel re-arms from, and
        # (traced only) its armed landing timeout.
        self._snap: Optional[Snapshot] = None
        self._sid = 0
        self._remaining = 0.0
        self._start = 0.0
        self._timer: Optional[Event] = None
        #: Landing time of the snapshot in flight (``inf`` when idle).
        self.landing = Infinity
        #: Completed drain count (diagnostics / tests).
        self.completed = 0
        #: Cancelled (rolled-back) snapshot count.
        self.cancelled = 0

    @property
    def busy(self) -> bool:
        """True while any drain is queued or in flight."""
        self.settle()
        return self._snap is not None or bool(self._pending)

    def settle(self) -> None:
        """Apply every landing due at or before the current time."""
        now = self.env.now
        while self.landing <= now:
            self._finish()

    def submit(self, snap: Snapshot) -> None:
        """Queue a freshly staged periodic snapshot for draining."""
        self.settle()
        if self._snap is None:
            self._begin(snap, self.env.now)
        else:
            self._pending.append(snap)

    def cancel_newer_than(self, work: float) -> None:
        """Drop queued/in-flight drains of snapshots newer than *work*.

        Called on rollback: those snapshots no longer represent reachable
        application state.  A surviving in-flight snapshot keeps draining
        for what is left of its transfer.
        """
        self.settle()
        before = len(self._pending)
        self._pending = [s for s in self._pending if s.work <= work]
        self.cancelled += before - len(self._pending)
        snap = self._snap
        if snap is None:
            return
        self._disarm()
        now = self.env.now
        if snap.work > work:
            # This snapshot was invalidated mid-flight.
            self.cancelled += 1
            if self.trace is not None:
                self.trace.span_end(self._sid, "cancelled")
            if self.metrics is not None:
                self.metrics.counter("drain.cancelled").inc()
            self._next(now)
            return
        self._remaining -= now - self._start
        self._start = now
        self._arm()

    def _begin(self, snap: Snapshot, start: float) -> None:
        """Put *snap* in flight from *start* for the full drain duration."""
        self._snap = snap
        if self.trace is not None:
            self._sid = self.trace.span_begin("drain", "drain_flush", snap.work)
        self._remaining = self.duration
        self._start = start
        self._arm()

    def _arm(self) -> None:
        """Compute when the in-flight snapshot lands after ``_remaining``."""
        if self._remaining > 0:
            self.landing = self._start + self._remaining
            if self.trace is not None:
                # Armed when the drain starts, so now == _start and the
                # timeout fires at exactly the computed landing.
                self._timer = self.env.timeout(self._remaining)
                self._timer.callbacks.append(self._land)
        else:
            self.landing = self._start
            self._finish()

    def _disarm(self) -> None:
        """Detach the armed landing timeout; it then fires with no effect."""
        if self._timer is not None:
            self._timer.callbacks.remove(self._land)
            self._timer = None

    def _land(self, _event: Event) -> None:
        """Landing callback of a traced drain's timeout."""
        self._timer = None
        self.settle()

    def _finish(self) -> None:
        """Record the in-flight snapshot as on the PFS, start the next."""
        snap = self._snap
        landed = self.landing
        self._disarm()
        if self.trace is not None:
            self.trace.span_end(self._sid, "landed")
        self.ledger.record_drained(snap)
        self.completed += 1
        if self.metrics is not None:
            self.metrics.counter("drain.completed").inc()
            self.metrics.histogram("drain.seconds").observe(self.duration)
        if self.on_drained is not None:
            self.on_drained(snap)
        self._next(landed)

    def _next(self, start: float) -> None:
        """Put the oldest queued snapshot in flight from *start*, if any."""
        self._snap = None
        self.landing = Infinity
        if self._pending:
            self._begin(self._pending.pop(0), start)
