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

from ..des import Environment, Event, Trace
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

    The pipeline is callback-driven rather than a process: the snapshot in
    flight is one armed :class:`~repro.des.Timeout` whose landing callback
    records it and arms the next queued snapshot, so each drain costs the
    kernel exactly one event.

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
        Optional callback invoked with the snapshot when a drain lands.
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
        # The snapshot in flight, its armed landing timeout, its
        # drain_flush span id, and the (remaining, start) pair a
        # surviving cancel re-arms from.
        self._snap: Optional[Snapshot] = None
        self._timer: Optional[Event] = None
        self._sid = 0
        self._remaining = 0.0
        self._start = 0.0
        #: Completed drain count (diagnostics / tests).
        self.completed = 0
        #: Cancelled (rolled-back) snapshot count.
        self.cancelled = 0

    @property
    def busy(self) -> bool:
        """True while any drain is queued or in flight."""
        return self._snap is not None or bool(self._pending)

    def submit(self, snap: Snapshot) -> None:
        """Queue a freshly staged periodic snapshot for draining."""
        if self._snap is None:
            self._begin(snap)
        else:
            self._pending.append(snap)

    def cancel_newer_than(self, work: float) -> None:
        """Drop queued/in-flight drains of snapshots newer than *work*.

        Called on rollback: those snapshots no longer represent reachable
        application state.  A surviving in-flight snapshot keeps draining
        for what is left of its transfer.
        """
        before = len(self._pending)
        self._pending = [s for s in self._pending if s.work <= work]
        self.cancelled += before - len(self._pending)
        snap = self._snap
        if snap is None:
            return
        # Detach the armed landing; that timeout now fires with no effect.
        self._timer.callbacks.remove(self._land)
        self._timer = None
        if snap.work > work:
            # This snapshot was invalidated mid-flight.
            self.cancelled += 1
            if self.trace is not None:
                self.trace.span_end(self._sid, "cancelled")
            if self.metrics is not None:
                self.metrics.counter("drain.cancelled").inc()
            self._next()
            return
        now = self.env.now
        self._remaining -= now - self._start
        self._start = now
        self._arm()

    def _begin(self, snap: Snapshot) -> None:
        """Put *snap* in flight for the full drain duration."""
        self._snap = snap
        if self.trace is not None:
            self._sid = self.trace.span_begin("drain", "drain_flush", snap.work)
        self._remaining = self.duration
        self._start = self.env.now
        self._arm()

    def _arm(self) -> None:
        """Schedule the in-flight snapshot to land after ``_remaining``."""
        if self._remaining > 0:
            self._timer = self.env.timeout(self._remaining)
            self._timer.callbacks.append(self._land)
        else:
            self._finish()

    def _land(self, _event: Event) -> None:
        """Landing callback of the in-flight snapshot's timeout."""
        self._timer = None
        self._finish()

    def _finish(self) -> None:
        """Record the in-flight snapshot as on the PFS, start the next."""
        snap = self._snap
        if self.trace is not None:
            self.trace.span_end(self._sid, "landed")
        self.ledger.record_drained(snap)
        self.completed += 1
        if self.metrics is not None:
            self.metrics.counter("drain.completed").inc()
            self.metrics.histogram("drain.seconds").observe(self.duration)
        if self.on_drained is not None:
            self.on_drained(snap)
        self._next()

    def _next(self) -> None:
        """Put the oldest queued snapshot in flight, if any."""
        self._snap = None
        if self._pending:
            self._begin(self._pending.pop(0))
