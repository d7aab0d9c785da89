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

from typing import List, Optional

from ..des import Environment, Infinity, Trace
from ..des.metrics import MetricsRegistry
from ..platform.pfs import PFSSpec
from .checkpoint import Snapshot, SnapshotKind, SnapshotLedger

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
    :meth:`cancel_newer_than` and :attr:`busy` do so themselves; a caller
    that settled already drops with :meth:`drop_newer_than`), and a
    traced manager holds its next landing on the trace
    (:meth:`~repro.des.Trace.hold`), which applies it before the first
    record stamped at or after it.  Nothing is scheduled on the kernel,
    and a landing comes before anything else at the same instant.

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
    trace:
        Optional trace; each drain becomes a ``drain_flush`` span on the
        ``drain`` source (cancellations close the span early); the
        manager must be the trace's only holder.
    metrics:
        Optional registry fed ``drain.completed`` / ``drain.cancelled``
        counters and a ``drain.seconds`` histogram.
    """

    def __init__(
        self,
        env: Environment,
        pfs: PFSSpec,
        ledger: SnapshotLedger,
        nodes: int,
        bytes_per_node: float,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.env = env
        self.pfs = pfs
        self.ledger = ledger
        self.nodes = nodes
        self.bytes_per_node = bytes_per_node
        self.trace = trace
        self.metrics = metrics
        #: Seconds one snapshot takes to drain (fixed for the job).
        self.duration = pfs.drain_time(nodes, bytes_per_node)
        self._pending: List[Snapshot] = []
        # The snapshot in flight, its drain_flush span id and the
        # (remaining, start) pair a surviving cancel re-arms from.
        self._snap: Optional[Snapshot] = None
        self._sid = 0
        self._remaining = 0.0
        self._start = 0.0
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

    def settle(self, now: Optional[float] = None) -> None:
        """Apply every landing due at or before *now* (default: the clock)."""
        now = self.env.now if now is None else now
        if self.trace is not None:
            self.trace.flush(now)
        while self.landing <= now:
            self._finish()

    def submit(self, snap: Snapshot, now: Optional[float] = None) -> None:
        """Queue a periodic snapshot staged at *now* (default: the clock)."""
        now = self.env.now if now is None else now
        self.settle(now)
        if self._snap is None:
            self._begin(snap, now)
        else:
            self._pending.append(snap)

    def queue_end(self, gap: float) -> float:
        """The staging time before which a periodic snapshot can queue.

        A snapshot staged at or after it finds every drain landed, ties
        included, and goes in flight at once.  When every later staging
        comes at least *gap* after the one before, exactly, and a drain
        takes no longer than *gap*, each of those lands before the next
        is staged, so :meth:`submit_run` can jump over them.  ``-inf``
        when nothing is queued or in flight; ``inf`` when a drain may
        outlast *gap*: each staging must then be submitted one by one.
        """
        duration = self.duration
        if not duration <= gap:
            return Infinity
        if self._snap is None:
            return -Infinity
        # Each queued drain starts at its predecessor's landing (_next);
        # a drain that queues has a positive duration.
        end = self.landing
        for _ in self._pending:
            end = end + duration
        return end

    def submit_run(self, count: int, prior_work: float, prior_time: float,
                   newest: Snapshot) -> None:
        """Queue *count* periodic snapshots that cannot queue behind a drain.

        The first is staged at or after :meth:`queue_end`, and each later
        one at least its ``gap`` after the one before, so the state ends
        as after one :meth:`submit` per snapshot: every drain in the
        chain lands by the first staging, each snapshot of the run lands
        before the next is staged, and *newest*, the last one (the
        snapshot the ledger holds in the BBs), is left in flight, or
        lands at once when a drain takes no time.  *prior_work* and
        *prior_time* stage the snapshot before *newest* (read when
        *count* > 1): the last of the run to land.  The ledger, counters
        and metrics are updated once.  It records nothing, so a traced
        run submits its snapshots one by one.
        """
        duration = self.duration
        landed = count - 1
        last: Optional[Snapshot] = None
        snap = self._snap
        if snap is not None:
            pending = self._pending
            landed += 1 + len(pending)
            last = pending[-1] if pending else snap
            self._pending = []
        if count > 1:
            last = Snapshot(prior_work, SnapshotKind.PERIODIC, prior_time)
        now = newest.time
        self._remaining = duration
        self._start = now
        if duration > 0:
            self._snap = newest
            self.landing = now + duration
        else:
            landed += 1
            last = newest
            self._snap = None
            self.landing = Infinity
        if landed:
            self.ledger.record_drained(last, count=landed)
            self.completed += landed
            if self.metrics is not None:
                self.metrics.counter("drain.completed").inc(landed)
                self.metrics.histogram("drain.seconds").observe(
                    duration, times=landed)

    def cancel_newer_than(self, work: float) -> None:
        """Drop queued/in-flight drains of snapshots newer than *work*.

        Called on rollback: those snapshots no longer represent reachable
        application state.  A surviving in-flight snapshot keeps draining
        for what is left of its transfer.
        """
        now = self.env.now
        self.settle(now)
        self.drop_newer_than(work, now)

    def drop_newer_than(self, work: float, now: float) -> None:
        """:meth:`cancel_newer_than` for a caller that settled at *now*.

        The clock must still read *now*: a recovery settles once before
        it plans, then rolls back and drops.
        """
        pending = self._pending
        if pending:
            self._pending = [s for s in pending if s.work <= work]
            self.cancelled += len(pending) - len(self._pending)
        snap = self._snap
        if snap is None:
            return
        if snap.work > work:
            # This snapshot was invalidated mid-flight.
            self.cancelled += 1
            if self.trace is not None:
                self.trace.span_end(self._sid, "cancelled", time=now)
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
            self._sid = self.trace.span_begin("drain", "drain_flush",
                                              snap.work, time=start)
        self._remaining = self.duration
        self._start = start
        self._arm()

    def _arm(self) -> None:
        """Compute when the in-flight snapshot lands after ``_remaining``."""
        if self._remaining > 0:
            self.landing = self._start + self._remaining
            if self.trace is not None:
                self.trace.hold(self.landing, self._finish)
        else:
            self.landing = self._start
            self._finish()

    def _finish(self) -> None:
        """Record the in-flight snapshot as on the PFS, start the next."""
        snap = self._snap
        landed = self.landing
        if self.trace is not None:
            self.trace.span_end(self._sid, "landed", time=landed)
        self.ledger.record_drained(snap)
        self.completed += 1
        if self.metrics is not None:
            self.metrics.counter("drain.completed").inc()
            self.metrics.histogram("drain.seconds").observe(self.duration)
        self._next(landed)

    def _next(self, start: float) -> None:
        """Put the oldest queued snapshot in flight from *start*, if any."""
        self._snap = None
        self.landing = Infinity
        if self._pending:
            self._begin(self._pending.pop(0), start)
        elif self.trace is not None:
            self.trace.hold(Infinity, None)
