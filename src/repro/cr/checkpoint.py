"""Checkpoint snapshot bookkeeping (the multi-level storage ledger).

The C/R models juggle snapshots across two storage levels — node-local BBs
and the PFS — with different availability guarantees:

* a **periodic** checkpoint lives in every node's BB immediately and
  reaches the PFS only once its asynchronous drain completes;
* a **proactive** checkpoint (safeguard or p-ckpt) is written straight to
  the PFS and never exists in the BBs.

Recovery needs a snapshot that the *replacement node* can read (PFS) and
that survivors can restore consistently (BB if they still hold the same
snapshot, PFS otherwise).  :class:`SnapshotLedger` tracks exactly this and
implements the Fig 1(B) hazard: a failure while the newest periodic
checkpoint is still draining forfeits it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..des.metrics import MetricsRegistry

__all__ = ["SnapshotKind", "Snapshot", "SnapshotLedger"]


class SnapshotKind(enum.Enum):
    """Provenance of a snapshot (determines recovery read paths)."""

    #: Periodic checkpoint staged in the burst buffers.
    PERIODIC = "periodic"
    #: Proactive checkpoint committed directly to the PFS.
    PROACTIVE = "proactive"


class Snapshot(NamedTuple):
    """One application-wide consistent checkpoint.

    Immutable; a named tuple because one is built per proactive commit
    and per batch of periodic checkpoints.

    Attributes
    ----------
    work:
        Useful compute seconds captured by this snapshot.
    kind:
        Periodic (BB-staged) or proactive (PFS-direct).
    time:
        Simulation time the snapshot was completed.
    """

    work: float
    kind: SnapshotKind
    time: float


class SnapshotLedger:
    """Tracks which snapshots exist where, and which recovery can use.

    The ledger keeps at most one "newest" snapshot per storage level —
    older generations are never preferred by recovery, so tracking them
    adds nothing (BB capacity for two generations is asserted by the
    platform checks at simulation start).
    """

    def __init__(self, metrics: Optional["MetricsRegistry"] = None) -> None:
        #: Newest snapshot resident in every node's BB (None before the
        #: first periodic checkpoint).
        self.bb: Optional[Snapshot] = None
        #: Newest snapshot fully committed to the PFS (drained periodic or
        #: proactive).
        self.pfs: Optional[Snapshot] = None
        #: Fed ``ledger.*`` counters when given; every update tests it
        #: once, so disabled metrics cost one comparison per update.
        self.metrics = metrics

    # -- updates -------------------------------------------------------------
    def record_periodic(self, work: float, time: float,
                        count: int = 1) -> Snapshot:
        """A periodic checkpoint just reached the BBs (drain still pending).

        ``count > 1`` records a run of checkpoints of which this is the
        newest; each older one would only have been replaced by the next.
        """
        snap = Snapshot(work, SnapshotKind.PERIODIC, time)
        self.bb = snap
        if self.metrics is not None:
            self.metrics.counter("ledger.periodic_recorded").inc(count)
        return snap

    def record_drained(self, snap: Snapshot, count: int = 1) -> None:
        """An asynchronous drain finished: *snap* is now PFS-complete.

        ``count > 1`` records a run of drains of which *snap* landed last.
        Drains land oldest first and a snapshot never holds less work than
        an older one still draining (a rollback cancels the newer ones), so
        the last one alone decides the PFS slot, as each in turn would.
        """
        if self.pfs is None or snap.work >= self.pfs.work:
            self.pfs = snap
        if self.metrics is not None:
            self.metrics.counter("ledger.drained").inc(count)

    def record_proactive(self, work: float, time: float) -> Snapshot:
        """A proactive (safeguard / p-ckpt) PFS commit completed."""
        snap = Snapshot(work, SnapshotKind.PROACTIVE, time)
        if self.pfs is None or snap.work >= self.pfs.work:
            self.pfs = snap
        if self.metrics is not None:
            self.metrics.counter("ledger.proactive_recorded").inc()
        return snap

    # -- queries -----------------------------------------------------------
    def recovery_snapshot(self) -> Optional[Snapshot]:
        """Best snapshot an unmitigated recovery can restore.

        Must be PFS-complete (the replacement node has no BB history).
        ``None`` means restart from the beginning.
        """
        return self.pfs

    def survivors_can_use_bb(self) -> bool:
        """True when survivors may restore the recovery snapshot from BB.

        Requires the PFS-complete snapshot to be the same generation the
        BBs hold (a drained periodic checkpoint, not a proactive one).
        """
        return (
            self.pfs is not None
            and self.pfs.kind is SnapshotKind.PERIODIC
            and self.bb is not None
            and self.bb.work == self.pfs.work
        )

    # -- rollback -------------------------------------------------------------
    def rollback(self, work: float) -> None:
        """Invalidate snapshots newer than the restored state.

        After recovery to *work*, BB contents ahead of it are useless
        (Fig 1B: the failure forfeited the undrained generation).
        """
        metrics = self.metrics
        if self.bb is not None and self.bb.work > work:
            self.bb = None
            if metrics is not None:
                metrics.counter("ledger.bb_forfeited").inc()
        if self.pfs is not None and self.pfs.work > work:  # pragma: no cover
            # Recovery never restores below the PFS snapshot; guard anyway.
            self.pfs = None
        if metrics is not None:
            metrics.counter("ledger.rollbacks").inc()

    def __repr__(self) -> str:
        return f"<SnapshotLedger bb={self.bb} pfs={self.pfs}>"
