"""Recovery-path modeling (paper Sec. II checkpoint model).

Two recovery regimes exist, with very different costs:

* **after an unmitigated failure** from a *periodic* snapshot: only the
  replacement node reads the PFS; every survivor restores from its local
  BB.  Cost = max(single-node PFS read, BB read) + restart latency — PFS
  is never the bottleneck (single reader), so recovery is cheap.
* **after a proactively mitigated failure** (safeguard or p-ckpt): the
  snapshot exists only on the PFS, so *all* nodes read it back at
  aggregate PFS bandwidth.  This is why model P1 is the only one showing
  visible recovery overhead (≈2.5–6% of total, Fig 6).

An optional **neighbor level** (FTI level 1 / Bouguerra et al.'s
substrate — the paper cites it as orthogonal) mirrors each periodic
checkpoint onto a partner node's BB: the replacement node then pulls its
share from the dead node's partner over the interconnect instead of the
PFS.  With the paper's single-node failure model the partner always
survives, so the neighbor copy is always usable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..des.metrics import MetricsRegistry

from ..platform.burstbuffer import BurstBufferSpec
from ..platform.interconnect import InterconnectSpec
from ..platform.pfs import PFSSpec
from .checkpoint import SnapshotKind, SnapshotLedger

__all__ = ["RecoveryCosts", "RecoveryPlan", "plan_recovery", "recovery_costs"]


class RecoveryCosts(NamedTuple):
    """One job's recovery read times and relaunch delay (seconds).

    They depend only on the job's storage, size and node count, so
    :func:`recovery_costs` derives them once per job and each
    :func:`plan_recovery` call only picks one.  ``bb_read``: survivors
    read their BBs while the replacement node alone reads the PFS.
    ``pfs_read``: every node reads the PFS.  ``neighbor_read``: the
    replacement node streams its share from the partner's BB (None
    without a neighbor copy).
    """

    bb_read: float
    pfs_read: float
    neighbor_read: Optional[float]
    restart_delay: float


def recovery_costs(
    pfs: PFSSpec,
    bb: BurstBufferSpec,
    nodes: int,
    bytes_per_node: float,
    restart_delay: float,
    neighbor: Optional[InterconnectSpec] = None,
) -> RecoveryCosts:
    """The recovery costs of a *nodes*-node job, for :func:`plan_recovery`.

    *neighbor* is the interconnect the replacement node pulls its share
    over when the job runs neighbor-level checkpointing; survivors still
    use their BBs.
    """
    neighbor_read = None
    if neighbor is not None:
        neighbor_read = max(
            bb.read_time(bytes_per_node),
            neighbor.transfer_time(bytes_per_node) + bb.read_time(bytes_per_node),
        )
    return RecoveryCosts(
        max(bb.read_time(bytes_per_node),
            pfs.replacement_read_time(bytes_per_node)),
        pfs.full_restore_read_time(nodes, bytes_per_node),
        neighbor_read,
        restart_delay,
    )


class RecoveryPlan(NamedTuple):
    """The cost and target of one recovery operation.

    Immutable; a named tuple because one is built per failure.

    Attributes
    ----------
    restore_work:
        Application progress (useful seconds) of the restored snapshot;
        0.0 when no snapshot survives and the job restarts from scratch.
    read_seconds:
        Wall time of the restore reads.
    restart_delay:
        Fixed relaunch latency (replacement allocation, MPI wire-up).
    from_bb:
        True when survivors restored from their BBs (fast path).
    """

    restore_work: float
    read_seconds: float
    restart_delay: float
    from_bb: bool

    @property
    def total_seconds(self) -> float:
        """Total recovery overhead contribution."""
        return self.read_seconds + self.restart_delay


def plan_recovery(
    ledger: SnapshotLedger,
    costs: RecoveryCosts,
    metrics: Optional["MetricsRegistry"] = None,
) -> RecoveryPlan:
    """Determine the best recovery action after a node failure.

    The one recovery planner: the ledger decides which snapshot survives
    and where it is read from; the job's *costs* say how long that takes.

    Parameters
    ----------
    ledger:
        The job's snapshot ledger.
    costs:
        The job's :func:`recovery_costs`.  With a neighbor copy the newest
        BB generation is recoverable (it is written alongside the BB
        stage), so recovery no longer waits for the PFS drain.
    metrics:
        Optional registry fed ``recovery.plans`` / ``recovery.from_bb`` /
        ``recovery.full_restarts`` counters and a ``recovery.read_seconds``
        histogram.
    """
    snap = ledger.recovery_snapshot()
    newest = ledger.bb
    if costs.neighbor_read is not None and newest is not None and (
        snap is None or newest.work >= snap.work
    ):
        # Neighbor level: the newest BB generation is recoverable even
        # before its drain lands — the partner holds the dead node's copy
        # and streams it to the replacement over the interconnect.
        plan = RecoveryPlan(newest.work, costs.neighbor_read,
                            costs.restart_delay, True)
    elif snap is None:
        # Nothing committed anywhere: full restart, nothing to read.
        plan = RecoveryPlan(0.0, 0.0, costs.restart_delay, False)
    elif snap.kind is SnapshotKind.PERIODIC and ledger.survivors_can_use_bb():
        # Survivors hit their BBs in parallel; the replacement node is the
        # only PFS reader.  The two proceed concurrently.
        plan = RecoveryPlan(snap.work, costs.bb_read, costs.restart_delay,
                            True)
    else:
        # Proactive snapshot (or BBs out of sync): everyone reads the PFS.
        plan = RecoveryPlan(snap.work, costs.pfs_read, costs.restart_delay,
                            False)
    if metrics is not None:
        metrics.counter("recovery.plans").inc()
        if plan.from_bb:
            metrics.counter("recovery.from_bb").inc()
        if plan.restore_work == 0.0:
            metrics.counter("recovery.full_restarts").inc()
        metrics.histogram("recovery.read_seconds").observe(plan.read_seconds)
    return plan
