"""Shared-storage contention: every running job drains into one PFS.

In the single-application experiments each job owns the whole machine,
so :class:`~repro.cr.drain.DrainManager`'s per-job drain
lanes are the only queueing that matters.  Under a batch queue that
assumption breaks: *all* running jobs' burst-buffer drains and priority
PFS commits share the machine's parallel file system.  This module
models that sharing with one machine-wide
:class:`~repro.des.resources.PriorityResource`:

* ``drain_lanes`` concurrent BB→PFS transfers machine-wide (the paper's
  bleed-off concurrency cap, lifted from per-job to per-machine);
* p-ckpt **priority writes** preempt the lane queue (priority 0 vs the
  drains' priority 1) — the protocol's contention-free guarantee for the
  vulnerable node survives multi-tenancy because vulnerable traffic
  always grants before periodic drain traffic;
* an optional ``background_load`` divides realized bandwidth by
  ``1 - load``, the same derating
  :class:`~repro.iomodel.congestion.CongestedPFSModel` applies — so a
  sched run at load *x* and a single-job run on a congested PFS at load
  *x* see identical service times.

Drain *wait* time (queueing delay before a lane grants) is the layer's
contention signal; it feeds the ``sched.drain.wait`` histogram.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..des import Environment, PriorityResource
from ..des.metrics import MetricsRegistry
from ..platform.pfs import PFSSpec

__all__ = ["SharedStorage"]

#: Queue priorities on the machine-wide PFS resource (lower grants first).
PRIORITY_WRITE = 0.0
PRIORITY_DRAIN = 1.0


class SharedStorage:
    """Machine-wide PFS front end with prioritized lane arbitration.

    Parameters
    ----------
    env:
        The simulation environment.
    pfs:
        The PFS spec answering service-time queries.
    drain_lanes:
        Concurrent BB→PFS transfers machine-wide.
    background_load:
        External PFS utilization in ``[0, 1)``; realized bandwidth is
        derated by ``1 - load`` (matching ``CongestedPFSModel``).
    metrics:
        Optional registry receiving drain-wait observations.
    """

    def __init__(
        self,
        env: Environment,
        pfs: PFSSpec,
        drain_lanes: int = 2,
        background_load: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if drain_lanes < 1:
            raise ValueError("drain_lanes must be >= 1")
        if not (0.0 <= background_load < 1.0):
            raise ValueError("background_load must be in [0, 1)")
        self.env = env
        self.pfs = pfs
        self._lanes = PriorityResource(env, capacity=drain_lanes)
        self._derate = 1.0 - background_load
        self.metrics = metrics
        #: Completed drains / priority writes, machine-wide (run stats).
        self.drains_completed = 0
        self.priority_writes = 0

    # -- service-time queries (derated) -----------------------------------
    def drain_seconds(self, nnodes: int, bytes_per_node: float) -> float:
        """Service time of one full periodic-checkpoint drain."""
        return self.pfs.drain_time(nnodes, bytes_per_node) / self._derate

    def priority_write_seconds(self, bytes_per_node: float) -> float:
        """Service time of one vulnerable node's prioritized commit."""
        return self.pfs.priority_write_time(bytes_per_node) / self._derate

    def safeguard_seconds(self, nnodes: int, bytes_per_node: float) -> float:
        """Service time of an all-node proactive safeguard commit."""
        return self.pfs.proactive_write_time(nnodes, bytes_per_node) / self._derate

    def restore_seconds(self, nnodes: int, bytes_per_node: float) -> float:
        """All-node PFS restore (reads bypass the write-lane queue)."""
        return self.pfs.full_restore_read_time(nnodes, bytes_per_node) / self._derate

    # -- processes ---------------------------------------------------------
    def drain(self, nnodes: int, bytes_per_node: float) -> Generator:
        """Hold a drain lane for one checkpoint's BB→PFS bleed-off.

        Yields from a process context; returns when the drain commits.
        """
        asked = self.env.now
        with self._lanes.request(priority=PRIORITY_DRAIN) as req:
            yield req
            if self.metrics is not None:
                self.metrics.histogram("sched.drain.wait_seconds").observe(
                    self.env.now - asked
                )
            yield self.env.timeout(self.drain_seconds(nnodes, bytes_per_node))
        self.drains_completed += 1

    def priority_write(self, bytes_per_node: float) -> Generator:
        """Hold a lane for a vulnerable node's prioritized PFS commit.

        Grants ahead of every queued drain (priority 0 < 1), preserving
        the p-ckpt contention-free guarantee across jobs.
        """
        with self._lanes.request(priority=PRIORITY_WRITE) as req:
            yield req
            yield self.env.timeout(self.priority_write_seconds(bytes_per_node))
        self.priority_writes += 1

    def safeguard_write(self, nnodes: int, bytes_per_node: float) -> Generator:
        """Hold a lane for an all-node safeguard checkpoint commit.

        Same preemptive priority as :meth:`priority_write` — proactive
        mitigation traffic always beats periodic drains.
        """
        with self._lanes.request(priority=PRIORITY_WRITE) as req:
            yield req
            yield self.env.timeout(self.safeguard_seconds(nnodes, bytes_per_node))
        self.priority_writes += 1
