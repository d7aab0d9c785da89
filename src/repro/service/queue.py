"""Bounded multi-tenant job queue with weighted-round-robin dispatch.

The service admits jobs into per-tenant FIFO lanes and dispatches them
**fairly**, not in arrival order: the dispatcher cycles tenants in
first-seen order, granting each up to ``weight`` consecutive jobs per
visit before moving on.  A tenant that floods the queue therefore only
delays its own later jobs — with one worker, the dispatch order for

    A: a1 a2 a3   then   B: b1        (equal weights)

is ``a1 b1 a2 a3``, never ``a1 a2 a3 b1``.

Admission is bounded: :meth:`FairShareQueue.push` raises
:class:`QueueFull` once ``limit`` jobs are waiting, which the HTTP
layer maps to ``429 Too Many Requests`` + ``Retry-After`` —
backpressure, not unbounded memory.

All methods run on the server's event loop thread.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from typing import Deque, Dict, Optional

from .jobs import Job

__all__ = ["QueueFull", "FairShareQueue"]


class QueueFull(RuntimeError):
    """Admission refused: the queue already holds ``limit`` jobs."""

    def __init__(self, limit: int, retry_after: float) -> None:
        self.limit = limit
        #: Suggested client back-off (seconds) for the Retry-After header.
        self.retry_after = retry_after
        super().__init__(f"queue full ({limit} jobs waiting)")


class FairShareQueue:
    """Per-tenant lanes + weighted round-robin, behind one awaitable pop.

    Parameters
    ----------
    limit:
        Maximum jobs waiting across all tenants (admission bound).
    retry_after:
        Back-off hint carried by :class:`QueueFull`.
    """

    def __init__(self, limit: int = 64, retry_after: float = 2.0) -> None:
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.limit = limit
        self.retry_after = retry_after
        # Tenant lanes in first-seen order — the WRR visiting order.
        self._lanes: "OrderedDict[str, Deque[Job]]" = OrderedDict()
        self._weights: Dict[str, int] = {}
        self._cursor: Optional[str] = None    # tenant currently being served
        self._credit = 0                      # remaining grants at cursor
        self._size = 0
        self._closed = False
        self._wakeup = asyncio.Event()

    def __len__(self) -> int:
        return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    def depth_by_tenant(self) -> Dict[str, int]:
        """Waiting jobs per tenant (empty lanes omitted)."""
        return {t: len(lane) for t, lane in self._lanes.items() if lane}

    def set_weight(self, tenant: str, weight: int) -> None:
        """Grant *tenant* up to *weight* consecutive dispatches per round."""
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self._weights[tenant] = int(weight)

    def check_room(self) -> None:
        """Raise what :meth:`push` would raise for one more job.

        Lets the caller refuse a job before it spends anything on it:
        it takes no id and writes no line.

        Raises
        ------
        QueueFull
            When ``limit`` jobs are already waiting.
        RuntimeError
            When the queue is closed (service shutting down).
        """
        if self._closed:
            raise RuntimeError("queue is closed")
        if self._size >= self.limit:
            raise QueueFull(self.limit, self.retry_after)

    def push(self, job: Job) -> int:
        """Admit *job*; returns its position in the tenant's lane (0-based).

        Raises what :meth:`check_room` raises.
        """
        self.check_room()
        lane = self._lanes.get(job.tenant)
        if lane is None:
            lane = self._lanes[job.tenant] = deque()
            self._weights.setdefault(job.tenant, 1)
        lane.append(job)
        self._size += 1
        self._wakeup.set()
        return len(lane) - 1

    async def pop(self) -> Optional[Job]:
        """Next job under WRR, or ``None`` once closed and drained."""
        while True:
            if self._size:
                return self._pop_now()
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

    def _pop_now(self) -> Job:
        tenants = [t for t, lane in self._lanes.items() if lane]
        assert tenants, "pop on empty queue"
        if self._cursor not in tenants or self._credit <= 0:
            # Advance to the next non-empty tenant after the cursor, in
            # first-seen order, wrapping; refill its credit.
            order = list(self._lanes)
            if self._cursor in order:
                start = order.index(self._cursor) + (
                    1 if self._credit <= 0 else 0
                )
            else:
                start = 0
            for i in range(len(order)):
                candidate = order[(start + i) % len(order)]
                if self._lanes[candidate]:
                    self._cursor = candidate
                    self._credit = self._weights.get(candidate, 1)
                    break
        assert self._cursor is not None
        job = self._lanes[self._cursor].popleft()
        self._size -= 1
        self._credit -= 1
        if not self._lanes[self._cursor]:
            # Lane drained: the cursor yields its remaining credit so
            # the next tenant starts fresh.
            self._credit = 0
        return job

    def drain(self) -> None:
        """Remove every waiting job (shutdown: they stay on disk)."""
        for lane in self._lanes.values():
            lane.clear()
        self._size = 0

    def close(self) -> None:
        """Stop admissions; blocked ``pop``s return ``None`` when empty."""
        self._closed = True
        self._wakeup.set()
