"""Lead-time priority queue for vulnerable nodes (paper Sec. VI).

"The p-ckpt process is implemented with node-local priority queues, where
vulnerable nodes with lower lead time to failures have higher priority
while all healthy nodes have equal lower priorities."

At any instant, ordering by *remaining* lead time equals ordering by the
predicted absolute failure time, so the queue keys on the latter — it is
stable as simulation time advances, whereas raw lead times would need
re-keying every step.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

from ..failures.injector import FailureEvent, FalseAlarmEvent

__all__ = ["VulnerableEntry", "LeadTimePriorityQueue"]


class VulnerableEntry(NamedTuple):
    """One vulnerable node awaiting its prioritized PFS commit.

    Immutable and equal by value; a named tuple because one is built per
    queued node of every p-ckpt.

    Attributes
    ----------
    node:
        Node index.
    predicted_failure_time:
        Absolute time the failure is predicted to occur (the priority key;
        earlier = more urgent).
    prediction:
        The triggering prediction (a real :class:`FailureEvent` or a
        :class:`FalseAlarmEvent` — the protocol cannot tell them apart,
        exactly like the real system).
    """

    node: int
    predicted_failure_time: float
    prediction: Union[FailureEvent, FalseAlarmEvent]

    def lead_time_remaining(self, now: float) -> float:
        """Time left before the predicted failure."""
        return self.predicted_failure_time - now


class LeadTimePriorityQueue:
    """Min-heap of :class:`VulnerableEntry` by predicted failure time.

    Supports removal (a node whose migration completed, or whose alarm
    expired, leaves the queue) via lazy tombstoning.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, VulnerableEntry]] = []
        self._live: dict[int, VulnerableEntry] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, node: int) -> bool:
        return node in self._live

    def push(self, entry: VulnerableEntry) -> None:
        """Enqueue a vulnerable node.

        A node already queued is re-keyed (a *newer* prediction for the
        same node supersedes the old one — the Fig 5 "lower lead time"
        re-prediction case).
        """
        self._live[entry.node] = entry
        heapq.heappush(
            self._heap, (entry.predicted_failure_time, next(self._counter), entry)
        )

    def remove(self, node: int) -> Optional[VulnerableEntry]:
        """Remove a node from the queue (returns its entry, if present)."""
        return self._live.pop(node, None)

    def peek(self) -> Optional[VulnerableEntry]:
        """Most urgent live entry without removing it."""
        self._skim()
        return self._heap[0][2] if self._heap else None

    def pop(self) -> VulnerableEntry:
        """Remove and return the most urgent live entry."""
        self._skim()
        if not self._heap:
            raise IndexError("pop from empty LeadTimePriorityQueue")
        _, _, entry = heapq.heappop(self._heap)
        del self._live[entry.node]
        return entry

    def entries(self) -> Iterator[VulnerableEntry]:
        """Iterate live entries in arbitrary order."""
        return iter(self._live.values())

    def _skim(self) -> None:
        """Drop stale heap heads (removed or superseded entries)."""
        while self._heap:
            _, _, entry = self._heap[0]
            if self._live.get(entry.node) is entry:
                return
            heapq.heappop(self._heap)
