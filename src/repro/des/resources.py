"""Shared-resource primitives: :class:`Resource` and :class:`PriorityResource`.

These model contention points in the platform — most importantly the
machine-wide PFS lanes of a batch-queue run (``repro.sched.contention``),
a :class:`PriorityResource` where a *lower* priority value is served
first, so p-ckpt's vulnerable-node commits grant ahead of periodic
drains.

Requests are events; a process acquires by ``yield resource.request()`` and
must release with ``resource.release(req)`` (or use the request as a context
manager).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Deque, List, Tuple

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Request", "PriorityRequest", "Release", "Resource", "PriorityResource"]


class Request(Event):
    """A request to acquire one slot of a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...  # slot held here
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Inlined Event.__init__ (requests are created once per acquire on
        # the drain/protocol hot paths; keep in sync with events.Event).
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.resource = resource
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request (no-op if already granted)."""
        if self._value is PENDING:
            self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Release if granted; cancel if still waiting.
        if self._value is PENDING:
            self.cancel()
        elif self in self.resource.users:
            self.resource.release(self)


class PriorityRequest(Request):
    """A prioritized request; lower ``priority`` values are served first.

    Ties are broken by request time, then FIFO submission order.
    """

    __slots__ = ("priority", "time")

    def __init__(self, resource: "PriorityResource", priority: float = 0.0) -> None:
        self.priority = float(priority)
        self.time = resource.env.now
        super().__init__(resource)

    def __repr__(self) -> str:
        state = "granted" if self.triggered else "waiting"
        return f"<PriorityRequest prio={self.priority} ({state})>"


class Release(Event):
    """Event representing the release of a resource slot (fires at once)."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request) -> None:
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.resource = resource
        self.request = request
        resource._do_release(self)
        self.succeed(None)


class Resource:
    """A resource with *capacity* identical slots and FIFO queueing.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Number of slots that may be held concurrently (>= 1).

    Raises
    ------
    ValueError
        If *capacity* is less than 1.

    Notes
    -----
    Grant order is deterministic: FIFO over request creation, which in
    turn follows the deterministic event order of the environment.  The
    wait queue is a :class:`collections.deque` so the grant path pops
    from the left in O(1) (cancellation, the rare path, stays O(n)).

    ``request()`` and ``release(request)`` — acquire a slot (possibly
    immediately) / release a held one; each returns an event.  Both are
    bound as :func:`functools.partial` instance attributes rather than
    methods (the ``Environment.timeout`` hot-path pattern): the p-ckpt
    drain loops acquire and release once per checkpoint segment.
    """

    __slots__ = ("env", "_capacity", "users", "queue", "request", "release")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        #: Requests currently holding a slot.
        self.users: List[Request] = []
        #: Requests waiting for a slot, in grant order.
        self.queue: Deque[Request] = deque()
        #: Acquire: ``resource.request()`` -> Request (see class docs).
        self.request = partial(Request, self)
        #: Release: ``resource.release(request)`` -> Release.
        self.release = partial(Release, self)

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    # -- internals ---------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed(None)
        else:
            self.queue.append(request)

    def _do_release(self, release: Release) -> None:
        try:
            self.users.remove(release.request)
        except ValueError:
            raise RuntimeError(
                f"cannot release {release.request!r}: it does not hold a slot"
            ) from None
        self._grant_next()

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed(None)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} capacity={self._capacity} "
            f"users={len(self.users)} queued={len(self.queue)}>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is ordered by priority.

    Lower priority values win.  ``repro.sched.contention`` requests its
    shared PFS lanes with priority 0 for p-ckpt commits and 1 for
    periodic drains, so vulnerable traffic always grants first.

    Ties are broken by request time, then submission sequence, so the
    grant order is deterministic for any mix of priorities.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._heap: List[Tuple[float, float, int, PriorityRequest]] = []
        self._seq = 0
        #: Acquire with a priority (lower = sooner):
        #: ``resource.request(priority=...)`` -> PriorityRequest.
        self.request = partial(PriorityRequest, self)

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        if len(self.users) < self._capacity and not self._heap:
            self.users.append(request)
            request.succeed(None)
        else:
            heappush(self._heap, (request.priority, request.time, self._seq, request))
            self._seq += 1
            self.queue.append(request)

    def _grant_next(self) -> None:
        while self._heap and len(self.users) < self._capacity:
            _, _, _, nxt = heappop(self._heap)
            if nxt._value is not PENDING:  # cancelled entries are skipped
                continue
            self.queue.remove(nxt)
            self.users.append(nxt)
            nxt.succeed(None)

    def _cancel(self, request: Request) -> None:
        # Lazy deletion: mark by failing silently is wrong (waiters may
        # observe); instead remove from the visible queue and leave the heap
        # entry to be skipped at grant time.
        try:
            self.queue.remove(request)
        except ValueError:
            return
        request._value = _CANCELLED
        request._ok = True
        request.callbacks = None


#: Sentinel assigned to cancelled priority requests so the heap skips them.
_CANCELLED: Any = object()
