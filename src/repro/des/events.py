"""Event primitives for the :mod:`repro.des` kernel.

Events follow the SimPy life cycle:

1. *untriggered* — freshly created, may collect callbacks;
2. *triggered* — a value (or exception) has been set and the event has been
   scheduled on the environment's event queue;
3. *processed* — the environment has popped the event and invoked all of its
   callbacks.  Adding a callback to a processed event is an error.

Only the environment may move an event from *triggered* to *processed*,
either by dispatching it or, through
:meth:`~repro.des.core.Environment.cancel`, by dropping its callbacks
unrun; a cancelled event's queue entry is then discarded unseen.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from .exceptions import Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Initialize",
    "Interruption",
]

#: Sentinel for "no value set yet".
PENDING: Any = object()

#: Scheduling priority for urgent (kernel-internal) events.
URGENT: int = 0
#: Scheduling priority for ordinary events.
NORMAL: int = 1


class Event:
    """An event that may happen at some point in simulated time.

    Parameters
    ----------
    env:
        The environment the event lives in.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    # ``_defused`` is deliberately NOT initialized here (or in any of the
    # inlined event constructors): it is only ever read after a failure,
    # and :meth:`fail` / :meth:`trigger` set it on that path.  Event
    # construction is the kernel's hottest allocation site, so each
    # constructor saves one attribute store per event.  The ``defused``
    # property tolerates the unset slot for never-failed events.

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked (in order) when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value has been set and the event is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises
        ------
        AttributeError
            If the event has not been triggered yet.
        """
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failed event's exception has been marked as handled."""
        return getattr(self, "_defused", False)

    def defuse(self) -> None:
        """Mark a failed event as handled, suppressing kernel re-raise."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Set the event's value and schedule it.

        Returns the event itself so triggering can be chained at creation.
        The event is dispatched at the current simulation time, ordered
        against same-time events by (priority, schedule sequence).

        Raises
        ------
        SimulationError
            If the event has already been triggered.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined Environment.schedule with delay=0 (the only case here);
        # keep the key tuple in sync with core.Environment.schedule.  The
        # queue high-water mark is sampled at pop time by the run loop.
        env = self.env
        heappush(env._queue, (env._now, priority, env._eid, self))
        env._eid += 1
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Fail the event with *exception* and schedule it.

        Waiters will have the exception thrown into them.  If no waiter
        handles (defuses) the failure, the kernel re-raises it out of
        :meth:`Environment.run`.

        Raises
        ------
        SimulationError
            If the event has already been triggered.
        TypeError
            If *exception* is not a ``BaseException`` instance.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._defused = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now, priority, env._eid, self))
        env._eid += 1
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state and value of *event*.

        Useful as a callback to chain events together.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._defused = False
        self._value = event._value
        self.env.schedule(self, priority=NORMAL)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} object ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers itself after a *delay* of simulated time.

    Parameters
    ----------
    env:
        The environment to schedule on.
    delay:
        Simulated seconds until the event fires (>= 0).
    value:
        Value the event triggers with (default ``None``).

    Raises
    ------
    ValueError
        If *delay* is negative.

    Notes
    -----
    Timeouts dominate event traffic in every simulation, so ``__init__``
    is a fast path: it sets the :class:`Event` fields and pushes the
    ``(time, priority, sequence)`` queue entry directly instead of going
    through ``Event.__init__`` + :meth:`Environment.schedule` — one
    attribute-store sequence and one direct ``heappush`` per timeout, with
    identical scheduling semantics (same key tuple, same sequence
    numbering; the queue high-water mark is sampled at pop time by the
    run loop).
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        if type(delay) is not float:
            delay = float(delay)
        self._delay = delay
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))
        env._eid += 1

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class Initialize(Event):
    """Kernel-internal event that starts a new :class:`~.process.Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        super().__init__(env)
        self.callbacks = [process._cb]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Interruption(Event):
    """Kernel-internal event that throws an Interrupt into a process.

    Scheduled as *urgent* so that the interrupt is delivered before any
    ordinary event at the same simulation time.  Its value is the
    :class:`~.exceptions.Interrupt` the process catches: an interruption
    has exactly one target, so the process throws this exception itself
    rather than a copy (see :meth:`~.process.Process._resume`).
    """

    __slots__ = ("process",)

    def __init__(self, process: Any, cause: Any) -> None:
        super().__init__(process.env)
        if process._value is not PENDING:
            raise SimulationError(f"{process!r} has terminated and cannot be interrupted")
        if process is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        self.process = process
        self.callbacks = [self._interrupt]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: "Event") -> None:
        process = self.process
        # The process may have terminated in the meantime (e.g. its awaited
        # event fired at the same timestep); the interrupt then evaporates.
        if process._value is not PENDING:
            return
        # Detach the process from the event it is currently waiting for.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        process._resume(self)
