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
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

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
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
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

    Notes
    -----
    ``Event`` supports the ``&`` and ``|`` operators to build
    :class:`AllOf` / :class:`AnyOf` conditions, mirroring SimPy.
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

    # -- composition -----------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

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


class ConditionValue:
    """Ordered mapping of the events that triggered inside a condition.

    Behaves like a read-only dict keyed by the original event objects, in
    the order they were passed to the condition.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"

    def __iter__(self):
        return iter(self.events)

    def keys(self) -> Iterable[Event]:
        return iter(self.events)

    def values(self) -> Iterable[Any]:
        return (e._value for e in self.events)

    def items(self):
        return ((e, e._value) for e in self.events)

    def todict(self) -> dict:
        """Return a plain dict snapshot of event → value."""
        return {e: e._value for e in self.events}


class Condition(Event):
    """An event that triggers once *evaluate* is satisfied over *events*.

    The condition value is a :class:`ConditionValue` containing every
    composed event that had triggered by the time the condition fired.
    Failed sub-events fail the condition immediately.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        # Inlined Event.__init__ (conditions are built per protocol join;
        # keep in sync with events.Event).
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        # One pass: validate, eagerly check already-processed events, and
        # subscribe to the rest.  Subscription stops as soon as the
        # condition is decided — further callbacks would only be ignored
        # by _check, and the eager pruning in _check has already cleaned
        # up the ones added so far.
        check = self._check
        decided = False
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events of a condition must share an environment")
            if decided:
                continue
            if event.callbacks is None:
                check(event)
                decided = self._value is not PENDING
            else:
                event.callbacks.append(check)

        # An empty condition is immediately true.
        if self._value is PENDING and self._evaluate(self._events, self._count):
            self.succeed(ConditionValue())

        # When the condition fires, collect values and detach callbacks.
        assert self.callbacks is not None
        self.callbacks.append(self._build_value)

    def _desc(self) -> str:
        return f"{type(self).__name__}({self._evaluate.__name__}, {self._events})"

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            # Prune eagerly: the condition is decided, so the remaining
            # sub-events must not keep dead callbacks on their lists.
            self._remove_check_callbacks()
        elif self._evaluate(self._events, self._count):
            self.succeed(None)
            self._remove_check_callbacks()

    def _build_value(self, event: Event) -> None:
        # _check pruned the sub-event callbacks when the condition was
        # decided; here only the value remains to be assembled.
        if event._ok:
            value = ConditionValue()
            self._populate_value(value)
            self._value = value

    def _remove_check_callbacks(self) -> None:
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass
            if isinstance(event, Condition):
                event._remove_check_callbacks()

    def _populate_value(self, value: ConditionValue) -> None:
        # Only *processed* events belong in the value: a Timeout carries
        # its value from creation, so checking `triggered` would claim
        # events that have not actually happened yet.
        for event in self._events:
            if isinstance(event, Condition) and event.callbacks is None:
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        """Evaluate to true once every composed event has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        """Evaluate to true once any composed event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires when *all* of *events* have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)

    def _check(self, event: Event) -> None:
        # Specialized Condition._check with the all_events predicate
        # inlined (conditions fire once per composed event on the
        # protocol's phase-2 joins; keep in sync with Condition._check).
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._remove_check_callbacks()
        elif self._count == len(self._events):
            # No pruning needed on success: all-of can only fire once
            # every composed event has been *processed*, so there are no
            # live callback lists left to remove this check from (and any
            # fired sub-condition already pruned its own sub-events).
            self.succeed(None)


class AnyOf(Condition):
    """Condition that fires when *any* of *events* has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)

    def _check(self, event: Event) -> None:
        # Specialized Condition._check: any fired event decides the
        # condition (keep in sync with Condition._check).
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(None)
        self._remove_check_callbacks()
