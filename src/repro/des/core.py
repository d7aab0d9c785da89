"""The simulation :class:`Environment` — event loop and clock.

The environment owns a binary-heap event queue ordered by
``(time, priority, sequence)``.  The sequence number makes scheduling
deterministic: two events scheduled for the same time and priority are
processed in the order they were scheduled.  Determinism matters for this
package because every experiment must be exactly reproducible from a seed
(see "Determinism contract" in ``docs/ARCHITECTURE.md``).

Performance
-----------
:meth:`Environment.run` inlines event dispatch in one loop instead of
calling :meth:`Environment.step` per event: the heap and the pop function
are kept in locals, the events-processed count is derived from heap
deltas rather than counted, and the per-event Python-level call overhead
is gone.  ``step()`` remains the single-event reference implementation
(and the kernel API for manual stepping); the loop must match its
semantics exactly.  ``docs/PERFORMANCE.md`` describes the hot path and
how changes here are benchmarked.
"""

from __future__ import annotations

import time as _time
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .events import NORMAL, PENDING, AllOf, AnyOf, Event, Timeout
from .exceptions import EmptySchedule, SimulationError
from .process import Process, ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry
    from ..obs.profiler import KernelProfiler

__all__ = ["Environment", "Infinity", "KERNEL_OWNER"]

#: Positive infinity, usable as an `until` value meaning "run to exhaustion".
Infinity: float = float("inf")

#: Attribution owner used by the profiler for events whose first callback
#: has no named owner (condition checks, bare events, clock idle
#: advances).  See ``repro.obs.profiler``.
KERNEL_OWNER: str = "kernel"


def _owner_name(callbacks: List[Any]) -> str:
    """Profiler owner of an event with these callbacks.

    The ``name`` string of the object whose bound method is the first
    callback — a :class:`Process` resume, or a named callback owner such
    as ``repro.cr.DrainManager`` — else :data:`KERNEL_OWNER`.
    """
    owner = getattr(callbacks[0], "__self__", None) if callbacks else None
    name = getattr(owner, "name", None)
    return name if isinstance(name, str) else KERNEL_OWNER


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds in this package).

    Notes
    -----
    **Determinism contract.**  The event queue is ordered by
    ``(time, priority, sequence)`` where the sequence number increments on
    every schedule.  Given the same initial state and the same sequence of
    ``schedule`` calls, an environment dispatches the exact same events in
    the exact same order — there is no wall-clock, iteration-order, or
    hash-randomization dependence anywhere in the kernel.  Every
    replication of every experiment in this package relies on this.

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return "done"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    5.0
    >>> p.value
    'done'
    """

    __slots__ = (
        "_now",
        "_initial_time",
        "_queue",
        "_eid",
        "_active_proc",
        "_until",
        "_cancels",
        "_discards",
        "metrics",
        "profiler",
        "events_processed",
        "queue_high_water",
        "wall_seconds",
        "event",
        "timeout",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        self._initial_time: float = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid: int = 0
        self._active_proc: Optional[Process] = None
        #: Numeric ``until`` of the run loop in progress (``inf`` for a
        #: run to exhaustion or to an event); ``-inf`` outside any run
        #: loop, so nothing may :meth:`advance` under a bare :meth:`step`.
        self._until: float = -Infinity
        # Lazy deletion of cancelled entries (see :meth:`cancel`): every
        # cancel so far, and every cancelled entry since popped unseen.
        self._cancels: int = 0
        self._discards: int = 0
        #: Optional :class:`~repro.des.metrics.MetricsRegistry` shared by
        #: components holding this environment (attach via
        #: :meth:`attach_metrics`); ``None`` keeps recording disabled.
        self.metrics: Optional["MetricsRegistry"] = None
        #: Optional :class:`~repro.obs.profiler.KernelProfiler` (attach via
        #: :meth:`attach_profiler`); ``None`` keeps per-event attribution
        #: disabled.  :meth:`run` loads it into a local once per call, so
        #: the disabled mode pays one local test per event.
        self.profiler: Optional["KernelProfiler"] = None
        # -- kernel self-profiling (cheap enough to leave always on) -----
        #: Events popped and dispatched so far.
        self.events_processed: int = 0
        #: Deepest the event heap has ever been.
        self.queue_high_water: int = 0
        #: Wall-clock seconds spent inside :meth:`run` loops.
        self.wall_seconds: float = 0.0
        # -- event factories (hot, so bound as C-level partials) ---------
        #: Create a new untriggered :class:`Event`: ``env.event()``.
        self.event = partial(Event, self)
        #: Create a :class:`Timeout` firing after a delay:
        #: ``env.timeout(delay, value=None)``.  Raises :class:`ValueError`
        #: if the delay is negative.  Bound as a :func:`functools.partial`
        #: rather than a method so the hottest event factory in the
        #: package skips one Python frame per call.
        self.timeout = partial(Timeout, self)

    # -- clock & introspection -------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain.

        Cancelled entries at the head of the queue are discarded first.
        """
        queue = self._queue
        while queue and queue[0][3].callbacks is None:
            heappop(queue)
            self._discards += 1
        return queue[0][0] if queue else Infinity

    def horizon(self) -> float:
        """Earliest time at which anything else can happen.

        The next scheduled event or the numeric ``until`` of the running
        loop, whichever comes first; ``-inf`` outside a run loop.  Up to
        (but excluding) this time the caller owns the clock.  A cancelled
        entry does not hold it (see :meth:`cancel`).
        """
        nxt = self.peek()
        until = self._until
        return nxt if nxt < until else until

    def advance(self, t: float) -> None:
        """Move the clock to *t* without dispatching anything.

        For a callback that knows nothing else happens before *t*: it runs
        an undisturbed stretch of simulated time inline instead of
        scheduling events for it.  *t* must lie strictly before
        :meth:`horizon`, so no event and no ``until`` bound is skipped.

        Raises
        ------
        SimulationError
            If *t* is before :attr:`now` or not before :meth:`horizon`.
        """
        if not self._now <= t < self.horizon():
            raise SimulationError(
                f"cannot advance from {self._now} to {t} "
                f"(horizon {self.horizon()})"
            )
        self._now = t

    @property
    def queue_size(self) -> int:
        """Number of scheduled-but-unprocessed events (diagnostics).

        Cancelled entries still in the heap are not counted.
        """
        return len(self._queue) - (self._cancels - self._discards)

    def cancel(self, event: Event) -> None:
        """Withdraw the scheduled *event*: it will never be processed.

        For a timeout nothing waits on any more, such as the one an
        interrupted process leaves behind.  The event's callbacks are
        dropped unrun and it reads as processed from now on.  Its heap
        entry stays where it is and is discarded when it reaches the head
        of the queue — by :meth:`peek`, :meth:`horizon`, :meth:`step` or
        :meth:`run`, all alike.  A discarded entry is not an event: it
        does not move the clock, is not counted in
        :attr:`events_processed`, and the profiler never sees it.

        Raises
        ------
        SimulationError
            If *event* is not scheduled, or already processed or
            cancelled.
        """
        if event.callbacks is None:
            raise SimulationError(f"{event!r} is already processed or cancelled")
        if event._value is PENDING:
            raise SimulationError(f"{event!r} is not scheduled")
        event.callbacks = None
        self._cancels += 1

    # -- event factories ---------------------------------------------------
    # ``event`` and ``timeout`` are per-instance partials (see __init__):
    # they behave exactly like the obvious methods but dispatch through
    # functools.partial's C call path.
    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` from *generator*.

        Raises
        ------
        TypeError
            If *generator* is not a generator object.
        """
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Condition that fires once all *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Condition that fires once any of *events* has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule *event* to be processed after *delay*.

        Kernel API; user code triggers events via ``succeed``/``fail``.
        The event is keyed by ``(now + delay, priority, sequence)`` — see
        the class docstring for the determinism contract this implements.
        (:class:`~.events.Timeout` inlines an equivalent of this method;
        keep the two in sync.)

        Raises
        ------
        ValueError
            If *delay* is negative.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heappush(self._queue, (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def step(self) -> None:
        """Process the single next event.

        This is the reference implementation of event dispatch: discard
        cancelled entries at the head, pop the earliest
        ``(time, priority, sequence)`` entry, advance the clock,
        consume the callback list (an event is processed exactly once),
        and re-raise unhandled failures.  :meth:`run` inlines these exact
        semantics.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        self.peek()  # discards cancelled entries at the head
        qlen = len(self._queue)
        if qlen > self.queue_high_water:
            self.queue_high_water = qlen
        prev_now = self._now
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events left") from None
        self.events_processed += 1

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        profiler = self.profiler
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            t0 = _time.perf_counter()
            for callback in callbacks:
                callback(event)
            wall = _time.perf_counter() - t0
            profiler.record(
                _owner_name(callbacks),
                type(event).__name__,
                wall,
                self._now - prev_now,
            )

        if not event._ok and not event._defused:
            # Nobody handled the failure — propagate it out of the loop.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue is exhausted.
            A number — run until the clock reaches that time (must be
            strictly greater than :attr:`now`).
            An :class:`Event` — run until that event is processed and
            return its value.

        Returns
        -------
        The value of *until* when it is an event, else ``None``.

        Raises
        ------
        ValueError
            If *until* is a number less than or equal to :attr:`now`
            (including exactly equal — a zero-length run is always a bug
            in the caller).
        SimulationError
            If *until* is an event and the queue empties before it fires.
        BaseException
            A failed event whose exception no process handled is
            re-raised out of the loop exactly as :meth:`step` would.
        """
        # Hot path: one loop inlines step() with the heap, heappop, and
        # the profiler in locals.  Any semantic change here must be
        # mirrored in step() (and vice versa).
        if until is None:
            at = Infinity
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_event = until
            at = Infinity
            if stop_event.callbacks is None:
                # Already processed — nothing to run.
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(_StopFlag())
        else:
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until ({at}) must be greater than now ({self._now})")
            stop_event = None

        # The heap high-water mark is sampled at pop time (queue length is
        # maximal right before a pop) so the schedule fast paths don't pay
        # a per-push attribute compare.  Only a dispatched event samples
        # it, as the length before its pop: step() discards the cancelled
        # entries ahead of it first, so both read the same heap.  A
        # cancelled entry past the until time is left for a later discard.
        # The processed count is derived in the finally block instead of
        # incremented per event: every heap push increments _eid exactly
        # once (the sequence-uniqueness invariant the heap key relies on),
        # so pops == pushes-during-run + queue-length delta, and the
        # dispatched events are those pops less the cancelled entries
        # discarded meanwhile (here or by a callback's horizon()).
        queue = self._queue
        pop = heappop
        perf = _time.perf_counter
        profiler = self.profiler
        record = profiler.record if profiler is not None else None
        eid_start = self._eid
        len_start = len(queue)
        discards_start = self._discards
        hw = self.queue_high_water
        until_outer = self._until
        self._until = at
        wall_start = perf()
        try:
            while queue:
                if queue[0][0] > at:
                    break
                when, _, _, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    # Cancelled: discarded unseen, as peek() does for step().
                    self._discards += 1
                    continue
                qlen = len(queue) + 1
                if qlen > hw:
                    hw = qlen
                prev_now = self._now
                self._now = when
                event.callbacks = None
                if profiler is None:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                else:
                    # Attribution rules, kept identical to step(): the
                    # owner is the first callback's named object, wall is
                    # the callback span, and sim runs from before the pop
                    # to after the callbacks (so an advance() counts
                    # toward its event).
                    t0 = perf()
                    for callback in callbacks:
                        callback(event)
                    record(
                        _owner_name(callbacks),
                        type(event).__name__,
                        perf() - t0,
                        self._now - prev_now,
                    )
                if not event._ok and not event._defused:
                    raise event._value
                if stop_event is not None and stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
        finally:
            self._until = until_outer
            self.events_processed += (
                (self._eid - eid_start) + (len_start - len(queue))
                - (self._discards - discards_start)
            )
            if hw > self.queue_high_water:
                self.queue_high_water = hw
            self.wall_seconds += perf() - wall_start

        if stop_event is not None:
            # Loop drained without the flag firing.
            raise SimulationError(
                f"simulation ended before the until-event {stop_event!r} was triggered"
            )
        if at != Infinity and self._now < at:
            # Nothing left before the target time: advance the clock, and
            # charge the stretch to the kernel's idle row when profiling.
            if profiler is not None:
                record(KERNEL_OWNER, "idle", 0.0, at - self._now)
            self._now = at
        return None

    # -- observability ----------------------------------------------------
    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Share a metrics registry with components using this environment."""
        self.metrics = registry

    def attach_profiler(self, profiler: "KernelProfiler") -> None:
        """Enable per-event attribution profiling (see ``repro.obs``).

        Subsequent :meth:`run` and :meth:`step` calls record per-event
        attributions into *profiler*.  Attach before running.
        """
        self.profiler = profiler

    def detach_profiler(self) -> None:
        """Disable attribution profiling."""
        self.profiler = None

    def kernel_stats(self) -> Dict[str, float]:
        """Kernel self-profile of this environment.

        Returns events processed, the heap-depth high-water mark, wall
        seconds spent in the event loop, simulated seconds elapsed, and the
        wall-per-sim-second ratio (the DES hot-loop figure of merit; wall
        values are measurement, not simulation, and are therefore excluded
        from the deterministic metrics registry).  ``pckpt bench`` reports
        these numbers for a fixed workload set — see ``docs/PERFORMANCE.md``.
        """
        sim_seconds = self._now - self._initial_time
        return {
            "events_processed": float(self.events_processed),
            "queue_high_water": float(self.queue_high_water),
            "wall_seconds": self.wall_seconds,
            "sim_seconds": sim_seconds,
            "wall_per_sim_second": (
                self.wall_seconds / sim_seconds if sim_seconds > 0 else 0.0
            ),
        }

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={self.queue_size}>"


class _StopFlag:
    """Callback object marking that the until-event has been processed."""

    __slots__ = ()

    def __call__(self, event: Event) -> None:
        # Presence in callbacks is enough; run() checks callbacks is None.
        return None
