"""The simulation :class:`Environment` — event loop and clock.

The environment owns a binary-heap event queue ordered by
``(time, priority, sequence)``.  The sequence number makes scheduling
deterministic: two events scheduled for the same time and priority are
processed in the order they were scheduled.  Determinism matters for this
package because every experiment must be exactly reproducible from a seed
(see "Determinism contract" in ``docs/ARCHITECTURE.md``).

Performance
-----------
:meth:`Environment.run` is the hottest loop in the package — every
simulated second of every replication of every sweep goes through it — so
it inlines event dispatch instead of calling :meth:`Environment.step` per
event: the heap and the pop function are kept in locals, the
events-processed count is derived from heap deltas rather than counted,
and the per-event Python-level call overhead is gone.
``step()`` remains the single-event reference implementation (and the
kernel API for manual stepping); the inlined loops must match its
semantics exactly.  ``docs/PERFORMANCE.md`` describes the hot-path
architecture and how changes here are benchmarked.
"""

from __future__ import annotations

import math as _math
import time as _time
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .events import NORMAL, AllOf, AnyOf, Event, Timeout
from .exceptions import EmptySchedule, SimulationError
from .process import Process, ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry
    from ..obs.profiler import KernelProfiler

__all__ = ["CalendarQueue", "Environment", "Infinity", "KERNEL_OWNER"]

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


#: Every this-many created calendar buckets, the queue probes whether the
#: workload still profits from bucketing (power of two: the probe check
#: is a single AND against ``_DENSITY_PROBE_MASK``).
_DENSITY_PROBE_BUCKETS: int = 512
_DENSITY_PROBE_MASK: int = _DENSITY_PROBE_BUCKETS - 1

#: Minimum schedules-per-created-bucket ratio at the density probe; below
#: it (sparse timer chains: every event lands in a fresh bucket) the
#: binary heap is at least as fast, so the queue demotes itself.
_MIN_EVENTS_PER_BUCKET: int = 2

#: Maximum fraction of pushes allowed through the Python-level
#: :meth:`CalendarQueue.push` binning path at a density probe, as the
#: denominator of 1/N.  The calendar only beats the heap when most
#: pushes are same-time cascade appends (C-level ``deque.append`` during
#: a bucket drain); a workload dominated by ``Timeout``-style binned
#: pushes pays a Python frame where ``heappush`` costs a C call, so it
#: runs faster on the heap and the queue demotes itself.  1/4 is the
#: measured break-even region: a bounded-store backpressure loop (one
#: timer per three pushes, 33% binned) loses ~20% on the calendar, while
#: cascade storms sit near 0% binned.
_MAX_BINNED_FRACTION_DENOM: int = 4


class CalendarQueue:
    """Bucket queue specialized for grid-aligned event times.

    The dominant scheduling pattern in this package is ``Timeout`` events
    on a coarse delay grid plus zero-delay cascades (``succeed``/``fail``
    at the current time).  When every pending time is an exact multiple
    of a known grid, a heap's ``log n`` tuple comparisons per operation
    buy nothing: events can be binned by integer bucket index
    ``t / grid`` and each bucket drained FIFO.  Within a bucket every
    entry carries the *exact same* float time (see below), so the heap's
    ``(time, priority, sequence)`` order reduces to "urgent deque before
    normal deque, append order within each" — O(1) deque ops per event.

    **Qualification rule** (:meth:`qualifies`): the grid must be a
    positive, finite power of two and the initial time non-negative and
    on-grid.  Power-of-two grids make ``t * (1/grid)`` an exact binary
    scaling, so the bucket-index computation ``int(t * inv)`` is
    rounding-free and the exactness check ``idx == t * inv`` proves every
    entry in a bucket shares one representable time value.  Any other
    grid would admit two *different* floats in one bucket and silently
    reorder them — so it never qualifies.

    **Fallback / demotion**: the queue is an optimization, never a
    constraint.  Any push it cannot bin exactly — off-grid or non-finite
    time, priority outside ``{URGENT, NORMAL}`` — and any workload too
    sparse to benefit (see :data:`_DENSITY_PROBE_BUCKETS`) demotes the
    environment back to the binary heap at runtime: all pending entries
    move into ``env._queue``, ``heapify`` restores the heap invariant
    (entries are the same ``(time, priority, sequence, event)`` tuples,
    so the total order is preserved bit-for-bit), and ``env._push``
    is rebound so subsequent pushes go straight to the heap.  The
    running :meth:`Environment._run_calendar` loop notices ``demoted``
    and continues in heap mode within the same accounting block, which
    keeps ``events_processed``/``queue_high_water`` identical to a
    heap-only run — the ``validate`` harness compares those bit-exactly
    across backends.
    """

    __slots__ = (
        "env",
        "grid",
        "inv",
        "buckets",
        "index_heap",
        "count",
        "demoted",
        "eid0",
        "created",
        "binned",
    )

    def __init__(self, env: "Environment", grid: float) -> None:
        self.env = env
        self.grid = grid
        self.inv = 1.0 / grid
        #: bucket index -> (urgent deque, normal deque); indexable by
        #: priority because URGENT == 0 and NORMAL == 1.
        self.buckets: Dict[int, Tuple[deque, deque]] = {}
        #: Min-heap of active bucket indices (ints compare faster than
        #: the heap's 4-tuples, and one entry covers a whole cascade).
        self.index_heap: List[int] = []
        self.count = 0
        self.demoted = False
        self.eid0 = env._eid
        self.created = 0
        #: Pushes that went through this Python-level binning method (as
        #: opposed to the raw in-bucket cascade appends the run loop
        #: installs); the probe demotes when their share grows too large.
        self.binned = 0

    @staticmethod
    def qualifies(grid: Any, initial_time: float) -> bool:
        """Whether *grid* admits exact bucketing from *initial_time*."""
        try:
            g = float(grid)
        except (TypeError, ValueError):
            return False
        if not (0.0 < g < Infinity) or _math.frexp(g)[0] != 0.5:
            return False
        t0 = float(initial_time)
        if t0 < 0.0:
            return False
        i = t0 / g
        return i == int(i)

    def push(self, entry: Tuple[float, int, int, "Event"]) -> None:
        """Bin one ``(time, priority, sequence, event)`` entry — or demote.

        Exactness is checked per push: the instant an entry cannot be
        binned losslessly the whole queue demotes to the heap, so the
        dispatch order is *always* the heap order.
        """
        try:
            t = entry[0]
            prio = entry[1]
            i = t * self.inv
            idx = int(i)  # OverflowError on inf, ValueError on nan
            if idx != i or prio < 0 or prio > 1:
                self._demote(entry)
                return
            b = self.buckets.get(idx)
            if b is None:
                created = self.created = self.created + 1
                if not created & _DENSITY_PROBE_MASK:
                    # Periodic profitability probe (on bucket creation
                    # only, so the per-push cost is one AND): demote when
                    # the workload is too sparse (every event a fresh
                    # bucket) or too binned-push-heavy (cascade appends,
                    # the only pushes the calendar makes cheaper than the
                    # heap, are a minority).
                    total = self.env._eid - self.eid0
                    if (total < created * _MIN_EVENTS_PER_BUCKET
                            or self.binned * _MAX_BINNED_FRACTION_DENOM > total):
                        self._demote(entry)
                        return
                self.buckets[idx] = b = (deque(), deque())
                heappush(self.index_heap, idx)
            b[prio].append(entry)
            self.count += 1
            self.binned += 1
        except (TypeError, ValueError, OverflowError):
            # Unorderable/odd priority or non-finite time: let the heap
            # apply its general ordering instead.
            self._demote(entry)

    def _demote(self, entry: Optional[tuple] = None) -> None:
        """Move every pending entry to ``env._queue`` and switch modes."""
        env = self.env
        heap = env._queue
        for u, n in self.buckets.values():
            heap.extend(u)
            heap.extend(n)
        if entry is not None:
            heap.append(entry)
        heapify(heap)
        self.buckets.clear()
        self.index_heap.clear()
        self.count = 0
        self.demoted = True
        env._cal = None
        env._push = partial(heappush, heap)
        env._push_now = env._push

    def pop(self) -> Tuple[float, int, int, "Event"]:
        """Remove and return the earliest entry in heap order.

        Raises :class:`IndexError` when empty (callers check
        :attr:`count` first, mirroring the heap's behaviour).
        """
        buckets = self.buckets
        bh = self.index_heap
        while True:
            idx = bh[0]
            b = buckets.get(idx)
            if b is None:  # pragma: no cover - stale-index safety net
                heappop(bh)
                continue
            u, n = b
            entry = u.popleft() if u else n.popleft()
            if not u and not n:
                del buckets[idx]
                heappop(bh)
            self.count -= 1
            return entry

    def peek(self) -> float:
        """Time of the earliest pending entry, or ``inf`` if none."""
        bh = self.index_heap
        while bh:
            idx = bh[0]
            if idx in self.buckets:
                return idx * self.grid
            heappop(bh)  # pragma: no cover - stale-index safety net
        return Infinity

    def __len__(self) -> int:
        return self.count


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds in this package).
    delay_grid:
        Optional hint that (nearly) every scheduled time will be an
        exact multiple of this grid.  When the hint *qualifies* (a
        positive, finite power of two with an on-grid, non-negative
        ``initial_time`` — see :meth:`CalendarQueue.qualifies`) the
        environment uses a :class:`CalendarQueue` instead of the binary
        heap; otherwise, or whenever an off-grid event is scheduled at
        runtime, it transparently falls back to the heap.  Pure
        optimization: dispatch order, results, and kernel stats are
        identical either way.

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
        "_cal",
        "_push",
        "_push_now",
        "_eid",
        "_active_proc",
        "_until",
        "metrics",
        "profiler",
        "events_processed",
        "queue_high_water",
        "wall_seconds",
        "event",
        "timeout",
    )

    def __init__(self, initial_time: float = 0.0,
                 delay_grid: Optional[float] = None) -> None:
        self._now: float = float(initial_time)
        self._initial_time: float = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Active :class:`CalendarQueue`, or ``None`` in heap mode.  When
        #: set, ``_queue`` is empty; a runtime demotion refills it and
        #: resets this to ``None``.
        self._cal: Optional[CalendarQueue] = None
        #: The push entry point every scheduling site goes through —
        #: ``heappush`` bound to ``_queue`` (a C-level partial, so heap
        #: mode pays nothing for the indirection) or the calendar's
        #: ``push`` method.
        self._push = partial(heappush, self._queue)
        #: Specialized push for NORMAL-priority entries at the *current*
        #: time — what ``Event.succeed``/``fail`` emit.  Identical to
        #: ``_push`` except while :meth:`_run_calendar` drains a bucket,
        #: when it is the bucket's raw ``deque.append``: a same-time
        #: cascade then schedules at C speed with no binning arithmetic.
        self._push_now = self._push
        self._eid: int = 0
        if delay_grid is not None and CalendarQueue.qualifies(delay_grid, initial_time):
            self._cal = CalendarQueue(self, float(delay_grid))
            self._push = self._cal.push
            self._push_now = self._push
        self._active_proc: Optional[Process] = None
        #: Numeric ``until`` of the run loop in progress (``inf`` for a
        #: run to exhaustion or to an event); ``-inf`` outside any run
        #: loop, so nothing may :meth:`advance` under a bare :meth:`step`.
        self._until: float = -Infinity
        #: Optional :class:`~repro.des.metrics.MetricsRegistry` shared by
        #: components holding this environment (attach via
        #: :meth:`attach_metrics`); ``None`` keeps recording disabled.
        self.metrics: Optional["MetricsRegistry"] = None
        #: Optional :class:`~repro.obs.profiler.KernelProfiler` (attach via
        #: :meth:`attach_profiler`); ``None`` keeps per-event attribution
        #: disabled.  This is the kernel analogue of the no-op-rebinding
        #: pattern used by ``CRSimulation``: :meth:`run` checks it exactly
        #: once per call (not per event) and dispatches to the separate
        #: :meth:`_run_profiled` loop, so the three inlined fast loops pay
        #: nothing when profiling is off.
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
        """Time of the next scheduled event, or ``inf`` if none remain."""
        cal = self._cal
        if cal is not None:
            return cal.peek()
        return self._queue[0][0] if self._queue else Infinity

    def horizon(self) -> float:
        """Earliest time at which anything else can happen.

        The next scheduled event or the numeric ``until`` of the running
        loop, whichever comes first; ``-inf`` outside a run loop.  Up to
        (but excluding) this time the caller owns the clock.
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
        """Number of scheduled-but-unprocessed events (diagnostics)."""
        cal = self._cal
        return len(self._queue) + (cal.count if cal is not None else 0)

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
        self._push((self._now + delay, priority, self._eid, event))
        self._eid += 1

    def step(self) -> None:
        """Process the single next event.

        This is the reference implementation of event dispatch: pop the
        earliest ``(time, priority, sequence)`` entry, advance the clock,
        consume the callback list (an event is processed exactly once),
        and re-raise unhandled failures.  :meth:`run` inlines these exact
        semantics.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        cal = self._cal
        if cal is not None:
            qlen = cal.count
            if qlen > self.queue_high_water:
                self.queue_high_water = qlen
            prev_now = self._now
            if not qlen:
                raise EmptySchedule("no scheduled events left")
            entry = cal.pop()
            self._now = entry[0]
            event = entry[3]
        else:
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
        # Hot path: the three loop variants below inline step() with the
        # heap, heappop, and the event counter in locals.  Any semantic
        # change here must be mirrored in step() (and vice versa), and in
        # the instrumented twin _run_profiled().
        if self.profiler is not None:
            # Attribution profiling rides a separate loop so the fast
            # variants below stay branch-free per event.  This check is
            # the only cost the disabled mode pays: one attribute load
            # per run() call.
            return self._run_profiled(until)
        if self._cal is not None:
            # Calendar mode has its own batched-dispatch loop; like the
            # profiler check this costs heap mode one load per run() call.
            return self._run_calendar(until)
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
        # a per-push attribute compare.
        # The processed count is derived in the finally block instead of
        # incremented per event: every heap push increments _eid exactly
        # once (the sequence-uniqueness invariant the heap key relies on),
        # so pops == pushes-during-run + queue-length delta.
        queue = self._queue
        pop = heappop
        eid_start = self._eid
        len_start = len(queue)
        hw = self.queue_high_water
        until_outer = self._until
        self._until = at
        wall_start = _time.perf_counter()
        try:
            if stop_event is not None:
                while queue:
                    qlen = len(queue)
                    if qlen > hw:
                        hw = qlen
                    self._now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if stop_event.callbacks is None:
                        if stop_event._ok:
                            return stop_event._value
                        raise stop_event._value
            elif at == Infinity:
                while queue:
                    qlen = len(queue)
                    if qlen > hw:
                        hw = qlen
                    self._now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
            else:
                while queue:
                    if queue[0][0] > at:
                        self._now = at
                        break
                    qlen = len(queue)
                    if qlen > hw:
                        hw = qlen
                    self._now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
        finally:
            self._until = until_outer
            self.events_processed += (self._eid - eid_start) + (len_start - len(queue))
            if hw > self.queue_high_water:
                self.queue_high_water = hw
            self.wall_seconds += _time.perf_counter() - wall_start

        if stop_event is not None:
            # Loop drained without the flag firing.
            raise SimulationError(
                f"simulation ended before the until-event {stop_event!r} was triggered"
            )
        if at != Infinity and self._now < at:
            # Queue exhausted before the target time: advance the clock.
            self._now = at
        return None

    def _run_calendar(self, until: Any = None) -> Any:
        """Calendar-mode twin of :meth:`run` with batched bucket dispatch.

        Same semantics as the three inlined heap loops, but dispatch is
        batched per bucket: the clock store, the until-bound check, and
        the bucket lookup are paid once per *timestamp*, and every event
        of a same-time cascade then costs only a deque pop plus its
        callbacks.  Zero-delay cascades (``succeed`` during dispatch)
        land in the bucket currently being drained and are picked up by
        the same drain — urgent pushes jump ahead of pending normal
        entries exactly as the heap would order them.

        If the calendar demotes itself mid-run (off-grid push inside a
        callback), the loop falls through to an inlined heap loop within
        the same accounting block, so ``events_processed`` and
        ``queue_high_water`` come out identical to a heap-only run.

        The bucket being drained stays registered until it is found
        empty, so :meth:`horizon` is the current time inside its
        callbacks and no callback can :meth:`advance` the clock away
        from the bucket's time.
        """
        cal = self._cal
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

        queue = self._queue  # filled by a runtime demotion
        grid = cal.grid
        pop = heappop
        push_now_outer = self._push_now
        eid_start = self._eid
        len_start = cal.count + len(queue)
        hw = self.queue_high_water
        # Pending-count invariant for the calendar phase:
        # ``pending == negoff + self._eid`` at all times — every push
        # (raw same-time append or binned) increments ``_eid`` exactly
        # once, and ``negoff`` absorbs each pop.  This keeps the
        # per-event accounting free of attribute stores; ``cal.count``
        # is re-synced from the invariant in the finally block.
        negoff = cal.count - self._eid
        until_outer = self._until
        self._until = at
        wall_start = _time.perf_counter()
        try:
            while not cal.demoted:
                bh = cal.index_heap
                if not bh:
                    break
                idx = bh[0]
                buckets = cal.buckets
                b = buckets.get(idx)
                if b is None:  # pragma: no cover - stale-index safety net
                    pop(bh)
                    continue
                t = idx * grid
                if t > at:
                    self._now = at
                    break
                self._now = t
                u, n = b
                # Same-time cascades scheduled by the callbacks below
                # belong in this very bucket, so succeed()/fail() may
                # append to its normal deque directly — C-level, no
                # binning.  Restored by the finally block (and by a
                # demotion).
                self._push_now = n.append
                while True:
                    # Urgent entries first, then normal, each FIFO: with
                    # one exact time per bucket this is the heap's
                    # (time, priority, sequence) order.  Re-checked per
                    # event so urgent pushes from callbacks jump ahead.
                    if u:
                        src = u
                    elif n:
                        src = n
                    else:
                        del buckets[idx]
                        pop(bh)
                        break
                    pend = negoff + self._eid
                    if pend > hw:
                        hw = pend
                    negoff -= 1
                    event = src.popleft()[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if stop_event is not None and stop_event.callbacks is None:
                        if stop_event._ok:
                            return stop_event._value
                        raise stop_event._value
                    if cal.demoted:
                        break
            # Heap continuation: empty unless the calendar demoted
            # mid-run, in which case every pending entry is now in
            # ``queue`` and dispatch continues in heap order.  Mirrors
            # the three specialized run() variants so a demoted run pays
            # no per-event checks its until mode doesn't need.
            if stop_event is not None:
                while queue:
                    qlen = len(queue)
                    if qlen > hw:
                        hw = qlen
                    self._now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if stop_event.callbacks is None:
                        if stop_event._ok:
                            return stop_event._value
                        raise stop_event._value
            elif at == Infinity:
                while queue:
                    qlen = len(queue)
                    if qlen > hw:
                        hw = qlen
                    self._now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
            else:
                while queue:
                    if queue[0][0] > at:
                        self._now = at
                        break
                    qlen = len(queue)
                    if qlen > hw:
                        hw = qlen
                    self._now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
        finally:
            self._until = until_outer
            pending = len(queue)
            if self._cal is not None:
                # Still in calendar mode: re-sync the authoritative
                # count from the invariant and restore the binning push.
                cal.count = negoff + self._eid
                self._push_now = push_now_outer
                pending += cal.count
            self.events_processed += (self._eid - eid_start) + (len_start - pending)
            if hw > self.queue_high_water:
                self.queue_high_water = hw
            self.wall_seconds += _time.perf_counter() - wall_start

        if stop_event is not None:
            # Loop drained without the flag firing.
            raise SimulationError(
                f"simulation ended before the until-event {stop_event!r} was triggered"
            )
        if at != Infinity and self._now < at:
            # Queue exhausted before the target time: advance the clock.
            self._now = at
        return None

    def _run_profiled(self, until: Any = None) -> Any:
        """Instrumented twin of :meth:`run` used when a profiler is attached.

        One unified loop replicates the exact semantics of all three
        inlined :meth:`run` variants (queue exhaustion, until-event with
        stop flag, bounded time with final clock advance) while recording
        a ``(owner, event-kind) -> (count, wall, sim)`` attribution per
        dispatched event.  Attribution rules — kept identical to the ones
        in :meth:`step`:

        * *owner* is the ``name`` string of the object whose bound method
          is the event's first callback (a :class:`Process` resume, or a
          named callback owner), else :data:`KERNEL_OWNER`;
        * *sim* is the clock delta from before this event's pop to after
          its callbacks (a callback's :meth:`advance` counts toward its
          event), so summing the sim column over all entries reproduces
          ``now - initial_time`` exactly (clock advances past the last
          event are attributed to ``(KERNEL_OWNER, "idle")``);
        * *wall* is the perf-counter span of the callback dispatch, so the
          wall column sums to slightly less than :attr:`wall_seconds`
          (which also covers heap pops and loop bookkeeping).
        """
        profiler = self.profiler
        if until is None:
            at = Infinity
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_event = until
            at = Infinity
            if stop_event.callbacks is None:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(_StopFlag())
        else:
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until ({at}) must be greater than now ({self._now})")
            stop_event = None

        queue = self._queue
        cal = self._cal
        pop = heappop
        perf = _time.perf_counter
        record = profiler.record
        eid_start = self._eid
        len_start = len(queue) + (cal.count if cal is not None else 0)
        hw = self.queue_high_water
        until_outer = self._until
        self._until = at
        wall_start = perf()
        try:
            while True:
                # One loop covers both queue modes (profiling already
                # pays two perf-counter calls per event, so the mode
                # check is noise); a mid-run demotion flips to heap mode.
                if cal is not None:
                    if cal.demoted:
                        cal = None
                        continue
                    nxt = cal.peek()
                    if nxt == Infinity:
                        break
                else:
                    if not queue:
                        break
                    nxt = queue[0][0]
                if nxt > at:
                    idle = at - self._now
                    if idle > 0.0:
                        record(KERNEL_OWNER, "idle", 0.0, idle)
                    self._now = at
                    break
                qlen = cal.count if cal is not None else len(queue)
                if qlen > hw:
                    hw = qlen
                prev_now = self._now
                if cal is not None:
                    entry = cal.pop()
                    self._now = entry[0]
                    event = entry[3]
                else:
                    self._now, _, _, event = pop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                t0 = perf()
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                t1 = perf()
                record(
                    _owner_name(callbacks),
                    type(event).__name__,
                    t1 - t0,
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
            pending = len(queue)
            recal = self._cal
            if recal is not None:
                pending += recal.count
            self.events_processed += (self._eid - eid_start) + (len_start - pending)
            if hw > self.queue_high_water:
                self.queue_high_water = hw
            self.wall_seconds += perf() - wall_start

        if stop_event is not None:
            raise SimulationError(
                f"simulation ended before the until-event {stop_event!r} was triggered"
            )
        if at != Infinity and self._now < at:
            # Queue exhausted before the target time: advance the clock.
            idle = at - self._now
            if idle > 0.0:
                record(KERNEL_OWNER, "idle", 0.0, idle)
            self._now = at
        return None

    def run_until_empty(self) -> None:
        """Drain every remaining event (convenience for tests)."""
        self.run()

    # -- observability ----------------------------------------------------
    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Share a metrics registry with components using this environment."""
        self.metrics = registry

    def attach_profiler(self, profiler: "KernelProfiler") -> None:
        """Enable per-event attribution profiling (see ``repro.obs``).

        Subsequent :meth:`run` calls dispatch through the instrumented
        :meth:`_run_profiled` loop and :meth:`step` records per-event
        attributions into *profiler*.  Attach before running; detaching
        restores the zero-overhead fast loops.
        """
        self.profiler = profiler

    def detach_profiler(self) -> None:
        """Disable attribution profiling and restore the fast run loops."""
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
