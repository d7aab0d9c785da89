"""Generator-based processes for the :mod:`repro.des` kernel.

A :class:`Process` wraps a Python generator.  Each value the generator
yields must be an :class:`~.events.Event`; the process suspends until that
event is processed and is then resumed with the event's value (or, for a
failed event, has a copy of the exception thrown into it; an
:class:`~.events.Interruption` throws its own ``Interrupt``).  The
process object is itself an event that triggers when the generator
terminates, so processes can wait for each other simply by yielding
them.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import NORMAL, PENDING, Event, Initialize, Interruption
from .exceptions import SimulationError, StopProcess

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Process", "ProcessGenerator"]

#: Type alias for the generators accepted by :meth:`Environment.process`.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """An active simulation component driven by a generator.

    Created via :meth:`Environment.process`; user code rarely instantiates
    this directly.
    """

    __slots__ = ("_generator", "_send", "_target", "_cb", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: Bound ``generator.send``, resolved once — every resume of the
        #: process calls it, so the attribute lookup must not repeat.
        self._send = generator.send
        #: The bound _resume callback, created once — subscribing to a new
        #: target on every yield must not allocate a fresh bound method.
        self._cb = self._resume
        #: The event the process is currently waiting for (None until started
        #: and after termination).
        self._target: Optional[Event] = Initialize(env, self)
        #: Human-readable name used in traces; defaults to the generator name.
        self.name = name or generator.__name__

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for, if any."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt this process, throwing ``Interrupt(cause)`` into it.

        A process cannot interrupt itself and terminated processes cannot
        be interrupted.  Interrupts are delivered with *urgent* priority,
        i.e. before ordinary events scheduled at the same time.
        """
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value/exception of *event*."""
        env = self.env
        env._active_proc = self
        send = self._send

        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                elif event.__class__ is Interruption:
                    # An interruption has exactly one target, this process:
                    # it throws the event's own Interrupt.
                    next_event = self._generator.throw(event._value)
                else:
                    # The event failed: mark the exception as handled (the
                    # process is dealing with it now) and throw in a copy,
                    # so several waiters never share one traceback.
                    event._defused = True
                    exc = type(event._value)(*event._value.args)
                    exc.__cause__ = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as exc:
                # Generator returned: the process event succeeds.
                self._ok = True
                self._value = exc.value
                env.schedule(self, NORMAL)
                break
            except StopProcess as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self, NORMAL)
                break
            except BaseException as exc:
                # Unhandled exception inside the process: the process event
                # fails; if nobody waits for it, the kernel will re-raise.
                self._ok = False
                self._defused = False
                self._value = exc
                env.schedule(self, NORMAL)
                break

            # The generator yielded a new event to wait for.  Assume an
            # Event and let the attribute access fail for anything else —
            # an untaken try costs nothing, an isinstance per yield does.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                msg = f"process {self.name!r} yielded non-event {next_event!r}"
                error = SimulationError(msg)
                try:
                    self._generator.throw(error)
                except (SimulationError, StopIteration):
                    self._ok = False
                    self._defused = False
                    self._value = error
                    env.schedule(self, NORMAL)
                    break
                raise error  # pragma: no cover - generator swallowed it

            if callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                callbacks.append(self._cb)
                self._target = next_event
                env._active_proc = None
                return

            # Event already processed: loop around immediately with it.
            event = next_event

        # Only the termination branches break out of the loop.
        self._target = None
        env._active_proc = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "terminated"
        return f"<Process {self.name!r} ({state}) at {id(self):#x}>"
