"""Execution backends for the differential validator.

A backend bundles the kernel classes a scenario is interpreted against
plus the ``drive`` function that runs the environment.  Two backends
exist:

``fast``
    The production kernel driven through :meth:`Environment.run`, the
    inlined hot-path dispatch loop.
``step``
    The same kernel driven through :func:`run_reference`, a loop built
    exclusively on :meth:`Environment.step` (the documented reference
    semantics).  Any fast-path/reference divergence is a kernel bug by
    definition (``docs/PERFORMANCE.md``, "Determinism contract").

:class:`ReferenceEnvironment` additionally lets whole C/R simulations
run on the step reference (``repro.validate.crdiff`` swaps it into
``repro.models.base``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..des import (
    Environment,
    Event,
    Infinity,
    PriorityResource,
    Resource,
    SimulationError,
)
from ..des.core import _StopFlag

__all__ = [
    "Backend",
    "EventPathEnvironment",
    "ReferenceEnvironment",
    "run_reference",
    "available_backends",
    "resolve_backends",
]


def run_reference(env: Environment, until: Any = None) -> Any:
    """Run *env* with :meth:`Environment.run` semantics via ``step()`` only.

    This is the executable specification of the inlined run loop in
    ``des/core.py``: same ``until`` contract, same
    exceptions, same message strings, same clock/stat updates — but
    every event dispatch goes through the single-event reference
    implementation.  The differential executor asserts that the fast
    paths and this loop produce identical observable behavior.
    """
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
        if at <= env._now:
            raise ValueError(f"until ({at}) must be greater than now ({env._now})")
        stop_event = None

    # Like the fast loop, the reference publishes its bound for
    # Environment.horizon().
    until_outer = env._until
    env._until = at
    try:
        if stop_event is not None:
            while _live_events(env):
                env.step()
                if stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
            raise SimulationError(
                f"simulation ended before the until-event {stop_event!r} "
                "was triggered"
            )
        while _live_events(env):
            if env.peek() > at:
                env._now = at
                break
            env.step()
    finally:
        env._until = until_outer
    if at != Infinity and env._now < at:
        env._now = at
    return None


def _live_events(env: Environment) -> int:
    """Scheduled events left, after discarding cancelled ones at the head.

    The fast loop discards a cancelled head even when nothing live
    follows it, so the reference does too.
    """
    env.peek()
    return env.queue_size


class ReferenceEnvironment(Environment):
    """An :class:`Environment` whose ``run`` is the step-by-step reference.

    Substituting this class for ``Environment`` (e.g. inside
    ``repro.models.base``) reruns an entire C/R simulation on reference
    dispatch without touching the simulation code.
    """

    __slots__ = ()

    def run(self, until: Any = None) -> Any:
        return run_reference(self, until)


class EventPathEnvironment(Environment):
    """An :class:`Environment` whose :meth:`horizon` is always ``-inf``.

    Nothing may run ahead of the clock on it, so a C/R simulation built
    on it runs every segment and every failure through the kernel: the
    event path the batched runs must reproduce.
    """

    __slots__ = ()

    def horizon(self) -> float:
        return -Infinity

    def advance(self, t: float) -> None:
        # Environment.advance reads the queue, not horizon(): no t passes.
        raise SimulationError(
            f"cannot advance from {self.now} to {t} (horizon -inf)")


@dataclass(frozen=True)
class Backend:
    """One executable target for scenario interpretation.

    Attributes
    ----------
    name:
        ``"fast"`` or ``"step"`` (mutation tests add their own).
    env_factory / drive:
        Create an environment; run it (``drive(env, until)``).
    classes:
        Name → class mapping the interpreter instantiates
        (``Resource``, ``PriorityResource``).
    """

    name: str
    env_factory: Callable[[], Any]
    drive: Callable[[Any, Any], Any]
    classes: Dict[str, Any]


_KERNEL_CLASSES: Dict[str, Any] = {
    "Resource": Resource,
    "PriorityResource": PriorityResource,
}

FAST_BACKEND = Backend(
    name="fast",
    env_factory=Environment,
    drive=lambda env, until: env.run(until=until),
    classes=_KERNEL_CLASSES,
)

STEP_BACKEND = Backend(
    name="step",
    env_factory=Environment,
    drive=run_reference,
    classes=_KERNEL_CLASSES,
)


def available_backends() -> Dict[str, Backend]:
    """Every backend, keyed by name."""
    return {"fast": FAST_BACKEND, "step": STEP_BACKEND}


def resolve_backends(names) -> Dict[str, Backend]:
    """Resolve user-requested backend *names* (``["all"]`` = everything).

    Raises
    ------
    ValueError
        For an unknown name.
    """
    have = available_backends()
    if not names or "all" in names:
        return have
    chosen: Dict[str, Backend] = {}
    for name in names:
        if name not in have:
            raise ValueError(f"unknown backend {name!r}")
        chosen[name] = have[name]
    return chosen
