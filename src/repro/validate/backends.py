"""Execution backends for the differential validator.

A backend bundles the kernel classes a scenario is interpreted against
plus the ``drive`` function that runs the environment.  Three backends
exist:

``fast``
    The production kernel driven through :meth:`Environment.run`, the
    inlined hot-path dispatch loop.
``step``
    The same kernel driven through :func:`run_reference`, a loop built
    exclusively on :meth:`Environment.step` (the documented reference
    semantics).  Any fast-path/reference divergence is a kernel bug by
    definition (``docs/PERFORMANCE.md``, "Determinism contract").
``simpy``
    Real SimPy, when installed (the ROADMAP's multi-backend direction).
    Our kernel is SimPy-compatible by design, so the same interpreter
    drives ``simpy.Environment`` unchanged; scenarios using kernel
    extensions are skipped (:meth:`Scenario.simpy_compatible`).

:class:`ReferenceEnvironment` additionally lets whole C/R simulations
run on the step reference (``repro.validate.crdiff`` swaps it into
``repro.models.base``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..des import (
    Container,
    Environment,
    Event,
    Infinity,
    Interrupt,
    PriorityItem,
    PriorityResource,
    PriorityStore,
    Resource,
    SimulationError,
    Store,
)
from ..des.core import _StopFlag

__all__ = [
    "Backend",
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


@dataclass(frozen=True)
class Backend:
    """One executable target for scenario interpretation.

    Attributes
    ----------
    name:
        ``"fast"``, ``"step"``, or ``"simpy"``.
    kernel:
        True for the in-repo kernel (enables kernel-stat comparison and
        strict exception-message comparison).
    env_factory / drive:
        Create an environment; run it (``drive(env, until)``).
    classes:
        Name → class mapping the interpreter instantiates
        (``Store``, ``PriorityStore``, ``PriorityItem``, ``Container``,
        ``Resource``, ``PriorityResource``, ``Interrupt``).
    """

    name: str
    kernel: bool
    env_factory: Callable[[], Any]
    drive: Callable[[Any, Any], Any]
    classes: Dict[str, Any]


_KERNEL_CLASSES: Dict[str, Any] = {
    "Store": Store,
    "PriorityStore": PriorityStore,
    "PriorityItem": PriorityItem,
    "Container": Container,
    "Resource": Resource,
    "PriorityResource": PriorityResource,
    "Interrupt": Interrupt,
}

FAST_BACKEND = Backend(
    name="fast",
    kernel=True,
    env_factory=Environment,
    drive=lambda env, until: env.run(until=until),
    classes=_KERNEL_CLASSES,
)

STEP_BACKEND = Backend(
    name="step",
    kernel=True,
    env_factory=Environment,
    drive=run_reference,
    classes=_KERNEL_CLASSES,
)


def _make_simpy_backend() -> Optional[Backend]:
    """Build the SimPy backend, or ``None`` when SimPy is not installed."""
    try:
        import simpy
    except ImportError:
        return None
    classes = {
        "Store": simpy.Store,
        "PriorityStore": simpy.PriorityStore,
        "PriorityItem": simpy.PriorityItem,
        "Container": simpy.Container,
        "Resource": simpy.Resource,
        "PriorityResource": simpy.PriorityResource,
        "Interrupt": simpy.Interrupt,
    }
    return Backend(
        name="simpy",
        kernel=False,
        env_factory=simpy.Environment,
        drive=lambda env, until: env.run(until=until),
        classes=classes,
    )


def available_backends() -> Dict[str, Backend]:
    """All backends runnable in this interpreter, keyed by name."""
    backends = {
        "fast": FAST_BACKEND,
        "step": STEP_BACKEND,
    }
    simpy_backend = _make_simpy_backend()
    if simpy_backend is not None:
        backends["simpy"] = simpy_backend
    return backends


def resolve_backends(names) -> Dict[str, Backend]:
    """Resolve user-requested backend *names* (``["all"]`` = everything).

    Raises
    ------
    ValueError
        For an unknown name, or for ``simpy`` when SimPy is missing.
    """
    have = available_backends()
    if not names or "all" in names:
        return have
    chosen: Dict[str, Backend] = {}
    for name in names:
        if name not in ("fast", "step", "simpy"):
            raise ValueError(f"unknown backend {name!r}")
        if name not in have:
            raise ValueError("backend 'simpy' requires SimPy to be installed")
        chosen[name] = have[name]
    return chosen
