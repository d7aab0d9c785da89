"""Exception-path parity: the inlined ``run()`` loop vs the ``step()`` reference.

``run()`` has three until modes (drain / until-event / until-time), each
with and without a profiler attached; an uncaught exception raised
mid-run must propagate **identically** — same type, same message, same
simulation time — from every mode and from pure ``step()`` dispatch
(:func:`repro.validate.run_reference`), including the documented
``run(until=now)`` ValueError and the drained-before-until-event
SimulationError.
"""

from __future__ import annotations

import re

import pytest

from repro.des import Environment, Interrupt, SimulationError
from repro.obs.profiler import KernelProfiler
from repro.validate import run_reference


def _profiled(until):
    """``run(until=...)`` with a profiler attached first."""

    def drive(env, proc):
        env.attach_profiler(KernelProfiler())
        return env.run(until=proc if until == "proc" else until)

    return drive


#: (variant name, callable(env, boom_proc) -> run invocation)
VARIANTS = [
    ("fast-drain", lambda env, proc: env.run()),
    ("fast-horizon", lambda env, proc: env.run(until=100.0)),
    ("fast-proc", lambda env, proc: env.run(until=proc)),
    ("profiled-drain", _profiled(None)),
    ("profiled-horizon", _profiled(100.0)),
    ("profiled-proc", _profiled("proc")),
    ("step-drain", lambda env, proc: run_reference(env)),
    ("step-horizon", lambda env, proc: run_reference(env, until=100.0)),
    ("step-proc", lambda env, proc: run_reference(env, until=proc)),
]


def _boom_env():
    """An environment whose single process raises at t=3."""
    env = Environment()

    def boom(env):
        yield env.timeout(3)
        raise RuntimeError("mid-run explosion")

    proc = env.process(boom(env))
    return env, proc


def _crash_fingerprint(driver):
    env, proc = _boom_env()
    with pytest.raises(RuntimeError) as excinfo:
        driver(env, proc)
    return (type(excinfo.value).__name__, str(excinfo.value), env.now)


class TestUncaughtExceptionParity:
    @pytest.mark.parametrize("name,driver", VARIANTS)
    def test_each_variant_propagates_at_crash_time(self, name, driver):
        fingerprint = _crash_fingerprint(driver)
        assert fingerprint == ("RuntimeError", "mid-run explosion", 3.0)

    def test_all_variants_agree_exactly(self):
        fingerprints = {
            name: _crash_fingerprint(driver) for name, driver in VARIANTS
        }
        assert len(set(fingerprints.values())) == 1, fingerprints

    @pytest.mark.parametrize("name,driver", VARIANTS)
    def test_uncaught_interrupt_parity(self, name, driver):
        env = Environment()

        def sleeper(env):
            yield env.timeout(50)

        def attacker(env, victim):
            yield env.timeout(2)
            victim.interrupt("no handler")

        victim = env.process(sleeper(env))
        env.process(attacker(env, victim))
        with pytest.raises(Interrupt) as excinfo:
            driver(env, victim)
        assert excinfo.value.cause == "no handler"
        assert env.now == 2.0


class TestUntilContractParity:
    def test_run_until_now_valueerror_message_identical(self):
        """The documented ``run(until=now)`` ValueError, on both loops."""
        messages = []
        for driver in (
            lambda env: env.run(until=0.0),
            lambda env: run_reference(env, until=0.0),
        ):
            env = Environment()
            with pytest.raises(ValueError) as excinfo:
                driver(env)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0] == "until (0.0) must be greater than now (0.0)"

    def test_run_until_past_valueerror_after_advance(self):
        for driver in (
            lambda env, at: env.run(until=at),
            lambda env, at: run_reference(env, until=at),
        ):
            env = Environment()

            def ticker(env):
                yield env.timeout(10)

            env.process(ticker(env))
            driver(env, 10.0)
            with pytest.raises(ValueError) as excinfo:
                driver(env, 5.0)
            assert str(excinfo.value) == (
                "until (5.0) must be greater than now (10.0)"
            )

    def test_drained_before_until_event_simulationerror_parity(self):
        """Queue exhausts before the until-event triggers: same error,
        same message shape, from both loops."""
        messages = []
        for driver in (
            lambda env, ev: env.run(until=ev),
            lambda env, ev: run_reference(env, until=ev),
        ):
            env = Environment()

            def quick(env):
                yield env.timeout(1)

            env.process(quick(env))
            never = env.event()
            with pytest.raises(SimulationError) as excinfo:
                driver(env, never)
            assert env.now == 1.0
            messages.append(
                re.sub(r"0x[0-9a-fA-F]+", "0x_", str(excinfo.value))
            )
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            "simulation ended before the until-event"
        )

    def test_already_failed_until_event_raises_its_value(self):
        """run(until=<already-failed event>) re-raises the failure on
        both loops without processing anything."""
        for driver in (
            lambda env, ev: env.run(until=ev),
            lambda env, ev: run_reference(env, until=ev),
        ):
            env = Environment()
            ev = env.event()
            ev.fail(RuntimeError("pre-failed"))
            ev.defuse()
            env.run()  # process the failure event; defused → no raise
            with pytest.raises(RuntimeError, match="pre-failed"):
                driver(env, ev)
