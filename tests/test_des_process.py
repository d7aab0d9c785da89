"""Unit tests for generator-based processes and interrupts."""

from __future__ import annotations

import pytest

from repro.des import Environment, Interrupt, SimulationError, StopProcess
from repro.des.events import Interruption


class TestProcessBasics:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return {"answer": 42}

        p = env.process(proc(env))
        env.run()
        assert p.value == {"answer": 42}

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_is_alive_transitions(self, env):
        def proc(env):
            yield env.timeout(3)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_process_waits_for_process(self, env):
        order = []

        def inner(env):
            yield env.timeout(2)
            order.append("inner")
            return "from-inner"

        def outer(env):
            value = yield env.process(inner(env))
            order.append(("outer", value, env.now))

        env.process(outer(env))
        env.run()
        assert order == ["inner", ("outer", "from-inner", 2.0)]

    def test_yield_non_event_fails_process(self, env):
        def bad(env):
            yield 42

        p = env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()
        assert not p.is_alive

    def test_stop_process_exception(self, env):
        def proc(env):
            yield env.timeout(1)
            raise StopProcess("early")
            yield env.timeout(99)  # pragma: no cover

        p = env.process(proc(env))
        env.run()
        assert p.value == "early"
        assert env.now == 1.0

    def test_already_processed_event_resumes_immediately(self, env):
        times = []

        def proc(env):
            t = env.timeout(1, value="v")
            yield env.timeout(5)  # t processes meanwhile
            value = yield t  # already processed: no extra wait
            times.append((env.now, value))

        env.process(proc(env))
        env.run()
        assert times == [(5.0, "v")]

    def test_name_defaults_to_generator(self, env):
        def my_proc(env):
            yield env.timeout(1)

        p = env.process(my_proc(env))
        assert p.name == "my_proc"
        assert "my_proc" in repr(p)


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        log = []

        def victim(env):
            try:
                yield env.timeout(10)
            except Interrupt as intr:
                log.append((env.now, intr.cause))

        def attacker(env, v):
            yield env.timeout(4)
            v.interrupt({"reason": "test"})

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == [(4.0, {"reason": "test"})]

    def test_interrupt_is_urgent(self, env):
        """An interrupt scheduled at time t beats ordinary events at t."""
        log = []

        def attacker(env):
            yield env.timeout(5)
            log.append("attacker-fired")
            victim_proc.interrupt()

        def victim(env):
            try:
                yield env.timeout(5)
                log.append("timeout-won")  # pragma: no cover
            except Interrupt:
                log.append("interrupt-won")

        # The attacker is created FIRST, so its t=5 timeout processes
        # before the victim's t=5 timeout; the urgent interrupt then jumps
        # ahead of the victim's already-queued timeout.
        env.process(attacker(env))
        victim_proc = env.process(victim(env))
        env.run()
        assert log == ["attacker-fired", "interrupt-won"]

    def test_reyield_target_after_interrupt(self, env):
        seq = []

        def victim(env):
            target = env.timeout(10)
            while True:
                try:
                    yield target
                    seq.append(("completed", env.now))
                    return
                except Interrupt:
                    seq.append(("interrupted", env.now))

        def attacker(env, v):
            yield env.timeout(3)
            v.interrupt()
            yield env.timeout(3)
            v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert seq == [
            ("interrupted", 3.0),
            ("interrupted", 6.0),
            ("completed", 10.0),
        ]

    def test_self_interrupt_rejected(self, env):
        errors = []

        def proc(env):
            try:
                env.active_process.interrupt()
            except SimulationError:
                errors.append(True)
            yield env.timeout(1)

        env.process(proc(env))
        env.run()
        assert errors == [True]

    def test_interrupt_terminated_process_rejected(self, env):
        def quick(env):
            yield env.timeout(1)

        def late(env, q):
            yield env.timeout(2)
            with pytest.raises(SimulationError):
                q.interrupt()

        q = env.process(quick(env))
        env.process(late(env, q))
        env.run()

    def test_interrupt_races_with_termination(self, env):
        """Interrupt scheduled same tick as victim's own completion."""
        log = []

        def victim(env):
            try:
                yield env.timeout(5)
                log.append("done")
            except Interrupt:  # pragma: no cover
                log.append("interrupted")

        def attacker(env, v):
            yield env.timeout(4.0)
            yield env.timeout(1.0)
            # at t=5 the victim's timeout is already queued ahead of us
            if v.is_alive:
                v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == ["done"]

    def test_unhandled_interrupt_fails_process(self, env):
        def victim(env):
            yield env.timeout(10)

        def attacker(env, v):
            yield env.timeout(1)
            v.interrupt("bang")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        with pytest.raises(Interrupt):
            env.run()

    def test_interrupt_cause_repr(self):
        assert "why" in str(Interrupt("why"))


class TestInterruptContract:
    """An interruption throws its own Interrupt; other failures are copied."""

    def test_interrupt_throws_its_one_exception(self, env, monkeypatch):
        made = []
        init = Interrupt.__init__

        def counting_init(self, cause=None):
            made.append(cause)
            init(self, cause)

        monkeypatch.setattr(Interrupt, "__init__", counting_init)
        caught, sent = [], []

        def victim(env):
            try:
                yield env.timeout(10)
            except Interrupt as intr:
                caught.append(intr)

        def attacker(env, v):
            yield env.timeout(1)
            v.interrupt(("failure", 7))
            sent.extend(entry[3] for entry in env._queue
                        if isinstance(entry[3], Interruption))

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert made == [("failure", 7)]
        assert len(sent) == 1 and len(caught) == 1
        assert caught[0] is sent[0].value
        assert caught[0].cause == ("failure", 7)

    def test_failed_event_gives_each_waiter_its_own_copy(self, env):
        failing = env.event()
        original = ValueError("boom")
        caught = []

        def waiter(env):
            try:
                yield failing
            except ValueError as exc:
                caught.append(exc)

        def trigger(env):
            yield env.timeout(1)
            failing.fail(original)

        env.process(waiter(env))
        env.process(waiter(env))
        env.process(trigger(env))
        env.run()
        assert len(caught) == 2 and caught[0] is not caught[1]
        for exc in caught:
            assert exc is not original
            assert exc.__cause__ is original and exc.args == ("boom",)
