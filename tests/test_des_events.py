"""Unit tests for the DES event primitives."""

from __future__ import annotations

import pytest

from repro.des import SimulationError


class TestEventLifecycle:
    def test_fresh_event_is_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self, env):
        ev = env.event()
        with pytest.raises(AttributeError):
            _ = ev.value
        with pytest.raises(AttributeError):
            _ = ev.ok

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(41)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 41

    def test_succeed_twice_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_sets_exception_value(self, env):
        exc = RuntimeError("boom")
        ev = env.event().fail(exc)
        ev.defuse()
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc

    def test_processed_after_run(self, env):
        ev = env.event().succeed("x")
        env.run()
        assert ev.processed

    def test_trigger_copies_state(self, env):
        src = env.event().succeed("payload")
        dst = env.event()
        dst.trigger(src)
        assert dst.value == "payload"
        assert dst.ok

    def test_callbacks_invoked_in_order(self, env):
        seen = []
        ev = env.event()
        ev.callbacks.append(lambda e: seen.append(1))
        ev.callbacks.append(lambda e: seen.append(2))
        ev.succeed()
        env.run()
        assert seen == [1, 2]


class TestTimeout:
    def test_fires_after_delay(self, env):
        t = env.timeout(7.5, value="done")
        env.run()
        assert env.now == 7.5
        assert t.value == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_ok(self, env):
        env.timeout(0.0)
        env.run()
        assert env.now == 0.0

    def test_delay_property(self, env):
        assert env.timeout(3.0).delay == 3.0
