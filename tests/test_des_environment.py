"""Unit tests for the Environment event loop."""

from __future__ import annotations

import pytest

from repro.des import EmptySchedule, Environment, Infinity, SimulationError


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=100.0).now == 100.0

    def test_peek_empty(self, env):
        assert env.peek() == Infinity

    def test_peek_next_event(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_queue_size(self, env):
        env.timeout(1)
        env.timeout(2)
        assert env.queue_size == 2


class TestHorizon:
    """``horizon()`` bounds how far a callback may ``advance`` the clock."""

    @staticmethod
    def _probe(env, at, seen, to=None):
        def proc():
            yield env.timeout(at)
            seen.append(env.horizon())
            if to is not None:
                env.advance(to)
                seen.append(env.now)
        return env.process(proc())

    def test_no_run_loop_no_horizon(self, env):
        env.timeout(5.0)
        assert env.horizon() == -Infinity
        with pytest.raises(SimulationError):
            env.advance(1.0)

    @pytest.mark.parametrize("until", [None, 8.0])
    def test_next_event_or_until(self, env, until):
        seen = []
        self._probe(env, 1.0, seen)
        env.timeout(10.0)
        env.run(until=until)
        assert seen == [8.0 if until is not None else 10.0]
        assert env.horizon() == -Infinity  # restored after the loop

    def test_advance_strictly_before_horizon(self, env):
        seen = []
        self._probe(env, 1.0, seen, to=3.0)
        env.timeout(3.0)
        with pytest.raises(SimulationError):
            env.run()
        assert seen == [3.0]

    def test_advance_moves_clock_and_profiler_charges_the_event(self, env):
        from repro.obs import KernelProfiler

        seen = []
        proc = self._probe(env, 1.0, seen, to=2.5)
        proc.name = "prober"
        env.timeout(4.0)
        profiler = KernelProfiler()
        env.attach_profiler(profiler)
        env.run()
        assert seen == [4.0, 2.5]
        rows = {(e.owner, e.kind): e for e in profiler.entries()}
        assert rows[("prober", "Timeout")].sim_seconds == 2.5
        assert profiler.total_sim_seconds() == env.now == 4.0

    def test_reference_loop_publishes_its_bound(self, env):
        from repro.validate.backends import run_reference

        seen = []
        self._probe(env, 1.0, seen)
        run_reference(env, until=6.0)
        assert seen == [6.0]
        assert env.horizon() == -Infinity

    def test_calendar_bucket_holds_the_horizon(self):
        env = Environment(delay_grid=0.5)
        seen = []
        self._probe(env, 1.0, seen)
        env.run()
        assert seen == [1.0]


class TestRun:
    def test_run_to_exhaustion(self, env):
        env.timeout(3)
        env.timeout(8)
        env.run()
        assert env.now == 8.0

    def test_run_until_time_stops_clock(self, env):
        def ticker(env):
            while True:
                yield env.timeout(1)

        env.process(ticker(env))
        env.run(until=5.5)
        assert env.now == 5.5

    def test_run_until_time_in_past_raises(self, env):
        env.timeout(1)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_now_exactly_raises(self, env):
        # A zero-length run is always a caller bug; the exactly-equal
        # case is part of the documented ValueError contract.
        env.timeout(1)
        env.run()
        with pytest.raises(ValueError, match="must be greater than now"):
            env.run(until=env.now)

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return 99

        p = env.process(proc(env))
        assert env.run(until=p) == 99

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()  # nothing will ever trigger it
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_run_until_failed_event_raises(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("inner")

        p = env.process(proc(env))
        with pytest.raises(ValueError, match="inner"):
            env.run(until=p)

    def test_step_on_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_run_until_empty_helper(self, env):
        env.timeout(1)
        env.timeout(2)
        env.run_until_empty()
        assert env.now == 2.0

    def test_unhandled_process_failure_propagates(self, env):
        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("unhandled")

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_waited_on_failure_is_defused(self, env):
        caught = []

        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("x")

        def waiter(env, p):
            try:
                yield p
            except RuntimeError:
                caught.append(env.now)

        p = env.process(bad(env))
        env.process(waiter(env, p))
        env.run()
        assert caught == [1.0]


class TestDeterminism:
    def test_same_time_events_fifo(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in range(10):
            env.process(proc(env, tag))
        env.run()
        assert order == list(range(10))

    def test_negative_schedule_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-1.0)

    def test_repr(self, env):
        assert "Environment" in repr(env)
