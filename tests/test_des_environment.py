"""Unit tests for the Environment event loop."""

from __future__ import annotations

import pytest

from repro.des import (
    EmptySchedule,
    Environment,
    Infinity,
    Interrupt,
    SimulationError,
    Store,
)


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


def _reference_workload(env):
    """Store traffic, same-time cascades and off-grid timers; last event
    at t=10.  Returns a process that finishes well before that.

    The last event before t=2 schedules a burst, so the deepest queue
    comes after that event's callbacks: a run bounded at t=2 must not
    count it (the high-water mark is sampled at pop time only).
    """
    store = Store(env)

    def burst():
        yield env.timeout(1.95)
        for _ in range(20):
            env.timeout(5.0)
        yield env.timeout(7.0)

    def producer():
        for i in range(5):
            yield env.timeout(0.3 * (i + 1))
            yield store.put(i)

    def consumer():
        while True:
            item = yield store.get()
            yield env.timeout(0.25)
            if item == 4:
                return item

    env.process(producer())
    env.process(burst())
    done = env.process(consumer())
    for i in range(12):
        env.timeout(0.1 * i)
    env.timeout(10.0)
    return done


class TestRunMatchesReference:
    """Every ``until`` mode of ``run()``, with and without a profiler,
    leaves the clock and kernel stats exactly where ``step()`` does."""

    @pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
    @pytest.mark.parametrize("until", [None, 2.0, 12.5, "event"],
                             ids=["drain", "before-last", "after-last", "event"])
    def test_clock_and_stats_match_run_reference(self, until, profiled):
        from repro.obs import KernelProfiler
        from repro.validate.backends import run_reference

        results = []
        for drive in (Environment.run, run_reference):
            env = Environment()
            done = _reference_workload(env)
            profiler = KernelProfiler() if profiled else None
            if profiled:
                env.attach_profiler(profiler)
            drive(env, done if until == "event" else until)
            assert env.horizon() == -Infinity
            if profiled and drive is Environment.run:
                # run() charges the clock advance past the last event
                # to the idle row, so the sim column sums to now.
                assert profiler.total_sim_seconds() == env.now
            results.append((env.now.hex(), env.events_processed,
                            env.queue_high_water))
        assert results[0] == results[1]


def _cancel_workload(env, fired):
    """Live events up to t=10 among cancelled timeouts; returns a process.

    Cancelled entries sit at the head of the queue when the run starts
    (t=0.5), behind an interrupted process (its timer at t=5, cancelled
    when the interrupt lands at t=2), beyond the t=4 bound, and after the
    last live event (t=11).  Every callback that runs appends to *fired*;
    a ``c``-tagged one never may.  A probe at t=2.5 records
    ``horizon()``, which must skip the cancelled t=5 timer.
    """
    def add(delay, tag):
        timer = env.timeout(delay)
        timer.callbacks.append(lambda _event: fired.append(tag))
        return timer

    env.cancel(add(0.5, "c0.5"))
    add(1.0, "1.0")
    env.cancel(add(11.0, "c11"))
    beyond = add(4.5, "c4.5")

    def sleeper():
        timer = add(5.0, "c5")
        try:
            yield timer
        except Interrupt:
            env.cancel(timer)
        yield env.timeout(1.5)
        fired.append("woke")

    sleeping = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        sleeping.interrupt()
        yield env.timeout(0.5)
        fired.append(("horizon", env.horizon()))
        env.cancel(beyond)

    env.process(interrupter())
    add(3.0, "3.0")
    add(10.0, "10.0")
    return sleeping


class TestCancel:
    """``Environment.cancel``: lazy deletion, skipped alike everywhere."""

    def test_cancelled_timeout_never_fires_or_moves_the_clock(self, env):
        fired = []
        live = env.timeout(1.0)
        gone = env.timeout(2.0)
        gone.callbacks.append(fired.append)
        env.cancel(gone)
        assert gone.processed
        assert env.queue_size == 1
        env.run()
        assert fired == []
        assert env.now == 1.0 and live.processed
        assert env.events_processed == 1
        assert env.queue_size == 0 and env.peek() == Infinity

    def test_horizon_and_peek_skip_a_cancelled_head(self, env):
        seen = []
        env.cancel(env.timeout(1.0))
        env.timeout(3.0)
        assert env.peek() == 3.0

        def proc():
            yield env.timeout(0.5)
            env.cancel(env.timeout(0.25))
            seen.append(env.horizon())

        env.process(proc())
        env.run()
        assert seen == [3.0]

    def test_step_skips_cancelled_entries(self, env):
        env.cancel(env.timeout(1.0))
        env.timeout(2.0)
        env.step()
        assert env.now == 2.0 and env.events_processed == 1
        env.cancel(env.timeout(1.0))
        with pytest.raises(EmptySchedule):
            env.step()
        assert env.now == 2.0 and env.events_processed == 1

    def test_cancelling_a_processed_event_raises(self, env):
        timer = env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError):
            env.cancel(timer)

    def test_cancelling_twice_or_unscheduled_raises(self, env):
        timer = env.timeout(1.0)
        env.cancel(timer)
        with pytest.raises(SimulationError):
            env.cancel(timer)
        with pytest.raises(SimulationError):
            env.cancel(env.event())

    @pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
    @pytest.mark.parametrize("until", [None, 4.0, 12.5, "event"],
                             ids=["drain", "before-last", "after-last", "event"])
    def test_run_matches_run_reference(self, until, profiled):
        from repro.obs import KernelProfiler
        from repro.validate.backends import run_reference

        results = []
        for drive in (Environment.run, run_reference):
            env = Environment()
            fired = []
            sleeping = _cancel_workload(env, fired)
            profiler = KernelProfiler() if profiled else None
            if profiled:
                env.attach_profiler(profiler)
            drive(env, sleeping if until == "event" else until)
            assert not [tag for tag in fired
                        if isinstance(tag, str) and tag.startswith("c")]
            assert ("horizon", 3.0) in fired
            if profiled:
                assert profiler.total_count() == env.events_processed
            results.append((env.now.hex(), env.events_processed,
                            env.queue_high_water, env.queue_size, fired))
        assert results[0] == results[1]
        if until is None:
            # The cancelled t=11 timer neither fires nor moves the clock.
            assert results[0][0] == (10.0).hex()


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
