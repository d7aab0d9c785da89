"""Property-based tests (hypothesis) for the DES kernel invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, PriorityResource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    """Events must always be processed in non-decreasing time order."""
    env = Environment()
    fired = []

    def proc(env, d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=30
    )
)
@settings(max_examples=100, deadline=None)
def test_same_time_events_keep_submission_order(delays):
    """Ties in time break by scheduling order (determinism)."""
    env = Environment()
    fired = []

    def proc(env, idx, d):
        yield env.timeout(d)
        fired.append((env.now, idx))

    for idx, d in enumerate(delays):
        env.process(proc(env, idx, d))
    env.run()
    # For equal times, indexes must appear in increasing order.
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2


@given(
    priorities=st.lists(
        st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=25
    )
)
@settings(max_examples=100, deadline=None)
def test_priority_resource_serves_in_priority_order(priorities):
    """Once queued together, waiters are served lowest-priority-first."""
    env = Environment()
    res = PriorityResource(env, capacity=1)
    served = []

    def holder(env):
        with res.request(priority=-1.0) as req:
            yield req
            yield env.timeout(10.0)  # everyone queues behind this

    def waiter(env, prio):
        with res.request(priority=prio) as req:
            yield req
            served.append(prio)
            yield env.timeout(1.0)

    env.process(holder(env))
    for p in priorities:
        env.process(waiter(env, p))
    env.run()
    assert served == sorted(priorities)
