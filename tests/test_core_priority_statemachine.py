"""Unit tests for the lead-time priority queue and the Fig 5 state machine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.priority import LeadTimePriorityQueue, VulnerableEntry
from repro.core.statemachine import (
    ALLOWED_TRANSITIONS,
    IllegalTransition,
    can_transition,
    transition,
)
from repro.failures.injector import FailureEvent
from repro.platform.node import NodeHealth


def entry(node, t_fail):
    ev = FailureEvent(time=t_fail, node=node, sequence_id=6, predicted=True,
                      lead=t_fail)
    return VulnerableEntry(node, t_fail, ev)


class TestPriorityQueue:
    def test_pop_order_by_failure_time(self):
        q = LeadTimePriorityQueue()
        q.push(entry(1, 100.0))
        q.push(entry(2, 50.0))
        q.push(entry(3, 75.0))
        assert [q.pop().node for _ in range(3)] == [2, 3, 1]

    def test_len_and_contains(self):
        q = LeadTimePriorityQueue()
        assert not q
        q.push(entry(5, 10.0))
        assert len(q) == 1
        assert 5 in q
        assert 6 not in q

    def test_rekey_supersedes(self):
        q = LeadTimePriorityQueue()
        q.push(entry(1, 100.0))
        q.push(entry(2, 50.0))
        q.push(entry(1, 10.0))  # node 1 re-predicted, now most urgent
        assert len(q) == 2
        assert q.pop().node == 1
        assert q.pop().node == 2
        with pytest.raises(IndexError):
            q.pop()

    def test_remove(self):
        q = LeadTimePriorityQueue()
        q.push(entry(1, 10.0))
        q.push(entry(2, 20.0))
        removed = q.remove(1)
        assert removed.node == 1
        assert q.remove(99) is None
        assert q.pop().node == 2

    def test_peek_does_not_remove(self):
        q = LeadTimePriorityQueue()
        q.push(entry(7, 30.0))
        assert q.peek().node == 7
        assert len(q) == 1
        q2 = LeadTimePriorityQueue()
        assert q2.peek() is None

    def test_entries_iteration(self):
        q = LeadTimePriorityQueue()
        q.push(entry(1, 10.0))
        q.push(entry(2, 20.0))
        assert {e.node for e in q.entries()} == {1, 2}

    def test_lead_time_remaining(self):
        e = entry(1, 100.0)
        assert e.lead_time_remaining(40.0) == pytest.approx(60.0)

    def test_entry_is_immutable_and_equal_by_value(self):
        e = entry(3, 100.0)
        with pytest.raises(AttributeError):
            e.node = 4
        same = entry(3, 100.0)
        assert same is not e and same == e and hash(same) == hash(e)
        assert entry(3, 101.0) != e
        assert {e: "queued"}[same] == "queued"

    def test_rekeyed_equal_entry_still_pops_once(self):
        """The queue tracks the entry object, not an equal one."""
        q = LeadTimePriorityQueue()
        q.push(entry(1, 10.0))
        q.push(entry(1, 10.0))  # an equal re-prediction supersedes
        assert q.pop().node == 1
        assert not q and q.peek() is None


@given(
    items=st.lists(
        st.tuples(st.integers(0, 50), st.floats(min_value=0.0, max_value=1e5)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_queue_pops_in_time_order_with_rekeying(items):
    """After arbitrary pushes (with per-node supersede), pops are ordered."""
    q = LeadTimePriorityQueue()
    latest = {}
    for node, t in items:
        q.push(entry(node, t))
        latest[node] = t
    popped = []
    while q:
        popped.append(q.pop())
    assert len(popped) == len(latest)
    times = [e.predicted_failure_time for e in popped]
    assert times == sorted(times)
    assert {e.node: e.predicted_failure_time for e in popped} == latest


class TestStateMachine:
    def test_all_states_covered(self):
        assert set(ALLOWED_TRANSITIONS) == set(NodeHealth)

    def test_core_paper_paths(self):
        # prediction -> LM -> completed
        s = NodeHealth.NORMAL
        s = transition(s, NodeHealth.VULNERABLE)
        s = transition(s, NodeHealth.MIGRATING)
        s = transition(s, NodeHealth.NORMAL)
        # prediction -> LM -> aborted -> p-ckpt -> failure -> replaced
        s = transition(s, NodeHealth.VULNERABLE)
        s = transition(s, NodeHealth.MIGRATING)
        s = transition(s, NodeHealth.VULNERABLE)
        s = transition(s, NodeHealth.FAILED)
        s = transition(s, NodeHealth.NORMAL)
        # healthy node waits during someone else's p-ckpt
        s = transition(s, NodeHealth.WAITING)
        s = transition(s, NodeHealth.NORMAL)

    def test_illegal_transitions(self):
        with pytest.raises(IllegalTransition):
            transition(NodeHealth.NORMAL, NodeHealth.MIGRATING)
        with pytest.raises(IllegalTransition):
            transition(NodeHealth.FAILED, NodeHealth.VULNERABLE)
        with pytest.raises(IllegalTransition):
            transition(NodeHealth.WAITING, NodeHealth.MIGRATING)

    def test_can_transition_matches_table(self):
        for src, dsts in ALLOWED_TRANSITIONS.items():
            for dst in NodeHealth:
                assert can_transition(src, dst) == (dst in dsts)

    @given(st.lists(st.sampled_from(list(NodeHealth)), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_transition_never_lands_in_illegal_state(self, walk):
        state = NodeHealth.NORMAL
        for nxt in walk:
            if can_transition(state, nxt):
                state = transition(state, nxt)
            else:
                with pytest.raises(IllegalTransition):
                    transition(state, nxt)
        assert state in NodeHealth
