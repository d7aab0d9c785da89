"""Protocol-level tests for the p-ckpt two-phase commit (the contribution)."""

from __future__ import annotations

import pytest

from repro.core.pckpt import (
    PckptProtocol,
    ProtocolAborted,
    ProtocolOutcome,
    entry_from_prediction,
)
from repro.core.priority import VulnerableEntry
from repro.failures.injector import FailureEvent, FalseAlarmEvent


def fe(time, node, lead=50.0):
    return FailureEvent(time=time, node=node, sequence_id=6, predicted=True,
                        lead=lead)


class _Host:
    """Drives a protocol inside a process and records the outcome."""

    def __init__(self, env, protocol):
        self.env = env
        self.protocol = protocol
        self.outcome = None
        self.error = None
        self.proc = env.process(self._drive())

    def _drive(self):
        try:
            self.outcome = yield from self.protocol.run()
        except ProtocolAborted as exc:
            self.error = exc

    def interrupt(self, cause):
        self.proc.interrupt(cause)


def make_protocol(env, vulnerable, total_nodes=100, write_s=10.0, phase2_s=40.0,
                  commits=None, include_phase2=True, covered=None):
    return PckptProtocol(
        env,
        snapshot_work=1234.0,
        total_nodes=total_nodes,
        priority_write_seconds=lambda node: write_s,
        phase2_write_seconds=lambda n: phase2_s,
        initial=[entry_from_prediction(p) for p in vulnerable],
        already_covered=covered,
        on_commit=(lambda e, t: commits.append((e.node, t))) if commits is not None
        else None,
        include_phase2=include_phase2,
    )


class TestProtocolOutcome:
    def test_duration_is_both_phases(self):
        out = ProtocolOutcome(snapshot_work=5.0, committed={3: 1.5},
                              pending_failures=[], phase1_seconds=0.1,
                              phase2_seconds=0.2, healthy_nodes=7)
        assert out.duration == out.phase1_seconds + out.phase2_seconds
        assert out.duration.hex() == (0.1 + 0.2).hex()
        assert ProtocolOutcome(1.0, {}, [], 2.5, 0.0).healthy_nodes == 0

    def test_outcome_is_immutable(self):
        out = ProtocolOutcome(1.0, {}, [], 2.5, 0.0)
        with pytest.raises(AttributeError):
            out.phase1_seconds = 3.0
        assert out == ProtocolOutcome(1.0, {}, [], 2.5, 0.0)


class TestHappyPath:
    def test_single_vulnerable_two_phases(self, env):
        commits = []
        proto = make_protocol(env, [fe(100.0, 7)], commits=commits)
        host = _Host(env, proto)
        env.run()
        out = host.outcome
        assert out is not None
        assert commits == [(7, 10.0)]
        assert out.phase1_seconds == pytest.approx(10.0)
        assert out.phase2_seconds == pytest.approx(40.0)
        assert out.duration == pytest.approx(50.0)
        assert out.snapshot_work == 1234.0
        assert out.healthy_nodes == 0

    def test_multiple_vulnerable_priority_order(self, env):
        commits = []
        proto = make_protocol(
            env, [fe(300.0, 1), fe(100.0, 2), fe(200.0, 3)], commits=commits
        )
        _Host(env, proto)
        env.run()
        # Most imminent failure commits first; writes serialize.
        assert commits == [(2, 10.0), (3, 20.0), (1, 30.0)]

    def test_phase1_only_mode(self, env):
        proto = make_protocol(env, [fe(100.0, 7)], include_phase2=False,
                              total_nodes=64)
        host = _Host(env, proto)
        env.run()
        out = host.outcome
        assert out.phase2_seconds == 0.0
        assert out.duration == pytest.approx(10.0)
        assert out.healthy_nodes == 63

    def test_false_alarm_treated_like_prediction(self, env):
        alarm = FalseAlarmEvent(prediction_time=0.0, node=5, claimed_lead=30.0)
        proto = make_protocol(env, [alarm])
        host = _Host(env, proto)
        env.run()
        assert 5 in host.outcome.committed

    def test_barrier_cost_charged(self, env):
        proto = PckptProtocol(
            env, 0.0, 10,
            priority_write_seconds=lambda n: 5.0,
            phase2_write_seconds=lambda n: 5.0,
            initial=[entry_from_prediction(fe(100.0, 0))],
            barrier_seconds=1.0,
        )
        host = _Host(env, proto)
        env.run()
        assert host.outcome.duration == pytest.approx(11.0)


class TestMidProtocolArrivals:
    def test_new_vulnerable_during_phase1_joins_queue(self, env):
        commits = []
        proto = make_protocol(env, [fe(100.0, 1)], commits=commits)
        host = _Host(env, proto)

        def newcomer(env):
            yield env.timeout(4.0)
            host.interrupt(("prediction", fe(50.0, 2)))

        env.process(newcomer(env))
        env.run()
        # Node 1's write is non-preemptive; node 2 commits right after.
        assert commits == [(1, 10.0), (2, 20.0)]

    def test_new_vulnerable_during_phase2_reopens_phase1(self, env):
        commits = []
        proto = make_protocol(env, [fe(100.0, 1)], commits=commits, phase2_s=40.0)
        host = _Host(env, proto)

        def newcomer(env):
            yield env.timeout(30.0)  # 20 s into phase 2
            host.interrupt(("prediction", fe(60.0, 2)))

        env.process(newcomer(env))
        env.run()
        assert commits == [(1, 10.0), (2, 40.0)]
        out = host.outcome
        # Phase 2 total stays 40 s (20 before the pause + 20 after).
        assert out.phase2_seconds == pytest.approx(40.0)
        assert out.duration == pytest.approx(60.0)
        assert env.now == pytest.approx(60.0)

    def test_prediction_for_committed_node_ignored(self, env):
        commits = []
        proto = make_protocol(env, [fe(100.0, 1)], commits=commits)
        host = _Host(env, proto)

        def re_predict(env):
            yield env.timeout(15.0)  # node 1 already committed
            host.interrupt(("prediction", fe(90.0, 1)))

        env.process(re_predict(env))
        env.run()
        assert commits == [(1, 10.0)]
        assert host.outcome.duration == pytest.approx(50.0)


class TestFailuresDuringProtocol:
    def test_failure_of_uncommitted_node_aborts(self, env):
        proto = make_protocol(env, [fe(5.0, 1)])  # fails at t=5, write needs 10
        host = _Host(env, proto)

        def failer(env):
            yield env.timeout(5.0)
            host.interrupt(("failure", fe(5.0, 1)))

        env.process(failer(env))
        env.run()
        assert host.error is not None
        assert host.error.failure.node == 1
        assert proto.phase1_spent == pytest.approx(5.0)

    def test_failure_of_committed_node_goes_pending(self, env):
        proto = make_protocol(env, [fe(15.0, 1)])
        host = _Host(env, proto)

        def failer(env):
            yield env.timeout(15.0)  # node 1 committed at t=10
            host.interrupt(("failure", fe(15.0, 1)))

        env.process(failer(env))
        env.run()
        assert host.error is None
        assert [f.node for f in host.outcome.pending_failures] == [1]
        # Phase 2 still completes (daemons flush).
        assert host.outcome.duration == pytest.approx(50.0)

    def test_failure_of_unrelated_healthy_node_aborts(self, env):
        proto = make_protocol(env, [fe(100.0, 1)])
        host = _Host(env, proto)

        def failer(env):
            yield env.timeout(25.0)  # during phase 2
            host.interrupt(("failure", fe(25.0, 42, lead=0.0)))

        env.process(failer(env))
        env.run()
        assert host.error is not None
        assert host.error.failure.node == 42

    def test_failure_of_covered_node_goes_pending(self, env):
        proto = make_protocol(env, [fe(100.0, 1)], covered={9})
        host = _Host(env, proto)

        def failer(env):
            yield env.timeout(25.0)
            host.interrupt(("failure", fe(25.0, 9, lead=0.0)))

        env.process(failer(env))
        env.run()
        assert host.error is None
        assert [f.node for f in host.outcome.pending_failures] == [9]

    def test_queued_node_fails_before_its_write_aborts(self, env):
        proto = make_protocol(env, [fe(100.0, 1), fe(12.0, 2)])
        host = _Host(env, proto)

        # Node 2 (failing at 12) is most urgent and writes first [0,10];
        # wait: node 2 commits at 10 < 12 so it survives.  Use node 3
        # queued behind two writes instead.
        proto2 = make_protocol(env, [fe(100.0, 1), fe(50.0, 2), fe(12.0, 3)],
                               write_s=20.0)
        host2 = _Host(env, proto2)

        def failer(env):
            yield env.timeout(12.0)
            host2.interrupt(("failure", fe(12.0, 3)))

        env.process(failer(env))
        env.run()
        # proto (host) had no failure injected: completes.
        assert host.outcome is not None
        # Node 3 was writing (most urgent, [0,20]) but failure at 12 < 20.
        assert host2.error is not None
        assert host2.error.failure.node == 3


class TestValidation:
    def test_empty_initial_rejected(self, env):
        with pytest.raises(ValueError):
            make_protocol(env, [])

    def test_bad_total_nodes(self, env):
        with pytest.raises(ValueError):
            PckptProtocol(
                env, 0.0, 0,
                priority_write_seconds=lambda n: 1.0,
                phase2_write_seconds=lambda n: 1.0,
                initial=[entry_from_prediction(fe(10.0, 0))],
            )
