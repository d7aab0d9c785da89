"""Unit tests for DrainManager, LiveMigration, and SafeguardCheckpoint."""

from __future__ import annotations

import pytest

from repro.cr.checkpoint import SnapshotLedger
from repro.cr.drain import DrainManager
from repro.cr.migration import LiveMigration, MigrationOutcome
from repro.cr.safeguard import SafeguardAborted, SafeguardCheckpoint
from repro.des import BEGIN, END, Environment, Trace
from repro.des.metrics import MetricsRegistry
from repro.failures.injector import FailureEvent, FalseAlarmEvent
from repro.iomodel.bandwidth import GiB
from repro.platform.pfs import PFSSpec
from repro.platform.system import SUMMIT


def _failure(time, node, lead=10.0):
    return FailureEvent(time=time, node=node, sequence_id=6, predicted=True, lead=lead)


def _run_drains(env, dm):
    """Run *env* to exhaustion, stopping the clock at every drain landing.

    An untraced :class:`DrainManager` schedules no landing event: it
    computes each landing time and applies it when settled.  Settling at
    each landing time lets a test observe landings when they happen.
    """
    while True:
        landing = dm.landing
        if env.peek() < landing:
            env.step()
        elif landing < float("inf"):
            env.run(until=landing)
            dm.settle()
        else:
            return


class TestDrainManager:
    def _make(self, env, nodes=16, per_node=8 * GiB):
        ledger = SnapshotLedger()
        pfs = PFSSpec()
        dm = DrainManager(env, pfs, ledger, nodes, per_node)
        return dm, ledger, pfs

    def test_drain_completes_and_updates_ledger(self, env):
        dm, ledger, pfs = self._make(env)
        snap = ledger.record_periodic(100.0, 0.0)
        dm.submit(snap)
        _run_drains(env, dm)
        assert dm.completed == 1
        assert ledger.recovery_snapshot() is snap
        assert env.now == pytest.approx(pfs.drain_time(16, 8 * GiB))

    def test_serialized_drains(self, env):
        dm, ledger, pfs = self._make(env)
        s1 = ledger.record_periodic(100.0, 0.0)
        s2 = ledger.record_periodic(200.0, 0.0)
        dm.submit(s1)
        dm.submit(s2)
        _run_drains(env, dm)
        assert dm.completed == 2
        assert env.now == pytest.approx(2 * pfs.drain_time(16, 8 * GiB))
        assert ledger.recovery_snapshot().work == 200.0

    def test_cancel_in_flight(self, env):
        dm, ledger, pfs = self._make(env)
        snap = ledger.record_periodic(100.0, 0.0)
        dm.submit(snap)

        def canceller(env):
            yield env.timeout(pfs.drain_time(16, 8 * GiB) / 2)
            dm.cancel_newer_than(50.0)

        env.process(canceller(env))
        env.run()
        assert dm.completed == 0
        assert dm.cancelled == 1
        assert ledger.recovery_snapshot() is None

    def test_cancel_spares_older_snapshots(self, env):
        dm, ledger, pfs = self._make(env)
        snap = ledger.record_periodic(100.0, 0.0)
        dm.submit(snap)

        def canceller(env):
            yield env.timeout(1.0)
            dm.cancel_newer_than(150.0)  # snapshot at 100 survives

        env.process(canceller(env))
        _run_drains(env, dm)
        assert dm.completed == 1

    def test_on_drained_callback(self, env):
        landed = []
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 4, 1 * GiB,
                          on_drained=landed.append)
        snap = ledger.record_periodic(10.0, 0.0)
        dm.submit(snap)
        _run_drains(env, dm)
        assert landed == [snap]

    def test_busy_flag(self, env):
        dm, ledger, _ = self._make(env)
        assert not dm.busy
        dm.submit(ledger.record_periodic(1.0, 0.0))
        assert dm.busy
        _run_drains(env, dm)
        assert not dm.busy

    def test_busy_during_drain_and_idle_after(self, env):
        dm, ledger, _ = self._make(env)
        seen = []

        def probe(env):
            yield env.timeout(dm.duration / 2)
            seen.append(dm.busy)
            yield env.timeout(dm.duration)
            seen.append(dm.busy)

        dm.submit(ledger.record_periodic(1.0, 0.0))
        env.process(probe(env))
        env.run()
        assert seen == [True, False]

    def test_drains_land_fifo(self, env):
        landed = []
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 8 * GiB,
                          on_drained=lambda s: landed.append((s, env.now)))
        snaps = [ledger.record_periodic(w, 0.0) for w in (10.0, 20.0, 30.0)]
        for snap in snaps:
            dm.submit(snap)
        _run_drains(env, dm)
        d = dm.duration
        assert [s for s, _ in landed] == snaps
        assert [t for _, t in landed] == [d, d + d, d + d + d]

    def test_queued_drains_chain_from_each_landing(self, env):
        """A queued drain starts at its predecessor's landing, to the bit.

        ``L_next = L + duration``, whether the landings are applied at
        their own times or later by one :meth:`settle`.
        """
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 8 * GiB)
        d = dm.duration
        env.run(until=0.1)
        chain = [env.now + d]
        for _ in range(2):
            chain.append(chain[-1] + d)
        snaps = [ledger.record_periodic(w, env.now) for w in (10.0, 20.0, 30.0)]
        for snap in snaps:
            dm.submit(snap)
        seen = []
        while dm.busy:
            seen.append(dm.landing)
            env.run(until=dm.landing)
        assert [t.hex() for t in seen] == [t.hex() for t in chain]
        assert dm.completed == 3 and ledger.recovery_snapshot() is snaps[-1]

        late = DrainManager(env, PFSSpec(), SnapshotLedger(), 16, 8 * GiB)
        chain = [env.now + d]
        for _ in range(2):
            chain.append(chain[-1] + d)
        for snap in snaps:
            late.submit(snap)
        env.run(until=chain[1] + d / 2)
        late.settle()
        assert late.completed == 2
        assert late.landing.hex() == chain[2].hex()
        env.run(until=chain[2] + d)
        assert not late.busy and late.completed == 3

    @pytest.mark.parametrize("case", ["backlog", "zero", "rearmed",
                                      "rearmed-short"])
    def test_submit_run_equals_one_submit_per_snapshot(self, case):
        """One ``submit_run`` leaves the state one ``submit`` per pair does.

        Seven snapshots staged ``0.37 * duration`` apart, so the drains
        back up behind each other (``backlog``); a zero-byte drain that
        lands at once (``zero``); and a batch that starts with a drain in
        flight, re-armed for its rest by ``cancel_newer_than`` after a
        queued one was cancelled (``rearmed``; ``rearmed-short`` stages
        one snapshot, so the survivor is still in flight after the batch).
        Chain times compare by ``float.hex``.
        """
        per_node = 0.0 if case == "zero" else 8 * GiB
        states = []
        for batched in (False, True):
            env = Environment()
            metrics = MetricsRegistry()
            ledger = SnapshotLedger(metrics=metrics)
            dm = DrainManager(env, PFSSpec(), ledger, 16, per_node,
                              metrics=metrics)
            d = dm.duration
            if case.startswith("rearmed"):
                env.run(until=0.1)
                dm.submit(ledger.record_periodic(10.0, env.now))
                env.run(until=0.1 + d / 3)
                dm.submit(ledger.record_periodic(50.0, env.now))
                env.run(until=0.1 + d / 2)
                dm.cancel_newer_than(20.0)
                assert dm.cancelled == 1 and dm._remaining < d
            gap = 0.37 * d if d > 0 else 0.37
            start = env.now
            n = 1 if case == "rearmed-short" else 7
            works = [100.0 + 10.0 * k for k in range(n)]
            times = [start + gap * (k + 1) for k in range(n)]
            if batched:
                env.run(until=times[-1])
                newest = ledger.record_periodic(works[-1], times[-1],
                                                count=len(works))
                dm.submit_run(works, times, newest)
            else:
                for work, time in zip(works, times):
                    env.run(until=time)
                    dm.submit(ledger.record_periodic(work, time))

            def key(snap):
                if snap is None:
                    return None
                return (snap.kind, snap.work, snap.time.hex())

            states.append({
                "landing": dm.landing.hex(),
                "remaining": dm._remaining.hex(),
                "start": dm._start.hex(),
                "in_flight": key(dm._snap),
                "pending": [key(s) for s in dm._pending],
                "completed": dm.completed,
                "cancelled": dm.cancelled,
                "bb": key(ledger.bb),
                "pfs": key(ledger.pfs),
                "metrics": metrics.snapshot(),
            })
        one_by_one, batch = states
        assert batch == one_by_one
        if case == "backlog":
            assert one_by_one["pending"] and one_by_one["completed"] >= 2
        elif case == "zero":
            assert one_by_one["completed"] == 7
            assert one_by_one["in_flight"] is None
        elif case == "rearmed":
            assert one_by_one["pfs"][1] > 10.0
        else:
            assert one_by_one["in_flight"][1] == 10.0
            assert one_by_one["completed"] == 0

    def test_zero_byte_drain_lands_at_once(self, env):
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 0.0)
        snap = ledger.record_periodic(10.0, 0.0)
        dm.submit(snap)
        assert dm.completed == 1
        assert not dm.busy
        assert ledger.recovery_snapshot() is snap
        assert env.queue_size == 0

    def test_surviving_snapshot_lands_after_what_remained(self, env):
        """A cancel the snapshot survives re-arms it for exactly the rest.

        The landing time is the float arithmetic of the re-arm,
        ``now + (remaining - elapsed)`` per cancel, to the last bit.  The
        times are chosen so that it differs from ``submit + duration``.
        """
        landed = []
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 8 * GiB,
                          on_drained=lambda s: landed.append(env.now))
        submit_at, cuts = 0.1, (0.2, 1.0)

        def at(t, action):
            yield env.timeout(t)
            action()

        env.process(at(submit_at, lambda: dm.submit(
            ledger.record_periodic(100.0, env.now))))
        for cut in cuts:
            env.process(at(cut, lambda: dm.cancel_newer_than(150.0)))
        _run_drains(env, dm)
        remaining, start = dm.duration, submit_at
        for cut in cuts:
            remaining -= cut - start
            start = cut
        expected = start + remaining
        assert expected != submit_at + dm.duration
        assert [t.hex() for t in landed] == [expected.hex()]
        assert dm.completed == 1 and dm.cancelled == 0

    def _instrumented_run(self, env):
        """One snapshot lands, the next is rolled back mid-flight."""
        trace = Trace(env)
        metrics = MetricsRegistry()
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 8 * GiB,
                          trace=trace, metrics=metrics)
        dm.submit(ledger.record_periodic(100.0, 0.0))
        dm.submit(ledger.record_periodic(200.0, 0.0))

        def canceller(env):
            yield env.timeout(1.5 * dm.duration)
            dm.cancel_newer_than(150.0)

        env.process(canceller(env))
        env.run()
        return dm, trace, metrics

    def test_drain_flush_spans_close_landed_and_cancelled(self, env):
        dm, trace, _ = self._instrumented_run(env)
        spans = [r for r in trace.records if r.kind == "drain_flush"]
        assert [(r.ph, r.detail) for r in spans] == [
            (BEGIN, 100.0), (END, "landed"), (BEGIN, 200.0), (END, "cancelled"),
        ]
        assert [r.time for r in spans] == [
            0.0, dm.duration, dm.duration, 1.5 * dm.duration,
        ]
        assert trace.open_spans() == ()

    def test_drain_metrics_recorded(self, env):
        dm, _, metrics = self._instrumented_run(env)
        assert metrics.counter("drain.completed").value == 1
        assert metrics.counter("drain.cancelled").value == 1
        hist = metrics.histogram("drain.seconds")
        assert (hist.count, hist.total) == (1, dm.duration)
        assert (dm.completed, dm.cancelled) == (1, 1)


class TestLiveMigration:
    def test_completes(self, env):
        outcomes = []
        lm = LiveMigration(
            env, SUMMIT, node=3, prediction=_failure(100.0, 3),
            ckpt_bytes_per_node=10 * GiB,
            on_done=lambda m, o: outcomes.append(o),
        )
        expected = SUMMIT.lm_transfer_time(10 * GiB, 3.0)
        assert lm.transfer_seconds == pytest.approx(expected)
        assert lm.completes_before(expected + 1.0)
        assert not lm.completes_before(expected - 1.0)
        env.run()
        assert outcomes == [MigrationOutcome.COMPLETED]
        assert not lm.in_flight

    def test_abort(self, env):
        outcomes = []
        lm = LiveMigration(
            env, SUMMIT, 3, _failure(100.0, 3), 10 * GiB,
            on_done=lambda m, o: outcomes.append(o),
        )

        def aborter(env):
            yield env.timeout(lm.transfer_seconds / 2)
            lm.abort("test")

        env.process(aborter(env))
        env.run()
        assert outcomes == [MigrationOutcome.ABORTED]

    def test_overtake(self, env):
        outcomes = []
        lm = LiveMigration(
            env, SUMMIT, 3, _failure(100.0, 3), 10 * GiB,
            on_done=lambda m, o: outcomes.append(o),
        )

        def failer(env):
            yield env.timeout(lm.transfer_seconds / 3)
            lm.overtake()

        env.process(failer(env))
        env.run()
        assert outcomes == [MigrationOutcome.OVERTAKEN]

    def test_alpha_and_dram_bound(self, env):
        lm = LiveMigration(env, SUMMIT, 0, _failure(10.0, 0), 284.5 * GiB, alpha=3.0)
        assert 40.0 < lm.transfer_seconds < 42.0  # 512 GiB DRAM cap
        env.run()


class _Host:
    """Minimal driver for SafeguardCheckpoint inside a process."""

    def __init__(self, env, run_obj):
        self.env = env
        self.outcome = None
        self.error = None
        self.proc = env.process(self._drive(run_obj))

    def _drive(self, run_obj):
        try:
            self.outcome = yield from run_obj.run()
        except SafeguardAborted as exc:
            self.error = exc


class TestSafeguard:
    def test_completes(self, env):
        sg = SafeguardCheckpoint(env, snapshot_work=500.0, write_seconds=30.0,
                                 trigger=_failure(100.0, 1))
        host = _Host(env, sg)
        env.run()
        assert host.outcome is not None
        assert host.outcome.duration == pytest.approx(30.0)
        assert host.outcome.snapshot_work == 500.0
        assert len(host.outcome.served) == 1

    def test_aborted_by_failure(self, env):
        sg = SafeguardCheckpoint(env, 500.0, 30.0, _failure(10.0, 1))
        host = _Host(env, sg)

        def failer(env):
            yield env.timeout(10.0)
            host.proc.interrupt(("failure", _failure(10.0, 1)))

        env.process(failer(env))
        env.run()
        assert host.error is not None
        assert host.error.failure.node == 1
        assert sg.spent == pytest.approx(10.0)

    def test_prediction_joins_served(self, env):
        sg = SafeguardCheckpoint(env, 500.0, 30.0, _failure(100.0, 1))
        host = _Host(env, sg)

        def predictor(env):
            yield env.timeout(5.0)
            host.proc.interrupt(("prediction", _failure(200.0, 2)))

        env.process(predictor(env))
        env.run()
        assert len(host.outcome.served) == 2
        assert host.outcome.duration == pytest.approx(30.0)

    def test_covered_node_failure_goes_pending(self, env):
        sg = SafeguardCheckpoint(env, 500.0, 30.0, _failure(100.0, 1),
                                 already_covered={7})
        host = _Host(env, sg)

        def failer(env):
            yield env.timeout(5.0)
            host.proc.interrupt(("failure", _failure(5.0, 7)))

        env.process(failer(env))
        env.run()
        assert host.error is None
        assert len(host.outcome.pending_failures) == 1

    def test_validation(self, env):
        with pytest.raises(ValueError):
            SafeguardCheckpoint(env, 0.0, -1.0, _failure(1.0, 0))
