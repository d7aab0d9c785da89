"""Unit tests for DrainManager, LiveMigration, and SafeguardCheckpoint."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _exact_gap(times):
    """The largest float no greater than every exact gap between *times*."""
    gaps = [Fraction(b) - Fraction(a) for a, b in zip(times, times[1:])]
    if not gaps:
        return math.inf
    low = min(gaps)
    gap = float(low)
    return gap if Fraction(gap) <= low else math.nextafter(gap, -math.inf)


def _submit_batched(dm, ledger, works, times):
    """Stage a run of snapshots as an untraced segment batch does.

    Each snapshot staged before ``queue_end`` is submitted on its own;
    the rest go to one ``submit_run``.  Returns how many took each way.
    """
    gap = _exact_gap(times)
    ready = dm.queue_end(gap)
    walked = jumped = 0
    prior = newest = (0.0, 0.0)
    for work, time in zip(works, times):
        if time < ready:
            walked += 1
            dm.submit(ledger.record_periodic(work, time), time)
            ready = dm.queue_end(gap)
        else:
            jumped += 1
            prior, newest = newest, (work, time)
    if jumped:
        dm.submit_run(jumped, *prior,
                      ledger.record_periodic(*newest, count=jumped))
    return walked, jumped


def _drain_state(dm, ledger, metrics):
    """The chain, ledger and metrics of *dm*, times by ``float.hex``."""
    def key(snap):
        if snap is None:
            return None
        return (snap.kind, snap.work, snap.time.hex())

    return {
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
    }


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

    def test_landing_applies_on_settle(self, env):
        """The landing time is known at submit; the ledger sees it on settle."""
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 4, 1 * GiB)
        snap = ledger.record_periodic(10.0, 0.0)
        dm.submit(snap)
        assert dm.landing == dm.duration
        env.run(until=dm.landing)
        assert ledger.recovery_snapshot() is None and dm.completed == 0
        dm.settle()
        assert ledger.recovery_snapshot() is snap
        assert dm.completed == 1 and dm.landing == float("inf")

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
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 8 * GiB)
        snaps = [ledger.record_periodic(w, 0.0) for w in (10.0, 20.0, 30.0)]
        for snap in snaps:
            dm.submit(snap)
        landed = []
        while dm.busy:
            landing = dm.landing
            env.run(until=landing)
            dm.settle()
            landed.append((ledger.recovery_snapshot(), landing, dm.completed))
        d = dm.duration
        assert landed == [(snaps[0], d, 1), (snaps[1], d + d, 2),
                          (snaps[2], d + d + d, 3)]

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
                                      "rearmed-short", "steady", "ties",
                                      "rearmed-steady"])
    def test_submit_run_equals_one_submit_per_snapshot(self, case):
        """A batch's stagings leave the state one ``submit`` per pair does.

        Seven snapshots staged ``0.37 * duration`` apart, so the drains
        back up behind each other (``backlog``); a zero-byte drain that
        lands at once (``zero``); and a batch that starts with a drain in
        flight, re-armed for its rest by ``cancel_newer_than`` after a
        queued one was cancelled (``rearmed``; ``rearmed-short`` stages
        one snapshot, so the survivor is still in flight after the batch).
        Forty snapshots ``2.7 * duration`` apart never queue and are
        jumped over (``steady``); snapshots exactly ``duration`` apart
        land each drain at the next staging's instant, landing first
        (``ties``); and twelve ``1.3 * duration`` apart queue behind a
        re-armed survivor before the run goes steady
        (``rearmed-steady``).  The batch submits as a segment batch does
        (:func:`_submit_batched`).  Chain times compare by ``float.hex``.
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
            n = {"rearmed-short": 1, "steady": 40, "ties": 12,
                 "rearmed-steady": 12}.get(case, 7)
            works = [100.0 + 10.0 * k for k in range(n)]
            times = [start + gap * (k + 1) for k in range(n)]
            if case == "steady":
                times = [start + 2.7 * d * (k + 1) for k in range(n)]
            elif case == "ties":
                times = [start + d]
                for _ in range(n - 1):
                    times.append(times[-1] + d)
            elif case == "rearmed-steady":
                times = [start + 0.1 * d + 1.3 * d * k for k in range(n)]
            if batched:
                env.run(until=times[-1])
                walked, jumped = _submit_batched(dm, ledger, works, times)
            else:
                for work, time in zip(works, times):
                    env.run(until=time)
                    dm.submit(ledger.record_periodic(work, time))
            states.append(_drain_state(dm, ledger, metrics))
        one_by_one, batch = states
        assert batch == one_by_one
        if case == "backlog":
            assert one_by_one["pending"] and one_by_one["completed"] >= 2
        elif case == "zero":
            assert one_by_one["completed"] == 7
            assert one_by_one["in_flight"] is None
        elif case == "rearmed":
            assert one_by_one["pfs"][1] > 10.0
        elif case == "rearmed-short":
            assert one_by_one["in_flight"][1] == 10.0
            assert one_by_one["completed"] == 0
        elif case == "steady":
            assert (walked, jumped) == (0, n)
            assert one_by_one["completed"] == n - 1
        elif case == "ties":
            assert all(a + d == b for a, b in zip(times, times[1:]))
            assert one_by_one["completed"] == n - 1
            assert one_by_one["in_flight"][1] == works[-1]
        else:
            assert walked >= 2 and jumped >= 5 and walked + jumped == n
            assert one_by_one["completed"] == n
            assert one_by_one["pending"] == []

    @settings(max_examples=200, deadline=None)
    @given(
        gib=st.sampled_from([0.0, 0.5, 2.0, 8.0, 13.0]),
        chain=st.lists(st.floats(0.05, 3.0), max_size=3),
        keep=st.one_of(st.none(), st.integers(0, 3)),
        lead=st.floats(0.0, 2.0),
        factors=st.lists(st.one_of(st.just(1.0), st.floats(0.05, 4.0)),
                         min_size=1, max_size=25),
    )
    def test_submit_run_property(self, gib, chain, keep, lead, factors):
        """Random durations, starting chains and gaps, batched or not.

        *chain* stages up to three snapshots before the run, ``factor *
        duration`` apart; *keep*, when given, then rolls back to the
        first *keep* of them, re-arming a survivor.  The run starts
        *lead* durations later, each staging ``factor * duration`` after
        the one before (a factor of 1.0 adds the duration itself, so the
        landing ties with the staging).  The batch must leave the state,
        by ``float.hex``, that one ``submit`` per staging leaves.
        """
        states = []
        for batched in (False, True):
            env = Environment()
            metrics = MetricsRegistry()
            ledger = SnapshotLedger(metrics=metrics)
            dm = DrainManager(env, PFSSpec(), ledger, 16, gib * GiB,
                              metrics=metrics)
            d = dm.duration
            unit = d if d > 0 else 1.0
            t = 0.0
            for k, factor in enumerate(chain):
                t = t + factor * unit
                dm.submit(ledger.record_periodic(10.0 * (k + 1), t), t)
            if keep is not None and chain:
                t = t + 0.25 * unit
                env.run(until=t)
                dm.cancel_newer_than(10.0 * keep + 5.0)
            t = t + lead * unit
            works, times = [], []
            for k, factor in enumerate(factors):
                t = t + (d if factor == 1.0 else factor * unit)
                works.append(100.0 + 10.0 * k)
                times.append(t)
            if batched:
                _submit_batched(dm, ledger, works, times)
            else:
                for work, time in zip(works, times):
                    dm.submit(ledger.record_periodic(work, time), time)
            states.append(_drain_state(dm, ledger, metrics))
        assert states[1] == states[0]

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
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 8 * GiB)
        submit_at, cuts = 0.1, (0.2, 1.0)

        def at(t, action):
            yield env.timeout(t)
            action()

        env.process(at(submit_at, lambda: dm.submit(
            ledger.record_periodic(100.0, env.now))))
        for cut in cuts:
            env.process(at(cut, lambda: dm.cancel_newer_than(150.0)))
        env.run()
        remaining, start = dm.duration, submit_at
        for cut in cuts:
            remaining -= cut - start
            start = cut
        expected = start + remaining
        assert expected != submit_at + dm.duration
        assert dm.landing.hex() == expected.hex()
        env.run(until=expected)
        dm.settle()
        assert ledger.recovery_snapshot().work == 100.0
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

    def test_held_landings_record_in_time_order(self, env):
        """A traced landing records before the first record at or after it.

        Two drains queue at 0; a record stamped exactly at the second
        landing is preceded by both landings and the BEGIN the first one
        started, with no kernel event scheduled for any of them.
        """
        trace = Trace(env)
        ledger = SnapshotLedger()
        dm = DrainManager(env, PFSSpec(), ledger, 16, 8 * GiB, trace=trace)
        dm.submit(ledger.record_periodic(100.0, 0.0))
        dm.submit(ledger.record_periodic(200.0, 0.0))
        d = dm.duration
        assert env.queue_size == 0 and dm.completed == 0
        trace.emit("app", "probe", time=d + d)
        assert [(r.time, r.kind, r.ph, r.detail) for r in trace.records] == [
            (0.0, "drain_flush", BEGIN, 100.0),
            (d, "drain_flush", END, "landed"),
            (d, "drain_flush", BEGIN, 200.0),
            (d + d, "drain_flush", END, "landed"),
            (d + d, "probe", "I", None),
        ]
        assert dm.completed == 2 and trace.due == float("inf")
        assert trace.span_seconds("drain_flush") == d + d

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
