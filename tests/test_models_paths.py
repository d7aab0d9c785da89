"""An untraced run against a traced one, and both against the event path.

Both compute drain landings and run, in batches, every periodic segment
and failure landing nothing else comes before; a traced one also
records each checkpoint, landing and restore at its own time.  Both
must give bit-identical results (``float.hex``) and metrics, dispatch
the same kernel events, and apply a drain landing before anything else
that happens at the same instant.  On
:class:`~repro.validate.backends.EventPathEnvironment`, whose horizon
lets nothing run inline, every segment and failure goes through the
kernel; the batched run must match it bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.cr.checkpoint import SnapshotLedger
from repro.des import MetricsRegistry, Trace
from repro.failures.injector import FailureEvent
from repro.failures.predictor import DEFAULT_PREDICTOR, PredictorSpec
from repro.failures.weibull import LANL_SYSTEM18_WEIBULL, TITAN_WEIBULL
from repro.cr.drain import DrainManager
from repro.models.base import CRSimulation
from repro.models.registry import get_model
from repro.platform.pfs import PFSSpec
from repro.platform.system import SUMMIT
from repro.validate.backends import EventPathEnvironment
from repro.validate.crdiff import _flatten as _fingerprint
from repro.workloads.applications import APPLICATIONS

SEEDS = (0, 7, 11)

#: Predictors without false alarms, whose timers would often end a batch
#: before a prediction can land in it.
NO_ALARMS = PredictorSpec(false_positive_rate=0.0)
#: Leads too short for most p-ckpt priority writes: phase 1 aborts.
SHORT_LEADS = PredictorSpec(false_positive_rate=0.0, lead_scale=0.3)

#: case id -> (application, model config, failure distribution,
#: predictor).  The default predictor raises false alarms, so M1..P2
#: see them too.
CONFIGS = {
    **{f"CHIMERA/{m}": ("CHIMERA", get_model(m), LANL_SYSTEM18_WEIBULL,
                        DEFAULT_PREDICTOR)
       for m in ("B", "M1", "M2", "P1", "P2")},
    "VULCAN/P2/titan": ("VULCAN", get_model("P2"), TITAN_WEIBULL,
                        DEFAULT_PREDICTOR),
    "POP/M2/titan": ("POP", get_model("M2"), TITAN_WEIBULL,
                     DEFAULT_PREDICTOR),
    "CHIMERA/P2/oci_online": (
        "CHIMERA", dataclasses.replace(get_model("P2"), oci_online=True),
        LANL_SYSTEM18_WEIBULL, DEFAULT_PREDICTOR),
    "CHIMERA/B/neighbor_level": (
        "CHIMERA", dataclasses.replace(get_model("B"), neighbor_level=True),
        LANL_SYSTEM18_WEIBULL, DEFAULT_PREDICTOR),
    "CHIMERA/P1/sync_phase2": (
        "CHIMERA",
        dataclasses.replace(get_model("P1"), pckpt_async_phase2=False),
        LANL_SYSTEM18_WEIBULL, DEFAULT_PREDICTOR),
    # Every prediction's safeguard is aborted by its failure, or p-ckpt
    # phase 1 commits and phase 2 lands in a later restore.
    "CHIMERA/M1/no_alarms": ("CHIMERA", get_model("M1"),
                             LANL_SYSTEM18_WEIBULL, NO_ALARMS),
    "CHIMERA/P1/no_alarms": ("CHIMERA", get_model("P1"),
                             LANL_SYSTEM18_WEIBULL, NO_ALARMS),
    "CHIMERA/P1/short_leads": ("CHIMERA", get_model("P1"),
                               LANL_SYSTEM18_WEIBULL, SHORT_LEADS),
    # False alarms that stay live for minutes: a prediction often finds
    # another vulnerable entry still live, and its p-ckpt queues both.
    "CHIMERA/P1/long_alarms": (
        "CHIMERA", get_model("P1"), LANL_SYSTEM18_WEIBULL,
        PredictorSpec(false_positive_rate=0.6, lead_scale=3.0)),
    # Unpredicted failures often land in a restore that waits for phase 2,
    # before or after the flush.
    "CHIMERA/P1/low_recall": ("CHIMERA", get_model("P1"),
                              LANL_SYSTEM18_WEIBULL,
                              PredictorSpec(recall=0.6,
                                            false_positive_rate=0.0)),
    # A 17.6 s all-node write: most safeguards complete before their
    # failure, and those take the event path.
    "S3D/M1/no_alarms": ("S3D", get_model("M1"), LANL_SYSTEM18_WEIBULL,
                         NO_ALARMS),
    # Drains slower than the checkpoint period (PLATFORMS): each staging
    # queues behind the one before, and the batch submits it as staged.
    "CHIMERA/B/slow_drain": ("CHIMERA", get_model("B"),
                             LANL_SYSTEM18_WEIBULL, DEFAULT_PREDICTOR),
}

#: case id -> platform, for the cases not on SUMMIT.  One node in a
#: hundred drains at a time: a CHIMERA drain takes 2,660 s against a
#: 1,939 s checkpoint period.
PLATFORMS = {
    "CHIMERA/B/slow_drain": dataclasses.replace(
        SUMMIT, pfs=PFSSpec(drain_fraction=0.01, drain_min_nodes=1)),
}


def _run(case, seed, traced, metrics=None):
    app, config, weibull, predictor = CONFIGS[case]
    sim = CRSimulation(APPLICATIONS[app], config,
                       platform=PLATFORMS.get(case, SUMMIT), weibull=weibull,
                       predictor=predictor,
                       rng=np.random.default_rng(seed),
                       trace=Trace(env=None) if traced else None,
                       metrics=metrics)
    return sim, sim.run()


@pytest.mark.parametrize("case,seed", itertools.product(sorted(CONFIGS), SEEDS))
def test_untraced_equals_traced(case, seed):
    fast_sim, fast = _run(case, seed, traced=False)
    event_sim, event = _run(case, seed, traced=True)
    assert _fingerprint(fast) == _fingerprint(event)
    assert fast_sim.drain.completed == event_sim.drain.completed
    assert fast_sim.env.events_processed == event_sim.env.events_processed


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_untraced_metrics_equal_traced(case):
    """Every counter, gauge and histogram ends where the event path's does.

    A batch of segments records its checkpoints, interval reads, ledger
    updates and drain landings at once; the totals, last values, update
    counts and float sums must still match the traced run's to the bit.
    Only the kernel's own ``des.*`` rows may differ.
    """
    def snapshot(traced):
        _, out = _run(case, 7, traced, metrics=MetricsRegistry())
        return {kind: {name: value for name, value in rows.items()
                       if not name.startswith("des.")}
                for kind, rows in out.metrics.items()}

    fast, event = snapshot(False), snapshot(True)
    assert fast["counters"]["ckpt.periodic_completed"] > 0
    assert fast == event


@pytest.mark.parametrize("case,seed", itertools.product(sorted(CONFIGS), SEEDS))
def test_inline_equals_event_path(case, seed, monkeypatch):
    """Inline landings, protocols and batches reproduce the event path.

    The default predictor raises false alarms, so the M1..P2 cases
    (CHIMERA/M1 among them) deliver them too; the ``no_alarms`` and
    ``short_leads`` cases land most predictions, and the protocols they
    start, in the batch.  Every proactive snapshot must reach the ledger
    with the same work at the same time (a phase-2 flush landing in a
    restore included), and a traced run must record what the event path
    records, at the same times and in the same order.
    """
    app = CONFIGS[case][0]
    proactive = []
    record = SnapshotLedger.record_proactive

    def spy(ledger, work, time):
        proactive.append((work.hex(), time.hex()))
        return record(ledger, work, time)

    monkeypatch.setattr(SnapshotLedger, "record_proactive", spy)

    def run():
        del proactive[:]
        sim, out = _run(case, seed, traced=False, metrics=MetricsRegistry())
        metrics = {kind: {name: value for name, value in rows.items()
                          if not name.startswith("des.")}
                   for kind, rows in out.metrics.items()}
        landed = list(proactive)
        traced, _ = _run(case, seed, traced=True)
        records = [(r.time.hex(), r.source, r.kind, r.sid, repr(r.detail))
                   for r in traced.trace.records]
        return (_fingerprint(out), sim.drain.completed, metrics, landed,
                records, sim)

    fast = run()
    monkeypatch.setattr("repro.models.base.Environment", EventPathEnvironment)
    event = run()
    assert isinstance(event[-1].env, EventPathEnvironment)
    assert fast[:-1] == event[:-1]
    if app == "CHIMERA":
        assert fast[-1].env.events_processed < event[-1].env.events_processed


@pytest.mark.parametrize("case", ["CHIMERA/P1", "CHIMERA/P1/long_alarms",
                                  "CHIMERA/P2"])
def test_reused_horizon_changes_nothing(case, monkeypatch):
    """A restore in the batch reuses the horizon only while it holds.

    ``_landings`` takes the kernel horizon ``_stretch`` read unless a
    timer was withdrawn since.  A run that hands it the kernel's horizon
    at every call must dispatch the same events and give the same
    results.  In each case some of these seeds have a recovery withdraw
    an armed phase-2 flush between the two, and a ``_landings`` that
    kept the stale, earlier horizon would leave restores to the kernel
    that the batch can land.
    """
    def run():
        out = [_run(case, seed, traced=False) for seed in range(6)]
        return [(_fingerprint(o), sim.env.events_processed)
                for sim, o in out]

    reused = run()
    landings = CRSimulation._landings

    def fresh(sim, end):
        # What _landings reads: the kernel's horizon now.
        sim._horizon = sim.env.horizon()
        sim._cancels = sim.env.cancels
        return landings(sim, end)

    monkeypatch.setattr(CRSimulation, "_landings", fresh)
    assert run() == reused


def test_slow_drain_queues_in_the_batch(monkeypatch):
    """The slow-drain case backs the chain up inside untraced batches.

    Its drain outlasts the checkpoint period, so no staging can be
    jumped over: the batch submits each one as it is staged, and most
    find the previous drain still in flight and queue.
    """
    queued, runs = [], []
    submit = DrainManager.submit
    submit_run = DrainManager.submit_run

    def spy(dm, snap, now=None):
        submit(dm, snap, now)
        queued.append(bool(dm._pending))

    def spy_run(dm, *args):
        runs.append(args)
        submit_run(dm, *args)

    monkeypatch.setattr(DrainManager, "submit", spy)
    monkeypatch.setattr(DrainManager, "submit_run", spy_run)
    sim, out = _run("CHIMERA/B/slow_drain", 7, traced=False)
    assert sim.drain.duration > sim.oci_initial + sim.t_ckpt_bb
    assert len(queued) == out.periodic_checkpoints and not runs
    assert sum(queued) > len(queued) // 2
    assert sim.drain.cancelled > 100


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_failure_at_a_landing_sees_the_landed_snapshot(traced):
    """A failure at exactly a landing time restores from that snapshot.

    The first periodic checkpoint finishes at ``t2`` and lands on the
    PFS at ``L = t2 + duration``; one unpredicted failure strikes at
    exactly ``L``.  The landing is applied first, so recovery rolls back
    only the work done since ``t2``, not the whole run.
    """
    sim = CRSimulation(APPLICATIONS["CHIMERA"], get_model("B"),
                       weibull=LANL_SYSTEM18_WEIBULL,
                       rng=np.random.default_rng(0),
                       trace=Trace(env=None) if traced else None)
    interval = sim.oci_initial
    t2 = (0.0 + interval) + sim.t_ckpt_bb
    landing = t2 + sim.drain.duration
    assert sim.drain.duration < interval  # the failure cuts segment two
    strikes = iter([
        FailureEvent(time=landing, node=0, sequence_id=None,
                     predicted=False, lead=0.0),
    ])
    never = FailureEvent(time=1e15, node=0, sequence_id=None,
                         predicted=False, lead=0.0)
    sim.injector.next_failure = lambda: next(strikes, never)
    out = sim.run()
    assert out.ft.failures == 1
    assert out.overhead.recomputation == (interval + (landing - t2)) - interval
    if traced:
        restore = [r for r in sim.trace.records if r.kind == "restore"]
        assert [r.time for r in restore] == [landing]
        assert restore[0].detail["work"] == interval


def _forbidden(*_args, **_kwargs):
    raise AssertionError("an untraced run reached the instrumentation")


class TestDisturbanceCostModel:
    """An untraced, unmetered replication makes no instrumentation call.

    Every metric call is guarded by one ``metrics is not None`` test and
    every trace record by ``trace is not None``, so such a run builds no
    metric name, number or detail payload at all: the metric helpers,
    the registry and the trace all raise if reached.  The same run with
    a registry attached reaches them.
    """

    @pytest.mark.parametrize("case", ["CHIMERA/B", "CHIMERA/M1", "CHIMERA/P1",
                                      "VULCAN/P2/titan", "POP/M2/titan",
                                      "CHIMERA/M1/no_alarms",
                                      "CHIMERA/P1/no_alarms"])
    def test_untraced_run_builds_no_payload(self, case, monkeypatch):
        for method in ("_count", "_observe"):
            monkeypatch.setattr(CRSimulation, method, _forbidden)
        for method in ("counter", "histogram", "gauge"):
            monkeypatch.setattr(MetricsRegistry, method, _forbidden)
        for method in ("emit", "span_begin", "span_end"):
            monkeypatch.setattr(Trace, method, _forbidden)
        app, config = CONFIGS[case][:2]
        _, out = _run(case, 7, traced=False)
        if app == "CHIMERA":
            assert out.ft.failures > 0
            assert out.proactive_runs > 0 or not config.use_prediction
        with pytest.raises(AssertionError, match="reached"):
            _run(case, 7, traced=False, metrics=MetricsRegistry())
