"""An untraced run against a traced one, and both against the event path.

Both compute drain landings and run, in batches, every periodic segment
and failure landing nothing else comes before; a traced one also
records each checkpoint, landing and restore at its own time.  Both
must give bit-identical results (``float.hex``) and metrics, dispatch
the same kernel events (but for the traced p-ckpt phase-2 span events),
and apply a drain landing before anything else that happens at the same
instant.  On :class:`~repro.validate.backends.EventPathEnvironment`,
whose horizon lets nothing run inline, every segment and failure goes
through the kernel; the batched run must match it bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.des import MetricsRegistry, Trace
from repro.failures.injector import FailureEvent
from repro.failures.weibull import LANL_SYSTEM18_WEIBULL, TITAN_WEIBULL
from repro.models.base import CRSimulation
from repro.models.registry import get_model
from repro.validate.backends import EventPathEnvironment
from repro.validate.crdiff import _flatten as _fingerprint
from repro.workloads.applications import APPLICATIONS

SEEDS = (0, 7, 11)

#: case id -> (application, model config, failure distribution).  The
#: default predictor raises false alarms, so M1..P2 see them too.
CONFIGS = {
    **{f"CHIMERA/{m}": ("CHIMERA", get_model(m), LANL_SYSTEM18_WEIBULL)
       for m in ("B", "M1", "M2", "P1", "P2")},
    "VULCAN/P2/titan": ("VULCAN", get_model("P2"), TITAN_WEIBULL),
    "POP/M2/titan": ("POP", get_model("M2"), TITAN_WEIBULL),
    "CHIMERA/P2/oci_online": (
        "CHIMERA", dataclasses.replace(get_model("P2"), oci_online=True),
        LANL_SYSTEM18_WEIBULL),
    "CHIMERA/B/neighbor_level": (
        "CHIMERA", dataclasses.replace(get_model("B"), neighbor_level=True),
        LANL_SYSTEM18_WEIBULL),
    "CHIMERA/P1/sync_phase2": (
        "CHIMERA",
        dataclasses.replace(get_model("P1"), pckpt_async_phase2=False),
        LANL_SYSTEM18_WEIBULL),
}


def _run(app, config, weibull, seed, traced, metrics=None):
    sim = CRSimulation(APPLICATIONS[app], config, weibull=weibull,
                       rng=np.random.default_rng(seed),
                       trace=Trace(env=None) if traced else None,
                       metrics=metrics)
    return sim, sim.run()


@pytest.mark.parametrize("case,seed", itertools.product(sorted(CONFIGS), SEEDS))
def test_untraced_equals_traced(case, seed):
    app, config, weibull = CONFIGS[case]
    fast_sim, fast = _run(app, config, weibull, seed, traced=False)
    event_sim, event = _run(app, config, weibull, seed, traced=True)
    assert _fingerprint(fast) == _fingerprint(event)
    assert fast_sim.drain.completed == event_sim.drain.completed
    if config.supports_pckpt:
        # Urgent events open and close the traced phase-2 spans.
        assert fast_sim.env.events_processed <= event_sim.env.events_processed
    else:
        assert fast_sim.env.events_processed == event_sim.env.events_processed


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_untraced_metrics_equal_traced(case):
    """Every counter, gauge and histogram ends where the event path's does.

    A batch of segments records its checkpoints, interval reads, ledger
    updates and drain landings at once; the totals, last values, update
    counts and float sums must still match the traced run's to the bit.
    Only the kernel's own ``des.*`` rows may differ.
    """
    app, config, weibull = CONFIGS[case]

    def snapshot(traced):
        _, out = _run(app, config, weibull, 7, traced,
                      metrics=MetricsRegistry())
        return {kind: {name: value for name, value in rows.items()
                       if not name.startswith("des.")}
                for kind, rows in out.metrics.items()}

    fast, event = snapshot(False), snapshot(True)
    assert fast["counters"]["ckpt.periodic_completed"] > 0
    assert fast == event


@pytest.mark.parametrize("case,seed", itertools.product(sorted(CONFIGS), SEEDS))
def test_inline_equals_event_path(case, seed, monkeypatch):
    """Inline failure landings and batches reproduce the event path.

    The default predictor raises false alarms, so the M1..P2 cases
    (CHIMERA/M1 among them) deliver them too.
    """
    app, config, weibull = CONFIGS[case]

    def run():
        sim, out = _run(app, config, weibull, seed, traced=False,
                        metrics=MetricsRegistry())
        metrics = {kind: {name: value for name, value in rows.items()
                          if not name.startswith("des.")}
                   for kind, rows in out.metrics.items()}
        return _fingerprint(out), sim.drain.completed, metrics, sim

    fast = run()
    monkeypatch.setattr("repro.models.base.Environment", EventPathEnvironment)
    event = run()
    assert isinstance(event[3].env, EventPathEnvironment)
    assert fast[:3] == event[:3]
    if app == "CHIMERA":
        assert fast[3].env.events_processed < event[3].env.events_processed


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
    raise AssertionError("an untraced run reached the trace")


class TestDisturbanceCostModel:
    """An untraced replication builds no trace payload.

    With metrics off, ``_count`` and ``_observe`` are bound to the
    module's ``_noop``.  A recorder in its place sees every argument an
    untraced, unmetered run still passes to instrumentation: metric names
    and numbers, never a detail dict, list, tuple or set.
    """

    @pytest.mark.parametrize("case", ["CHIMERA/B", "CHIMERA/M1", "CHIMERA/P1",
                                      "VULCAN/P2/titan", "POP/M2/titan"])
    def test_untraced_run_builds_no_payload(self, case, monkeypatch):
        calls, payloads = [], []

        def recorder(*args, **kwargs):
            calls.append(args)
            payloads.extend(a for a in (*args, *kwargs.values())
                            if isinstance(a, (dict, list, tuple, set)))

        monkeypatch.setattr("repro.models.base._noop", recorder)
        for method in ("emit", "span_begin", "span_end"):
            monkeypatch.setattr(Trace, method, _forbidden)
        app, config, weibull = CONFIGS[case]
        _, out = _run(app, config, weibull, 7, traced=False)
        if app == "CHIMERA":
            assert out.ft.failures > 0
            assert out.proactive_runs > 0 or not config.use_prediction
        assert calls
        assert payloads == []
