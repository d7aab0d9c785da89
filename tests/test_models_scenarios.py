"""Deterministic scenario tests: exact protocol paths through the engine.

A scripted injector replaces the stochastic one so each test controls
precisely when predictions and failures land, letting us assert the exact
behaviour of the Fig 1(B)/(C) hazards, the hybrid LM-abort rule, and the
async phase-2 recovery path.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np
import pytest

from repro.failures.injector import FailureEvent, FailureInjector, FalseAlarmEvent
from repro.failures.predictor import PredictorSpec
from repro.failures.weibull import WeibullParams
from repro.iomodel.bandwidth import GiB
from repro.models.base import CRSimulation, ModelConfig
from repro.models.registry import get_model
from repro.platform.system import SUMMIT
from repro.workloads.applications import ApplicationSpec

#: A quiet distribution: the scripted events are the only ones that occur
#: within any plausible makespan.
QUIET = WeibullParams("scripted-quiet", shape=0.7, scale_hours=1e7, system_nodes=64)

APP = ApplicationSpec("SCEN", nodes=64, checkpoint_bytes_total=64 * 64.0 * GiB,
                      compute_hours=2.0)
# Handy timings for APP on SUMMIT (seconds):
#   BB checkpoint      : 64 GiB / 2.1 GiB/s              ≈ 30.48
#   p-ckpt phase 1     : 64 GiB @ single-node PFS        ≈ 4.75
#   LM transfer (α=3)  : 192 GiB / 12.5 GiB/s            ≈ 15.36
T_BB = APP.checkpoint_bytes_per_node / (2.1 * GiB)
T_P1 = SUMMIT.pfs.priority_write_time(APP.checkpoint_bytes_per_node)
T_LM = SUMMIT.lm_transfer_time(APP.checkpoint_bytes_per_node)


class ScriptedInjector(FailureInjector):
    """Injector that replays a fixed list of events, then goes quiet."""

    def __init__(self, failures: List[FailureEvent],
                 alarms: Optional[List[FalseAlarmEvent]] = None) -> None:
        super().__init__(QUIET, APP.nodes, rng=np.random.default_rng(0))
        self._failures = list(failures)
        self._alarms = list(alarms or [])

    def next_failure(self) -> FailureEvent:
        if self._failures:
            return self._failures.pop(0)
        return FailureEvent(time=1e15, node=0, sequence_id=None,
                            predicted=False, lead=0.0)

    def next_false_alarm(self) -> Optional[FalseAlarmEvent]:
        if self._alarms:
            return self._alarms.pop(0)
        return None

    @property
    def false_alarm_rate(self) -> float:  # force the alarm driver to run
        return 1.0 if self._alarms else 0.0


def run_scripted(model, failures, alarms=None, app=APP, oci_seconds=600.0,
                 platform=SUMMIT):
    """Run *model* against scripted events with a fixed checkpoint interval.

    The quiet background distribution would drive Young's OCI beyond the
    makespan, so scenario tests pin the interval to a realistic value.
    """
    config = get_model(model) if isinstance(model, str) else model
    sim = CRSimulation(app, config, platform=platform, weibull=QUIET,
                       rng=np.random.default_rng(0))
    sim.injector = ScriptedInjector(failures, alarms)
    sim.oci.injector = sim.injector
    sim.oci.interval = lambda: oci_seconds  # type: ignore[method-assign]
    sim.oci_initial = oci_seconds
    return sim, sim.run()


def predicted(time, node, lead, seq=6):
    return FailureEvent(time=time, node=node, sequence_id=seq,
                        predicted=True, lead=lead)


def surprise(time, node):
    return FailureEvent(time=time, node=node, sequence_id=None,
                        predicted=False, lead=0.0)


class TestPckptPaths:
    def test_long_lead_is_mitigated(self):
        """Lead ≥ phase-1 time: the vulnerable commit lands, failure is
        mitigated, recompute is only the post-snapshot sliver."""
        ev = predicted(time=1000.0, node=5, lead=60.0)
        sim, out = run_scripted("P1", [ev])
        assert out.ft.failures == 1
        assert out.ft.mitigated_pckpt == 1
        # Snapshot taken at prediction (t=940): lost work < lead.
        assert out.overhead.recomputation < 61.0
        assert out.overhead.recovery > 0.0

    def test_short_lead_aborts_protocol(self):
        """Lead < phase-1 time: the write cannot finish; rollback to the
        last periodic checkpoint."""
        ev = predicted(time=1000.0, node=5, lead=0.5 * T_P1)
        sim, out = run_scripted("P1", [ev])
        assert out.ft.mitigated == 0
        # Recomputation spans back to the last periodic BB checkpoint.
        assert out.overhead.recomputation > 60.0

    def test_unpredicted_failure_rolls_back(self):
        ev = surprise(time=2000.0, node=9)
        sim, out = run_scripted("P1", [ev])
        assert out.ft.failures == 1
        assert out.ft.predicted == 0
        assert out.ft.mitigated == 0
        assert out.overhead.recomputation > 0.0

    def test_failure_during_async_phase2_waits_for_flush(self):
        """A mitigated failure arriving while phase 2 is still flushing
        must wait for the flush before the all-PFS restore."""
        # Phase 2 for 63 healthy nodes is long; failure lands inside it.
        lead = T_P1 + 5.0  # committed, but well inside phase 2
        ev = predicted(time=1000.0, node=5, lead=lead)
        sim, out = run_scripted("P1", [ev])
        assert out.ft.mitigated_pckpt == 1
        phase2 = SUMMIT.pfs.proactive_write_time(
            APP.nodes - 1, APP.checkpoint_bytes_per_node
        )
        restore = SUMMIT.pfs.full_restore_read_time(
            APP.nodes, APP.checkpoint_bytes_per_node
        )
        # Recovery = wait-for-flush + full restore + restart delay.
        expected_min = (phase2 - 5.0) + restore + SUMMIT.restart_delay - 1.0
        assert out.overhead.recovery >= expected_min


class TestFig1Hazards:
    def test_failure_during_bb_checkpoint(self):
        """Fig 1(C): a failure mid-BB-write forfeits that checkpoint."""
        # First periodic checkpoint starts at t=600; hit the app 1 s in.
        ev = surprise(time=601.0, node=3)
        sim, out = run_scripted("B", [ev])
        # Nothing was ever committed: restart from scratch, recompute all.
        assert out.ft.failures == 1
        assert out.overhead.recomputation == pytest.approx(600.0, rel=0.02)

    def test_failure_during_drain_forfeits_generation(self):
        """Fig 1(B): a failure while the newest periodic checkpoint is
        still draining rolls back to the previous drained generation."""
        platform = dataclasses.replace(
            SUMMIT,
            pfs=dataclasses.replace(SUMMIT.pfs, drain_fraction=0.001,
                                    drain_min_nodes=1),
        )
        drain = platform.pfs.drain_time(APP.nodes, APP.checkpoint_bytes_per_node)
        assert drain > 120.0  # slow-drain platform: a wide Fig 1(B) window

        # The second checkpoint (work=1200) completes at ~1230.5+T_BB and
        # starts draining; hit the app while that drain is in flight.  The
        # first generation (work=600) has long since drained.
        second_ckpt_done = 2 * 600.0 + 2 * T_BB
        ev = surprise(time=second_ckpt_done + 30.0, node=2)
        sim, out = run_scripted("B", [ev], platform=platform)
        # Rollback lands on generation 1 (work=600), not generation 2:
        # recompute covers the forfeited second interval (≈630 s of work).
        assert out.overhead.recomputation > 600.0
        assert out.overhead.recomputation < 700.0


class TestHybridPaths:
    def test_long_lead_goes_to_lm_and_avoids_failure(self):
        ev = predicted(time=1000.0, node=4, lead=3 * T_LM)
        sim, out = run_scripted("P2", [ev])
        assert out.ft.mitigated_lm == 1
        assert out.ft.mitigated_pckpt == 0
        # Avoided: no recovery, no recompute; only LM slowdown remains.
        assert out.overhead.recovery == 0.0
        assert out.overhead.recomputation == 0.0
        assert out.overhead.migration > 0.0

    def test_short_lead_goes_to_pckpt(self):
        ev = predicted(time=1000.0, node=4, lead=0.8 * T_LM)
        sim, out = run_scripted("P2", [ev])
        assert out.ft.mitigated_pckpt == 1
        assert out.ft.mitigated_lm == 0

    def test_pckpt_absorbs_inflight_lm(self):
        """Fig 5: a short-lead prediction aborts the in-flight migration
        and pulls its node into the p-ckpt priority queue.

        The overlap is staged with a false alarm (real failures cannot
        overlap prediction windows here: the chain starts only after the
        previous failure), exactly the situation a deployed system faces —
        it cannot tell the alarm from a real prediction.
        """
        # False alarm at t=950 claims a failure at t=950+2*T_LM: P2
        # starts a migration of node 4.
        alarm = FalseAlarmEvent(prediction_time=950.0, node=4,
                                claimed_lead=2 * T_LM)
        # A real prediction lands mid-transfer with a lead too short for
        # migration (10 s < T_LM): p-ckpt must begin immediately.
        short = predicted(time=970.0, node=9, lead=10.0)
        sim, out = run_scripted("P2", [short], alarms=[alarm])
        assert out.ft.lm_aborts == 1
        assert out.ft.mitigated_lm == 0
        assert out.ft.mitigated_pckpt == 1  # the real failure, via p-ckpt
        # The absorbed alarm node was committed in phase 1 too.
        assert out.proactive_runs == 1

    def test_migrated_node_failure_is_silent(self):
        """After LM completes, the old node's death costs nothing."""
        ev = predicted(time=1000.0, node=4, lead=10 * T_LM)
        sim, out = run_scripted("P2", [ev])
        assert out.ft.mitigated_lm == 1
        ideal = APP.compute_seconds
        # Makespan exceeds ideal only by checkpoints + LM slowdown.
        assert out.makespan - ideal < out.overhead.checkpoint + 60.0


class TestLMWatcherPaths:
    def test_second_prediction_piggybacks_on_inflight_lm(self):
        """A second prediction for a node already migrating rides the
        existing transfer instead of starting another."""
        alarm1 = FalseAlarmEvent(prediction_time=900.0, node=4,
                                 claimed_lead=2 * T_LM)
        # Same node re-flagged mid-transfer with a still-LM-feasible lead.
        alarm2 = FalseAlarmEvent(prediction_time=900.0 + 0.5 * T_LM, node=4,
                                 claimed_lead=2 * T_LM)
        sim, out = run_scripted("P2", [], alarms=[alarm1, alarm2])
        assert out.ft.false_alarms == 2
        assert out.ft.lm_aborts == 0
        assert out.proactive_runs == 0
        # Only one transfer's worth of slowdown was paid.
        expected_excess = APP.compute_seconds * 0  # sanity anchor
        assert out.overhead.migration < 2 * T_LM * SUMMIT.lm_slowdown * 1.5

    def test_prediction_for_vacated_node_is_free(self):
        """Once a node's process migrated away, further predictions for it
        need no action, and its eventual failure is avoided."""
        alarm = FalseAlarmEvent(prediction_time=800.0, node=4,
                                claimed_lead=2 * T_LM)
        # Real failure predicted on the SAME node after the LM completed;
        # the process is no longer there.
        ev = predicted(time=1000.0, node=4, lead=10.0)  # lead < T_LM!
        sim, out = run_scripted("P2", [ev], alarms=[alarm])
        # Despite the short lead, no p-ckpt was needed: the node is empty.
        assert out.proactive_runs == 0
        assert out.ft.mitigated_lm == 1
        assert out.overhead.recomputation == 0.0


class TestSafeguardPaths:
    def test_safeguard_mitigates_when_lead_covers_write(self):
        t_sg = SUMMIT.pfs.proactive_write_time(
            APP.nodes, APP.checkpoint_bytes_per_node
        )
        ev = predicted(time=1000.0, node=7, lead=t_sg + 10.0)
        sim, out = run_scripted("M1", [ev])
        assert out.ft.mitigated_safeguard == 1

    def test_safeguard_aborts_when_lead_too_short(self):
        t_sg = SUMMIT.pfs.proactive_write_time(
            APP.nodes, APP.checkpoint_bytes_per_node
        )
        ev = predicted(time=1000.0, node=7, lead=0.5 * t_sg)
        sim, out = run_scripted("M1", [ev])
        assert out.ft.mitigated == 0


class TestStateMachineIntegration:
    def test_healthy_by_default_and_after_completion(self):
        sim, out = run_scripted("P2", [])
        assert sim.node_health(0).value == "normal"
        assert not sim._node_states  # nothing left tracked

    def test_states_resolve_after_failure(self):
        ev = predicted(time=1000.0, node=5, lead=60.0)
        sim, out = run_scripted("P1", [ev])
        # After the failure and recovery, node 5 is a fresh replacement.
        assert sim.node_health(5).value == "normal"
        assert not sim._node_states

    def test_states_resolve_after_lm(self):
        ev = predicted(time=1000.0, node=4, lead=3 * T_LM)
        sim, out = run_scripted("P2", [ev])
        assert out.ft.mitigated_lm == 1
        assert sim.node_health(4).value == "normal"
        assert not sim._node_states


    def test_node_health_follows_each_fig5_state(self):
        """Tracked nodes answer their state; NORMAL ones are untracked."""
        from repro.core.statemachine import IllegalTransition
        from repro.platform.node import NodeHealth

        sim = CRSimulation(APP, get_model("P2"), weibull=QUIET,
                           rng=np.random.default_rng(0))
        assert sim.node_health(9) is NodeHealth.NORMAL
        for state in (NodeHealth.VULNERABLE, NodeHealth.MIGRATING,
                      NodeHealth.FAILED):
            sim._mark(9, state)
            assert sim.node_health(9) is state
            assert sim._node_states == {9: state}
        sim._mark(9, NodeHealth.NORMAL)
        assert sim.node_health(9) is NodeHealth.NORMAL
        assert not sim._node_states
        with pytest.raises(IllegalTransition):
            sim._mark(9, NodeHealth.MIGRATING)  # Fig 5: predict first
        assert not sim._node_states
        sim._mark(2, NodeHealth.VULNERABLE)
        sim._replace(2)  # fails and is replaced by a healthy spare
        assert sim.node_health(2) is NodeHealth.NORMAL
        assert not sim._node_states


class TestFalseAlarms:
    def test_false_alarm_costs_a_protocol_run(self):
        alarm = FalseAlarmEvent(prediction_time=500.0, node=3, claimed_lead=60.0)
        sim, out = run_scripted("P1", [], alarms=[alarm])
        assert out.ft.false_alarms == 1
        assert out.ft.failures == 0
        assert out.proactive_runs == 1
        # The wasted phase-1 commit is charged as checkpoint overhead.
        assert out.overhead.recomputation == 0.0

    def test_false_alarm_lm_is_cheap(self):
        alarm = FalseAlarmEvent(prediction_time=500.0, node=3,
                                claimed_lead=3 * T_LM)
        sim, out = run_scripted("P2", [], alarms=[alarm])
        assert out.ft.false_alarms == 1
        assert out.proactive_runs == 0        # LM, not a blocked protocol
        assert out.overhead.migration > 0.0   # only the slowdown
        assert out.overhead.recomputation == 0.0
