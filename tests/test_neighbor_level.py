"""Tests for the FTI-style neighbor-checkpoint extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cr.checkpoint import SnapshotLedger
from repro.cr.recovery import plan_recovery, recovery_costs
from repro.iomodel.bandwidth import GiB, TiB
from repro.models.base import CRSimulation
from repro.models.registry import get_model
from repro.platform.burstbuffer import BurstBufferSpec
from repro.platform.interconnect import InterconnectSpec
from repro.platform.pfs import PFSSpec
from repro.workloads.applications import ApplicationSpec


class TestNeighborRecoveryPlan:
    bb = BurstBufferSpec()
    pfs = PFSSpec()
    ic = InterconnectSpec()

    def _costs(self, neighbor=None):
        return recovery_costs(self.pfs, self.bb, 64, 8 * GiB, 60.0,
                              neighbor=neighbor)

    def test_undrained_generation_recoverable(self):
        """The headline benefit: no Fig 1(B) loss with a neighbor copy."""
        ledger = SnapshotLedger()
        ledger.record_periodic(500.0, time=1.0)  # drain still pending
        plan = plan_recovery(ledger, self._costs(self.ic))
        assert plan.restore_work == 500.0
        assert plan.from_bb
        # Without the neighbor, the same state restores nothing.
        bare = plan_recovery(ledger, self._costs())
        assert bare.restore_work == 0.0

    def test_newer_proactive_still_preferred(self):
        ledger = SnapshotLedger()
        ledger.record_periodic(500.0, time=1.0)
        ledger.record_proactive(900.0, time=2.0)
        plan = plan_recovery(ledger, self._costs(self.ic))
        assert plan.restore_work == 900.0
        assert not plan.from_bb

    def test_read_time_includes_partner_stream(self):
        ledger = SnapshotLedger()
        ledger.record_periodic(500.0, time=1.0)
        plan = plan_recovery(ledger, self._costs(self.ic))
        expected = self.ic.transfer_time(8 * GiB) + self.bb.read_time(8 * GiB)
        assert plan.read_seconds == pytest.approx(expected)


class TestNeighborModelVariants:
    def test_registry_variants(self):
        for name in ("B-nbr", "P1-nbr", "P2-nbr"):
            m = get_model(name)
            assert m.neighbor_level
        with pytest.raises(KeyError):
            get_model("ZZ-nbr")

    def test_periodic_checkpoint_costs_more(self, tiny_app, cold_weibull):
        plain = CRSimulation(tiny_app, get_model("B"), weibull=cold_weibull,
                             rng=np.random.default_rng(0))
        nbr = CRSimulation(tiny_app, get_model("B-nbr"), weibull=cold_weibull,
                           rng=np.random.default_rng(0))
        assert nbr.t_ckpt_bb > plain.t_ckpt_bb
        # And Young's OCI stretches accordingly.
        assert nbr.oci.interval() > plain.oci.interval()

    def test_bb_capacity_guard_tightens(self, hot_weibull):
        # 0.45 TiB/node fits 2 copies (0.9) but not 4 (1.8 > 1.6 TiB).
        app = ApplicationSpec("NBRFAT", nodes=4,
                              checkpoint_bytes_total=4 * 0.45 * TiB,
                              compute_hours=1.0)
        CRSimulation(app, get_model("B"), weibull=hot_weibull)  # fine
        with pytest.raises(ValueError, match="4 checkpoint copies"):
            CRSimulation(app, get_model("B-nbr"), weibull=hot_weibull)

    def test_neighbor_erases_fig1b_loss(self):
        """Deterministic Fig 1(B) scenario: with a slow drain and a
        failure mid-drain, plain B forfeits the freshest generation while
        B-nbr recovers it from the partner's BB."""
        import dataclasses

        from repro.platform.system import SUMMIT
        from test_models_scenarios import run_scripted, surprise

        platform = dataclasses.replace(
            SUMMIT,
            pfs=dataclasses.replace(SUMMIT.pfs, drain_fraction=0.001,
                                    drain_min_nodes=1),
        )
        # The second checkpoint completes near 2*600 + 2*t_ckpt; strike
        # while its drain is still in flight (t_ckpt differs per model, so
        # time the failure off each sim's own cadence).
        results = {}
        for model in ("B", "B-nbr"):
            from repro.models.base import CRSimulation as Sim
            from repro.failures.weibull import WeibullParams

            probe = Sim(
                run_scripted.__globals__["APP"], get_model(model),
                platform=platform,
                weibull=WeibullParams("q", 0.7, 1e7, 64),
                rng=np.random.default_rng(0),
            )
            t_ck = probe.t_ckpt_bb
            t_fail = 2 * 600.0 + 2 * t_ck + 20.0
            _, out = run_scripted(model, [surprise(t_fail, 2)],
                                  platform=platform)
            results[model] = out
        # Plain B rolls back a full extra interval; B-nbr only loses the
        # ~20 s since its second checkpoint.
        assert results["B"].overhead.recomputation > 600.0
        assert results["B-nbr"].overhead.recomputation < 120.0

    def test_neighbor_not_free_at_baseline(self, big_app, mild_weibull):
        """With Summit's fast drain the mirror cost dominates: the doubled
        checkpoint time stretches the OCI and recomputation *grows* — the
        extension only pays off when the drain window is wide (e.g. under
        PFS congestion).  This is a finding, not a bug."""
        plain = CRSimulation(big_app, get_model("B"), weibull=mild_weibull,
                             rng=np.random.default_rng(1))
        nbr = CRSimulation(big_app, get_model("B-nbr"), weibull=mild_weibull,
                           rng=np.random.default_rng(1))
        assert nbr.t_ckpt_bb > 1.5 * plain.t_ckpt_bb
