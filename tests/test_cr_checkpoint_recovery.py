"""Unit tests for the snapshot ledger and recovery planning."""

from __future__ import annotations

import pytest

from repro.cr.checkpoint import Snapshot, SnapshotKind, SnapshotLedger
from repro.cr.recovery import plan_recovery, recovery_costs
from repro.des.metrics import MetricsRegistry
from repro.iomodel.bandwidth import GiB
from repro.platform.burstbuffer import BurstBufferSpec
from repro.platform.interconnect import InterconnectSpec
from repro.platform.pfs import PFSSpec


class TestSnapshotLedger:
    def test_empty_ledger(self):
        ledger = SnapshotLedger()
        assert ledger.recovery_snapshot() is None
        assert not ledger.survivors_can_use_bb()

    def test_periodic_then_drain(self):
        ledger = SnapshotLedger()
        snap = ledger.record_periodic(100.0, time=10.0)
        assert ledger.recovery_snapshot() is None  # not drained yet
        ledger.record_drained(snap)
        assert ledger.recovery_snapshot() is snap
        assert ledger.survivors_can_use_bb()

    def test_proactive_beats_older_drain(self):
        ledger = SnapshotLedger()
        snap = ledger.record_periodic(100.0, time=10.0)
        ledger.record_drained(snap)
        pro = ledger.record_proactive(150.0, time=20.0)
        assert ledger.recovery_snapshot() is pro
        assert not ledger.survivors_can_use_bb()  # PFS-only snapshot

    def test_stale_drain_does_not_regress(self):
        ledger = SnapshotLedger()
        old = ledger.record_periodic(100.0, time=10.0)
        ledger.record_proactive(150.0, time=20.0)
        ledger.record_drained(old)  # lands late
        assert ledger.recovery_snapshot().work == 150.0

    def test_newer_bb_than_pfs_blocks_bb_recovery(self):
        """Fig 1(B): newest periodic is undrained — recovery can't use it."""
        ledger = SnapshotLedger()
        first = ledger.record_periodic(100.0, time=10.0)
        ledger.record_drained(first)
        ledger.record_periodic(200.0, time=20.0)  # drain pending
        assert ledger.recovery_snapshot().work == 100.0
        assert not ledger.survivors_can_use_bb()

    def test_rollback_invalidates_newer_bb(self):
        ledger = SnapshotLedger()
        first = ledger.record_periodic(100.0, time=10.0)
        ledger.record_drained(first)
        ledger.record_periodic(200.0, time=20.0)
        ledger.rollback(100.0)
        assert ledger.bb is None
        assert ledger.recovery_snapshot().work == 100.0


class TestRecoveryPlan:
    bb = BurstBufferSpec()
    pfs = PFSSpec()

    def _costs(self, nodes, per_node):
        return recovery_costs(self.pfs, self.bb, nodes, per_node, 60.0)

    def test_no_snapshot_restarts_from_scratch(self):
        plan = plan_recovery(SnapshotLedger(), self._costs(16, 8 * GiB))
        assert plan.restore_work == 0.0
        assert plan.read_seconds == 0.0
        assert plan.total_seconds == 60.0

    def test_bb_fast_path(self):
        ledger = SnapshotLedger()
        snap = ledger.record_periodic(500.0, time=1.0)
        ledger.record_drained(snap)
        plan = plan_recovery(ledger, self._costs(16, 8 * GiB))
        assert plan.from_bb
        assert plan.restore_work == 500.0
        expected = max(
            self.bb.read_time(8 * GiB), self.pfs.replacement_read_time(8 * GiB)
        )
        assert plan.read_seconds == pytest.approx(expected)

    def test_proactive_full_pfs_path(self):
        ledger = SnapshotLedger()
        ledger.record_proactive(700.0, time=2.0)
        plan = plan_recovery(ledger, self._costs(1024, 8 * GiB))
        assert not plan.from_bb
        assert plan.read_seconds == pytest.approx(
            self.pfs.full_restore_read_time(1024, 8 * GiB)
        )

    def test_proactive_recovery_costlier_at_scale(self):
        """The P1 signature: all-PFS restore >> BB restore for big jobs."""
        fast = SnapshotLedger()
        s = fast.record_periodic(1.0, 0.0)
        fast.record_drained(s)
        slow = SnapshotLedger()
        slow.record_proactive(1.0, 0.0)
        p_fast = plan_recovery(fast, self._costs(2048, 280 * GiB))
        p_slow = plan_recovery(slow, self._costs(2048, 280 * GiB))
        assert p_slow.read_seconds > 2 * p_fast.read_seconds


def _ledger(branch: str) -> SnapshotLedger:
    """A ledger whose recovery takes *branch* of the planner."""
    ledger = SnapshotLedger()
    if branch == "full_restart":
        return ledger
    snap = ledger.record_periodic(500.0, time=1.0)
    ledger.record_drained(snap)
    if branch == "pfs_after_proactive":
        ledger.record_proactive(700.0, time=2.0)
    elif branch in ("bbs_out_of_sync", "neighbor"):
        ledger.record_periodic(800.0, time=3.0)  # drain still pending
    return ledger


class TestPlannerBranches:
    """Every branch of the per-job-cost planner, pinned bit for bit.

    The expected (restore_work, read_seconds, restart_delay, from_bb) are
    ``float.hex`` values of the planner that derived the read times per
    call from the storage specs; reading them from the job's
    :func:`recovery_costs` must not move a bit.
    """

    # (nodes, bytes per node, restart delay) -> branch -> expected plan.
    JOBS = {
        (64, 8 * GiB, 60.0): {
            "full_restart": ("0x0.0p+0", "0x0.0p+0", "0x1.e000000000000p+5", False),
            "bb_fast_path": ("0x1.f400000000000p+8", "0x1.745d1745d1746p+0",
                             "0x1.e000000000000p+5", True),
            "pfs_after_proactive": ("0x1.5e00000000000p+9", "0x1.ef684bda12f68p-1",
                                    "0x1.e000000000000p+5", False),
            "bbs_out_of_sync": ("0x1.f400000000000p+8", "0x1.ef684bda12f68p-1",
                                "0x1.e000000000000p+5", False),
            "neighbor": ("0x1.9000000000000p+9", "0x1.0c1a19251cdc8p+1",
                         "0x1.e000000000000p+5", True),
        },
        (2272, 3.7 * GiB, 47.5): {
            "full_restart": ("0x0.0p+0", "0x0.0p+0", "0x1.7c00000000000p+5", False),
            "bb_fast_path": ("0x1.f400000000000p+8", "0x1.586fb586fb587p-1",
                             "0x1.7c00000000000p+5", True),
            "pfs_after_proactive": ("0x1.5e00000000000p+9", "0x1.9705b05b05b05p+2",
                                    "0x1.7c00000000000p+5", False),
            "bbs_out_of_sync": ("0x1.f400000000000p+8", "0x1.9705b05b05b05p+2",
                                "0x1.7c00000000000p+5", False),
            "neighbor": ("0x1.9000000000000p+9", "0x1.effd26f425fe4p-1",
                         "0x1.7c00000000000p+5", True),
        },
    }
    CASES = [(job, branch) for job, plans in JOBS.items() for branch in plans]

    @pytest.mark.parametrize("job,branch", CASES,
                             ids=[f"{j[0]}-{b}" for j, b in CASES])
    def test_plan_bits(self, job, branch):
        nodes, per_node, delay = job
        neighbor = InterconnectSpec() if branch == "neighbor" else None
        costs = recovery_costs(PFSSpec(), BurstBufferSpec(), nodes, per_node,
                               delay, neighbor=neighbor)
        plan = plan_recovery(_ledger(branch), costs)
        work, read, restart, from_bb = self.JOBS[job][branch]
        assert plan.restore_work.hex() == work
        assert plan.read_seconds.hex() == read
        assert plan.restart_delay.hex() == restart
        assert plan.from_bb is from_bb

    def test_metrics_count_every_branch(self):
        m = MetricsRegistry()
        costs = recovery_costs(PFSSpec(), BurstBufferSpec(), 64, 8 * GiB, 60.0)
        nbr = recovery_costs(PFSSpec(), BurstBufferSpec(), 64, 8 * GiB, 60.0,
                             neighbor=InterconnectSpec())
        reads = []
        for branch in self.JOBS[(64, 8 * GiB, 60.0)]:
            plan = plan_recovery(_ledger(branch),
                                 nbr if branch == "neighbor" else costs,
                                 metrics=m)
            reads.append(plan.read_seconds)
        counters = m.snapshot()["counters"]
        assert counters["recovery.plans"] == 5
        assert counters["recovery.from_bb"] == 2   # BB fast path, neighbor
        assert counters["recovery.full_restarts"] == 1
        hist = m.histogram("recovery.read_seconds")
        assert hist.count == 5
        assert hist.total == sum(reads)

    def test_plan_is_immutable(self):
        costs = recovery_costs(PFSSpec(), BurstBufferSpec(), 16, 8 * GiB, 60.0)
        plan = plan_recovery(SnapshotLedger(), costs)
        with pytest.raises(AttributeError):
            plan.read_seconds = 1.0
