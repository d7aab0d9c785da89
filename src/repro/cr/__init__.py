"""Checkpoint/Restart plumbing: snapshot ledger, async drain, recovery
planning, live migration, and adaptive OCI control."""

from .checkpoint import Snapshot, SnapshotKind, SnapshotLedger
from .drain import DrainManager
from .migration import LiveMigration, MigrationOutcome
from .oci import OCIController
from .recovery import RecoveryCosts, RecoveryPlan, plan_recovery, recovery_costs
from .safeguard import SafeguardAborted, SafeguardCheckpoint, SafeguardOutcome

__all__ = [
    "SafeguardAborted",
    "SafeguardCheckpoint",
    "SafeguardOutcome",
    "Snapshot",
    "SnapshotKind",
    "SnapshotLedger",
    "DrainManager",
    "LiveMigration",
    "MigrationOutcome",
    "OCIController",
    "RecoveryCosts",
    "RecoveryPlan",
    "plan_recovery",
    "recovery_costs",
]
