"""Job model for the cluster-scheduler layer: schema tables and records.

One **job** is one Table-I application instance submitted to the batch
queue: an application, the C/R model protecting it, the tenant that owns
it, a node count, and an arrival time.  The scheduler places jobs onto
the machine's nodes under a pluggable policy (``fcfs``, ``easy``,
``fair`` — :data:`POLICY_NAMES`) while every *running* job's checkpoint
traffic competes for the same burst-buffer drainers and PFS bandwidth
(:mod:`repro.sched.contention`).

The declarative tables below (:data:`POLICY_NAMES`, :data:`JOB_FIELDS`,
:data:`RESULT_FIELDS`) are the single source of truth shared with
``docs/SCHEDULER.md``, the committed ``benchmarks/sched/SCHED_*.json``
baseline artifacts, and ``tools/check_schemas.py`` — the same
convention ``repro.service`` uses for its job schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "SCHED_SCHEMA_VERSION",
    "SCHED_BASELINE_KIND",
    "POLICY_NAMES",
    "JOB_FIELDS",
    "RESULT_FIELDS",
    "SchedJob",
    "JobRecord",
]

#: Schema version stamped on every sched result the layer emits
#: (store entries, ``benchmarks/sched`` baseline artifacts, ``--json``
#: output).  Bump on any incompatible layout change.
SCHED_SCHEMA_VERSION: int = 1

#: Record discriminator of a committed baseline artifact, mirroring the
#: bench/service convention.
SCHED_BASELINE_KIND: str = "pckpt-sched-baseline"

#: Placement policies the dispatcher understands, in documentation
#: order: ``fcfs`` (strict arrival order, head-blocking), ``easy``
#: (FCFS + EASY backfill behind a shadow-time reservation for the head
#: job) and ``fair`` (weighted round-robin across tenants, head-blocking
#: within the WRR order — the service queue's discipline applied to
#: batch jobs).
POLICY_NAMES: Tuple[str, ...] = ("fcfs", "easy", "fair")

#: Per-job result fields: ``{name: (type, nullable)}`` — the shape of
#: every entry of a sched result's ``per_job`` list (store entries,
#: baseline artifacts, ``pckpt sched run --json``).
JOB_FIELDS: Dict[str, tuple] = {
    "id": (int, False),
    "name": (str, False),
    "app": (str, False),
    "model": (str, False),
    "user": (str, False),
    "nodes": (int, False),
    "submit_s": (float, False),
    "wait_s": (float, False),
    "run_s": (float, False),
    "checkpoints": (float, False),
    "drains": (float, False),
    "failures": (int, False),
    "mitigated": (int, False),
    "ft_ratio": (float, False),
}

#: Top-level fields of a sched result payload (the committed
#: ``SCHED_*.json`` baseline shape; ``git_sha`` and ``python`` are
#: stamped by the bench writer only).
RESULT_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "git_sha": (str, True),
    "python": (str, True),
    "policy": (str, False),
    "seed": (int, False),
    "replications": (int, False),
    "jobs": (int, False),
    "starved": (int, False),
    "makespan_seconds": (float, False),
    "utilization": (float, False),
    "wait_mean_seconds": (float, False),
    "wait_p95_seconds": (float, False),
    "wait_max_seconds": (float, False),
    "failures": (int, False),
    "mitigated": (int, False),
    "ft_ratio": (float, False),
    "per_job": (list, False),
}


@dataclass(frozen=True)
class SchedJob:
    """One submitted job: the workload-side description.

    Attributes
    ----------
    id:
        Dense 0-based submission index (ties in arrival time dispatch in
        id order — the deterministic tiebreak).
    app:
        Table-I application name (:data:`repro.workloads.applications.APPLICATIONS`).
    model:
        C/R model protecting this job, resolved through
        :func:`repro.models.registry.get_model`.
    user:
        Owning tenant (the ``fair`` policy's round-robin key).
    arrival:
        Submission time in simulated seconds.
    nodes:
        Nodes requested (defaults to the application's Table-I width).
    compute_seconds:
        Useful compute demand — the application's Table-I hours, scaled
        by the workload's ``hours_scale``.
    """

    id: int
    app: str
    model: str
    user: str
    arrival: float
    nodes: int
    compute_seconds: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("job id must be >= 0")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if self.compute_seconds <= 0:
            raise ValueError("compute_seconds must be positive")

    @property
    def name(self) -> str:
        """Stable display name (``<APP>#<id>``)."""
        return f"{self.app}#{self.id}"


@dataclass
class JobRecord:
    """One job's observed lifecycle in one replication.

    ``start``/``end`` are ``None`` for a job the policy never placed
    (starvation — the no-starvation oracle flags any such record).
    ``intervals`` are the half-open node-id ranges the placement
    assigned; the no-overlap oracle checks them against every
    concurrently running job.
    """

    job: SchedJob
    start: float = None
    end: float = None
    checkpoints: int = 0
    drains: int = 0
    ft: object = None  # FTStats; assigned by the engine
    intervals: tuple = ()

    @property
    def wait_seconds(self) -> float:
        """Queue wait (start − submit); 0.0 while unplaced."""
        if self.start is None:
            return 0.0
        return self.start - self.job.arrival

    @property
    def run_seconds(self) -> float:
        """Wall time on the machine; 0.0 while unfinished."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start
