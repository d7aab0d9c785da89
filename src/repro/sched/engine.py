"""The batch-queue simulation engine: placement + per-job C/R over DES.

:class:`SchedSimulation` runs one workload (a tuple of
:class:`~repro.sched.jobs.SchedJob`) on one machine under one placement
policy.  Three cooperating process families drive it:

* one **arrival** process admits jobs to the policy's wait queue at their
  submission times;
* one **job** process per placed job runs the periodic
  checkpoint/failure/recovery loop with that job's C/R model — the same
  Young/σ-OCI physics as :class:`~repro.models.base.CRSimulation`,
  restated at job granularity so thousands of concurrent jobs stay
  cheap;
* **drain** processes bleed completed BB checkpoints to the PFS through
  the machine-wide :class:`~repro.sched.contention.SharedStorage`, so
  every running job's checkpoint traffic competes for the same lanes.

Determinism contract: per-job randomness is keyed by the job's *id*
(``seed_seq.spawn(len(workload))[job.id]``), never by dispatch order, so
the same workload under the same seed produces bit-identical per-job
metrics for any policy interleaving the kernel resolves identically —
and the kernel's (time, priority, seq) order is itself deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.metrics import FTStats
from ..analysis.young import sigma_adjusted_oci, young_oci
from ..des import Environment
from ..des.metrics import MetricsRegistry
from ..des.monitor import Trace
from ..failures.leadtime import PAPER_LEAD_TIME_MODEL, LeadTimeModel
from ..failures.predictor import DEFAULT_PREDICTOR, PredictorSpec
from ..failures.weibull import TITAN_WEIBULL, WeibullParams
from ..models.registry import get_model
from ..platform.system import SUMMIT, PlatformSpec
from ..workloads.applications import APPLICATIONS
from .contention import SharedStorage
from .jobs import JobRecord, SchedJob
from .policy import (
    ESTIMATE_FACTOR,
    PendingJob,
    RunningJob,
    SchedulingPolicy,
    make_policy,
)

__all__ = [
    "SchedSimulation",
    "SchedRunOutput",
    "SchedResult",
    "run_sched_once",
    "aggregate_sched",
]


class _NodePool:
    """The machine's nodes as half-open ``[lo, hi)`` id intervals.

    ``take`` always hands out the lowest-numbered free intervals, so the
    placement of a given dispatch sequence is unique — which is what lets
    the no-overlap oracle check node ids instead of mere counting.
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self._free: List[Tuple[int, int]] = [(0, total)]

    @property
    def free(self) -> int:
        return sum(hi - lo for lo, hi in self._free)

    def take(self, n: int) -> Tuple[Tuple[int, int], ...]:
        if n > self.free:
            raise RuntimeError(f"take({n}) with only {self.free} free")
        got: List[Tuple[int, int]] = []
        need = n
        while need:
            lo, hi = self._free[0]
            span = min(hi - lo, need)
            got.append((lo, lo + span))
            need -= span
            if lo + span == hi:
                self._free.pop(0)
            else:
                self._free[0] = (lo + span, hi)
        return tuple(got)

    def release(self, intervals: Tuple[Tuple[int, int], ...]) -> None:
        self._free.extend(intervals)
        self._free.sort()
        # Coalesce adjacent spans so fragmentation never accretes.
        merged: List[Tuple[int, int]] = []
        for lo, hi in self._free:
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self._free = merged


@dataclass
class _JobState:
    """Mutable C/R bookkeeping shared between a job and its drains."""

    progress: float = 0.0        # useful compute completed
    pfs_progress: float = 0.0    # progress safe on the PFS
    drain_epoch: int = 0         # bumped on rollback; stale drains no-op


@dataclass
class SchedRunOutput:
    """One replication's observed schedule."""

    records: Tuple[JobRecord, ...]
    makespan_seconds: float
    utilization: float
    starved: Tuple[str, ...]
    metrics: Optional[MetricsRegistry] = None


@dataclass
class SchedResult:
    """Aggregated outcome of one (workload, policy) cell.

    Scalar fields are means over replications; ``ft`` pools event counts
    (ratios on pooled counts, matching ``SimulationResult``); the wait
    statistics pool every job of every replication.  ``per_job`` holds
    one dict per submitted job (``repro.sched.jobs.JOB_FIELDS`` shape)
    with means over replications and pooled FT counts.
    """

    policy: str
    jobs: int
    replications: int
    makespan_seconds: float
    utilization: float
    wait_mean_seconds: float
    wait_p95_seconds: float
    wait_max_seconds: float
    starved: int
    ft: FTStats
    per_job: Tuple[Dict, ...] = field(default_factory=tuple)

    @property
    def ft_ratio(self) -> float:
        """Pooled FT ratio across replications."""
        return self.ft.ft_ratio


class SchedSimulation:
    """One batch-queue run: workload × policy × machine.

    Parameters
    ----------
    workload:
        Jobs to run (see :mod:`repro.sched.workload`).
    policy:
        Placement policy name (``fcfs`` | ``easy`` | ``fair``).
    platform / weibull / lead_model / predictor:
        The machine and failure physics, shared by every job.
    seed_seq:
        Seed for the replication; per-job streams are spawned from it by
        job id.
    drain_lanes / background_load:
        Shared-storage contention knobs (see ``SharedStorage``).
    """

    def __init__(
        self,
        workload: Sequence[SchedJob],
        policy: str = "fcfs",
        platform: PlatformSpec = SUMMIT,
        weibull: WeibullParams = TITAN_WEIBULL,
        lead_model: LeadTimeModel = PAPER_LEAD_TIME_MODEL,
        predictor: PredictorSpec = DEFAULT_PREDICTOR,
        seed_seq: Optional[np.random.SeedSequence] = None,
        drain_lanes: int = 2,
        background_load: float = 0.0,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not workload:
            raise ValueError("workload cannot be empty")
        ids = [j.id for j in workload]
        if sorted(ids) != list(range(len(workload))):
            raise ValueError("job ids must be dense 0..n-1")
        for job in workload:
            if job.nodes > platform.total_nodes:
                raise ValueError(
                    f"{job.name}: requests {job.nodes} nodes, machine has "
                    f"{platform.total_nodes}"
                )
        self.workload = tuple(workload)
        self.platform = platform
        self.weibull = weibull
        self.lead_model = lead_model
        self.predictor = predictor
        self.env = Environment()
        self.trace = trace
        if trace is not None:
            trace.env = self.env
        self.metrics = metrics
        if metrics is not None:
            self.env.attach_metrics(metrics)
        if isinstance(policy, SchedulingPolicy):
            # Pre-built instance: lets the validation layer (and its
            # mutation tests) inject instrumented or deliberately broken
            # policies without registering them.
            self.policy = policy
        else:
            self.policy = make_policy(policy)
        self.storage = SharedStorage(
            self.env, platform.pfs, drain_lanes=drain_lanes,
            background_load=background_load, metrics=metrics,
        )
        self._pool = _NodePool(platform.total_nodes)
        if seed_seq is None:
            seed_seq = np.random.SeedSequence(0)
        streams = seed_seq.spawn(len(self.workload))
        self._rngs = {
            job.id: np.random.default_rng(streams[job.id])
            for job in self.workload
        }
        self.records: Dict[int, JobRecord] = {
            job.id: JobRecord(job=job) for job in self.workload
        }
        #: job id -> (nodes, estimated_end) while on the machine.
        self._running: Dict[int, RunningJob] = {}

    # -- processes ---------------------------------------------------------
    def _arrivals(self):
        for job in sorted(self.workload, key=lambda j: (j.arrival, j.id)):
            if job.arrival > self.env.now:
                yield self.env.timeout(job.arrival - self.env.now)
            self.policy.admit(
                PendingJob(job, job.compute_seconds * ESTIMATE_FACTOR)
            )
            if self.trace is not None:
                self.trace.emit("sched", "sched.submit", job.name)
            self._dispatch()

    def _dispatch(self) -> None:
        """Ask the policy what starts now; place and launch it."""
        started = self.policy.select(
            self._pool.free, list(self._running.values()), self.env.now
        )
        for pj in started:
            rec = self.records[pj.job.id]
            rec.start = self.env.now
            rec.intervals = self._pool.take(pj.job.nodes)
            self._running[pj.job.id] = RunningJob(
                nodes=pj.job.nodes,
                estimated_end=self.env.now + pj.estimate_seconds,
            )
            if self.metrics is not None:
                self.metrics.histogram("sched.wait_seconds").observe(
                    rec.wait_seconds
                )
            self.env.process(self._job_proc(rec), name=pj.job.name)

    def _drain_proc(self, rec: JobRecord, state: _JobState,
                    per_node: float, epoch: int, progress: float):
        yield from self.storage.drain(rec.job.nodes, per_node)
        if state.drain_epoch == epoch:
            state.pfs_progress = max(state.pfs_progress, progress)
            rec.drains += 1
            if self.trace is not None:
                self.trace.emit("sched", "sched.drain", rec.job.name)

    def _job_proc(self, rec: JobRecord):
        job = rec.job
        env = self.env
        rng = self._rngs[job.id]
        rec.ft = FTStats()
        per_node = APPLICATIONS[job.app].checkpoint_bytes_per_node
        model = get_model(job.model)
        bb = self.platform.node.burst_buffer
        t_bb = bb.write_time(per_node)
        theta = self.platform.lm_transfer_time(per_node, model.lm_alpha)
        rate = self.weibull.per_node_rate()
        if model.use_sigma_oci:
            sigma = min(
                self.predictor.recall * float(self.lead_model.survival(theta)),
                1.0 - 1e-9,
            )
            oci = sigma_adjusted_oci(t_bb, rate, job.nodes, sigma)
        else:
            oci = young_oci(t_bb, rate, job.nodes)
        scaled = self.weibull.scaled_to(job.nodes)
        state = _JobState()
        sid = 0
        if self.trace is not None:
            sid = self.trace.span_begin("sched", "sched.job", job.name)

        remaining = job.compute_seconds
        next_failure = env.now + scaled.sample_interarrival_seconds(rng)
        while remaining > 0:
            segment = min(oci, remaining)
            if next_failure <= env.now + segment:
                did = max(0.0, next_failure - env.now)
                if did:
                    yield env.timeout(did)
                remaining -= did
                state.progress += did
                remaining = yield from self._handle_failure(
                    rec, state, model, per_node, theta, t_bb, remaining, rng
                )
                next_failure = env.now + scaled.sample_interarrival_seconds(rng)
                continue
            yield env.timeout(segment)
            remaining -= segment
            state.progress += segment
            if remaining > 0:
                # Blocking BB commit, then an asynchronous machine-wide
                # drain of this checkpoint toward the PFS.
                yield env.timeout(t_bb)
                rec.checkpoints += 1
                env.process(self._drain_proc(
                    rec, state, per_node, state.drain_epoch, state.progress
                ))

        rec.end = env.now
        if sid:
            self.trace.span_end(sid)
        if self.metrics is not None:
            self.metrics.counter("sched.jobs.completed").inc()
        self._pool.release(rec.intervals)
        del self._running[job.id]
        self._dispatch()

    def _handle_failure(self, rec: JobRecord, state: _JobState, model,
                        per_node: float, theta: float, t_bb: float,
                        remaining: float, rng):
        """One failure hit: predict, mitigate or roll back.  Returns the
        updated remaining-compute figure."""
        ft: FTStats = rec.ft
        ft.failures += 1
        if self.trace is not None:
            self.trace.emit("sched", "sched.failure", rec.job.name)
        _, lead = self.lead_model.sample(rng)
        predicted = bool(model.use_prediction and self.predictor.predicts(rng))
        if predicted:
            ft.predicted += 1
            lead = self.predictor.effective_lead(lead)
        env = self.env
        if predicted and model.supports_lm and lead >= theta:
            # Live migration vacates the node before the failure lands:
            # no lost work, only the slowdown while the transfer flies.
            ft.mitigated_lm += 1
            yield env.timeout(theta * self.platform.lm_slowdown)
            return remaining
        if predicted and model.supports_pckpt \
                and lead >= self.storage.priority_write_seconds(per_node):
            # p-ckpt: the vulnerable node's prioritized commit lands
            # before the failure; restart resumes from *current* state.
            yield from self.storage.priority_write(per_node)
            ft.mitigated_pckpt += 1
            yield env.timeout(
                self.platform.restart_delay
                + self.storage.restore_seconds(rec.job.nodes, per_node)
            )
            return remaining
        if predicted and model.supports_safeguard \
                and lead >= self.storage.safeguard_seconds(
                    rec.job.nodes, per_node):
            # Full safeguard checkpoint: all nodes commit proactively.
            yield from self.storage.safeguard_write(rec.job.nodes, per_node)
            ft.mitigated_safeguard += 1
            yield env.timeout(
                self.platform.restart_delay
                + self.storage.restore_seconds(rec.job.nodes, per_node)
            )
            return remaining
        # Unmitigated: roll back to the last PFS-resident checkpoint.
        lost = state.progress - state.pfs_progress
        state.progress = state.pfs_progress
        state.drain_epoch += 1  # cancel in-flight drains of lost ckpts
        yield env.timeout(
            self.platform.restart_delay
            + self.storage.restore_seconds(rec.job.nodes, per_node)
        )
        return remaining + lost

    # -- driver ------------------------------------------------------------
    def run(self) -> SchedRunOutput:
        """Run to completion and summarize the schedule."""
        self.env.process(self._arrivals(), name="sched-arrivals")
        self.env.run()
        records = tuple(self.records[i] for i in range(len(self.workload)))
        starved = tuple(r.job.name for r in records if r.start is None)
        makespan = max((r.end for r in records if r.end is not None),
                       default=0.0)
        busy = sum(r.job.nodes * r.run_seconds for r in records)
        util = (busy / (self.platform.total_nodes * makespan)
                if makespan > 0 else 0.0)
        for r in records:
            if r.ft is None:
                r.ft = FTStats()
            r.ft.validate()
        return SchedRunOutput(
            records=records,
            makespan_seconds=makespan,
            utilization=util,
            starved=starved,
            metrics=self.metrics,
        )


def run_sched_once(
    workload: Sequence[SchedJob],
    policy: str,
    platform: PlatformSpec,
    weibull: WeibullParams,
    lead_model: LeadTimeModel,
    predictor: PredictorSpec,
    seed_seq,
    drain_lanes: int = 2,
    background_load: float = 0.0,
    collect_metrics: bool = False,
) -> SchedRunOutput:
    """Worker: one replication (top-level for pickling)."""
    if not isinstance(seed_seq, np.random.SeedSequence):
        seed_seq = np.random.SeedSequence(seed_seq)
    sim = SchedSimulation(
        workload,
        policy=policy,
        platform=platform,
        weibull=weibull,
        lead_model=lead_model,
        predictor=predictor,
        seed_seq=seed_seq,
        drain_lanes=drain_lanes,
        background_load=background_load,
        metrics=MetricsRegistry() if collect_metrics else None,
    )
    return sim.run()


def aggregate_sched(policy: str, outputs: Sequence[SchedRunOutput]) -> SchedResult:
    """Pool replications into one :class:`SchedResult`.

    Must be called with outputs in replication order; every statistic is
    either a replication mean or a pooled count, so the result is
    bit-identical for any worker count.
    """
    if not outputs:
        raise ValueError("no outputs to aggregate")
    n_jobs = len(outputs[0].records)
    reps = len(outputs)
    ft = FTStats()
    waits: List[float] = []
    starved = 0
    per_job: List[Dict] = []
    for j in range(n_jobs):
        job = outputs[0].records[j].job
        jf = FTStats()
        wait = run = ckpts = drains = 0.0
        for out in outputs:
            r = out.records[j]
            wait += r.wait_seconds
            run += r.run_seconds
            ckpts += r.checkpoints
            drains += r.drains
            for fname in ("failures", "predicted", "mitigated_lm",
                          "mitigated_pckpt", "mitigated_safeguard",
                          "false_alarms", "lm_aborts"):
                setattr(jf, fname, getattr(jf, fname) + getattr(r.ft, fname))
        per_job.append({
            "id": job.id,
            "name": job.name,
            "app": job.app,
            "model": job.model,
            "user": job.user,
            "nodes": job.nodes,
            "submit_s": job.arrival,
            "wait_s": wait / reps,
            "run_s": run / reps,
            "checkpoints": ckpts / reps,
            "drains": drains / reps,
            "failures": jf.failures,
            "mitigated": jf.mitigated,
            "ft_ratio": jf.ft_ratio,
        })
        for fname in ("failures", "predicted", "mitigated_lm",
                      "mitigated_pckpt", "mitigated_safeguard",
                      "false_alarms", "lm_aborts"):
            setattr(ft, fname, getattr(ft, fname) + getattr(jf, fname))
    for out in outputs:
        starved += len(out.starved)
        waits.extend(r.wait_seconds for r in out.records
                     if r.start is not None)
    wait_arr = np.asarray(waits if waits else [0.0], dtype=float)
    return SchedResult(
        policy=policy,
        jobs=n_jobs,
        replications=reps,
        makespan_seconds=float(
            sum(o.makespan_seconds for o in outputs) / reps
        ),
        utilization=float(sum(o.utilization for o in outputs) / reps),
        wait_mean_seconds=float(wait_arr.mean()),
        wait_p95_seconds=float(np.percentile(wait_arr, 95.0)),
        wait_max_seconds=float(wait_arr.max()),
        starved=starved,
        ft=ft,
        per_job=tuple(per_job),
    )
