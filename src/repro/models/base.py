"""The C/R simulation engine shared by all five models (Secs. III, V–VII).

One :class:`CRSimulation` runs one application to completion under one C/R
model.  Faithful to the paper's framework: the application is a single DES
process alternating computation and periodic BB checkpoints at the
(dynamically recomputed) OCI, while the failure-generation component
injects predictions, failures, and false alarms.  Model behaviour is
declarative — a :class:`ModelConfig` enumerates which proactive mechanisms
exist and which OCI formula applies; all mechanisms (safeguard, LM,
p-ckpt, hybrid arbitration with LM abort) are implemented here once.

Accounting identity (asserted by the integration tests)::

    makespan = useful_compute
             + checkpoint + recomputation + recovery + migration
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..analysis.metrics import FTStats, OverheadBreakdown
from ..core.coordinator import ProactiveAction, ProactiveCoordinator
from ..core.pckpt import PckptProtocol, ProtocolAborted, entry_from_prediction
from ..core.priority import VulnerableEntry
from ..core.statemachine import transition
from ..platform.node import NodeHealth
from ..cr.checkpoint import SnapshotLedger
from ..cr.drain import DrainManager
from ..cr.migration import LiveMigration, MigrationOutcome
from ..cr.oci import OCIController
from ..cr.recovery import plan_recovery, recovery_costs
from ..cr.safeguard import SafeguardAborted, SafeguardCheckpoint
from ..des import Environment, Interrupt, MetricsRegistry, Timeout, Trace
from ..failures.injector import (FailureEvent, FailureInjector,
                                 FalseAlarmEvent, StreamView)
from ..failures.leadtime import PAPER_LEAD_TIME_MODEL, LeadTimeModel
from ..failures.predictor import DEFAULT_PREDICTOR, PredictorSpec
from ..failures.weibull import WeibullParams
from ..platform.system import SUMMIT, PlatformSpec
from ..workloads.applications import ApplicationSpec

__all__ = ["ModelConfig", "RunOutput", "CRSimulation"]

_EPS = 1e-6
_INF = float("inf")
#: Relative bound on what a batch's float recurrence can round off the
#: time between two stagings, taken over the magnitudes of the times,
#: the work and the period (each rounding costs at most 2**-53 of one).
_ROUNDING = 2.0 ** -49
_NORMAL = NodeHealth.NORMAL
_VULNERABLE = NodeHealth.VULNERABLE
_MIGRATING = NodeHealth.MIGRATING
_FAILED = NodeHealth.FAILED


@dataclass(frozen=True)
class ModelConfig:
    """Declarative description of one C/R model's capabilities.

    Attributes
    ----------
    name:
        Model identifier ("B", "M1", "M2", "P1", "P2", "M2-2.5", ...).
    use_prediction:
        Whether predictions trigger any proactive behaviour at all.
    supports_safeguard / supports_lm / supports_pckpt:
        Available proactive mechanisms.
    use_sigma_oci:
        Apply Eq. (2)'s σ-discounted OCI (LM-capable models) instead of
        Eq. (1).
    lm_alpha:
        LM transfer-size factor α (swept in Fig 6c).
    sigma_includes_recall:
        The paper's future-work fix for Observation 9 (off = published
        behaviour).
    oci_online:
        Estimate the failure rate online instead of from the configured
        distribution.
    pckpt_async_phase2:
        When True (default, the paper's deployment) the healthy nodes'
        phase-2 commits are flushed by per-node checkpoint daemons while
        the application resumes after phase 1 — "the p-ckpt threads run
        only when a p-ckpt is taken but otherwise do not impact
        applications".  False blocks the application for phase 2 too
        (conservative ablation variant).
    neighbor_level:
        FTI-style level-1 extension (the paper cites it as orthogonal):
        every periodic checkpoint is mirrored to a partner node's BB, so
        unmitigated recovery never waits for the PFS drain — at the cost
        of an interconnect copy per checkpoint and doubled BB footprint.
    """

    name: str
    use_prediction: bool = True
    supports_safeguard: bool = False
    supports_lm: bool = False
    supports_pckpt: bool = False
    use_sigma_oci: bool = False
    lm_alpha: float = 3.0
    sigma_includes_recall: bool = False
    oci_online: bool = False
    pckpt_async_phase2: bool = True
    neighbor_level: bool = False

    def __post_init__(self) -> None:
        if self.lm_alpha <= 0:
            raise ValueError("lm_alpha must be positive")
        if self.use_sigma_oci and not self.supports_lm:
            raise ValueError("sigma-adjusted OCI requires live-migration support")


@dataclass
class RunOutput:
    """Raw result of one simulation run.

    Attributes
    ----------
    makespan:
        Total wall time to complete the job (seconds).
    useful_seconds:
        The job's useful compute demand (constant per app).
    overhead:
        The paper's three overhead categories (+ LM slowdown).
    ft:
        Fault-tolerance event counts.
    oci_initial / oci_final:
        First and last checkpoint intervals used (Obs 6's elongation).
    periodic_checkpoints:
        Number of completed periodic BB checkpoints.
    proactive_runs:
        Number of p-ckpt / safeguard protocol executions (incl. aborted).
    metrics:
        :meth:`~repro.des.metrics.MetricsRegistry.snapshot` of the run's
        metrics registry when one was attached, else ``None``.  A plain
        picklable dict so it crosses ``ProcessPoolExecutor`` boundaries.
    """

    makespan: float
    useful_seconds: float
    overhead: OverheadBreakdown
    ft: FTStats
    oci_initial: float
    oci_final: float
    periodic_checkpoints: int
    proactive_runs: int
    metrics: Optional[Dict] = None


class _MitigationRecord:
    """Per-prediction bookkeeping linking predictions to outcomes.

    Mutable, and one is built per delivered prediction: a slots class.
    """

    __slots__ = ("action", "committed")

    def __init__(self, action: ProactiveAction) -> None:
        self.action = action
        self.committed = False


class _Status:
    """Return codes of the application's inner phases."""

    REACHED = "reached"
    RESET = "reset"


class _Phase2Job:
    """Asynchronous p-ckpt phase 2 (healthy daemons flushing to PFS).

    The snapshot it carries is *viable* from birth — every share exists
    either on the PFS (phase-1 commits) or in a surviving daemon's memory
    — but becomes ledger-visible (usable by a normal recovery plan) only
    on completion.  A failure of a non-covered node mid-flight destroys a
    share and invalidates the snapshot; the owner cancels the job.

    The flush lands the snapshot at :attr:`due`.  It is one of the
    simulation's held disturbances, with the next failure draw: the
    segment batch stops short of :attr:`due` and lands the flush inline
    in a restore that reaches it (:meth:`CRSimulation._landings`), and
    off the batch the simulation's one kernel timeout is armed at it
    while it is due first (:meth:`CRSimulation._leave_batch`).  A traced
    job's ``pckpt_phase2`` span opens, and a cancelled one
    closes, at its instant but when the application next waits
    (:meth:`CRSimulation._record_held`): after the records the protocol
    itself still makes then, where the event path records them.
    """

    __slots__ = ("sim", "snapshot_work", "provs", "covers", "due", "_sid")

    def __init__(self, sim: "CRSimulation", work: float, committed,
                 healthy: int, provs: Optional[List[int]],
                 now: float) -> None:
        self.sim = sim
        self.snapshot_work = work
        #: Provenance ids of the predictions the parent protocol served
        #: (causal-timeline annotation carried into the phase-2 records);
        #: None in an untraced run, where no record reads them.
        self.provs = provs
        #: Nodes whose failure does not hurt the snapshot.
        self.covers: Set[int] = set(committed)
        if sim._migrated_away:
            self.covers |= sim._migrated_away
        self.due = now + sim._phase2_seconds(healthy)
        self._sid = 0
        if sim.trace is not None:
            sim._held_records.append((self._open, now))

    def _open(self, time: float) -> None:
        self._sid = self.sim.trace.span_begin(
            "pckpt", "pckpt_phase2",
            {"work": self.snapshot_work, "provs": self.provs}, time=time,
        )

    def land(self) -> None:
        """The snapshot is PFS-complete at :attr:`due`.

        :meth:`CRSimulation._on_due` calls it when the timer fires at
        :attr:`due`; a restore that reaches :attr:`due` calls it inline
        (:meth:`CRSimulation._landings`).
        """
        sim = self.sim
        due = self.due
        sim.drain.settle(due)
        sim.ledger.record_proactive(self.snapshot_work, due)
        trace = sim.trace
        if trace is not None:
            trace.span_end(self._sid, "landed", time=due)
            trace.emit("pckpt", "phase2-landed",
                       {"work": self.snapshot_work, "provs": self.provs},
                       time=due)
        if sim.metrics is not None:
            sim._count("pckpt.phase2_landed")
        sim._phase2_job = None

    def cancel(self, now: float) -> None:
        """Invalidate the in-flight snapshot at *now* (superseded or lost)."""
        sim = self.sim
        sim._phase2_job = None
        if sim._timer is not None:
            sim._rearm(self.due)
        if sim.metrics is not None:
            sim._count("pckpt.phase2_cancelled")
        if sim.trace is not None:
            sim._held_records.append((self._close, now))

    def _close(self, time: float) -> None:
        self.sim.trace.span_end(self._sid, "cancelled", time=time)


class _Draw:
    """One drawn failure and the times the event path delivers it at.

    The event path delivers a failure's prediction (when the model acts
    on predictions) and then the failure, each after a timeout armed
    from the clock; both times follow from *t0*, the previous failure's
    landing, where the draw is made.  ``tp`` is None once the prediction
    is delivered, or when there is none to deliver; ``due`` is the next
    stage's time, ``tp`` until then and ``tf`` after.  A stage due no
    later than the one before it is delivered in that stage's callback:
    ``f_wait`` is False for such a failure, and ``at_once`` says that the
    draw's first stage comes with its predecessor's landing.
    """

    __slots__ = ("ev", "tp", "tf", "due", "f_wait", "at_once", "action")

    def __init__(self, ev: FailureEvent, t0: float, predicted: bool) -> None:
        self.ev = ev
        #: The action its prediction starts, once :meth:`CRSimulation._decided`
        #: has decided it.
        self.action: Optional[ProactiveAction] = None
        base = t0
        if predicted:
            pt = ev.prediction_time
            waits = pt > t0
            if waits:
                base = t0 + (pt - t0)
            self.tp: Optional[float] = base
        else:
            self.tp = None
        t = ev.time
        self.f_wait = t > base
        self.tf = base + (t - base) if self.f_wait else base
        self.due = base if predicted else self.tf
        self.at_once = not (waits if predicted else self.f_wait)


class CRSimulation:
    """Simulate one application under one C/R model.

    Parameters
    ----------
    app:
        Workload characterization (Table I entry).
    config:
        Model capabilities.
    platform:
        Hardware platform (default Summit).
    weibull:
        Failure distribution (Table III entry).
    lead_model / predictor:
        Failure-analysis and prediction statistics.
    rng:
        Seeded generator (owns all stochasticity of this run).
    trace:
        Optional event trace for debugging / the protocol-trace example.
        Protocol phases additionally emit spans (see
        ``docs/OBSERVABILITY.md`` for the vocabulary); completed-span
        totals mirror the :class:`OverheadBreakdown` accounting exactly.
        Every record is built behind an ``if self.trace is not None``
        guard, so an untraced run builds no record detail at all.
    metrics:
        Optional metrics registry; when given it is attached to the run's
        environment and fed counters/gauges/histograms by every layer
        (ledger, drain, OCI, recovery planning, the protocol drivers, and
        the DES kernel itself).  Cheap enough to leave on.
    injector:
        Where the run reads its failures and false alarms.  ``None``
        (the default) builds a private :class:`FailureInjector` from
        *rng*; a campaign passes a
        :class:`~repro.failures.injector.StreamView` of the replication's
        shared stream instead, which delivers the same events.
    """

    def __init__(
        self,
        app: ApplicationSpec,
        config: ModelConfig,
        platform: PlatformSpec = SUMMIT,
        weibull: WeibullParams | None = None,
        lead_model: LeadTimeModel = PAPER_LEAD_TIME_MODEL,
        predictor: PredictorSpec = DEFAULT_PREDICTOR,
        rng: np.random.Generator | None = None,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
        injector: Optional[StreamView] = None,
    ) -> None:
        from ..failures.weibull import TITAN_WEIBULL

        self.app = app
        self.config = config
        self.platform = platform
        self.weibull = weibull if weibull is not None else TITAN_WEIBULL
        self.env = Environment()
        self.trace = trace
        if trace is not None:
            trace.env = self.env
        self.metrics = metrics
        if metrics is not None:
            self.env.attach_metrics(metrics)

        per_node = app.checkpoint_bytes_per_node
        bb = platform.node.burst_buffer
        # Neighbor-level mirroring doubles the resident copies per node.
        copies = 4 if config.neighbor_level else 2
        if not bb.fits(per_node, copies=copies):
            raise ValueError(
                f"{app.name}: {copies} checkpoint copies "
                f"({copies * per_node:.3e} B) exceed BB capacity"
            )
        if per_node > platform.node.dram_bytes:
            raise ValueError(f"{app.name}: checkpoint exceeds DRAM")

        self.injector = injector if injector is not None else \
            FailureInjector(self.weibull, app.nodes, lead_model, predictor,
                            rng=rng)
        self.t_ckpt_bb = bb.write_time(per_node)
        if config.neighbor_level:
            # Local BB stage, then the mirror copy to the partner's BB
            # (conservatively serialized; the partner absorbs at BB rate).
            self.t_ckpt_bb += platform.interconnect.transfer_time(
                per_node
            ) + bb.write_time(per_node)
        self.lm_seconds = platform.lm_transfer_time(per_node, config.lm_alpha)
        # The blocked protocols' PFS writes, fixed for the job: the
        # safeguard's all-node commit and one p-ckpt priority commit.
        self._safeguard_seconds = platform.pfs.proactive_write_time(
            app.nodes, per_node)
        self._priority_seconds = platform.pfs.priority_write_time(per_node)
        # Phase 2's all-healthy-node write by node count (_phase2_seconds).
        self._flush_seconds: Dict[int, float] = {}
        # The recovery reads and relaunch delay: fixed for the job.
        self._recovery_costs = recovery_costs(
            platform.pfs, bb, app.nodes, per_node, platform.restart_delay,
            neighbor=platform.interconnect if config.neighbor_level else None,
        )
        self.coordinator = ProactiveCoordinator(
            supports_lm=config.supports_lm,
            supports_pckpt=config.supports_pckpt,
            supports_safeguard=config.supports_safeguard,
            lm_transfer_seconds=self.lm_seconds,
        )
        self.oci = OCIController(
            t_ckpt_bb=self.t_ckpt_bb,
            injector=self.injector,
            nodes=app.nodes,
            use_sigma=config.use_sigma_oci,
            lm_threshold=self.lm_seconds if config.use_sigma_oci else 0.0,
            sigma_includes_recall=config.sigma_includes_recall,
            online_estimation=config.oci_online,
            metrics=metrics,
        )
        self.ledger = SnapshotLedger(metrics=metrics)
        self.drain = DrainManager(
            self.env, platform.pfs, self.ledger, app.nodes, per_node,
            trace=trace, metrics=metrics,
        )
        self.overhead = OverheadBreakdown()
        self.ft = FTStats()

        # -- dynamic state --------------------------------------------------
        self.work_done = 0.0
        # Real failure -> the record of how its prediction was handled.
        # Keyed by the immutable event's value, which includes the
        # injector's unique provenance id: an id() key could be taken over
        # by a later event allocated at a freed one's address.
        self._records: Dict[FailureEvent, _MitigationRecord] = {}
        # node -> records of all live predictions on it; a node-level
        # commit (p-ckpt phase 1, LM completion) covers every one of them.
        self._watchers: Dict[int, List[_MitigationRecord]] = {}
        self._active_lms: Dict[int, LiveMigration] = {}   # node -> migration
        self._migrated_away: Set[int] = set()             # vacated nodes
        # node -> latest live prediction on it (for re-enqueueing
        # still-vulnerable nodes into a fresh protocol).
        self._vulnerable: Dict[int, Union[FailureEvent, FalseAlarmEvent]] = {}
        # Sparse Fig 5 state machine: node -> health, only non-NORMAL
        # nodes tracked; every change goes through transition() so illegal
        # interleavings fail loudly instead of corrupting FT accounting.
        self._node_states: Dict[int, NodeHealth] = {}
        # The in-flight phase-2 flush.
        self._phase2_job: Optional[_Phase2Job] = None
        # Traced phase-2 span records, (record, time), that the event
        # path stores when the application next waits (_record_held).
        self._held_records: List[tuple] = []
        self._interruptible = False
        self._computing = False
        self._pending: List[tuple] = []
        self._app_proc = None
        # The failure stream: drawn but undelivered failures in order
        # (the first is the next to land; more are drawn ahead only once
        # their predecessor is sure to land) and the last landing time.
        self._draws: List[_Draw] = []
        self._landed = self.env.now
        # The held disturbances are the first draw's next stage and the
        # phase-2 flush.  The one kernel timeout, armed at the earliest
        # of them while the application is off the batch (_leave_batch).
        self._timer: Optional[Timeout] = None
        # The kernel horizon the batch last read (_stretch).
        self._horizon = -_INF

        # -- run stats ---------------------------------------------------------
        self.periodic_checkpoints = 0
        self.proactive_runs = 0
        self.oci_initial = self.oci.interval()
        self.oci_final = self.oci_initial

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self) -> RunOutput:
        """Execute the simulation to job completion and return results.

        Failures need no process: the next draw's next stage and an
        in-flight phase-2 flush are the simulation's held disturbances,
        each with its due time and its land function.  The segment batch
        lands the draw inline when nothing else comes first
        (:meth:`_run_segments`), and its prediction too when the draw
        alone decides the safeguard or p-ckpt phase 1 it starts
        (:meth:`_decided`); a restore that reaches the flush lands the
        flush inline.  Off the batch, the earliest held disturbance is
        the simulation's one kernel timeout (:meth:`_leave_batch`), whose
        callback lands what is due and re-arms (:meth:`_on_due`).  False
        alarms keep their own driver process.
        """
        self._app_proc = self.env.process(self._app(), name="application")
        if self.config.use_prediction and self.injector.false_alarm_rate > 0:
            self.env.process(
                self._false_alarm_driver(), name="false-alarm-driver"
            )
        self.env.run(until=self._app_proc)
        return self.finish()

    def finish(self) -> RunOutput:
        """Validate accounting and package the run's :class:`RunOutput`."""
        self.drain.settle()
        self.overhead.validate()
        self.ft.validate()
        self._flush_metrics()
        return RunOutput(
            makespan=self.env.now,
            useful_seconds=self.app.compute_seconds,
            overhead=self.overhead,
            ft=self.ft,
            oci_initial=self.oci_initial,
            oci_final=self.oci_final,
            periodic_checkpoints=self.periodic_checkpoints,
            proactive_runs=self.proactive_runs,
            metrics=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
        )

    def _flush_metrics(self) -> None:
        """Record end-of-run totals into the metrics registry.

        Only deterministic quantities go in — wall-clock figures stay on
        :attr:`Environment.wall_seconds` so merged registries are
        bit-identical regardless of worker count or machine load.
        """
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("des.events_processed").inc(self.env.events_processed)
        m.gauge("des.queue_high_water").set(self.env.queue_high_water)
        m.counter("sim.replications").inc()
        m.counter("sim.makespan_seconds").inc(self.env.now)
        m.counter("sim.useful_seconds").inc(self.app.compute_seconds)
        m.counter("overhead.checkpoint_seconds").inc(self.overhead.checkpoint)
        m.counter("overhead.recomputation_seconds").inc(
            self.overhead.recomputation
        )
        m.counter("overhead.recovery_seconds").inc(self.overhead.recovery)
        m.counter("overhead.migration_seconds").inc(self.overhead.migration)

    # ------------------------------------------------------------------
    # event drivers
    # ------------------------------------------------------------------
    def _held(self, i: int) -> _Draw:
        """The *i*-th undelivered failure, drawing up to it.

        Each :meth:`~repro.failures.injector.FailureInjector.next_failure`
        call stays where the event path makes it, right after the previous
        failure lands: a draw is only made ahead once that landing is
        certain, and nothing else draws from the stream in between.
        """
        draws = self._draws
        while len(draws) <= i:
            ev = self.injector.next_failure()
            draws.append(_Draw(ev, draws[-1].tf if draws else self._landed,
                               self.config.use_prediction and ev.predicted))
        return draws[i]

    def _leave_batch(self) -> None:
        """Arm the earliest held disturbance as the one kernel timeout.

        The flush comes before the draw at a tie.  Armed when the
        application leaves the batch, unless the timer is still armed
        there (the batch landed nothing), and again whenever what was
        armed lands (:meth:`_on_due`) or the flush changes on the event
        path (:meth:`_rearm`).  The next failure is drawn by then: every
        caller has looked at it.
        """
        if self._timer is not None:
            return
        due = self._draws[0].due
        job = self._phase2_job
        if job is not None and job.due < due:
            due = job.due
        self._timer = timer = self.env.timeout_at(due)
        timer.callbacks.append(self._on_due)

    def _rearm(self, due: float) -> None:
        """Re-arm the armed timer for a flush due at *due* that changed.

        The flush started or was cancelled on the event path, where the
        timer is armed.  It moves only when the flush is due strictly
        before the draw's next stage: at a tie it is armed there anyway.
        """
        if due < self._draws[0].due:
            self.env.cancel(self._timer)
            self._timer = None
            self._leave_batch()

    def _record_held(self) -> None:
        """Store the held phase-2 span records: the application waits now.

        A phase-2 span opens, or a cancelled one closes, at its instant,
        but the event path stored those records only once the application
        next waited, after what it still recorded first.  Each place the
        application waits from stores them: the batch, a compute segment
        on the event path, a protocol's first wait, and the restore every
        :meth:`_recover` leads to.
        """
        for record, time in self._held_records:
            record(time)
        self._held_records.clear()

    def _phase2_seconds(self, healthy: int) -> float:
        """Phase 2's write of *healthy* nodes, computed once per count."""
        seconds = self._flush_seconds.get(healthy)
        if seconds is None:
            seconds = self._flush_seconds[healthy] = (
                self.platform.pfs.proactive_write_time(
                    healthy, self.app.checkpoint_bytes_per_node))
        return seconds

    def _on_due(self, _event) -> None:
        """Land what is due, the flush first; re-arm for what is next.

        The draw's stages due with its armed one are delivered here too:
        a failure at its prediction's instant, and a draw whose first
        stage comes with its predecessor's landing (``at_once``).
        """
        self._timer = None
        now = self.env.now
        job = self._phase2_job
        if job is not None and job.due <= now:
            job.land()
        draws = self._draws
        d = draws[0]
        while d.due <= now:
            if d.tp is not None:
                d.tp = None
                d.due = d.tf
                self._deliver_prediction(d.ev, now)
            else:
                self._land_failure(self._avoided(d.ev), inline=False)
                d = self._held(0)
        self._leave_batch()

    def _false_alarm_driver(self):
        """Inject false-alarm predictions forever."""
        while True:
            alarm = self.injector.next_false_alarm()
            if alarm is None:
                return
            if alarm.prediction_time > self.env.now:
                yield self.env.timeout(alarm.prediction_time - self.env.now)
            self.ft.false_alarms += 1
            if self.metrics is not None:
                self._count("predictor.false_alarms")
            self._deliver_prediction(alarm, self.env.now)

    # ------------------------------------------------------------------
    # notification plumbing
    # ------------------------------------------------------------------
    # Callers of the two metric helpers test ``self.metrics is not None``
    # first, once per site, so disabled metrics cost one comparison; trace
    # records are built at their call sites, behind
    # ``if self.trace is not None``.
    def _count(self, name: str, amount: float = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float, times: int = 1) -> None:
        self.metrics.histogram(name).observe(value, times)

    def _notify_app(self, cause: tuple) -> None:
        """Interrupt the application, or defer if it is un-interruptible.

        It is interruptible only while it runs: a cause deferred once it
        has finished is never read.
        """
        if self._interruptible:
            self._app_proc.interrupt(cause)
        else:
            self._pending.append(cause)

    def _replan(self) -> None:
        """Nudge a computing application to re-plan (rate changed)."""
        if self._computing and self._interruptible:
            self._app_proc.interrupt(("replan",))

    def _compute_rate(self) -> float:
        """Current compute rate (1.0, reduced while LMs are in flight)."""
        if not self._active_lms:
            return 1.0
        n = sum(1 for lm in self._active_lms.values() if lm.in_flight)
        return (1.0 - self.platform.lm_slowdown) ** n

    # ------------------------------------------------------------------
    # Fig 5 node state machine
    # ------------------------------------------------------------------
    def node_health(self, node: int) -> NodeHealth:
        """Current Fig 5 state of *node* (NORMAL when untracked)."""
        return self._node_states.get(node, _NORMAL)

    def _mark(self, node: int, to: NodeHealth) -> None:
        """Move *node* to state *to*, enforcing the Fig 5 transitions."""
        states = self._node_states
        current = states.get(node, _NORMAL)
        if current is to:
            return
        transition(current, to)  # raises IllegalTransition on a bad move
        if to is _NORMAL:
            del states[node]
        else:
            states[node] = to

    def _replace(self, node: int) -> None:
        """Fig 5: *node* fails and a healthy spare replaces it.

        Both transitions go through :func:`transition`; the node is
        untracked (NORMAL) afterwards.
        """
        transition(self._node_states.pop(node, _NORMAL), _FAILED)
        transition(_FAILED, _NORMAL)

    # ------------------------------------------------------------------
    # prediction / failure delivery
    # ------------------------------------------------------------------
    def _deliver_prediction(
        self, prediction: Union[FailureEvent, FalseAlarmEvent], now: float,
        action: Optional[ProactiveAction] = None,
    ) -> None:
        """Act on *prediction* at the clock, *now*.

        *action* is the one :meth:`_decided` already chose for it, if any:
        the same decision on the same lead.
        """
        is_real = isinstance(prediction, FailureEvent)
        if not self.config.use_prediction:
            return
        deadline = (
            prediction.time
            if is_real
            else prediction.prediction_time + prediction.claimed_lead
        )
        lead = max(deadline - now, 0.0)
        if action is None:
            action = self.coordinator.decide(lead)
        # Trace details carry the injector-assigned provenance id ("prov")
        # so repro.obs.timeline can stitch every record back to its causing
        # failure/false alarm.  See docs/OBSERVABILITY.md.
        if self.trace is not None:
            self.trace.emit(
                "predictor",
                "prediction",
                {
                    "node": prediction.node,
                    "action": action.value,
                    "lead": lead,
                    "real": is_real,
                    "prov": prediction.provenance,
                },
            )
        if self.metrics is not None:
            self._count("predictor.predictions")
            self._observe("predictor.lead_seconds", lead)
        rec = _MitigationRecord(action)
        node = prediction.node
        if is_real:
            # Only a failure's delivery reads a record; no failure follows
            # a false alarm, so its record is never registered.
            self._records[prediction] = rec
            watchers = self._watchers.get(node)
            if watchers is None:
                self._watchers[node] = [rec]
            else:
                watchers.append(rec)

        if action is ProactiveAction.IGNORE:
            return
        self._vulnerable[node] = prediction
        if node in self._migrated_away:
            # The process already vacated this node; any failure there is
            # moot, so the prediction is covered for free.
            rec.action = ProactiveAction.LIVE_MIGRATION
            rec.committed = True
            return
        if action is ProactiveAction.LIVE_MIGRATION:
            if node in self._active_lms:
                # A migration for this node is already in flight; its
                # completion covers this prediction too (watcher list).
                rec.action = ProactiveAction.LIVE_MIGRATION
                return
            self._mark(node, _VULNERABLE)
            self._start_migration(prediction, rec)
            return
        # Blocked protocols run inside the application process.
        self._mark(node, _VULNERABLE)
        self._notify_app(("proactive", prediction, action))

    def _start_migration(
        self,
        prediction: Union[FailureEvent, FalseAlarmEvent],
        rec: _MitigationRecord,
    ) -> None:
        node = prediction.node

        def _done(lm: LiveMigration, outcome: MigrationOutcome) -> None:
            self._active_lms.pop(node, None)
            if outcome is MigrationOutcome.COMPLETED:
                for watcher in self._watchers.get(node, ()):
                    if watcher.action is ProactiveAction.LIVE_MIGRATION:
                        watcher.committed = True
                self._migrated_away.add(node)
                self._mark(node, _NORMAL)
                if self.trace is not None:
                    self.trace.emit("lm", "completed",
                                    {"node": node, "prov": prediction.provenance})
                if self.metrics is not None:
                    self._count("lm.completed")
            else:
                self.ft.lm_aborts += 1
                if self._node_states.get(node) is _MIGRATING:
                    self._mark(node, _VULNERABLE)
                if outcome is MigrationOutcome.ABORTED:
                    if self.trace is not None:
                        self.trace.emit("lm", "aborted",
                                        {"node": node,
                                         "prov": prediction.provenance})
                    if self.metrics is not None:
                        self._count("lm.aborted")
                else:
                    if self.trace is not None:
                        self.trace.emit("lm", "overtaken",
                                        {"node": node,
                                         "prov": prediction.provenance})
                    if self.metrics is not None:
                        self._count("lm.overtaken")
            self._replan()

        lm = LiveMigration(
            self.env,
            self.platform,
            node,
            prediction,
            self.app.checkpoint_bytes_per_node,
            alpha=self.config.lm_alpha,
            on_done=_done,
            trace=self.trace,
        )
        self._active_lms[node] = lm
        self._mark(node, _MIGRATING)
        if self.trace is not None:
            self.trace.emit(
                "lm",
                "started",
                {"node": node, "seconds": lm.transfer_seconds,
                 "prov": prediction.provenance},
            )
        if self.metrics is not None:
            self._count("lm.started")
        self._replan()

    def _avoided(self, ev: FailureEvent) -> bool:
        """True when a completed live migration vacated *ev*'s node."""
        # Only live migration commits a record this way, and only a
        # delivered prediction registers one.
        if not (self.config.supports_lm and ev.predicted):
            return False
        rec = self._records.get(ev)
        return (rec is not None
                and rec.action is ProactiveAction.LIVE_MIGRATION
                and rec.committed)

    def _land_failure(self, avoided: bool = False,
                      inline: bool = True) -> float:
        """Deliver the next failure at its time, ``tf``; return ``tf``.

        *avoided* is :meth:`_avoided` of it, as the caller found it: a
        landing :meth:`_stretch` passes is never avoided, and a model
        whose prediction :meth:`_decided` holds has no live migration.
        The batch lands it *inline*, moving the clock to ``tf`` first;
        off the batch the timer fires there (:meth:`_on_due`).
        """
        d = self._draws.pop(0)
        tf = self._landed = d.tf
        if inline:
            self.env.advance(tf)
        ev = d.ev
        ft = self.ft
        ft.failures += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("failures.injected").inc()
        if ev.predicted:
            # Counted at failure (not prediction) delivery so that a
            # prediction whose failure lands after job completion does not
            # break the predicted <= failures invariant.
            ft.predicted += 1
        self.oci.record_failure()
        if avoided:
            # The process vacated this node before it died: failure avoided.
            self.ft.mitigated_lm += 1
            self._migrated_away.discard(ev.node)
            self._forget_prediction(ev)
            # The empty node still physically fails and gets replaced.
            self._replace(ev.node)
            if self.trace is not None:
                self.trace.emit("failure", "avoided-by-lm",
                                {"node": ev.node, "prov": ev.provenance})
            if metrics is not None:
                metrics.counter("failures.avoided_by_lm").inc()
            return tf
        if ev.node in self._active_lms:
            # Transfer still in flight when the node died.
            self._active_lms[ev.node].overtake()
        if self.trace is not None:
            self.trace.emit("failure", "struck",
                            {"node": ev.node, "prov": ev.provenance})
        if metrics is not None:
            metrics.counter("failures.struck").inc()
        self._notify_app(("failure", ev))
        return tf

    # ------------------------------------------------------------------
    # the application process
    # ------------------------------------------------------------------
    def _app(self):
        """Main loop: compute for one OCI, checkpoint to BB, repeat.

        With no live migration in flight the segments, and the failures
        that land among them, run in batches (:meth:`_run_segments`),
        traced or not; the first segment or restore a batch cannot finish
        goes through the kernel.
        """
        goal = self.app.compute_seconds
        self._interruptible = True
        while self.work_done < goal - _EPS:
            if not self._active_lms:
                step = self._run_segments(goal)
                if step is None:
                    break
                if isinstance(step, tuple):
                    yield from self._restore(*step)
                    yield from self._drain_pending()
                    continue
                interval = step
            else:
                if self._held_records:
                    self._record_held()
                if self.oci.online_estimation:
                    self.oci.record_time(self.env.now)
                interval = self.oci.interval()
                self.oci_final = interval
            target = min(self.work_done + interval, goal)
            status = yield from self._advance_to(target)
            if status == _Status.RESET:
                continue
            if self.work_done >= goal - _EPS:
                break
            yield from self._periodic_bb_checkpoint()
        self._interruptible = False
        if self.trace is not None:
            self.trace.emit("app", "completed", self.work_done)

    def _run_segments(self, goal: float) -> Union[float, tuple, None]:
        """Run every segment and disturbance that comes before the horizon.

        With no live migration in flight the compute rate is exactly 1.0,
        so only a kernel event or the next failure can disturb a segment.
        Each segment that ends, BB write included, strictly before the
        horizon (:meth:`_stretch`) runs here as float arithmetic: the
        event path's own expressions in its order.  A fixed interval is
        read once per call and metered once per segment in bulk; the
        online estimator is fed the time and read per segment, as the
        main loop does.  The clock, progress, overhead, counters, ledger
        and drain chain are then committed once.  A checkpoint staged
        before :meth:`~repro.cr.drain.DrainManager.queue_end` may queue
        behind a drain and is submitted as it is staged; the rest cannot,
        and the batch keeps only their count and where the last two
        began for :meth:`~repro.cr.drain.DrainManager.submit_run`.  A
        traced batch records and submits its checkpoints one by one
        instead (:meth:`_record_segments`).  What lands first, strictly
        before the horizon, stops the segment here too (:meth:`_cut`): a
        failure, or its prediction, and the blocked protocol it starts
        runs as arithmetic (:meth:`_protect_inline`).  The application
        recovers here from a failure that lands, while nothing else
        happens: the failures landing at or before the end of each
        restore (:meth:`_landings`) are delivered at their own times and
        queue behind it, as on the event path, and a phase-2 flush due by
        then lands at its ``due`` in time order among them.  The batch
        goes on after either.

        Returns the interval read for the first segment that does not end
        before the horizon (the caller runs it on the event path), the
        ``(seconds, lost, sid)`` of a restore that may be disturbed (the
        caller waits it out, :meth:`_restore`), or None once the job's
        work is done.  Unless the work is done, the earliest held
        disturbance leaves armed as the kernel timeout (:meth:`_leave_batch`).
        """
        env = self.env
        oci = self.oci
        drain = self.drain
        ledger = self.ledger
        metrics = self.metrics
        traced = self.trace is not None
        # Only the online estimator reads the observed time, and its
        # interval changes with it: it is read per segment.  A fixed
        # interval is read here, for the first segment; the reads of
        # the others are metered in bulk (count_reads).
        online = oci.online_estimation
        interval = None if online else oci.interval()
        metered = 1  # that read, already metered
        t_ckpt_bb = self.t_ckpt_bb
        # The loop's constant operands, each the same float every time.
        unfinished = goal - _EPS
        # A write too short to block adds exactly 0.0 to t1 and the
        # checkpoint overhead.
        blocked = t_ckpt_bb if t_ckpt_bb > _EPS else 0.0
        # Two stagings are at least this far apart before rounding: a
        # segment computes at least the interval, then writes.
        period = (oci.min_interval if online else interval) + blocked
        works: List[float] = []
        times: List[float] = []
        while True:
            if self._held_records:
                # The event path's application waits from here on.
                self._record_held()
            horizon, land, struck = self._stretch()
            # land < horizon when finite: one test per segment for both.
            limit = land if land < horizon else horizon
            now = env.now
            work = start = self.work_done
            checkpoint = self.overhead.checkpoint
            # Every staging comes before the limit, so the batch's
            # rounding takes less than this off the period.
            gap = period - (limit + goal + period) * _ROUNDING
            ready = _INF if traced else drain.queue_end(gap)
            walked = jumped = 0
            # Where the last staging after ``ready`` began: at the one
            # before it, when there is one.
            prior_work = prior_time = 0.0
            # Where the segment that finishes the work began.
            last_work = last_time = 0.0
            deferred: Optional[float] = None
            strikes = False
            while work < unfinished:
                if online:
                    oci.record_time(now)
                    interval = oci.interval()
                # interval >= min_interval, so every segment computes; the
                # rate is 1.0, so planned == target - work and migration
                # overhead grows by exactly 0.0.
                target = work + interval
                if target < unfinished:
                    # It writes a checkpoint; target < goal needs no clamp.
                    t1 = now + (target - work)
                    t2 = t1 + blocked
                    if t2 < limit:
                        checkpoint += t2 - t1
                        if t2 < ready:
                            walked += 1
                            if traced:
                                works.append(target)
                                times.append(t2)
                            else:
                                # It may queue behind a drain: submit it.
                                drain.submit(
                                    ledger.record_periodic(target, t2), t2)
                                ready = drain.queue_end(gap)
                        else:
                            jumped += 1
                            prior_work = work
                            prior_time = now
                        now = t2
                        work = target
                        continue
                else:
                    # The last segment: it finishes the work, no write.
                    if target > goal:
                        target = goal
                    t1 = t2 = now + (target - work)
                    if t2 < limit:
                        last_work = work
                        last_time = now
                        now = t2
                        work = target
                        continue
                # The segment does not end before the limit.  The kernel
                # delivers a landing that brings the next draw's first
                # stage with it.
                strikes = land <= t2 and not (
                    struck and self._held(1).at_once)
                if not strikes:
                    deferred = interval
                break
            if works:
                self._record_segments(env.now, start, works, times)
                works.clear()
                times.clear()
            elif walked or jumped:
                n = walked + jumped
                self.periodic_checkpoints += n
                if metrics is not None:
                    self._count("ckpt.periodic_completed", n)
                    self._observe("ckpt.bb_write_seconds", t_ckpt_bb, n)
                if jumped:
                    # The newest staging ended the last segment, or began
                    # the one that finished the work.
                    if work < unfinished:
                        last_work = work
                        last_time = now
                    drain.submit_run(
                        jumped, prior_work, prior_time,
                        ledger.record_periodic(last_work, last_time,
                                               count=jumped))
            if metrics is not None and not online and start < unfinished:
                # One read per segment begun: every staging and the last.
                oci.count_reads(interval, walked + jumped + 1 - metered)
                metered = 0
            self.work_done = work
            self.overhead.checkpoint = checkpoint
            self.oci_final = interval
            if strikes:
                # A protocol that commits lands no failure: go on.
                if self._cut(land, now, t1, target) and \
                        not self._protect_inline(land, struck):
                    continue
                # Recover from each queued failure while nothing else
                # happens, landing those due by the end of its restore.
                while self._pending:
                    seconds, lost, sid = self._recover(
                        self._pending.pop(0)[1])
                    end = env.now + seconds
                    n, job = (self._landings(end) if seconds > _EPS
                              else (-1, None))
                    if n < 0:
                        # Something else may disturb it: the event path
                        # waits it out.
                        self._leave_batch()
                        return seconds, lost, sid
                    for _ in range(n):
                        if job is not None and job.due < self._draws[0].tf:
                            job.land()
                            job = None
                        self._land_failure(self._avoided(self._draws[0].ev))
                    if job is not None:
                        job.land()
                    env.advance(end)
                    if traced:
                        self.trace.span_end(sid, {"lost": lost})
                self._interruptible = True
                continue
            if now != env.now:
                env.advance(now)
            if deferred is not None:
                self._leave_batch()
            return deferred

    def _stretch(self) -> Tuple[float, float, bool]:
        """The batch's horizon, what lands in it, and whether a failure does.

        The horizon is :meth:`~repro.des.Environment.horizon`, or earlier
        the earliest held disturbance the batch cannot land in a segment:
        the phase-2 flush, a prediction it cannot decide, or a landing the
        kernel must deliver because a completed live migration avoids it.
        The next failure landing strictly before the horizon comes back as
        the second value, with True.  So does its prediction when the draw
        alone decides the blocked protocol it starts (:meth:`_decided`)
        and that is decided strictly before the horizon, with True when
        the failure aborts the protocol.  Whatever lands has the armed
        timer withdrawn, here and nowhere else in the batch; the second
        value is ``inf`` when nothing does.
        """
        env = self.env
        kernel = env.horizon()
        job = self._phase2_job
        flush = _INF if job is None else job.due
        horizon = flush if flush < kernel else kernel
        draws = self._draws
        d = draws[0] if draws else self._held(0)
        t = d.due
        if t > horizon:
            return horizon, _INF, False
        # When what the stage starts is decided: a landing at once, a
        # prediction when its protocol aborts or commits.
        if d.tp is None:
            end = None if self._avoided(d.ev) else t
        else:
            end = self._decided(d)
        if end is None:
            return t, _INF, False
        if self._timer is not None:
            env.cancel(self._timer)
            self._timer = None
            kernel = env.horizon()
            horizon = flush if flush < kernel else kernel
        # Kept for _landings: the batch schedules and withdraws nothing
        # on the kernel until then.
        self._horizon = kernel
        if end < horizon:
            return horizon, t, end == d.tf
        return t, _INF, False

    def _decided(self, d: _Draw) -> Optional[float]:
        """When *d* alone decides the blocked protocol its prediction starts.

        That takes a model without live migration and a failure due
        strictly after its prediction at ``tp``.  A safeguard's
        all-node write ``W`` is aborted by the failure when
        ``tf < tp + W``; p-ckpt phase 1 is one priority write ``w`` when
        the predicted node is the only vulnerable entry still live at
        ``tp``, aborted when ``tf < tp + w`` and committed at
        ``tp + w`` when ``tf > tp + w``.  Returns ``tf`` or that commit
        time; None when the event path must run the protocol: a
        safeguard that completes, an exact tie, more than one queued
        entry, or p-ckpt that blocks for phase 2.  The action decided
        is kept on *d* for its delivery (:meth:`_cut`).
        """
        config = self.config
        if config.supports_lm or not d.f_wait:
            return None
        tp = d.tp
        tf = d.tf
        d.action = action = self.coordinator.decide(d.ev.time - tp)
        if action is ProactiveAction.SAFEGUARD:
            write = self._safeguard_seconds
            return tf if write > _EPS and tf < tp + write else None
        if action is not ProactiveAction.PCKPT or not config.pckpt_async_phase2:
            return None
        node = d.ev.node
        for other, pred in self._vulnerable.items():
            if other != node and self._prediction_deadline(pred) > tp:
                return None
        write = self._priority_seconds
        if not write > _EPS:
            return None
        tc = tp + write
        if tf < tc:
            return tf
        return tc if tf > tc else None

    def _cut(self, t: float, now: float, t1: float, target: float) -> bool:
        """Stop the segment computing to *target* at *t* with the next stage.

        The segment began at *now*.  The event path's order and
        expressions, with the clock moved to *t*: the next failure's next
        stage is delivered, then the application stops.  At or before the
        compute end *t1* it interrupts the compute, which reached
        ``work + (t - now) * 1.0``; later it aborts the BB write begun at
        *t1*, charging ``t - t1``.  Deliveries queue up from here, as they
        do during a restore.  True when the stage was the prediction.
        """
        trace = self.trace
        aborts = t > t1
        if not aborts:
            self.work_done += (t - now) * 1.0
        else:
            self.work_done = target
            if trace is not None:
                trace.emit("app", "ckpt_bb_start", target, time=t1)
                sid = trace.span_begin("app", "ckpt_bb_write", target, time=t1)
        self._interruptible = False
        d = self._draws[0]
        predicted = d.tp is not None
        if predicted:
            self.env.advance(t)
            d.tp = None
            d.due = d.tf
            self._deliver_prediction(d.ev, t, d.action)
        else:
            self._land_failure()
        if aborts:
            self.overhead.checkpoint += t - t1
            if trace is not None:
                trace.span_end(sid)
                trace.emit("app", "ckpt_bb_aborted", None)
            if self.metrics is not None:
                self._count("ckpt.periodic_aborted")
        return predicted

    def _protect_inline(self, tp: float, struck: bool) -> bool:
        """Run the protocol the prediction delivered at *tp* starts, inline.

        :meth:`_decided` found that its failure alone decides it, so
        nothing else happens until then.  The bookkeeping is the event
        path's, and protocol time is charged as its waits charge it,
        ``0.0 + (t - tp)`` (p-ckpt adds phase 2's ``0.0``).  When the
        failure aborts it (*struck*), the failure lands at its own time
        and True is returned: the application recovers.  Otherwise p-ckpt
        phase 1 commits at ``tp + w``, phase 2 starts in the background,
        held on the simulation, and the batch goes on.
        """
        # A real prediction is its failure's own event: it aborts too.
        _, prediction, action = self._pending.pop()
        self.proactive_runs += 1
        if action is ProactiveAction.SAFEGUARD:
            sid = self._safeguard_begin(prediction)
            tf = self._land_failure()
            self._aborted("safeguard", 0.0 + (tf - tp), prediction, sid)
            return True
        if self.trace is not None:
            _, prov_by_node, provs, sid = self._pckpt_begin(prediction)
        else:
            # The queue would hold the predicted node alone (_decided):
            # only the pruning and the counter are left to do.
            self._live_vulnerable(tp)
            if self.metrics is not None:
                self._count("pckpt.runs")
            prov_by_node = provs = None
            sid = 0
        if struck:
            tf = self._land_failure()
            self._aborted("pckpt", (0.0 + (tf - tp)) + 0.0, prediction, sid)
            return True
        tc = tp + self._priority_seconds
        self.env.advance(tc)
        node = prediction.node
        self._pckpt_commit(node, tc, prov_by_node)
        self._pckpt_done(self.work_done, (node,), 0.0 + (tc - tp), 0.0,
                         self.app.nodes - 1 - len(self._migrated_away),
                         provs, sid, tc)
        self._interruptible = True
        return False

    def _landings(self, end: float) -> Tuple[int, Optional[_Phase2Job]]:
        """How many failures land in a restore ending at *end*, and the flush.

        -1 unless nothing else happens until then: *end* comes strictly
        before the kernel's horizon, no prediction is due by then, and no
        failure landing by then brings the next draw's first stage with
        it.  The held phase-2 flush is looked past when nothing on the
        kernel comes before it and it is due by *end*: it comes back
        second, to land inline.  A failure at exactly its ``due`` leaves
        the order to the kernel: -1, and the flush stays held until the
        application leaves the batch.  The kernel's horizon is the one
        :meth:`_stretch` read, with the timer withdrawn.
        """
        horizon = self._horizon
        job = self._phase2_job
        if job is not None and not (job.due <= end and job.due <= horizon):
            job = None
        n = -1
        if end < horizon:
            i = 0
            while True:
                d = self._held(i)
                if d.tp is not None:
                    if d.tp > end:
                        n = i
                    break
                if d.tf > end:
                    n = i
                    break
                if job is not None and d.tf == job.due:
                    break
                i += 1
                if self._held(i).at_once:
                    break
        return n, job

    def _record_segments(self, now: float, work: float, works: List[float],
                         times: List[float]) -> None:
        """Record a traced batch's checkpoints at the event path's times.

        ``t1`` is rebuilt from the previous segment's end (*now*, *work*
        for the first) with the batch's own expression.  The trace
        releases the drain landings held in between in time order.
        """
        trace = self.trace
        blocks = self.t_ckpt_bb > _EPS
        for target, t2 in zip(works, times):
            t1 = now + (target - work)
            trace.emit("app", "ckpt_bb_start", target, time=t1)
            if blocks:
                sid = trace.span_begin("app", "ckpt_bb_write", target, time=t1)
                trace.span_end(sid, time=t2)
            self._bb_checkpoint_done(target, t2)
            now, work = t2, target

    def _advance_to(self, target: float):
        """Compute until *target* work, servicing interruptions."""
        while self.work_done < target - _EPS:
            rate = self._compute_rate()
            planned = (target - self.work_done) / rate
            start = self.env.now
            self._computing = True
            timer = self.env.timeout(planned)
            try:
                yield timer
                self._computing = False
                self.work_done = target
                self.overhead.migration += planned * (1.0 - rate)
            except Interrupt as intr:
                self.env.cancel(timer)
                self._computing = False
                elapsed = self.env.now - start
                self.work_done += elapsed * rate
                self.overhead.migration += elapsed * (1.0 - rate)
                kind = intr.cause[0]
                if kind == "replan":
                    continue
                if kind == "proactive":
                    yield from self._run_proactive(intr.cause[1], intr.cause[2])
                    yield from self._drain_pending()
                    return _Status.RESET
                if kind == "failure":
                    yield from self._restore(*self._recover(intr.cause[1]))
                    yield from self._drain_pending()
                    return _Status.RESET
                raise RuntimeError(f"unexpected interrupt {intr.cause!r}")
        return _Status.REACHED

    def _periodic_bb_checkpoint(self):
        """Synchronous checkpoint to the burst buffers (+ async drain)."""
        remaining = self.t_ckpt_bb
        trace = self.trace
        if trace is not None:
            trace.emit("app", "ckpt_bb_start", self.work_done)
        while remaining > _EPS:
            start = self.env.now
            # One span per blocked write segment: its duration is exactly
            # the checkpoint overhead charged below, so span totals and
            # OverheadBreakdown stay reconcilable.
            if trace is not None:
                sid = trace.span_begin("app", "ckpt_bb_write", self.work_done)
            timer = self.env.timeout(remaining)
            try:
                yield timer
                self.overhead.checkpoint += self.env.now - start
                if trace is not None:
                    trace.span_end(sid)
                remaining = 0.0
            except Interrupt as intr:
                self.env.cancel(timer)
                self.overhead.checkpoint += self.env.now - start
                if trace is not None:
                    trace.span_end(sid)
                remaining -= self.env.now - start
                kind = intr.cause[0]
                if kind == "replan":
                    continue  # I/O speed unaffected by LM slowdown
                if kind == "proactive":
                    # Abort the BB write; the proactive snapshot supersedes.
                    if trace is not None:
                        trace.emit("app", "ckpt_bb_aborted", None)
                    if self.metrics is not None:
                        self._count("ckpt.periodic_aborted")
                    yield from self._run_proactive(intr.cause[1], intr.cause[2])
                    yield from self._drain_pending()
                    return
                if kind == "failure":
                    # Fig 1(C): failure during a synchronous BB checkpoint.
                    if trace is not None:
                        trace.emit("app", "ckpt_bb_aborted", None)
                    if self.metrics is not None:
                        self._count("ckpt.periodic_aborted")
                    yield from self._restore(*self._recover(intr.cause[1]))
                    yield from self._drain_pending()
                    return
                raise RuntimeError(f"unexpected interrupt {intr.cause!r}")
        self._bb_checkpoint_done(self.work_done, self.env.now)

    def _bb_checkpoint_done(self, work: float, time: float) -> None:
        """Record a periodic BB checkpoint of *work* at *time*; drain it."""
        snap = self.ledger.record_periodic(work, time)
        self.periodic_checkpoints += 1
        if self.metrics is not None:
            self._count("ckpt.periodic_completed")
            self._observe("ckpt.bb_write_seconds", self.t_ckpt_bb)
        # Done first: the snapshot's drain_flush span opens after it.
        if self.trace is not None:
            self.trace.emit("app", "ckpt_bb_done", work, time=time)
        self.drain.submit(snap, time)

    # ------------------------------------------------------------------
    # proactive actions (blocked)
    # ------------------------------------------------------------------
    def _run_proactive(self, prediction, action: ProactiveAction):
        """Run a safeguard or p-ckpt protocol inside the app process."""
        # A stale notification: the predicted failure already passed
        # (it was deferred behind a recovery).  Nothing to protect anymore.
        if self._prediction_deadline(prediction) <= self.env.now:
            return
        self.proactive_runs += 1
        if action is ProactiveAction.SAFEGUARD:
            yield from self._run_safeguard(prediction)
        elif action is ProactiveAction.PCKPT:
            yield from self._run_pckpt(prediction)
        else:  # pragma: no cover - decide() never routes others here
            raise RuntimeError(f"cannot run proactive action {action}")

    def _run_safeguard(self, prediction):
        """Wait out a safeguard's collective write on the event path."""
        run = SafeguardCheckpoint(
            self.env,
            self.work_done,
            self._safeguard_seconds,
            prediction,
            already_covered=set(self._migrated_away),
        )
        sid = self._safeguard_begin(prediction)
        try:
            outcome = yield from run.run()
        except SafeguardAborted as exc:
            self._aborted("safeguard", run.spent, exc.failure, sid)
            yield from self._restore(*self._recover(exc.failure))
            return
        trace = self.trace
        if trace is not None:
            trace.span_end(sid, "done")
        self.overhead.checkpoint += outcome.duration
        if self.metrics is not None:
            self._observe("safeguard.write_seconds", outcome.duration)
        self.drain.settle()
        self.ledger.record_proactive(outcome.snapshot_work, self.env.now)
        for served in outcome.served:
            rec = self._records.get(served)
            if rec is not None:
                rec.action = ProactiveAction.SAFEGUARD
                rec.committed = True
        if trace is not None:
            trace.emit(
                "safeguard",
                "done",
                {"served": len(outcome.served),
                 "provs": sorted(getattr(s, "provenance", -1)
                                 for s in outcome.served)},
            )
        if outcome.pending_failures:
            yield from self._recover_after_proactive(outcome.pending_failures)

    def _safeguard_begin(self, prediction) -> int:
        """Start a safeguard at the clock; return its span id (0 untraced)."""
        trace = self.trace
        if trace is not None:
            prov = getattr(prediction, "provenance", -1)
            trace.emit("safeguard", "start",
                       {"node": prediction.node,
                        "seconds": self._safeguard_seconds, "prov": prov})
        if self.metrics is not None:
            self._count("safeguard.runs")
        # The safeguard only burns time inside its collective write, so
        # this span's duration equals the checkpoint overhead it charges
        # (run.spent / outcome.duration) — on aborts too.
        if trace is not None:
            return trace.span_begin("safeguard", "safeguard_write",
                                    {"node": prediction.node, "prov": prov})
        return 0

    def _aborted(self, source: str, spent: float, failure: FailureEvent,
                 sid: int) -> None:
        """Charge a protocol that *failure* aborted after *spent* seconds.

        *source* is ``"safeguard"`` or ``"pckpt"``; the caller recovers.
        """
        self.overhead.checkpoint += spent
        trace = self.trace
        if trace is not None:
            trace.span_end(sid, "aborted")
            trace.emit(source, "aborted",
                       {"node": failure.node, "prov": failure.provenance})
        if self.metrics is not None:
            self._count(source + ".aborts")

    def _run_pckpt(self, prediction):
        """Wait out a p-ckpt protocol on the event path."""
        initial, prov_by_node, provs, sid = self._pckpt_begin(prediction)
        protocol = PckptProtocol(
            self.env,
            snapshot_work=self.work_done,
            total_nodes=self.app.nodes,
            priority_write_seconds=lambda _n: self._priority_seconds,
            phase2_write_seconds=self._phase2_seconds,
            initial=initial,
            already_covered=set(self._migrated_away),
            on_commit=lambda entry, when: self._pckpt_commit(
                entry.node, when, prov_by_node),
            include_phase2=not self.config.pckpt_async_phase2,
        )
        if self._held_records:
            self._record_held()
        try:
            outcome = yield from protocol.run()
        except ProtocolAborted as exc:
            self._aborted("pckpt", protocol.phase1_spent + protocol.phase2_spent,
                          exc.failure, sid)
            yield from self._restore(*self._recover(exc.failure))
            return
        self._pckpt_done(outcome.snapshot_work, outcome.committed,
                         outcome.phase1_seconds, outcome.phase2_seconds,
                         outcome.healthy_nodes, provs, sid, self.env.now)
        if outcome.pending_failures:
            yield from self._recover_after_proactive(outcome.pending_failures)

    def _pckpt_begin(self, prediction) -> Tuple[List[VulnerableEntry],
                                                 Optional[Dict[int, int]],
                                                 Optional[List[int]], int]:
        """Start a p-ckpt at the clock.

        Returns its initial queue entries, the provenance id of the
        prediction behind each queued node and the sorted ids (both None
        untraced) and the protocol's span id (0 untraced).
        """
        trace = self.trace
        metrics = self.metrics
        initial = [entry_from_prediction(prediction)]
        enqueued = {prediction.node}
        # node -> provenance id of the prediction that enqueued it, for
        # the causal-timeline annotations on every protocol record.
        prov_by_node = None
        if trace is not None:
            prov_by_node = {
                prediction.node: getattr(prediction, "provenance", -1)}
        # Fig 5: starting p-ckpt aborts in-flight LMs; their nodes join
        # the priority queue (their snapshot share must now be committed).
        for node, lm in list(self._active_lms.items()):
            lm.abort("pckpt-preempts-lm")
            for watcher in self._watchers.get(node, ()):
                watcher.action = ProactiveAction.PCKPT
            if node not in enqueued:
                initial.append(entry_from_prediction(lm.prediction))
                enqueued.add(node)
                if trace is not None:
                    prov_by_node[node] = getattr(lm.prediction, "provenance",
                                                 -1)
            if trace is not None:
                trace.emit("pckpt", "absorbed-lm",
                           {"node": node,
                            "prov": getattr(lm.prediction, "provenance", -1)})
            if metrics is not None:
                self._count("pckpt.absorbed_lms")
        # Every other still-vulnerable node joins too: the new snapshot
        # supersedes any older protection, so their shares must be
        # re-committed under it before their failures strike.
        for node, pred in self._live_vulnerable(self.env.now).items():
            if node in enqueued or node in self._migrated_away:
                continue
            initial.append(entry_from_prediction(pred))
            enqueued.add(node)
            if trace is not None:
                prov_by_node[node] = getattr(pred, "provenance", -1)
        provs = None
        sid = 0
        if trace is not None:
            nodes = [e.node for e in initial]
            provs = sorted(prov_by_node.values())
            trace.emit("pckpt", "start", {"nodes": nodes, "provs": provs})
        if metrics is not None:
            self._count("pckpt.runs")
        # All protocol time passes inside its interruptible waits, so this
        # span's duration equals phase1+phase2 blocked seconds — the exact
        # checkpoint overhead charged at its end, on aborts too.
        if trace is not None:
            sid = trace.span_begin(
                "pckpt", "pckpt_protocol", {"nodes": nodes, "provs": provs}
            )
        return initial, prov_by_node, provs, sid

    def _pckpt_commit(self, node: int, when: float,
                      prov_by_node: Optional[Dict[int, int]]) -> None:
        """A phase-1 commit of *node* at *when* covers its live predictions."""
        for watcher in self._watchers.get(node, ()):
            watcher.action = ProactiveAction.PCKPT
            watcher.committed = True
        if self.trace is not None:
            self.trace.emit(
                "pckpt",
                "vulnerable-committed",
                {"node": node, "when": when,
                 "prov": prov_by_node.get(node, -1)},
            )

    def _pckpt_done(self, work: float, committed, phase1: float,
                    phase2: float, healthy: int, provs: Optional[List[int]],
                    sid: int, now: float) -> None:
        """Charge a p-ckpt completed at *now*; start its phase 2 (or land it).

        The protocol captured *work* and committed the nodes *committed*
        in phase 1, blocking *phase1* and *phase2* seconds; *healthy*
        nodes are left for an asynchronous phase 2, held on the
        simulation with the next draw: on the event path the timer moves
        to it when it is due first (:meth:`_rearm`).
        """
        trace = self.trace
        if trace is not None:
            trace.span_end(sid, "done")
        duration = phase1 + phase2
        self.overhead.checkpoint += duration
        if self.metrics is not None:
            self._count("pckpt.commits", len(committed))
            self._observe("pckpt.phase1_seconds", phase1)
        if self.config.pckpt_async_phase2:
            # Phase 2 flushes in the background; the snapshot becomes
            # PFS-complete (and recovery-usable) when the job lands.
            if self._phase2_job is not None:
                # Superseded by the newer snapshot.
                self._phase2_job.cancel(now)
            job = self._phase2_job = _Phase2Job(self, work, committed,
                                                healthy, provs, now)
            if self._timer is not None:
                self._rearm(job.due)
        else:
            self.drain.settle(now)
            self.ledger.record_proactive(work, now)
        if trace is not None:
            trace.emit(
                "pckpt",
                "done",
                {"committed": sorted(committed),
                 "duration": duration, "provs": provs},
            )

    def _recover_after_proactive(self, failures: List[FailureEvent]):
        """One recovery pass covering failures that struck mid-protocol."""
        # Classification happens per failure; the restore happens once.
        yield from self._restore(*self._recover(failures[0]))
        for extra in failures[1:]:
            self._classify_mitigation(self._forget_prediction(extra))

    # ------------------------------------------------------------------
    # failure handling / recovery
    # ------------------------------------------------------------------
    @staticmethod
    def _prediction_deadline(
        prediction: Union[FailureEvent, FalseAlarmEvent]
    ) -> float:
        """Predicted absolute failure time of either prediction kind."""
        if isinstance(prediction, FailureEvent):
            return prediction.time
        return prediction.prediction_time + prediction.claimed_lead

    def _live_vulnerable(
        self, now: float
    ) -> Dict[int, Union[FailureEvent, FalseAlarmEvent]]:
        """Nodes still awaiting their predicted failure at the clock, *now*.

        Prunes the expired ones.
        """
        stale = [
            node
            for node, pred in self._vulnerable.items()
            if self._prediction_deadline(pred) <= now
        ]
        for node in stale:
            del self._vulnerable[node]
            # An expired alarm leaves the node healthy again (Fig 5);
            # nodes with a transfer still in flight are left to the LM
            # completion callback.
            if (node not in self._active_lms
                    and self._node_states.get(node) is _VULNERABLE):
                self._mark(node, _NORMAL)
        return self._vulnerable

    def _forget_prediction(
        self, ev: FailureEvent
    ) -> Optional[_MitigationRecord]:
        """Drop the bookkeeping for a delivered failure's prediction.

        Returns the record of how its prediction was handled, if one was
        registered.
        """
        self._vulnerable.pop(ev.node, None)
        # Only a delivered prediction registers a record.
        rec = self._records.pop(ev, None) if ev.predicted else None
        if rec is not None:
            watchers = self._watchers.get(ev.node)
            if watchers is not None:
                try:
                    watchers.remove(rec)
                except ValueError:
                    pass
                if not watchers:
                    del self._watchers[ev.node]
        return rec

    def _classify_mitigation(self, rec: Optional[_MitigationRecord]) -> None:
        """Count a failure whose prediction *rec* committed as mitigated."""
        if rec is None or not rec.committed:
            return
        if rec.action is ProactiveAction.PCKPT:
            self.ft.mitigated_pckpt += 1
        elif rec.action is ProactiveAction.SAFEGUARD:
            self.ft.mitigated_safeguard += 1
        elif rec.action is ProactiveAction.LIVE_MIGRATION:  # pragma: no cover
            self.ft.mitigated_lm += 1

    def _recover(self, ev: FailureEvent) -> Tuple[float, float, int]:
        """Roll back and plan the restore after one unavoided failure.

        The recovery arithmetic of both paths, at the clock.  Returns the
        restore's seconds, the work lost and its ``recovery_restore`` span
        id (0 untraced), for :meth:`_restore` or the batch to finish.
        Every caller waits the restore out next, so the held phase-2 span
        records are stored here.
        """
        now = self.env.now
        node = ev.node
        # Drains that landed by now count for the recovery plan.
        self.drain.settle(now)
        if self._records or self._vulnerable:
            # Only a delivered prediction leaves either behind.
            self._classify_mitigation(self._forget_prediction(ev))
        self._migrated_away.discard(node)
        # Fig 5: the node fails and is replaced by a healthy spare.  Its
        # in-flight migration (if any) resolves via the abort below.
        if self._node_states.get(node) is not _MIGRATING:
            self._replace(node)
        # In-flight LM images are stale once we roll back: abort them all.
        if self._active_lms:
            for lm in list(self._active_lms.values()):
                lm.abort("rollback-invalidates-image")

        job = self._phase2_job
        if job is not None and node in job.covers:
            # The in-flight p-ckpt snapshot survives this failure (the
            # node's share is already on the PFS).  Recovery waits for the
            # daemons to finish flushing, then restores everyone from PFS.
            wait = max(job.due - now, 0.0)
            restore_work = job.snapshot_work
            costs = self._recovery_costs
            restore_seconds = wait + costs.pfs_read + costs.restart_delay
            from_bb = False
        else:
            if job is not None:
                # A non-covered node died: its share of the in-flight
                # snapshot is gone; the snapshot is unusable.
                job.cancel(now)
            plan = plan_recovery(self.ledger, self._recovery_costs,
                                 metrics=self.metrics)
            restore_work = plan.restore_work
            restore_seconds = plan.total_seconds
            from_bb = plan.from_bb

        lost = self.work_done - restore_work
        assert lost >= -_EPS, "recovery target ahead of current progress"
        lost = max(lost, 0.0)
        self.overhead.recomputation += lost
        self.overhead.recovery += restore_seconds
        self.work_done = restore_work
        self.ledger.rollback(restore_work)
        trace = self.trace
        if trace is not None:
            trace.emit(
                "recovery",
                "restore",
                {"work": restore_work, "seconds": restore_seconds,
                 "from_bb": from_bb, "prov": ev.provenance},
            )
        if self.metrics is not None:
            self.metrics.histogram("recovery.restore_seconds").observe(
                restore_seconds)
            self.metrics.histogram("recovery.lost_work_seconds").observe(lost)
        # The restore lasts exactly restore_seconds, so this span's
        # duration equals the recovery overhead charged above; the lost
        # work rides along in the detail for the recomputation
        # cross-check.
        sid = 0
        if trace is not None:
            sid = trace.span_begin(
                "recovery", "recovery_restore",
                {"work": restore_work, "from_bb": from_bb,
                 "prov": ev.provenance},
            )
        # Cancelled drains close their spans inside the restore span.
        self.drain.drop_newer_than(restore_work, now)
        if self._held_records:
            self._record_held()
        return restore_seconds, lost, sid

    def _restore(self, seconds: float, lost: float, sid: int):
        """Wait out a restore on the event path.

        The restore itself cannot be interrupted; notifications queue up.
        The flag defers *future* notifications; interrupts already
        scheduled this timestep still land here, so the wait itself must
        also catch and defer.  Deferral consumes no time.
        """
        self._interruptible = False
        remaining = seconds
        while remaining > _EPS:
            start = self.env.now
            timer = self.env.timeout(remaining)
            try:
                yield timer
                remaining = 0.0
            except Interrupt as intr:
                self.env.cancel(timer)
                remaining -= self.env.now - start
                self._pending.append(intr.cause)
        self._interruptible = True
        if self.trace is not None:
            self.trace.span_end(sid, {"lost": lost})

    def _drain_pending(self):
        """Service notifications deferred during un-interruptible spans."""
        while self._pending:
            cause = self._pending.pop(0)
            kind = cause[0]
            if kind == "failure":
                yield from self._restore(*self._recover(cause[1]))
            elif kind == "proactive":
                yield from self._run_proactive(cause[1], cause[2])
            # replans are moot here: the main loop re-plans anyway
