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
from typing import Dict, List, Optional, Set, Union

import numpy as np

from ..analysis.metrics import FTStats, OverheadBreakdown
from ..core.coordinator import ProactiveAction, ProactiveCoordinator
from ..core.pckpt import PckptProtocol, ProtocolAborted, entry_from_prediction
from ..core.priority import VulnerableEntry
from ..core.statemachine import transition
from ..platform.node import NodeHealth, NodeState
from ..cr.checkpoint import SnapshotLedger
from ..cr.drain import DrainManager
from ..cr.migration import LiveMigration, MigrationOutcome
from ..cr.oci import OCIController
from ..cr.recovery import plan_recovery
from ..cr.safeguard import SafeguardAborted, SafeguardCheckpoint
from ..des import Environment, Interrupt, MetricsRegistry, Timeout, Trace
from ..des.events import URGENT
from ..failures.injector import FailureEvent, FailureInjector, FalseAlarmEvent
from ..failures.leadtime import PAPER_LEAD_TIME_MODEL, LeadTimeModel
from ..failures.predictor import DEFAULT_PREDICTOR, PredictorSpec
from ..failures.weibull import WeibullParams
from ..platform.system import SUMMIT, PlatformSpec
from ..workloads.applications import ApplicationSpec

__all__ = ["ModelConfig", "RunOutput", "CRSimulation"]

_EPS = 1e-6


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


@dataclass
class _MitigationRecord:
    """Per-prediction bookkeeping linking predictions to outcomes."""

    action: ProactiveAction = ProactiveAction.IGNORE
    committed: bool = False


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

    The flush is one :class:`~repro.des.Timeout` whose callback lands the
    snapshot at :attr:`eta`; a cancel withdraws it from the kernel.  A
    traced job opens its ``pckpt_phase2`` span, arms the timeout and
    closes a cancelled span from urgent events at the instant, after the
    records the protocol itself still emits then.
    """

    #: Owner name the kernel profiler files the job's events under.
    name = "pckpt-phase2"

    def __init__(self, sim: "CRSimulation", outcome, provs=()) -> None:
        self.sim = sim
        self.snapshot_work = outcome.snapshot_work
        #: Provenance ids of the predictions the parent protocol served
        #: (causal-timeline annotation carried into the phase-2 records).
        self.provs = list(provs)
        #: Nodes whose failure does not hurt the snapshot.
        self.covers: Set[int] = set(outcome.committed) | set(sim._migrated_away)
        self.duration = sim.platform.pfs.proactive_write_time(
            outcome.healthy_nodes, sim.app.checkpoint_bytes_per_node
        )
        self.eta = sim.env.now + self.duration
        self.cancelled = False
        self._timer: Optional[Timeout] = None
        self._sid = 0
        if sim.trace is None:
            self._arm()
        else:
            self._urgent(self._open)

    def _urgent(self, callback) -> None:
        """Run *callback* from an urgent event at the current instant."""
        event = self.sim.env.event()
        event.callbacks.append(callback)
        event.succeed(priority=URGENT)

    def _open(self, _event) -> None:
        self._sid = self.sim._span_begin(
            "pckpt", "pckpt_phase2",
            {"work": self.snapshot_work, "provs": self.provs},
        )
        if not self.cancelled:
            self._arm()

    def _arm(self) -> None:
        self._timer = self.sim.env.timeout(self.duration)
        self._timer.callbacks.append(self._land)

    def _land(self, _event) -> None:
        """Landing callback: the snapshot is PFS-complete."""
        sim = self.sim
        self._timer = None
        sim.drain.settle()
        sim.ledger.record_proactive(self.snapshot_work, sim.env.now)
        sim._span_end(self._sid, "landed")
        sim._emit("pckpt", "phase2-landed",
                  {"work": self.snapshot_work, "provs": self.provs})
        sim._count("pckpt.phase2_landed")
        if sim._phase2_job is self:
            sim._phase2_job = None

    def cancel(self) -> None:
        """Invalidate the in-flight snapshot (superseded or share lost)."""
        if self.cancelled:
            return
        sim = self.sim
        self.cancelled = True
        if self._timer is not None:
            sim.env.cancel(self._timer)
            self._timer = None
        sim._count("pckpt.phase2_cancelled")
        if sim._phase2_job is self:
            sim._phase2_job = None
        if sim.trace is not None:
            self._urgent(self._close)

    def _close(self, _event) -> None:
        self.sim._span_end(self._sid, "cancelled")


def _noop(*_args, **_kwargs) -> None:
    """Shared do-nothing sink bound in place of disabled instrumentation."""
    return None


def _noop_span_begin(*_args, **_kwargs) -> int:
    """Disabled ``_span_begin``: every span gets the same dummy id."""
    return 0


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
    metrics:
        Optional metrics registry; when given it is attached to the run's
        environment and fed counters/gauges/histograms by every layer
        (ledger, drain, OCI, recovery planning, the protocol drivers, and
        the DES kernel itself).  Cheap enough to leave on.
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
        else:
            # Disabled tracing must cost nothing on the event hot paths:
            # rebind the helpers to module-level no-ops so call sites pay
            # one attribute load instead of a method frame + None check.
            self._emit = _noop
            self._span_begin = _noop_span_begin
            self._span_end = _noop
        self.metrics = metrics
        if metrics is not None:
            self.env.attach_metrics(metrics)
        else:
            self._count = _noop
            self._observe = _noop

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

        self.injector = FailureInjector(
            self.weibull, app.nodes, lead_model, predictor, rng=rng
        )
        self.t_ckpt_bb = bb.write_time(per_node)
        if config.neighbor_level:
            # Local BB stage, then the mirror copy to the partner's BB
            # (conservatively serialized; the partner absorbs at BB rate).
            self.t_ckpt_bb += platform.interconnect.transfer_time(
                per_node
            ) + bb.write_time(per_node)
        self.lm_seconds = platform.lm_transfer_time(per_node, config.lm_alpha)
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
        # Keyed by the frozen event itself, which carries the injector's
        # unique provenance id: an id() key could be taken over by a later
        # event allocated at a freed one's address.
        self._records: Dict[FailureEvent, _MitigationRecord] = {}
        # node -> records of all live predictions on it; a node-level
        # commit (p-ckpt phase 1, LM completion) covers every one of them.
        self._watchers: Dict[int, List[_MitigationRecord]] = {}
        self._active_lms: Dict[int, LiveMigration] = {}   # node -> migration
        self._migrated_away: Set[int] = set()             # vacated nodes
        # node -> latest live prediction on it (for re-enqueueing
        # still-vulnerable nodes into a fresh protocol).
        self._vulnerable: Dict[int, Union[FailureEvent, FalseAlarmEvent]] = {}
        # Sparse Fig 5 state machine: only non-NORMAL nodes are tracked;
        # every change goes through transition() so illegal interleavings
        # fail loudly instead of corrupting FT accounting.
        self._node_states: Dict[int, NodeState] = {}
        self._phase2_job: Optional[_Phase2Job] = None
        self._active_protocol: Optional[PckptProtocol] = None
        self._active_safeguard: Optional[SafeguardCheckpoint] = None
        self._interruptible = False
        self._computing = False
        self._pending: List[tuple] = []
        self._app_proc = None

        # -- run stats ---------------------------------------------------------
        self.periodic_checkpoints = 0
        self.proactive_runs = 0
        self.oci_initial = self.oci.interval()
        self.oci_final = self.oci_initial

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def start(self):
        """Register the simulation's processes without running the clock.

        Idempotent; returns the application :class:`~repro.des.Process`
        whose completion ends the run.  ``run()`` calls this internally;
        callers that need stepwise control (the
        :class:`repro.spec.engine.SimEngine` facade) call it directly and
        drive ``env.step()`` themselves, then :meth:`finish`.
        """
        if self._app_proc is None:
            self._app_proc = self.env.process(self._app(), name="application")
            self.env.process(self._failure_driver(), name="failure-driver")
            if self.config.use_prediction and self.injector.false_alarm_rate > 0:
                self.env.process(
                    self._false_alarm_driver(), name="false-alarm-driver"
                )
        return self._app_proc

    def run(self) -> RunOutput:
        """Execute the simulation to job completion and return results."""
        self.env.run(until=self.start())
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
        :meth:`Environment.kernel_stats` so merged registries are
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
    def _failure_driver(self):
        """Inject failures (and their predictions) forever."""
        while True:
            ev = self.injector.next_failure()
            if ev.predicted and self.config.use_prediction:
                if ev.prediction_time > self.env.now:
                    yield self.env.timeout(ev.prediction_time - self.env.now)
                self._deliver_prediction(ev)
            if ev.time > self.env.now:
                yield self.env.timeout(ev.time - self.env.now)
            self._deliver_failure(ev)

    def _false_alarm_driver(self):
        """Inject false-alarm predictions forever."""
        while True:
            alarm = self.injector.next_false_alarm()
            if alarm is None:
                return
            if alarm.prediction_time > self.env.now:
                yield self.env.timeout(alarm.prediction_time - self.env.now)
            self.ft.false_alarms += 1
            self._count("predictor.false_alarms")
            self._deliver_prediction(alarm)

    # ------------------------------------------------------------------
    # notification plumbing
    # ------------------------------------------------------------------
    # The five helpers below are rebound to module-level no-ops in
    # __init__ when their backend is absent, so the None checks only ever
    # run with instrumentation enabled.
    def _emit(self, source: str, kind: str, detail=None) -> None:
        if self.trace is not None:
            self.trace.emit(source, kind, detail)

    def _span_begin(self, source: str, kind: str, detail=None) -> int:
        if self.trace is not None:
            return self.trace.span_begin(source, kind, detail)
        return 0

    def _span_end(self, sid: int, detail=None) -> None:
        if self.trace is not None:
            self.trace.span_end(sid, detail)

    def _count(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float, times: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value, times)

    def _notify_app(self, cause: tuple) -> None:
        """Interrupt the application, or defer if it is un-interruptible."""
        if self._app_proc is None or not self._app_proc.is_alive:
            return
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
        state = self._node_states.get(node)
        return state.health if state is not None else NodeHealth.NORMAL

    def _mark(self, node: int, to: NodeHealth) -> None:
        """Move *node* to state *to*, enforcing the Fig 5 transitions."""
        current = self.node_health(node)
        if current is to:
            return
        transition(current, to)  # raises IllegalTransition on a bad move
        if to is NodeHealth.NORMAL:
            self._node_states.pop(node, None)
        else:
            state = self._node_states.get(node)
            if state is None:
                state = self._node_states[node] = NodeState(index=node)
            state.health = to

    # ------------------------------------------------------------------
    # prediction / failure delivery
    # ------------------------------------------------------------------
    def _deliver_prediction(
        self, prediction: Union[FailureEvent, FalseAlarmEvent]
    ) -> None:
        is_real = isinstance(prediction, FailureEvent)
        if not self.config.use_prediction:
            return
        deadline = (
            prediction.time
            if is_real
            else prediction.prediction_time + prediction.claimed_lead
        )
        lead = max(deadline - self.env.now, 0.0)
        action = self.coordinator.decide(lead)
        # Trace details carry the injector-assigned provenance id ("prov")
        # so repro.obs.timeline can stitch every record back to its causing
        # failure/false alarm.  See docs/OBSERVABILITY.md.
        self._emit(
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
        self._count("predictor.predictions")
        self._observe("predictor.lead_seconds", lead)
        rec = _MitigationRecord(action=action)
        if is_real:
            # Only a failure's delivery reads a record; no failure follows
            # a false alarm, so its record is never registered.
            self._records[prediction] = rec
            self._watchers.setdefault(prediction.node, []).append(rec)

        if action is ProactiveAction.IGNORE:
            return
        self._vulnerable[prediction.node] = prediction
        if prediction.node in self._migrated_away:
            # The process already vacated this node; any failure there is
            # moot, so the prediction is covered for free.
            rec.action = ProactiveAction.LIVE_MIGRATION
            rec.committed = True
            return
        if action is ProactiveAction.LIVE_MIGRATION:
            if prediction.node in self._active_lms:
                # A migration for this node is already in flight; its
                # completion covers this prediction too (watcher list).
                rec.action = ProactiveAction.LIVE_MIGRATION
                return
            self._mark(prediction.node, NodeHealth.VULNERABLE)
            self._start_migration(prediction, rec)
            return
        # Blocked protocols run inside the application process.
        self._mark(prediction.node, NodeHealth.VULNERABLE)
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
                self._mark(node, NodeHealth.NORMAL)
                self._emit("lm", "completed",
                           {"node": node, "prov": prediction.provenance})
                self._count("lm.completed")
            else:
                self.ft.lm_aborts += 1
                if self.node_health(node) is NodeHealth.MIGRATING:
                    self._mark(node, NodeHealth.VULNERABLE)
                if outcome is MigrationOutcome.ABORTED:
                    self._emit("lm", "aborted",
                               {"node": node, "prov": prediction.provenance})
                    self._count("lm.aborted")
                else:
                    self._emit("lm", "overtaken",
                               {"node": node, "prov": prediction.provenance})
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
        self._mark(node, NodeHealth.MIGRATING)
        self._emit(
            "lm",
            "started",
            {"node": node, "seconds": lm.transfer_seconds,
             "prov": prediction.provenance},
        )
        self._count("lm.started")
        self._replan()

    def _deliver_failure(self, ev: FailureEvent) -> None:
        self.ft.failures += 1
        self._count("failures.injected")
        if ev.predicted:
            # Counted at failure (not prediction) delivery so that a
            # prediction whose failure lands after job completion does not
            # break the predicted <= failures invariant.
            self.ft.predicted += 1
        self.oci.record_failure()
        rec = self._records.get(ev)
        if (
            rec is not None
            and rec.action is ProactiveAction.LIVE_MIGRATION
            and rec.committed
        ):
            # The process vacated this node before it died: failure avoided.
            self.ft.mitigated_lm += 1
            self._migrated_away.discard(ev.node)
            self._forget_prediction(ev)
            # The empty node still physically fails and gets replaced.
            self._mark(ev.node, NodeHealth.FAILED)
            self._mark(ev.node, NodeHealth.NORMAL)
            self._emit("failure", "avoided-by-lm",
                       {"node": ev.node, "prov": ev.provenance})
            self._count("failures.avoided_by_lm")
            return
        if ev.node in self._active_lms:
            # Transfer still in flight when the node died.
            self._active_lms[ev.node].overtake()
        self._emit("failure", "struck", {"node": ev.node, "prov": ev.provenance})
        self._count("failures.struck")
        self._notify_app(("failure", ev))

    # ------------------------------------------------------------------
    # the application process
    # ------------------------------------------------------------------
    def _app(self):
        """Main loop: compute for one OCI, checkpoint to BB, repeat.

        An untraced run with no live migration in flight runs its
        segments in batches (:meth:`_run_segments`); the first segment a
        batch cannot finish, and every segment of a traced run, goes
        through the kernel.
        """
        goal = self.app.compute_seconds
        inline = self.trace is None
        self._interruptible = True
        while self.work_done < goal - _EPS:
            if inline and not self._active_lms:
                interval = self._run_segments(goal)
                if interval is None:
                    break
            else:
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
        self._emit("app", "completed", self.work_done)

    def _run_segments(self, goal: float) -> Optional[float]:
        """Run every periodic segment that ends before the horizon.

        With no live migration in flight the compute rate is exactly 1.0,
        so only a kernel event can disturb a segment.  Each segment that
        ends, BB write included, strictly before
        :meth:`~repro.des.Environment.horizon` runs here as float
        arithmetic: the event path's own expressions in its order, with
        the interval read per segment as the main loop reads it.  The
        clock, progress, overhead, counters, ledger and drain chain are
        then committed once.

        Returns the interval read for the first segment that does not end
        before the horizon (the caller runs it on the event path), or
        None once the job's work is done.
        """
        env = self.env
        oci = self.oci
        horizon = env.horizon()
        t_ckpt_bb = self.t_ckpt_bb
        now = env.now
        work = self.work_done
        checkpoint = self.overhead.checkpoint
        works: List[float] = []
        times: List[float] = []
        deferred: Optional[float] = None
        while work < goal - _EPS:
            oci.record_time(now)
            interval = oci.interval()
            # interval >= min_interval, so every segment computes; the
            # rate is 1.0, so planned == target - work and migration
            # overhead grows by exactly 0.0.
            target = min(work + interval, goal)
            t1 = now + (target - work)
            writes = target < goal - _EPS
            blocks = writes and t_ckpt_bb > _EPS
            t2 = t1 + t_ckpt_bb if blocks else t1
            if not t2 < horizon:
                deferred = interval
                break
            if blocks:
                checkpoint += t2 - t1
            now = t2
            work = target
            if writes:
                works.append(target)
                times.append(t2)
        if now != env.now:
            env.advance(now)
        self.work_done = work
        self.overhead.checkpoint = checkpoint
        self.oci_final = interval
        if works:
            n = len(works)
            self.periodic_checkpoints += n
            self._count("ckpt.periodic_completed", n)
            self._observe("ckpt.bb_write_seconds", t_ckpt_bb, n)
            newest = self.ledger.record_periodic(works[-1], times[-1], count=n)
            self.drain.submit_run(works, times, newest)
        return deferred

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
                    yield from self._handle_failure(intr.cause[1])
                    yield from self._drain_pending()
                    return _Status.RESET
                raise RuntimeError(f"unexpected interrupt {intr.cause!r}")
        return _Status.REACHED

    def _periodic_bb_checkpoint(self):
        """Synchronous checkpoint to the burst buffers (+ async drain)."""
        remaining = self.t_ckpt_bb
        self._emit("app", "ckpt_bb_start", self.work_done)
        while remaining > _EPS:
            start = self.env.now
            # One span per blocked write segment: its duration is exactly
            # the checkpoint overhead charged below, so span totals and
            # OverheadBreakdown stay reconcilable.
            sid = self._span_begin("app", "ckpt_bb_write", self.work_done)
            timer = self.env.timeout(remaining)
            try:
                yield timer
                self.overhead.checkpoint += self.env.now - start
                self._span_end(sid)
                remaining = 0.0
            except Interrupt as intr:
                self.env.cancel(timer)
                self.overhead.checkpoint += self.env.now - start
                self._span_end(sid)
                remaining -= self.env.now - start
                kind = intr.cause[0]
                if kind == "replan":
                    continue  # I/O speed unaffected by LM slowdown
                if kind == "proactive":
                    # Abort the BB write; the proactive snapshot supersedes.
                    self._emit("app", "ckpt_bb_aborted", None)
                    self._count("ckpt.periodic_aborted")
                    yield from self._run_proactive(intr.cause[1], intr.cause[2])
                    yield from self._drain_pending()
                    return
                if kind == "failure":
                    # Fig 1(C): failure during a synchronous BB checkpoint.
                    self._emit("app", "ckpt_bb_aborted", None)
                    self._count("ckpt.periodic_aborted")
                    yield from self._handle_failure(intr.cause[1])
                    yield from self._drain_pending()
                    return
                raise RuntimeError(f"unexpected interrupt {intr.cause!r}")
        self._bb_checkpoint_done()

    def _bb_checkpoint_done(self) -> None:
        """Record a completed periodic BB checkpoint and start its drain."""
        snap = self.ledger.record_periodic(self.work_done, self.env.now)
        self.periodic_checkpoints += 1
        self._count("ckpt.periodic_completed")
        self._observe("ckpt.bb_write_seconds", self.t_ckpt_bb)
        # Done first: the snapshot's drain_flush span opens after it.
        self._emit("app", "ckpt_bb_done", self.work_done)
        self.drain.submit(snap)

    # ------------------------------------------------------------------
    # proactive actions (blocked)
    # ------------------------------------------------------------------
    def _run_proactive(self, prediction, action: ProactiveAction):
        """Run a safeguard or p-ckpt protocol inside the app process."""
        # A stale notification: the predicted failure already passed
        # (it was deferred behind a recovery).  Nothing to protect anymore.
        deadline = (
            prediction.time
            if isinstance(prediction, FailureEvent)
            else prediction.prediction_time + prediction.claimed_lead
        )
        if deadline <= self.env.now:
            return
        self.proactive_runs += 1
        if action is ProactiveAction.SAFEGUARD:
            yield from self._run_safeguard(prediction)
        elif action is ProactiveAction.PCKPT:
            yield from self._run_pckpt(prediction)
        else:  # pragma: no cover - decide() never routes others here
            raise RuntimeError(f"cannot run proactive action {action}")

    def _run_safeguard(self, prediction):
        per_node = self.app.checkpoint_bytes_per_node
        write = self.platform.pfs.proactive_write_time(self.app.nodes, per_node)
        run = SafeguardCheckpoint(
            self.env,
            self.work_done,
            write,
            prediction,
            already_covered=set(self._migrated_away),
        )
        self._active_safeguard = run
        prov = getattr(prediction, "provenance", -1)
        self._emit("safeguard", "start",
                   {"node": prediction.node, "seconds": write, "prov": prov})
        self._count("safeguard.runs")
        # The safeguard only burns time inside its collective write, so
        # this span's duration equals the checkpoint overhead it charges
        # (run.spent / outcome.duration) — on aborts too.
        sid = self._span_begin("safeguard", "safeguard_write",
                               {"node": prediction.node, "prov": prov})
        try:
            outcome = yield from run.run()
        except SafeguardAborted as exc:
            self.overhead.checkpoint += run.spent
            self._span_end(sid, "aborted")
            self._emit("safeguard", "aborted",
                       {"node": exc.failure.node,
                        "prov": exc.failure.provenance})
            self._count("safeguard.aborts")
            yield from self._handle_failure(exc.failure)
            return
        finally:
            self._active_safeguard = None
        self._span_end(sid, "done")
        self.overhead.checkpoint += outcome.duration
        self._observe("safeguard.write_seconds", outcome.duration)
        self.drain.settle()
        self.ledger.record_proactive(outcome.snapshot_work, self.env.now)
        for served in outcome.served:
            rec = self._records.get(served)
            if rec is not None:
                rec.action = ProactiveAction.SAFEGUARD
                rec.committed = True
        self._emit(
            "safeguard",
            "done",
            {"served": len(outcome.served),
             "provs": sorted(getattr(s, "provenance", -1)
                             for s in outcome.served)},
        )
        if outcome.pending_failures:
            yield from self._recover_after_proactive(outcome.pending_failures)

    def _run_pckpt(self, prediction):
        per_node = self.app.checkpoint_bytes_per_node
        initial = [entry_from_prediction(prediction)]
        enqueued = {prediction.node}
        # node -> provenance id of the prediction that enqueued it, for
        # the causal-timeline annotations on every protocol record below.
        prov_by_node = {prediction.node: getattr(prediction, "provenance", -1)}
        # Fig 5: starting p-ckpt aborts in-flight LMs; their nodes join
        # the priority queue (their snapshot share must now be committed).
        for node, lm in list(self._active_lms.items()):
            lm.abort("pckpt-preempts-lm")
            for watcher in self._watchers.get(node, ()):
                watcher.action = ProactiveAction.PCKPT
            if node not in enqueued:
                initial.append(entry_from_prediction(lm.prediction))
                enqueued.add(node)
                prov_by_node[node] = getattr(lm.prediction, "provenance", -1)
            self._emit("pckpt", "absorbed-lm",
                       {"node": node,
                        "prov": getattr(lm.prediction, "provenance", -1)})
            self._count("pckpt.absorbed_lms")
        # Every other still-vulnerable node joins too: the new snapshot
        # supersedes any older protection, so their shares must be
        # re-committed under it before their failures strike.
        for node, pred in list(self._live_vulnerable().items()):
            if node in enqueued or node in self._migrated_away:
                continue
            initial.append(entry_from_prediction(pred))
            enqueued.add(node)
            prov_by_node[node] = getattr(pred, "provenance", -1)

        def _on_commit(entry: VulnerableEntry, when: float) -> None:
            # The commit covers every live prediction for this node.
            for watcher in self._watchers.get(entry.node, ()):
                watcher.action = ProactiveAction.PCKPT
                watcher.committed = True
            self._emit(
                "pckpt",
                "vulnerable-committed",
                {"node": entry.node, "when": when,
                 "prov": prov_by_node.get(entry.node, -1)},
            )

        protocol = PckptProtocol(
            self.env,
            snapshot_work=self.work_done,
            total_nodes=self.app.nodes,
            priority_write_seconds=lambda _n: self.platform.pfs.priority_write_time(
                per_node
            ),
            phase2_write_seconds=lambda n: self.platform.pfs.proactive_write_time(
                n, per_node
            ),
            initial=initial,
            already_covered=set(self._migrated_away),
            on_commit=_on_commit,
            include_phase2=not self.config.pckpt_async_phase2,
        )
        self._active_protocol = protocol
        nodes = [e.node for e in initial]
        provs = sorted(prov_by_node.values())
        self._emit("pckpt", "start", {"nodes": nodes, "provs": provs})
        self._count("pckpt.runs")
        # All protocol time passes inside its interruptible waits, so this
        # span's duration equals phase1+phase2 blocked seconds — the exact
        # checkpoint overhead charged below, on aborts too.
        sid = self._span_begin(
            "pckpt", "pckpt_protocol", {"nodes": nodes, "provs": provs}
        )
        try:
            outcome = yield from protocol.run()
        except ProtocolAborted as exc:
            self.overhead.checkpoint += protocol.phase1_spent + protocol.phase2_spent
            self._span_end(sid, "aborted")
            self._emit("pckpt", "aborted",
                       {"node": exc.failure.node,
                        "prov": exc.failure.provenance})
            self._count("pckpt.aborts")
            yield from self._handle_failure(exc.failure)
            return
        finally:
            self._active_protocol = None
        self._span_end(sid, "done")
        self.overhead.checkpoint += outcome.duration
        self._count("pckpt.commits", len(outcome.committed))
        self._observe("pckpt.phase1_seconds", outcome.phase1_seconds)
        if self.config.pckpt_async_phase2:
            # Phase 2 flushes in the background; the snapshot becomes
            # PFS-complete (and recovery-usable) when the job lands.
            if self._phase2_job is not None:
                self._phase2_job.cancel()  # superseded by the newer snapshot
            self._phase2_job = _Phase2Job(self, outcome, provs)
        else:
            self.drain.settle()
            self.ledger.record_proactive(outcome.snapshot_work, self.env.now)
        self._emit(
            "pckpt",
            "done",
            {"committed": sorted(outcome.committed),
             "duration": outcome.duration, "provs": provs},
        )
        if outcome.pending_failures:
            yield from self._recover_after_proactive(outcome.pending_failures)

    def _recover_after_proactive(self, failures: List[FailureEvent]):
        """One recovery pass covering failures that struck mid-protocol."""
        # Classification happens per failure; the restore happens once.
        yield from self._handle_failure(failures[0])
        for extra in failures[1:]:
            self._classify_mitigation(extra)
            self._forget_prediction(extra)

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

    def _live_vulnerable(self) -> Dict[int, Union[FailureEvent, FalseAlarmEvent]]:
        """Nodes still awaiting their predicted failure (prunes expired)."""
        now = self.env.now
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
                    and self.node_health(node) is NodeHealth.VULNERABLE):
                self._mark(node, NodeHealth.NORMAL)
        return self._vulnerable

    def _forget_prediction(self, ev: FailureEvent) -> None:
        """Drop the bookkeeping for a delivered failure's prediction."""
        self._vulnerable.pop(ev.node, None)
        rec = self._records.pop(ev, None)
        if rec is not None:
            watchers = self._watchers.get(ev.node)
            if watchers is not None:
                try:
                    watchers.remove(rec)
                except ValueError:
                    pass
                if not watchers:
                    del self._watchers[ev.node]

    def _classify_mitigation(self, ev: FailureEvent) -> None:
        rec = self._records.get(ev)
        if rec is None or not rec.committed:
            return
        if rec.action is ProactiveAction.PCKPT:
            self.ft.mitigated_pckpt += 1
        elif rec.action is ProactiveAction.SAFEGUARD:
            self.ft.mitigated_safeguard += 1
        elif rec.action is ProactiveAction.LIVE_MIGRATION:  # pragma: no cover
            self.ft.mitigated_lm += 1

    def _handle_failure(self, ev: FailureEvent):
        """Roll back, restore, and account for one unavoided failure."""
        # Drains that landed by now count for the recovery plan.
        self.drain.settle()
        self._classify_mitigation(ev)
        self._forget_prediction(ev)
        self._migrated_away.discard(ev.node)
        # Fig 5: the node fails and is replaced by a healthy spare.  Its
        # in-flight migration (if any) resolves via the abort below.
        if self.node_health(ev.node) is not NodeHealth.MIGRATING:
            self._mark(ev.node, NodeHealth.FAILED)
            self._mark(ev.node, NodeHealth.NORMAL)
        # In-flight LM images are stale once we roll back: abort them all.
        for lm in list(self._active_lms.values()):
            lm.abort("rollback-invalidates-image")

        job = self._phase2_job
        if job is not None and not job.cancelled and ev.node in job.covers:
            # The in-flight p-ckpt snapshot survives this failure (the
            # node's share is already on the PFS).  Recovery waits for the
            # daemons to finish flushing, then restores everyone from PFS.
            wait = max(job.eta - self.env.now, 0.0)
            restore_work = job.snapshot_work
            restore_seconds = (
                wait
                + self.platform.pfs.full_restore_read_time(
                    self.app.nodes, self.app.checkpoint_bytes_per_node
                )
                + self.platform.restart_delay
            )
            from_bb = False
        else:
            if job is not None and not job.cancelled:
                # A non-covered node died: its share of the in-flight
                # snapshot is gone; the snapshot is unusable.
                job.cancel()
            plan = plan_recovery(
                self.ledger,
                self.platform.pfs,
                self.platform.node.burst_buffer,
                self.app.nodes,
                self.app.checkpoint_bytes_per_node,
                self.platform.restart_delay,
                neighbor=(
                    self.platform.interconnect
                    if self.config.neighbor_level
                    else None
                ),
                metrics=self.metrics,
            )
            restore_work = plan.restore_work
            restore_seconds = plan.total_seconds
            from_bb = plan.from_bb

        lost = self.work_done - restore_work
        assert lost >= -_EPS, "recovery target ahead of current progress"
        self.overhead.recomputation += max(lost, 0.0)
        self.overhead.recovery += restore_seconds
        self.work_done = restore_work
        self.ledger.rollback(self.work_done)
        self._emit(
            "recovery",
            "restore",
            {"work": restore_work, "seconds": restore_seconds,
             "from_bb": from_bb, "prov": ev.provenance},
        )
        self._observe("recovery.restore_seconds", restore_seconds)
        self._observe("recovery.lost_work_seconds", max(lost, 0.0))
        # The restore itself cannot be interrupted; notifications queue up.
        # The flag defers *future* notifications; interrupts already
        # scheduled this timestep still land here, so the wait itself must
        # also catch and defer.  The wait lasts exactly restore_seconds
        # (deferral consumes no time), so this span's duration equals the
        # recovery overhead charged above; the lost work rides along in
        # the detail for the recomputation cross-check.
        sid = self._span_begin(
            "recovery", "recovery_restore",
            {"work": restore_work, "from_bb": from_bb, "prov": ev.provenance},
        )
        # Cancelled drains close their spans inside the restore span.
        self.drain.cancel_newer_than(self.work_done)
        self._interruptible = False
        remaining = restore_seconds
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
        self._span_end(sid, {"lost": max(lost, 0.0)})

    def _drain_pending(self):
        """Service notifications deferred during un-interruptible spans."""
        while self._pending:
            cause = self._pending.pop(0)
            kind = cause[0]
            if kind == "failure":
                yield from self._handle_failure(cause[1])
            elif kind == "proactive":
                yield from self._run_proactive(cause[1], cause[2])
            # replans are moot here: the main loop re-plans anyway
