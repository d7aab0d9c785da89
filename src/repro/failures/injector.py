"""Failure/prediction event generation for the C/R simulation.

Produces a lazy, seeded stream of three event kinds:

* :class:`FailureEvent` — a real node failure (Weibull renewal arrivals,
  uniform node selection), optionally carrying a prediction whose lead
  time comes from the Desh-style :class:`~repro.failures.leadtime.LeadTimeModel`;
* the implied *prediction notification* ``lead`` seconds earlier;
* :class:`FalseAlarmEvent` — predictions with no subsequent failure
  (Poisson arrivals at the rate implied by the predictor's FP fraction).

The stream is lazy because the simulation clock stretches as overheads
accrue — we cannot pre-generate a fixed horizon of failures without either
wasting samples or running out.

Simulations that differ only in their C/R model consume equal streams, so
a campaign draws each replication's streams once: a
:class:`SharedStream` logs one injector's draws and every simulation
reads them through its own :class:`StreamView`.  Injectors that differ
only in their predictor or lead-time model draw equal failure gaps and
nodes, so they can share one :class:`FailureLog` of them and draw only
their own predictions and false alarms.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .leadtime import LeadTimeModel, PAPER_LEAD_TIME_MODEL
from .predictor import DEFAULT_PREDICTOR, PredictorSpec
from .weibull import SECONDS_PER_HOUR, WeibullParams, interarrival_seconds

__all__ = ["FailureEvent", "FalseAlarmEvent", "FailureInjector",
           "FailureLog", "SharedStream", "StreamView"]


class FailureEvent(NamedTuple):
    """One real failure hitting the application.

    Immutable, and equal and hashed by value: the simulation keys the
    record of how its prediction was handled by the event itself.  A
    named tuple, so hashing and comparing one run in C and building one
    allocates a single tuple (one is drawn per failure).

    Attributes
    ----------
    time:
        Absolute simulation time of the failure (seconds).
    node:
        Index of the failing node within the application (0..c−1).
    sequence_id:
        Failure chain that produced it (None if unpredicted — the chain
        was not recognized, so no lead time is observable).
    predicted:
        Whether the predictor caught it.
    lead:
        Effective (scaled) lead time; 0 when unpredicted.
    provenance:
        Causal id assigned by the injector (monotonic across the mixed
        failure/false-alarm stream of one injector).  Every trace record
        a simulation emits *because of* this event carries the same id in
        its detail dict under ``"prov"`` — see ``repro.obs.timeline``.
        ``-1`` means "not injector-assigned" (hand-built events in tests).
    """

    time: float
    node: int
    sequence_id: Optional[int]
    predicted: bool
    lead: float
    provenance: int = -1

    @property
    def prediction_time(self) -> float:
        """When the prediction notification fires (= time − lead)."""
        return self.time - self.lead


class FalseAlarmEvent(NamedTuple):
    """A prediction that no failure follows.

    Immutable, equal and hashed by value, and as cheap to build as
    :class:`FailureEvent`.

    Attributes
    ----------
    prediction_time:
        When the (false) prediction notification fires.
    node:
        Node it implicates.
    claimed_lead:
        Lead time the predictor claims; drives the proactive-action choice
        just like a true prediction's lead.
    provenance:
        Causal id assigned by the injector (same counter as
        :attr:`FailureEvent.provenance`; ``-1`` = not injector-assigned).
    """

    prediction_time: float
    node: int
    claimed_lead: float
    provenance: int = -1


class FailureLog:
    """One replication's failure gaps and nodes, in drawing order.

    Injectors of one seed, failure distribution and node count draw
    equal gaps and nodes from their failure child streams, whatever their
    predictor and lead-time model.  Injectors given one log draw each
    failure's gap and node once, from the failure stream of the first
    injector given it (:attr:`rng`); each still draws its own predictions
    and false alarms.  The gap is kept, not only the failure time,
    because a prediction's lead is capped at it.
    """

    __slots__ = ("draws", "rng")

    def __init__(self) -> None:
        #: ``(gap, node)`` of each failure drawn.
        self.draws: List[Tuple[float, int]] = []
        #: The generator every failure is drawn from.
        self.rng: Optional[np.random.Generator] = None


class FailureInjector:
    """Seeded lazy generator of failures and false alarms for one job.

    Parameters
    ----------
    weibull:
        System-level Weibull parameters (Table III); scaled internally to
        the application's node count.
    app_nodes:
        Number of nodes the application occupies.
    lead_model:
        Lead-time mixture used for both true predictions and false alarms.
    predictor:
        Predictor statistics (recall, FP rate, lead scaling).
    rng:
        Dedicated generator; the injector owns its stream.
    log:
        A :class:`FailureLog` shared with other injectors of the same
        seed, failure distribution and node count: this one reads the
        gaps and nodes they drew instead of drawing them again.  ``None``
        (the default) keeps no log.
    """

    def __init__(
        self,
        weibull: WeibullParams,
        app_nodes: int,
        lead_model: LeadTimeModel = PAPER_LEAD_TIME_MODEL,
        predictor: PredictorSpec = DEFAULT_PREDICTOR,
        rng: np.random.Generator | None = None,
        log: Optional[FailureLog] = None,
    ) -> None:
        if app_nodes < 1:
            raise ValueError("app_nodes must be >= 1")
        self.weibull_app = weibull.scaled_to(app_nodes)
        self.app_nodes = int(app_nodes)
        self.lead_model = lead_model
        self.predictor = predictor
        base = rng if rng is not None else np.random.default_rng()
        # Independent child streams so failure arrival times are common
        # random numbers across C/R models: whether a model consumes
        # prediction or false-alarm draws cannot perturb the failures.
        # The n-th failure and the n-th false alarm are therefore the
        # same for every model, which is what lets the models of one
        # campaign replication share one injector (SharedStream).  Gaps
        # and nodes do not depend on the predictor either, so injectors
        # of several predictors can share one log of them (FailureLog).
        rng_failures, self._rng_predict, self._rng_alarms = base.spawn(3)
        self.log = log
        if log is not None:
            if log.rng is None:
                log.rng = rng_failures
            rng_failures = log.rng
        self._failures = 0
        # The draw inputs fixed for the job, bound once: each draw then
        # makes the same generator calls without looking them up.
        self._weibull = rng_failures.weibull
        self._failure_node = rng_failures.integers
        self._predict = self._rng_predict.random
        self._scale_hours = self.weibull_app.scale_hours
        self._shape = self.weibull_app.shape
        self._recall = predictor.recall
        self._lead = lead_model.sample
        self._effective_lead = predictor.effective_lead
        self._alarm_gap = self._rng_alarms.exponential
        self._alarm_node = self._rng_alarms.integers
        self._alarm_rate = predictor.false_alarm_rate(
            predictor.recall * self.app_failure_rate
        )
        self._last_failure_time = 0.0
        self._last_alarm_time = 0.0
        # Monotonic causal-id counter shared by both event streams.  Pure
        # bookkeeping — consumes no RNG draws, so adding provenance ids
        # cannot perturb the common-random-numbers contract above.
        self._next_provenance = 0

    # -- rates -----------------------------------------------------------
    @property
    def app_failure_rate(self) -> float:
        """Mean failures per second for this job."""
        return 1.0 / (self.weibull_app.mtbf_hours * SECONDS_PER_HOUR)

    @property
    def false_alarm_rate(self) -> float:
        """False alarms per second implied by the predictor's FP fraction."""
        return self._alarm_rate

    # -- event streams -------------------------------------------------------
    def next_failure(self) -> FailureEvent:
        """Sample the next failure after the previous one (renewal).

        Draws, in this order: the Weibull gap and the node from the
        failure stream, unless the log has them already, then whether the
        predictor catches it and, if so, the lead time from the prediction
        stream.
        """
        log = self.log
        i = self._failures
        self._failures = i + 1
        if log is not None and i < len(log.draws):
            gap, node = log.draws[i]
        else:
            gap = interarrival_seconds(self._weibull, self._scale_hours,
                                       self._shape)
            node = int(self._failure_node(0, self.app_nodes))
            if log is not None:
                log.draws.append((gap, node))
        t = self._last_failure_time + gap
        self._last_failure_time = t
        prov = self._next_provenance
        self._next_provenance = prov + 1
        # PredictorSpec.predicts on the bound generator method.
        if self._predict() < self._recall:
            seq_id, raw_lead = self._lead(self._rng_predict)
            lead = self._effective_lead(raw_lead)
            # The prediction cannot precede the previous failure's time
            # (the chain starts after the machine is back in service).
            lead = min(lead, gap)
            return FailureEvent(t, node, seq_id, True, lead, prov)
        return FailureEvent(t, node, None, False, 0.0, prov)

    def next_false_alarm(self) -> Optional[FalseAlarmEvent]:
        """Sample the next false alarm, or None if FP rate is zero."""
        rate = self.false_alarm_rate
        if rate <= 0.0:
            return None
        gap = float(self._alarm_gap(1.0 / rate))
        t = self._last_alarm_time + gap
        self._last_alarm_time = t
        node = int(self._alarm_node(0, self.app_nodes))
        _, raw_lead = self._lead(self._rng_alarms)
        prov = self._next_provenance
        self._next_provenance = prov + 1
        return FalseAlarmEvent(t, node, self._effective_lead(raw_lead), prov)

    # -- analysis shortcuts -----------------------------------------------------
    def predictable_fraction(self, threshold_lead: float) -> float:
        """σ-style estimate: P(failure predicted AND scaled lead ≥ θ).

        This is what the C/R models' "failure analysis model" computes to
        plug into Eq. (2).
        """
        if threshold_lead < 0:
            raise ValueError("threshold_lead must be non-negative")
        if threshold_lead == 0.0:
            return self.predictor.recall
        return float(
            self.predictor.recall
            * self.lead_model.survival(threshold_lead / self.predictor.lead_scale)
        )


class SharedStream:
    """One injector's draws, logged for every simulation that reads them.

    Simulations with equal failure streams (the same seed, failure
    distribution, node count, lead-time model and predictor, whatever
    their C/R model) run one replication on one :class:`SharedStream`:
    each reads through its own :meth:`view`.  The first view to need an
    event draws it with :meth:`FailureInjector.next_failure` or
    :meth:`FailureInjector.next_false_alarm` and logs it; the others read
    the log.  By the injector's common-random-numbers contract the
    *n*-th failure and the *n*-th false alarm do not depend on how the
    two kinds of call interleave, so every view sees exactly what a
    private injector of the same seed would deliver.
    """

    def __init__(self, injector: FailureInjector) -> None:
        self.injector = injector
        self.failures: List[FailureEvent] = []
        self.alarms: List[FalseAlarmEvent] = []

    def view(self) -> "StreamView":
        """A fresh reader, positioned at the start of both streams."""
        return StreamView(self)

    def predicted(self, n: int) -> int:
        """How many of the stream's first *n* failures are predicted."""
        log = self.failures
        while len(log) < n:
            log.append(self.injector.next_failure())
        return sum(ev.predicted for ev in log[:n])


class StreamView:
    """One simulation's reader of a :class:`SharedStream`.

    Offers what a simulation uses of :class:`FailureInjector`.
    Provenance ids come from the view's own counter, in its call order,
    exactly as a private injector assigns them: how another simulation
    interleaved failures and false alarms cannot move this one's ids.
    """

    def __init__(self, stream: SharedStream) -> None:
        injector = stream.injector
        self._stream = stream
        self.weibull_app = injector.weibull_app
        self.lead_model = injector.lead_model
        self.predictor = injector.predictor
        self.false_alarm_rate = injector.false_alarm_rate
        self._failures = 0
        self._alarms = 0
        self._next_provenance = 0

    def next_failure(self) -> FailureEvent:
        """The next failure of the shared stream, with this view's id."""
        log = self._stream.failures
        i = self._failures
        if i == len(log):
            log.append(self._stream.injector.next_failure())
        self._failures = i + 1
        ev = log[i]
        prov = self._next_provenance
        self._next_provenance = prov + 1
        if ev.provenance == prov:
            return ev
        return FailureEvent(ev.time, ev.node, ev.sequence_id, ev.predicted,
                            ev.lead, prov)

    def next_false_alarm(self) -> Optional[FalseAlarmEvent]:
        """The next false alarm of the shared stream, or None if FP rate
        is zero."""
        if self.false_alarm_rate <= 0.0:
            return None
        log = self._stream.alarms
        i = self._alarms
        if i == len(log):
            log.append(self._stream.injector.next_false_alarm())
        self._alarms = i + 1
        alarm = log[i]
        prov = self._next_provenance
        self._next_provenance = prov + 1
        if alarm.provenance == prov:
            return alarm
        return FalseAlarmEvent(alarm.prediction_time, alarm.node,
                               alarm.claimed_lead, prov)
