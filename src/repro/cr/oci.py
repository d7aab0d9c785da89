"""Checkpoint-interval control (paper Eqs. 1–2, applied dynamically).

The simulation framework "updates the OCI of each application periodically
using (1) and (2) to better account for a dynamically changing system
failure rate".  :class:`OCIController` encapsulates that logic:

* the failure-rate estimate — either the *oracle* rate implied by the
  configured Weibull distribution (the framework is fed the distribution
  parameters, so this is the paper's setting) or an *online* empirical
  estimate blended with the oracle prior;
* the σ discount of Eq. (2) for LM-capable models.  Crucially, the paper's
  σ does **not** include the predictor's recall — that omission is exactly
  why LM-based models overestimate their mitigation ability as the
  false-negative rate grows (Observation 9), and fixing it is the paper's
  stated future work.  ``sigma_includes_recall=True`` enables that fix
  (exercised by an ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..analysis.young import sigma_adjusted_oci, young_oci
from ..failures.injector import FailureInjector

if TYPE_CHECKING:  # pragma: no cover
    from ..des.metrics import MetricsRegistry
    from ..failures.leadtime import LeadTimeModel
    from ..failures.predictor import PredictorSpec

__all__ = ["OCIController", "SIGMA_MAX", "ASSUMED_RECALL", "lm_sigma"]

#: Eq. (2) requires σ < 1: every σ-OCI (this controller and the batch
#: scheduler's) clamps σ here for pathological thresholds.
SIGMA_MAX = 0.999

#: The predictor recall the failure-analysis model *believes* it has (a
#: design-time constant).  The paper's models keep it at the nominal 85%
#: even when the actual false-negative rate is swept upward — which is
#: exactly why the LM-based models overestimate their mitigation ability
#: in Observation 9.
ASSUMED_RECALL = 0.85


def lm_sigma(
    lead_model: "LeadTimeModel",
    predictor: "PredictorSpec",
    lm_threshold: float,
    sigma_includes_recall: bool,
) -> float:
    """Eq. (2)'s σ — the fraction of failures live migration averts.

    σ = recall × P(lead ≥ θ), on the predictor's lead scale, clamped at
    :data:`SIGMA_MAX`.  The recall is :data:`ASSUMED_RECALL` unless
    *sigma_includes_recall*.  The single σ of :class:`OCIController`
    and the batch scheduler, so both compute it bit for bit alike.
    """
    survival = float(lead_model.survival(lm_threshold / predictor.lead_scale))
    recall = predictor.recall if sigma_includes_recall else ASSUMED_RECALL
    return min(recall * survival, SIGMA_MAX)


@dataclass
class OCIController:
    """Adaptive optimal-checkpoint-interval calculator for one job.

    Parameters
    ----------
    t_ckpt_bb:
        Seconds one periodic checkpoint needs to reach the BBs.
    injector:
        The job's failure injector (provides rates and lead analysis).
    nodes:
        Job node count c.
    use_sigma:
        Apply Eq. (2)'s σ discount (models M2 and P2) instead of Eq. (1).
    lm_threshold:
        θ — seconds a live migration needs; failures with longer lead are
        considered avoidable when computing σ (:func:`lm_sigma`).
    sigma_includes_recall:
        Use the predictor's *actual* recall instead of
        :data:`ASSUMED_RECALL` (the paper's stated future-work fix; off
        by default to match the published model).
    online_estimation:
        Blend the oracle failure rate with the empirically observed rate.
    min_interval:
        Floor on the returned interval (seconds) — guards against
        degenerate parameters driving the interval to zero.
    metrics:
        Optional registry fed an ``oci.interval_seconds`` gauge and
        ``oci.recomputes`` / ``oci.observed_failures`` counters.
    """

    t_ckpt_bb: float
    injector: FailureInjector
    nodes: int
    use_sigma: bool = False
    lm_threshold: float = 0.0
    sigma_includes_recall: bool = False
    online_estimation: bool = False
    min_interval: float = 1.0
    metrics: Optional["MetricsRegistry"] = None

    #: Observed failures (fed by the simulation when online_estimation).
    observed_failures: int = 0
    #: Elapsed simulation time (fed by the simulation).
    observed_time: float = 0.0

    def __post_init__(self) -> None:
        if self.t_ckpt_bb <= 0:
            raise ValueError("t_ckpt_bb must be positive")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.lm_threshold < 0:
            raise ValueError("lm_threshold must be non-negative")
        if self.use_sigma and self.lm_threshold == 0.0:
            raise ValueError("sigma-based OCI requires a positive lm_threshold")
        # σ depends only on the lead-time model, the predictor and θ, all
        # fixed for the job, so it is evaluated once here rather than on
        # every interval().
        self._sigma = 0.0
        if self.use_sigma:
            self._sigma = lm_sigma(
                self.injector.lead_model, self.injector.predictor,
                self.lm_threshold, self.sigma_includes_recall,
            )
        # Without online estimation the rate is the oracle's, so the
        # interval is a job constant too; None means "recompute per call".
        self._fixed_interval: Optional[float] = (
            None if self.online_estimation else self._compute_interval()
        )

    # -- rate estimation -----------------------------------------------------
    def per_node_rate(self) -> float:
        """Current per-node failure-rate estimate (failures/second)."""
        oracle = self.injector.weibull_app.mtbf_hours  # app-level MTBF, hours
        oracle_rate = 1.0 / (oracle * 3600.0 * self.nodes)  # per node per sec
        if not self.online_estimation or self.observed_time <= 0.0:
            return oracle_rate
        # Bayesian-flavoured blend: oracle acts as one pseudo-observation.
        empirical = self.observed_failures / (self.observed_time * self.nodes)
        weight = self.observed_failures / (self.observed_failures + 1.0)
        return weight * empirical + (1.0 - weight) * oracle_rate

    def record_failure(self) -> None:
        """Feed one observed failure into the online estimator."""
        self.observed_failures += 1
        if self.metrics is not None:
            self.metrics.counter("oci.observed_failures").inc()

    def record_time(self, now: float) -> None:
        """Feed the current simulation time into the online estimator."""
        self.observed_time = max(self.observed_time, now)

    # -- sigma ----------------------------------------------------------------
    def sigma(self) -> float:
        """σ — fraction of failures live migration is expected to avert."""
        return self._sigma

    # -- the interval -----------------------------------------------------------
    def interval(self) -> float:
        """Current optimal compute interval between checkpoints (seconds)."""
        oci = self._fixed_interval
        if oci is None:
            oci = self._compute_interval()
        if self.metrics is not None:
            self.metrics.counter("oci.recomputes").inc()
            self.metrics.gauge("oci.interval_seconds").set(oci)
        return oci

    def count_reads(self, oci: float, reads: int) -> None:
        """Meter *reads* reads of the interval *oci* as :meth:`interval` would.

        For a caller that reads a fixed interval once for many segments:
        the metrics end as after one :meth:`interval` call per segment.
        """
        if self.metrics is not None and reads:
            self.metrics.counter("oci.recomputes").inc(reads)
            self.metrics.gauge("oci.interval_seconds").set(oci, times=reads)

    def _compute_interval(self) -> float:
        """Eq. (1) or (2) at the current rate estimate, floored."""
        rate = self.per_node_rate()
        if self.use_sigma:
            oci = sigma_adjusted_oci(self.t_ckpt_bb, rate, self.nodes, self._sigma)
        else:
            oci = young_oci(self.t_ckpt_bb, rate, self.nodes)
        return max(oci, self.min_interval)
