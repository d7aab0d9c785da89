"""Monte-Carlo experiment runner.

One replication = one :class:`~repro.models.base.CRSimulation` run with a
dedicated child seed.  Replications are embarrassingly parallel: on more
than one worker, :func:`run_replications` hands its cell to
:func:`repro.campaign.scheduler.run_campaign`, whose shared process pool
runs the replication loop (HPC-parallel idiom: keep the inner simulation
single-threaded and simple, parallelize the replication loop) while
staying exactly reproducible — child seeds come from
``SeedSequence.spawn``, so the result is independent of worker count and
scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..analysis.metrics import FTStats, OverheadBreakdown, percent_reduction
from ..des.metrics import MetricsRegistry
from ..failures.injector import FailureInjector, FailureLog, SharedStream
from ..failures.leadtime import PAPER_LEAD_TIME_MODEL, LeadTimeModel
from ..failures.predictor import DEFAULT_PREDICTOR, PredictorSpec
from ..failures.weibull import TITAN_WEIBULL, WeibullParams
from ..models.base import CRSimulation, ModelConfig, RunOutput
from ..models.registry import get_model
from ..platform.system import SUMMIT, PlatformSpec
from ..workloads.applications import ApplicationSpec

__all__ = ["SimulationResult", "simulate_application", "run_replications"]

SECONDS_PER_HOUR = 3600.0


@dataclass
class SimulationResult:
    """Aggregated outcome of one (application, model) cell.

    Attributes
    ----------
    app_name / model_name:
        What was simulated.
    replications:
        Number of Monte-Carlo runs aggregated.
    overhead:
        Mean per-run overhead breakdown (seconds).
    overhead_std:
        Standard deviation of per-run *total* overhead (seconds).
    makespan_seconds:
        Mean wall time to completion.
    ft:
        Event counts summed over all replications (ratios are computed on
        the pooled counts — the paper's "averaged over 1000 runs").
    oci_initial / oci_final:
        Mean first/last checkpoint interval (seconds).
    metrics:
        Merged :class:`~repro.des.metrics.MetricsRegistry` across all
        replications when the run collected metrics, else ``None``.
        Merging happens in replication order, so the result is
        bit-identical regardless of worker count.
    """

    app_name: str
    model_name: str
    replications: int
    overhead: OverheadBreakdown
    overhead_std: float
    makespan_seconds: float
    ft: FTStats
    oci_initial: float
    oci_final: float
    metrics: Optional[MetricsRegistry] = None

    @property
    def total_overhead_hours(self) -> float:
        """Mean total overhead in hours (Fig 6 bar annotations)."""
        return self.overhead.total / SECONDS_PER_HOUR

    @property
    def ft_ratio(self) -> float:
        """Pooled FT ratio across replications."""
        return self.ft.ft_ratio

    def reduction_vs(self, base: "SimulationResult") -> Dict[str, float]:
        """Percent overhead reductions relative to a base-model result.

        Returns the paper's three categories plus the total.
        """
        return {
            "checkpoint": percent_reduction(
                base.overhead.checkpoint_reported, self.overhead.checkpoint_reported
            ),
            "recomputation": percent_reduction(
                base.overhead.recomputation, self.overhead.recomputation
            ),
            "recovery": percent_reduction(
                base.overhead.recovery, self.overhead.recovery
            ),
            "total": percent_reduction(base.overhead.total, self.overhead.total),
        }


def _run_once(
    app: ApplicationSpec,
    config: ModelConfig,
    platform: PlatformSpec,
    weibull: WeibullParams,
    lead_model: LeadTimeModel,
    predictor: PredictorSpec,
    seed_seq,
    collect_metrics: bool = False,
    stream: Optional[SharedStream] = None,
) -> RunOutput:
    """Worker: one replication (top-level for pickling).

    *stream*, when given, is this replication's failure stream shared
    with other cells (:func:`shared_stream` of the same seed): the run
    reads it through its own view instead of drawing its own.
    """
    rng = injector = None
    if stream is not None:
        injector = stream.view()
    else:
        if not isinstance(seed_seq, np.random.SeedSequence):
            seed_seq = np.random.SeedSequence(seed_seq)
        rng = np.random.default_rng(seed_seq)
    sim = CRSimulation(
        app,
        config,
        platform=platform,
        weibull=weibull,
        lead_model=lead_model,
        predictor=predictor,
        rng=rng,
        metrics=MetricsRegistry() if collect_metrics else None,
        injector=injector,
    )
    return sim.run()


def shared_stream(
    app: ApplicationSpec,
    weibull: WeibullParams,
    lead_model: LeadTimeModel,
    predictor: PredictorSpec,
    seed_seq: np.random.SeedSequence,
    log: Optional[FailureLog] = None,
) -> SharedStream:
    """One replication's failure stream, for every cell that shares it.

    Built from the injector :class:`~repro.models.base.CRSimulation`
    would build for the same arguments, so each cell reading it through
    :func:`_run_once` gets the run a private injector would give it.
    *log*, when given, is shared with the streams of other predictors
    of the same seed, failure distribution and node count: the first to
    need a failure's gap and node draws them there, and the others read
    them.
    """
    return SharedStream(FailureInjector(
        weibull, app.nodes, lead_model, predictor,
        rng=np.random.default_rng(seed_seq), log=log))


def _aggregate(
    app: ApplicationSpec, config: ModelConfig, outputs: Sequence[RunOutput]
) -> SimulationResult:
    n = len(outputs)
    mean_overhead = OverheadBreakdown()
    ft = FTStats()
    totals = np.array([o.overhead.total for o in outputs])
    for out in outputs:
        mean_overhead = mean_overhead + out.overhead
        ft = ft + out.ft
    mean_overhead = mean_overhead.scaled(1.0 / n)
    # Metrics snapshots merge in replication order — the outputs sequence
    # is already ordered by replication index regardless of which worker
    # produced each one, so aggregation is parallelism-independent.
    if any(o.metrics is not None for o in outputs):
        metrics = MetricsRegistry.merge_snapshots([o.metrics for o in outputs])
    else:
        metrics = None
    return SimulationResult(
        app_name=app.name,
        model_name=config.name,
        replications=n,
        overhead=mean_overhead,
        overhead_std=float(totals.std()),
        makespan_seconds=float(np.mean([o.makespan for o in outputs])),
        ft=ft,
        oci_initial=float(np.mean([o.oci_initial for o in outputs])),
        oci_final=float(np.mean([o.oci_final for o in outputs])),
        metrics=metrics,
    )


def _resolve_model(model: Union[str, ModelConfig]) -> ModelConfig:
    return get_model(model) if isinstance(model, str) else model


def simulate_application(
    app: ApplicationSpec,
    model: Union[str, ModelConfig],
    platform: PlatformSpec = SUMMIT,
    weibull: WeibullParams = TITAN_WEIBULL,
    lead_model: LeadTimeModel = PAPER_LEAD_TIME_MODEL,
    predictor: PredictorSpec = DEFAULT_PREDICTOR,
    seed: int = 0,
    collect_metrics: bool = False,
) -> SimulationResult:
    """Run a single replication of one application under one model.

    Convenience entry point for examples and quick looks; experiments use
    :func:`run_replications`.
    """
    config = _resolve_model(model)
    out = _run_once(app, config, platform, weibull, lead_model, predictor,
                    seed, collect_metrics)
    return _aggregate(app, config, [out])


def run_replications(
    app: ApplicationSpec,
    model: Union[str, ModelConfig],
    replications: int = 100,
    platform: PlatformSpec = SUMMIT,
    weibull: WeibullParams = TITAN_WEIBULL,
    lead_model: LeadTimeModel = PAPER_LEAD_TIME_MODEL,
    predictor: PredictorSpec = DEFAULT_PREDICTOR,
    seed: int = 0,
    workers: Optional[int] = None,
    collect_metrics: bool = False,
) -> SimulationResult:
    """Monte-Carlo estimate for one (application, model) cell.

    Parameters
    ----------
    replications:
        Number of runs (the paper uses 1000; benchmarks use fewer).
    seed:
        Root seed; children are spawned deterministically per replication.
    workers:
        Process count; ``None`` chooses serial below 8 replications and
        one process per core above; 1 forces the serial loop.  Any other
        count runs the cell on :func:`~repro.campaign.scheduler.run_campaign`'s
        pool, bit-identically to the serial loop.
    collect_metrics:
        Attach a metrics registry to every replication and return the
        merged registry on the result.  Each worker ships back a plain
        snapshot dict; the merge happens in replication order, so the
        aggregate is identical whatever *workers* is.
    """
    # The campaign layer imports this module, so it is imported here.
    from ..campaign.plan import CellSpec
    from ..campaign.scheduler import _default_workers, run_campaign

    if replications < 1:
        raise ValueError("replications must be >= 1")
    config = _resolve_model(model)
    if workers is None:
        workers = _default_workers(replications)
    if workers > 1:
        cell = CellSpec(
            key=(config.name, app.name), app=app, model=config,
            platform=platform, weibull=weibull, lead_model=lead_model,
            predictor=predictor, seed=seed, replications=replications,
            collect_metrics=collect_metrics,
        )
        return run_campaign([cell], workers=workers)[cell.key]
    outputs = [
        _run_once(app, config, platform, weibull, lead_model, predictor,
                  c, collect_metrics)
        for c in np.random.SeedSequence(seed).spawn(replications)
    ]
    return _aggregate(app, config, outputs)
