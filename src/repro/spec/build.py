"""From spec to cells: resolution, grid construction, execution.

This module is the **single place** the (application × model ×
sweep-axis) grid is turned into :class:`repro.campaign.plan.CellSpec`
objects.  Both consumers converge here:

* the declarative path — an :class:`~repro.spec.schema.ExperimentSpec`
  is :func:`resolve`-d into concrete simulation objects and then
  :func:`build_cells` lays out the grid;
* the programmatic path — the sweep engines in
  :mod:`repro.experiments.sweep` construct a :class:`ResolvedExperiment`
  directly from their kwargs (which may carry arbitrary objects a JSON
  document could not name) and call the same :func:`build_cells`.

Because both paths produce identical ``CellSpec`` objects, the
content-addressed cache keys
(:func:`repro.campaign.plan.content_key`) are identical too: a campaign
launched from a spec file hits exactly the store entries a kwargs-driven
invocation wrote, and vice versa.  That is the compatibility path that
keeps every pre-spec store reachable — the parity test in
``tests/test_spec.py`` pins it down.

Grid layout (matching the historical sweep engines exactly):

* no sweep axis — cells keyed ``(model_name, app_name)``; apps outer,
  models inner;
* a sweep axis — one app; cells keyed ``(model_name, value)``; values
  outer, models inner; each value derives a per-column predictor from
  the reference predictor (``with_lead_change`` /
  ``with_false_negative_rate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..failures.leadtime import (
    PAPER_LEAD_TIME_MODEL,
    FailureSequenceSpec,
    LeadTimeModel,
)
from ..failures.predictor import PredictorSpec
from ..failures.weibull import FAILURE_DISTRIBUTIONS, WeibullParams
from ..models.base import ModelConfig
from ..models.registry import get_model
from ..platform.system import SUMMIT, PlatformSpec
from ..workloads.applications import APPLICATIONS, ApplicationSpec
from .schema import ExperimentSpec, SweepAxis

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..campaign.plan import CellSpec
    from ..campaign.progress import CampaignProgress
    from ..campaign.store import ResultStore
    from ..experiments.runner import SimulationResult

__all__ = [
    "ResolvedExperiment",
    "resolve",
    "build_cells",
    "build_sched_cells",
    "cell_keys",
    "run_spec",
    "run_resolved",
]


@dataclass(frozen=True)
class ResolvedExperiment:
    """An experiment grid with every reference resolved to real objects.

    The object-level twin of :class:`~repro.spec.schema.ExperimentSpec`:
    what :func:`build_cells` consumes.  Sweep engines construct it
    directly when their kwargs carry objects a JSON document could not
    express (a custom :class:`PlatformSpec`, an ad-hoc
    :class:`ModelConfig`); :func:`resolve` constructs it from a spec.
    """

    apps: Tuple[ApplicationSpec, ...]
    models: Tuple[ModelConfig, ...]
    platform: PlatformSpec
    weibull: WeibullParams
    lead_model: LeadTimeModel
    predictor: PredictorSpec
    sweep: Optional[SweepAxis] = None
    replications: int = 30
    seed: int = 2022
    collect_metrics: bool = False


def _with_base(models: Sequence[Union[str, ModelConfig]],
               include_base: bool) -> List[Union[str, ModelConfig]]:
    """Prepend the baseline model "B" when missing (and requested)."""
    names = [m if isinstance(m, str) else m.name for m in models]
    work: List[Union[str, ModelConfig]] = list(models)
    if include_base and "B" not in names:
        work.insert(0, "B")
    return work


def _resolve_models(models: Sequence[Union[str, ModelConfig]],
                    include_base: bool) -> Tuple[ModelConfig, ...]:
    return tuple(
        get_model(m) if isinstance(m, str) else m
        for m in _with_base(models, include_base)
    )


def resolve(spec: ExperimentSpec) -> ResolvedExperiment:
    """Resolve every named reference of *spec* into simulation objects.

    The spec is assumed valid (the loader guarantees it); resolution is
    purely mechanical — names → catalogue objects, overrides applied,
    the base model prepended per ``include_base``.
    """
    import dataclasses as _dc

    apps = tuple(APPLICATIONS[a] for a in spec.apps)
    models = _resolve_models(spec.models, spec.include_base)

    platform = SUMMIT
    overrides = {
        k: v
        for k, v in (("total_nodes", spec.platform.total_nodes),
                     ("restart_delay", spec.platform.restart_delay),
                     ("lm_slowdown", spec.platform.lm_slowdown))
        if v is not None
    }
    if overrides:
        platform = _dc.replace(platform, **overrides)

    if spec.failures.base is not None:
        weibull = FAILURE_DISTRIBUTIONS[spec.failures.base]
    else:
        weibull = WeibullParams(
            name=spec.failures.name,
            shape=spec.failures.shape,
            scale_hours=spec.failures.scale_hours,
            system_nodes=spec.failures.system_nodes,
        )

    predictor = PredictorSpec(
        recall=spec.predictor.recall,
        false_positive_rate=spec.predictor.false_positive_rate,
        detection_latency=spec.predictor.detection_latency,
        lead_scale=spec.predictor.lead_scale,
    )

    if isinstance(spec.lead_model, str):
        lead_model = PAPER_LEAD_TIME_MODEL
    else:
        lead_model = LeadTimeModel(tuple(
            FailureSequenceSpec(
                sequence_id=s.sequence_id,
                occurrences=s.occurrences,
                mean_lead=s.mean_lead,
                sd_lead=s.sd_lead,
            )
            for s in spec.lead_model
        ))

    return ResolvedExperiment(
        apps=apps,
        models=models,
        platform=platform,
        weibull=weibull,
        lead_model=lead_model,
        predictor=predictor,
        sweep=spec.sweep,
        replications=spec.replications,
        seed=spec.seed,
        collect_metrics=spec.collect_metrics,
    )


def _axis_predictor(axis: str, value: float,
                    reference: PredictorSpec) -> PredictorSpec:
    """The per-column predictor a sweep-axis value derives."""
    if axis == "lead-change-percent":
        return reference.with_lead_change(value)
    if axis == "fn-rate":
        return reference.with_false_negative_rate(value)
    raise ValueError(f"unknown sweep axis {axis!r}")


def build_cells(experiment: Union[ExperimentSpec, ResolvedExperiment],
                ) -> "List[CellSpec]":
    """Lay the grid out as campaign cells, in presentation order.

    Accepts a validated spec (resolved on the fly) or an already
    resolved experiment.  Cell keys are ``(model_name, column)`` where
    the column is the app name (no sweep) or the axis value (sweep).
    """
    from ..campaign.plan import CellSpec  # deferred: campaign ⇄ experiments

    if isinstance(experiment, ExperimentSpec):
        if experiment.sched is not None:
            return build_sched_cells(experiment)
        experiment = resolve(experiment)

    grid: List[tuple] = []
    if experiment.sweep is None:
        for app in experiment.apps:
            for model in experiment.models:
                grid.append((app.name, app, model, experiment.predictor))
    else:
        if len(experiment.apps) != 1:
            raise ValueError(
                f"a swept experiment needs exactly one app, "
                f"got {len(experiment.apps)}"
            )
        app = experiment.apps[0]
        for value in experiment.sweep.values:
            predictor = _axis_predictor(
                experiment.sweep.axis, value, experiment.predictor
            )
            for model in experiment.models:
                grid.append((value, app, model, predictor))

    return [
        CellSpec(
            key=(model.name, column),
            app=app,
            model=model,
            platform=experiment.platform,
            weibull=experiment.weibull,
            lead_model=experiment.lead_model,
            predictor=predictor,
            seed=experiment.seed,
            replications=experiment.replications,
            collect_metrics=experiment.collect_metrics,
        )
        for column, app, model, predictor in grid
    ]


def build_sched_cells(spec: ExperimentSpec) -> "List":
    """Batch-queue cells for a sched spec, keyed ``("sched", policy)``.

    The workload is synthesized **once** — every policy cell schedules
    the identical job tuple, so differences between cells are purely the
    placement discipline.  A ``sched-policy`` sweep yields one cell per
    policy value; without a sweep the single cell runs ``sched.policy``.
    """
    from ..campaign.plan import SchedCellSpec
    from ..sched.workload import poisson_workload, trace_workload

    if spec.sched is None:
        raise ValueError("build_sched_cells needs a spec with a sched block")
    resolved = resolve(spec)
    model_names = tuple(m.name for m in resolved.models)
    sched = spec.sched
    if isinstance(sched.arrival, str):
        workload = poisson_workload(
            spec.apps, model_names, sched.jobs, seed=spec.seed,
            interarrival_seconds=sched.interarrival_seconds,
            users=sched.users, hours_scale=sched.hours_scale,
            max_nodes=resolved.platform.total_nodes,
        )
    else:
        entries = []
        for e in sched.arrival:
            entry = {"app": e.app, "at": e.at}
            if e.model is not None:
                entry["model"] = e.model
            if e.user is not None:
                entry["user"] = e.user
            if e.nodes is not None:
                entry["nodes"] = e.nodes
            entries.append(entry)
        workload = trace_workload(
            entries, model_names, users=sched.users,
            hours_scale=sched.hours_scale,
            max_nodes=resolved.platform.total_nodes,
        )
    policies = (
        tuple(spec.sweep.values) if spec.sweep is not None
        else (sched.policy,)
    )
    return [
        SchedCellSpec(
            key=("sched", policy),
            workload=workload,
            policy=policy,
            platform=resolved.platform,
            weibull=resolved.weibull,
            lead_model=resolved.lead_model,
            predictor=resolved.predictor,
            seed=spec.seed,
            replications=spec.replications,
            drain_lanes=sched.drain_lanes,
            background_load=sched.background_load,
            collect_metrics=spec.collect_metrics,
        )
        for policy in policies
    ]


def cell_keys(experiment: Union[ExperimentSpec, ResolvedExperiment],
              ) -> List[str]:
    """The content-addressed store key of every cell, in grid order.

    These are exactly the keys a kwargs-driven campaign produces for the
    equivalent configuration — the explicit compatibility path that
    keeps pre-spec store entries reachable.
    """
    from ..campaign.plan import content_key

    return [content_key(cell) for cell in build_cells(experiment)]


def run_resolved(
    experiment: ResolvedExperiment,
    store: "Optional[ResultStore]" = None,
    workers: Optional[int] = None,
    progress: "Optional[CampaignProgress]" = None,
    resume: bool = True,
) -> "Dict[tuple, SimulationResult]":
    """Execute a resolved experiment through the campaign scheduler.

    Returns ``{(model_name, column): SimulationResult}`` in grid order —
    the same shape every sweep engine has always returned.
    """
    from ..campaign.scheduler import run_campaign  # deferred: import cycle

    return run_campaign(build_cells(experiment), store=store,
                        workers=workers, progress=progress, resume=resume)


def run_spec(
    spec: ExperimentSpec,
    store: "Optional[ResultStore]" = None,
    workers: Optional[int] = None,
    progress: "Optional[CampaignProgress]" = None,
    resume: bool = True,
) -> "Dict[tuple, SimulationResult]":
    """Execute a validated spec end to end (resolve → cells → campaign).

    A spec with a ``sched`` block builds batch-queue cells
    (:func:`build_sched_cells`) instead of the (app × model) grid; the
    campaign machinery — store, workers, resume — is identical.
    """
    if spec.sched is not None:
        from ..campaign.scheduler import run_campaign  # deferred cycle

        return run_campaign(build_sched_cells(spec), store=store,
                            workers=workers, progress=progress,
                            resume=resume)
    return run_resolved(resolve(spec), store=store, workers=workers,
                        progress=progress, resume=resume)
