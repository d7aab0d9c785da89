"""The declarative ``ExperimentSpec`` schema (version, fields, dataclasses).

One JSON document describes one experiment grid — the (application ×
model × sweep-axis) cells the paper's evaluation is made of — and every
entry point (``pckpt run``, ``pckpt submit``, the sweep engines in
:mod:`repro.experiments.sweep`, the service layer) consumes the
same document instead of its own ad-hoc kwargs.  The schema is:

* **JSON-serializable** — a spec file round-trips through
  :func:`repro.spec.loader.spec_to_dict` / ``spec_from_dict`` exactly;
* **schema-versioned** — :data:`SPEC_SCHEMA_VERSION` is carried in every
  document and rejected on mismatch, so a stale spec can never be
  silently misread;
* **canonical** — loading materializes every default and expands every
  shorthand (``"apps": "all"``, ``"platform": "summit"``), so
  load → canonicalize → dump is idempotent and
  :func:`repro.spec.loader.spec_hash` is stable;
* **the source of cache keys** — :func:`repro.spec.build.build_cells`
  derives :class:`repro.campaign.plan.CellSpec` objects from the spec,
  and their :func:`~repro.campaign.plan.content_key` hashes are exactly
  the ones the kwargs-driven path has always produced, so existing
  content-addressed store entries remain reachable.

The field inventory lives in the ``*_FIELDS`` tables below;
``tools/check_schemas.py`` fails CI when ``docs/EXPERIMENT_SPEC.md``,
the docstrings in this module, or the committed ``examples/specs/*.json``
files drift from them.  See ``docs/EXPERIMENT_SPEC.md`` for the
user-facing reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..failures.predictor import DEFAULT_PREDICTOR

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SPEC_FIELDS",
    "SWEEP_FIELDS",
    "PREDICTOR_FIELDS",
    "PLATFORM_FIELDS",
    "FAILURES_FIELDS",
    "SEQUENCE_FIELDS",
    "SCHED_FIELDS",
    "SCHED_JOB_FIELDS",
    "SWEEP_AXES",
    "PlatformRef",
    "FailureRef",
    "PredictorRef",
    "SequenceRef",
    "SchedJobRef",
    "SchedRef",
    "SweepAxis",
    "ExperimentSpec",
]

#: Version carried in every spec document.  Bump on any change to the
#: field tables below; the loader rejects documents with another version.
SPEC_SCHEMA_VERSION: int = 1

#: Top-level spec fields: name -> (type tag, required).  Type tags are
#: what :func:`repro.spec.loader.spec_from_dict` validates documents against:
#: ``str`` / ``int`` / ``float`` / ``bool`` are JSON scalars (``float``
#: accepts ints, never booleans), ``list`` a JSON array, ``object`` a
#: JSON object; ``X_or_Y`` accepts either form (shorthands the loader
#: expands into the canonical form).
SPEC_FIELDS: Dict[str, Tuple[str, bool]] = {
    "schema_version": ("int", True),
    "name": ("str", False),
    "apps": ("list_or_str", True),
    "models": ("list", True),
    "include_base": ("bool", False),
    "platform": ("str_or_object", False),
    "failures": ("str_or_object", False),
    "predictor": ("object", False),
    "lead_model": ("str_or_list", False),
    "sweep": ("object_or_null", False),
    "sched": ("object_or_null", False),
    "replications": ("int", False),
    "seed": ("int", False),
    "collect_metrics": ("bool", False),
}

#: ``sweep`` sub-object fields.
SWEEP_FIELDS: Dict[str, Tuple[str, bool]] = {
    "axis": ("str", True),
    "values": ("list", True),
}

#: ``predictor`` sub-object fields (all optional; defaults mirror
#: :data:`repro.failures.predictor.DEFAULT_PREDICTOR`).
PREDICTOR_FIELDS: Dict[str, Tuple[str, bool]] = {
    "recall": ("float", False),
    "false_positive_rate": ("float", False),
    "detection_latency": ("float", False),
    "lead_scale": ("float", False),
}

#: ``platform`` sub-object fields (``"summit"`` is shorthand for
#: ``{"base": "summit"}``; overrides replace the named base's values).
PLATFORM_FIELDS: Dict[str, Tuple[str, bool]] = {
    "base": ("str", True),
    "total_nodes": ("int", False),
    "restart_delay": ("float", False),
    "lm_slowdown": ("float", False),
}

#: ``failures`` sub-object fields.  Either a named distribution
#: (``{"base": "titan"}``, shorthand ``"titan"``) or a fully inline
#: Weibull fit (``name`` + ``shape`` + ``scale_hours`` + ``system_nodes``,
#: no ``base``).
FAILURES_FIELDS: Dict[str, Tuple[str, bool]] = {
    "base": ("str", False),
    "name": ("str", False),
    "shape": ("float", False),
    "scale_hours": ("float", False),
    "system_nodes": ("int", False),
}

#: One entry of an inline ``lead_model`` list (``"paper"`` is the named
#: shorthand for the reverse-engineered Fig 2a mixture).
SEQUENCE_FIELDS: Dict[str, Tuple[str, bool]] = {
    "sequence_id": ("int", True),
    "occurrences": ("int", True),
    "mean_lead": ("float", True),
    "sd_lead": ("float", True),
}

#: ``sched`` sub-object fields (batch-queue experiments; all optional —
#: a bare ``"sched": {}`` runs the default Poisson workload).
SCHED_FIELDS: Dict[str, Tuple[str, bool]] = {
    "policy": ("str", False),
    "jobs": ("int", False),
    "arrival": ("str_or_list", False),
    "interarrival_seconds": ("float", False),
    "users": ("int", False),
    "hours_scale": ("float", False),
    "drain_lanes": ("int", False),
    "background_load": ("float", False),
}

#: One entry of an inline ``sched.arrival`` trace list.
SCHED_JOB_FIELDS: Dict[str, Tuple[str, bool]] = {
    "app": ("str", True),
    "at": ("float", True),
    "model": ("str", False),
    "user": ("str", False),
    "nodes": ("int", False),
}

#: Legal ``sweep.axis`` values and their semantics (documented in
#: docs/EXPERIMENT_SPEC.md):
#: ``lead-change-percent`` — each value is a percent change applied to
#: every prediction lead time (Figs 4/7, Tables II/IV, Fig 8);
#: ``fn-rate`` — each value is a predictor false-negative rate at fixed
#: FP = 18% (Observation 9);
#: ``sched-policy`` — each value is a placement-policy name
#: (``repro.sched.jobs.POLICY_NAMES``); requires a ``sched`` block and
#: is the only axis legal with one.
SWEEP_AXES: Tuple[str, ...] = ("lead-change-percent", "fn-rate", "sched-policy")


@dataclass(frozen=True)
class PlatformRef:
    """Reference to a platform, optionally with scalar overrides.

    Attributes
    ----------
    base:
        Named platform the reference starts from (currently only
        ``"summit"``, the paper's Summit-like machine).
    total_nodes:
        Override of the machine's node count — the knob batch-queue
        (``sched``) experiments use to provoke queueing contention
        (``None`` keeps the base platform's size).
    restart_delay:
        Override of the fixed job-restart latency in seconds
        (``None`` keeps the base platform's value).
    lm_slowdown:
        Override of the fractional application slowdown while a live
        migration is in flight (``None`` keeps the base value).
    """

    base: str = "summit"
    total_nodes: Optional[int] = None
    restart_delay: Optional[float] = None
    lm_slowdown: Optional[float] = None


@dataclass(frozen=True)
class FailureRef:
    """Reference to a Weibull failure-arrival distribution.

    Exactly one of the two forms is populated:

    * **named** — ``base`` is a key of
      :data:`repro.failures.weibull.FAILURE_DISTRIBUTIONS`
      (``"titan"``, ``"lanl-system8"``, ``"lanl-system18"``);
    * **inline** — ``name`` plus the full fit: ``shape`` (Weibull k),
      ``scale_hours`` (λ for the whole reference system) and
      ``system_nodes`` (the reference system's node count).
    """

    base: Optional[str] = None
    name: Optional[str] = None
    shape: Optional[float] = None
    scale_hours: Optional[float] = None
    system_nodes: Optional[int] = None


@dataclass(frozen=True)
class PredictorRef:
    """Failure-predictor statistics (defaults = the paper's predictor).

    Attributes
    ----------
    recall:
        P(a real failure is predicted); 1 − false-negative rate.
    false_positive_rate:
        Fraction of emitted predictions that are false alarms.
    detection_latency:
        Seconds between chain onset and the prediction being available.
    lead_scale:
        Multiplier on every lead time (1.0 = reference).
    """

    recall: float = DEFAULT_PREDICTOR.recall
    false_positive_rate: float = DEFAULT_PREDICTOR.false_positive_rate
    detection_latency: float = DEFAULT_PREDICTOR.detection_latency
    lead_scale: float = DEFAULT_PREDICTOR.lead_scale


@dataclass(frozen=True)
class SequenceRef:
    """One inline lead-time mixture component (one Fig 2a box).

    Attributes
    ----------
    sequence_id:
        1-based id (the paper's x-axis ordering).
    occurrences:
        Occurrence count in the mined logs (mixture weight).
    mean_lead / sd_lead:
        Mean and standard deviation of the lead time in seconds.
    """

    sequence_id: int
    occurrences: int
    mean_lead: float
    sd_lead: float


@dataclass(frozen=True)
class SchedJobRef:
    """One explicit ``sched.arrival`` trace entry.

    Attributes
    ----------
    app:
        Table-I application name.
    at:
        Submission time in simulated seconds.
    model / user / nodes:
        Optional overrides; ``None`` falls back to the workload defaults
        (model-pool cycling, round-robin users, Table-I width).
    """

    app: str
    at: float
    model: Optional[str] = None
    user: Optional[str] = None
    nodes: Optional[int] = None


@dataclass(frozen=True)
class SchedRef:
    """Batch-queue workload parameters (the ``sched`` block).

    Attributes
    ----------
    policy:
        Placement policy (:data:`repro.sched.jobs.POLICY_NAMES`); a
        ``sched-policy`` sweep overrides this per column.
    jobs:
        Workload size for Poisson arrivals (ignored for a trace).
    arrival:
        ``"poisson"`` or an inline tuple of :class:`SchedJobRef` trace
        entries.
    interarrival_seconds:
        Mean of the exponential interarrival gap (Poisson only).
    users:
        Synthetic tenants jobs are assigned to round-robin.
    hours_scale:
        Multiplier on each application's Table-I compute hours (scales
        demand, not the checkpoint physics).
    drain_lanes:
        Concurrent BB→PFS transfers machine-wide (shared by all jobs).
    background_load:
        External PFS utilization in [0, 1); bandwidth derates by 1−load.
    """

    policy: str = "fcfs"
    jobs: int = 16
    arrival: object = "poisson"  # "poisson" | Tuple[SchedJobRef, ...]
    interarrival_seconds: float = 900.0
    users: int = 4
    hours_scale: float = 1.0
    drain_lanes: int = 2
    background_load: float = 0.0


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter axis crossed with the (app × model) grid.

    Attributes
    ----------
    axis:
        One of :data:`SWEEP_AXES` (``"lead-change-percent"``,
        ``"fn-rate"`` or ``"sched-policy"``).
    values:
        The axis points, in presentation order.  Each value produces one
        grid column; cells are keyed ``(model_name, value)`` — numbers
        for the predictor axes, policy-name strings for
        ``sched-policy``.
    """

    axis: str
    values: Tuple[object, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment grid (the schema's root document).

    Every field maps 1:1 onto a key of the JSON document (see
    :data:`SPEC_FIELDS` and ``docs/EXPERIMENT_SPEC.md``).  Instances are
    canonical: shorthands are already expanded and defaults materialized
    by :func:`repro.spec.loader.spec_from_dict`.

    Attributes
    ----------
    schema_version:
        Must equal :data:`SPEC_SCHEMA_VERSION` (carried in the document
        so stale files are rejected, not misread).
    name:
        Optional human-readable label.  Informational only — it names
        the experiment, not the computation, and never enters any
        config-hash.
    apps:
        Application names (Table I), in presentation order.  The JSON
        shorthand ``"all"`` loads as the full catalogue in paper order.
    models:
        C/R model names resolved through
        :func:`repro.models.registry.get_model` (``"B"``, ``"M1"``,
        ``"M2"``, ``"P1"``, ``"P2"`` and variants like ``"M2-2.5"``,
        ``"P2-fn"``, ``"P1-sync"``).
    include_base:
        Prepend the baseline model ``"B"`` when missing (default true),
        so overhead reductions can always be computed.
    platform:
        :class:`PlatformRef` — the machine the cells run on.
    failures:
        :class:`FailureRef` — the Weibull failure-arrival distribution.
    predictor:
        :class:`PredictorRef` — predictor statistics; sweep axes derive
        per-column predictors from this reference point.
    lead_model:
        ``"paper"`` (the Fig 2a mixture) or an inline tuple of
        :class:`SequenceRef` components.
    sweep:
        Optional :class:`SweepAxis`.  Without one, cells are keyed
        ``(model_name, app_name)``; with one, exactly one app is
        required (except ``sched-policy``, which consumes the whole app
        mix) and cells are keyed ``(model_name, value)``.
    sched:
        Optional :class:`SchedRef`.  When present the spec describes a
        batch-queue experiment: ``apps`` is the workload's application
        mix, ``models`` the C/R pool jobs cycle through, and the only
        legal sweep axis is ``sched-policy``.
    replications:
        Monte-Carlo runs aggregated per cell (the paper used 1000).
    seed:
        Root seed; replication *i* of every cell runs from
        ``SeedSequence(seed)``'s *i*-th spawned child.
    collect_metrics:
        Attach a metrics registry to every replication.
    """

    schema_version: int = SPEC_SCHEMA_VERSION
    name: Optional[str] = None
    apps: Tuple[str, ...] = ()
    models: Tuple[str, ...] = ()
    include_base: bool = True
    platform: PlatformRef = field(default_factory=PlatformRef)
    failures: FailureRef = field(default_factory=lambda: FailureRef(base="titan"))
    predictor: PredictorRef = field(default_factory=PredictorRef)
    lead_model: object = "paper"  # "paper" | Tuple[SequenceRef, ...]
    sweep: Optional[SweepAxis] = None
    sched: Optional[SchedRef] = None
    replications: int = 30
    seed: int = 2022
    collect_metrics: bool = False
