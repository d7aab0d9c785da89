"""Campaign planning: cells, shards, and content-addressed cache keys.

A **cell** is one Monte-Carlo grid point — the full configuration tuple
(application, model, platform, failure distribution, lead-time model,
predictor, root seed, replication count).  Cells whose failure streams
are equal — they differ only in their C/R model or platform — form a
**stream group** (:func:`stream_key`).  Cells whose failure gaps and
nodes are equal — they may differ in their predictor and lead-time
model too — form a **failure group** (:func:`failure_key`).  A
**shard** is a contiguous slice of replications of one cell, or of
several cells of one failure group, the unit of work the scheduler
hands to the shared process pool.  A shared shard draws each
replication's gaps and nodes once, runs the cells of each stream group
on one stream, and runs a predictor-blind configuration
(:attr:`~repro.models.base.ModelConfig.predictor_blind`) once: its
other cells of the group take that run as an **alias**
(:func:`blind_key`).

Cache keys are SHA-256 hashes of a canonical JSON rendering of the whole
configuration plus the store schema version, so

* the same configuration hashes identically in every process and on
  every platform (no dependence on ``PYTHONHASHSEED`` or object ids);
* changing *any* field — one predictor rate, one Weibull parameter, the
  seed, the replication count, the code schema — produces a new key;
* floats are rendered with ``float.hex()``, so keys distinguish values
  that differ in the last ulp.

``docs/CAMPAIGN.md`` documents the full key-field inventory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..failures.leadtime import LeadTimeModel
from ..failures.predictor import PredictorSpec
from ..failures.weibull import WeibullParams
from ..models.base import ModelConfig
from ..platform.system import PlatformSpec
from ..workloads.applications import ApplicationSpec
from .store import SCHEMA_VERSION

__all__ = [
    "CellSpec",
    "SchedCellSpec",
    "WorkUnit",
    "CampaignPlan",
    "canonical_config",
    "content_key",
    "failure_key",
    "stream_key",
    "blind_key",
]


def _canonical(obj: object) -> object:
    """Render *obj* as JSON-serializable data with a stable, exact form.

    Dataclasses serialize field-by-field with their type name; floats use
    ``float.hex()`` (exact, locale-free); generic objects fall back to
    their public ``__dict__``.  Raises ``TypeError`` for anything without
    a well-defined canonical form (e.g. callables) rather than silently
    hashing an unstable ``repr``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return [_canonical(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, object] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, LeadTimeModel):
        # Not a dataclass; its content is fully determined by the
        # sequence mixture (weights are derived from occurrences).
        return {"__type__": "LeadTimeModel",
                "sequences": _canonical(obj.sequences)}
    if hasattr(obj, "__dict__"):
        public = {k: v for k, v in vars(obj).items() if not k.startswith("_")}
        out = {"__type__": type(obj).__name__}
        for k, v in sorted(public.items()):
            out[k] = _canonical(v)
        return out
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for cache keying"
    )


@dataclass(frozen=True, eq=False)
class CellSpec:
    """One grid cell: the full configuration of a Monte-Carlo aggregate.

    Attributes
    ----------
    key:
        The caller-facing grid key, e.g. ``("P2", "POP")`` or
        ``("M2", -50)`` — what the sweep engines use in their result
        dicts.  **Not** part of the cache key (it names the slot, not the
        computation).
    app / model / platform / weibull / lead_model / predictor:
        The simulation configuration (model must be resolved to a
        :class:`ModelConfig`, not a registry name).
    seed:
        Root seed; replication *i* runs from ``SeedSequence(seed)``'s
        *i*-th spawned child.
    replications:
        Monte-Carlo runs aggregated into this cell.
    collect_metrics:
        Attach a metrics registry to every replication.
    """

    key: tuple
    app: ApplicationSpec
    model: ModelConfig
    platform: PlatformSpec
    weibull: WeibullParams
    lead_model: LeadTimeModel
    predictor: PredictorSpec
    seed: int
    replications: int
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True, eq=False)
class SchedCellSpec:
    """One batch-queue grid point: a workload × policy schedule.

    The campaign scheduler routes these through
    :func:`repro.sched.engine.run_sched_once` — replication *k* runs the
    whole workload once from ``SeedSequence(seed)``'s *k*-th spawned
    child — and aggregates with
    :func:`repro.sched.engine.aggregate_sched`, caching the
    :class:`~repro.sched.engine.SchedResult` in the same store as
    simulated cells.

    Attributes
    ----------
    key:
        Caller-facing grid key, e.g. ``("sched", "easy")``; names the
        slot, not the computation, exactly like :attr:`CellSpec.key`.
    workload:
        The :class:`~repro.sched.jobs.SchedJob` tuple to schedule.
    policy:
        Placement policy name (``repro.sched.jobs.POLICY_NAMES``).
    platform / weibull / lead_model / predictor:
        Machine and failure physics shared by every job.
    drain_lanes / background_load:
        Shared-storage contention parameters.
    seed / replications / collect_metrics:
        As on :class:`CellSpec`.
    """

    key: tuple
    workload: tuple
    policy: str
    platform: PlatformSpec
    weibull: WeibullParams
    lead_model: LeadTimeModel
    predictor: PredictorSpec
    seed: int
    replications: int
    drain_lanes: int = 2
    background_load: float = 0.0
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.workload:
            raise ValueError("workload cannot be empty")


def canonical_config(
    cell: "Union[CellSpec, SchedCellSpec]",
) -> Dict[str, object]:
    """The cell's full configuration in canonical (hash-input) form.

    Sched cells hash ``{schema_version, sched policy, workload, ...}`` —
    a shape disjoint from simulation cells, so the two families can
    never collide on a store key, and simulation-cell keys are exactly
    what they were before sched cells existed.
    """
    if isinstance(cell, SchedCellSpec):
        return {
            "schema_version": SCHEMA_VERSION,
            "sched": cell.policy,
            "workload": _canonical(cell.workload),
            "platform": _canonical(cell.platform),
            "weibull": _canonical(cell.weibull),
            "lead_model": _canonical(cell.lead_model),
            "predictor": _canonical(cell.predictor),
            "drain_lanes": int(cell.drain_lanes),
            "background_load": _canonical(float(cell.background_load)),
            "seed": int(cell.seed),
            "replications": int(cell.replications),
            "collect_metrics": bool(cell.collect_metrics),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "app": _canonical(cell.app),
        "model": _canonical(cell.model),
        "platform": _canonical(cell.platform),
        "weibull": _canonical(cell.weibull),
        "lead_model": _canonical(cell.lead_model),
        "predictor": _canonical(cell.predictor),
        "seed": int(cell.seed),
        "replications": int(cell.replications),
        "collect_metrics": bool(cell.collect_metrics),
    }


def content_key(
    cell: "Union[CellSpec, SchedCellSpec]",
) -> str:
    """Stable SHA-256 content hash of the cell configuration (64 hex)."""
    blob = json.dumps(canonical_config(cell), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stream_key(cell: "Union[CellSpec, SchedCellSpec]") -> Optional[str]:
    """What fixes a simulated cell's failure streams, or None (sched cells).

    Two cells with the same key draw the same failures and false alarms
    in every replication: the injector depends on the seed, the failure
    distribution, the application's node count, the lead-time model and
    the predictor, not on the C/R model.  The replication count is part
    of the key so a shared shard covers the same replications of each
    of its cells.
    """
    if isinstance(cell, SchedCellSpec):
        return None
    return json.dumps(
        [int(cell.seed), int(cell.replications), int(cell.app.nodes),
         _canonical(cell.weibull), _canonical(cell.lead_model),
         _canonical(cell.predictor)],
        sort_keys=True, separators=(",", ":"))


def failure_key(cell: "Union[CellSpec, SchedCellSpec]") -> Optional[str]:
    """What fixes a simulated cell's failure gaps and nodes, or None.

    :func:`stream_key` without the lead-time model and the predictor:
    the injector draws gaps and nodes from a child stream of its own, so
    cells with the same key draw the same failure times and nodes in
    every replication whatever they predict.
    """
    if isinstance(cell, SchedCellSpec):
        return None
    return json.dumps(
        [int(cell.seed), int(cell.replications), int(cell.app.nodes),
         _canonical(cell.weibull)],
        sort_keys=True, separators=(",", ":"))


def blind_key(cell: CellSpec) -> str:
    """What fixes a predictor-blind cell's runs: its configuration without
    the lead-time model and the predictor.

    Two predictor-blind cells with the same key run alike in every
    replication, except for how many of their failures were predicted.
    """
    config = canonical_config(cell)
    del config["lead_model"], config["predictor"]
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable slice: replications [rep_start, rep_stop) of a cell.

    *sharing* names further cells of the first one's failure group: the
    unit then draws each replication's gaps and nodes once for all of
    them.  *streams* and *runs* say, for each cell of
    :attr:`cell_indices` by position, the position of the first cell
    with its failure stream (which all of them read), and the position
    of the cell whose run it takes: its own, or an earlier one's of the
    same predictor-blind configuration, whose output it aliases.
    """

    cell_index: int
    rep_start: int
    rep_stop: int
    sharing: Tuple[int, ...] = ()
    streams: Tuple[int, ...] = ()
    runs: Tuple[int, ...] = ()

    @property
    def cell_indices(self) -> Tuple[int, ...]:
        return (self.cell_index,) + self.sharing

    @property
    def replications(self) -> int:
        """Cell replications the unit delivers, aliases included."""
        return (self.rep_stop - self.rep_start) * (1 + len(self.sharing))


class CampaignPlan:
    """A flattened sweep: every cell, each with its cache key.

    Parameters
    ----------
    cells:
        Grid cells in the order the caller's result dict should present
        them — simulated (:class:`CellSpec`) and batch-queue
        (:class:`SchedCellSpec`) cells may be freely mixed.
        Duplicate cache keys are rejected — two cells with the same full
        configuration would race on one store entry.
    """

    def __init__(
        self, cells: "Sequence[Union[CellSpec, SchedCellSpec]]"
    ) -> None:
        self.cells: "Tuple[Union[CellSpec, SchedCellSpec], ...]" = \
            tuple(cells)
        self.keys: Tuple[str, ...] = tuple(content_key(c) for c in self.cells)
        seen: Dict[str, int] = {}
        for i, k in enumerate(self.keys):
            if k in seen:
                raise ValueError(
                    f"duplicate cell configuration: cells {seen[k]} and {i} "
                    f"({self.cells[seen[k]].key!r} / {self.cells[i].key!r}) "
                    f"hash to the same cache key"
                )
            seen[k] = i

    @property
    def total_replications(self) -> int:
        """Replications across all cells (cache state not considered)."""
        return sum(c.replications for c in self.cells)

    def unit(self, indices: Sequence[int], rep_start: int,
             rep_stop: int) -> WorkUnit:
        """Replications [rep_start, rep_stop) of cells *indices*, which
        are one cell or cells of one failure group, laid out to share."""
        if len(indices) == 1:
            return WorkUnit(indices[0], rep_start, rep_stop)
        firsts: Dict[Optional[str], int] = {}
        blind: Dict[str, int] = {}
        streams: List[int] = []
        runs: List[int] = []
        for j, i in enumerate(indices):
            cell = self.cells[i]
            streams.append(firsts.setdefault(stream_key(cell), j))
            runs.append(blind.setdefault(blind_key(cell), j)
                        if cell.model.predictor_blind else j)
        return WorkUnit(indices[0], rep_start, rep_stop, tuple(indices[1:]),
                        tuple(streams), tuple(runs))

    def shards(self, cell_indices: Sequence[int], workers: int,
               max_shard: Optional[int] = None) -> List[WorkUnit]:
        """Slice the given cells into pool-sized work units.

        Targets ~4 shards per worker across the whole campaign so the
        shared pool stays busy near the tail without drowning in IPC;
        *max_shard* caps the shard size explicitly.  Sizes count cell
        replications.  Cells of one failure group (:func:`failure_key`)
        share units: each unit runs a range of replications of several
        of them.  A group gets at least as many units as its simulated
        cells (aliases not counted) would get alone, and no unit is
        larger than the largest per-cell unit; a group that cannot meet
        both is split in halves, down to single cells, which are sliced
        cell by cell.  Sharding never affects results — aggregation
        reassembles each cell's outputs in replication order.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        pending = sum(self.cells[i].replications for i in cell_indices)
        if not pending:
            return []
        target = max(1, math.ceil(pending / (workers * 4)))
        if max_shard is not None:
            target = max(1, min(target, max_shard))
        largest = min(target,
                      max(self.cells[i].replications for i in cell_indices))
        groups: Dict[object, List[int]] = {}
        for i in cell_indices:
            # A lone pending cell shares with no one: no key to compute.
            key = failure_key(self.cells[i]) if len(cell_indices) > 1 \
                else None
            groups.setdefault(i if key is None else key, []).append(i)
        units: List[WorkUnit] = []
        for group in groups.values():
            if len(group) > 1:
                # Predictor-blind cells first, so a group split in halves
                # keeps them, and their aliases, together.
                group.sort(
                    key=lambda i: not self.cells[i].model.predictor_blind)
            units.extend(self._group_units(group, target, largest))
        return units

    def _group_units(self, group: List[int], target: int,
                     largest: int) -> List[WorkUnit]:
        """Units of cells with one failure key."""
        reps = self.cells[group[0]].replications
        if len(group) == 1:
            return [WorkUnit(group[0], start, min(start + target, reps))
                    for start in range(0, reps, target)]
        # A unit of w cells holds w cell replications per replication,
        # so at most `largest` cells share one.
        if len(group) <= largest:
            layout = self.unit(group, 0, reps)
            simulated = sum(j == r for j, r in enumerate(layout.runs))
            # Enough units to match the simulated cells sliced alone and
            # to keep each within `largest` cell replications;
            # equal-sized, so no short tail.
            n = max(simulated * math.ceil(reps / target),
                    math.ceil(reps / (largest // len(group))))
            if n <= reps:
                bounds = [reps * j // n for j in range(n + 1)]
                return [dataclasses.replace(layout, rep_start=bounds[j],
                                            rep_stop=bounds[j + 1])
                        for j in range(n)]
        half = (len(group) + 1) // 2
        return (self._group_units(group[:half], target, largest)
                + self._group_units(group[half:], target, largest))
