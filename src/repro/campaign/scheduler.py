"""Shared-pool campaign execution with dynamic scheduling and caching.

:func:`run_campaign` is the engine under every sweep driver: it takes a
flat list of cells, serves what it can from the result store, slices the
rest into replication shards, and runs **all** shards of **all** cells on
one shared :class:`~concurrent.futures.ProcessPoolExecutor` — no
per-cell pool churn, no idle cores while a small cell finishes.

Determinism is identical to the serial path by construction:

* replication *i* of a cell always runs from the same
  ``SeedSequence.spawn`` child (workers reconstruct child *i* as
  ``SeedSequence(entropy=seed, spawn_key=(i,))``, exactly what
  ``SeedSequence(seed).spawn(n)[i]`` produces);
* per-cell outputs are reassembled in replication order before
  aggregation, and aggregation is the runner's own ``_aggregate`` — so a
  campaign result is **bit-identical** to ``run_replications`` for every
  worker count, and a cached result is bit-identical to a computed one
  (the store round-trips floats exactly).

Robustness: a shard that crashes in a worker is re-run serially in the
parent, replication by replication, so completed work is never discarded
and a genuinely failing replication is reported by cell, replication
index, and seed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
# Loaded here, before the pool forks: numpy imports numpy.random on first
# use, which no campaign parent makes, so each forked worker would import
# it (about 13 ms) after the fork.
import numpy.random  # noqa: F401

from ..analysis.sweeps import evaluate_analytical_batch
from ..experiments.runner import SimulationResult, _aggregate, _run_once
from ..obs.context import SpanWriter, current as current_trace, \
    trace_fragment_dir
from ..obs.telemetry import TELEMETRY_FILENAME, CampaignTelemetry
from ..sched.engine import aggregate_sched, run_sched_once
from .plan import AnalyticalCellSpec, CampaignPlan, CellSpec, SchedCellSpec, WorkUnit
from .progress import CampaignProgress
from .store import ResultStore, StoredResult

__all__ = ["CampaignExecutionError", "run_campaign"]


class CampaignExecutionError(RuntimeError):
    """A replication failed even after the serial retry."""


def _spawn_child(seed: int, index: int) -> np.random.SeedSequence:
    """Child *index* of ``SeedSequence(seed)`` without spawning the rest."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _run_one(cell, k: int):
    """Replication *k* of one cell, dispatched by cell family."""
    if isinstance(cell, SchedCellSpec):
        return run_sched_once(
            cell.workload, cell.policy, cell.platform, cell.weibull,
            cell.lead_model, cell.predictor, _spawn_child(cell.seed, k),
            drain_lanes=cell.drain_lanes,
            background_load=cell.background_load,
            collect_metrics=cell.collect_metrics,
        )
    return _run_once(
        cell.app, cell.model, cell.platform, cell.weibull,
        cell.lead_model, cell.predictor,
        _spawn_child(cell.seed, k), cell.collect_metrics,
    )


def _run_shard(cell: CellSpec, rep_start: int, rep_stop: int,
               obs: Optional[Tuple[str, str, str]] = None) -> List:
    """Worker: replications [rep_start, rep_stop) of one cell.

    Top-level for pickling.  Ships one ``CellSpec`` instead of a child
    seed per replication, so IPC cost is per-shard, not per-replication.

    *obs* is ``None`` (the zero-overhead default) or a picklable
    ``(trace_id, parent_span_id, fragment_dir)`` triple: each
    replication is then wall-clock timed and appended as one
    ``kernel.run`` span to this worker process's own fragment file
    (``worker-<pid>.jsonl``) — span ids come from :mod:`secrets`, so
    tracing consumes no simulation RNG and results stay bit-identical.
    """
    if obs is None:
        return [_run_one(cell, k) for k in range(rep_start, rep_stop)]
    trace_id, parent_id, frag_dir = obs
    pid = os.getpid()
    writer = SpanWriter(Path(frag_dir) / f"worker-{pid}.jsonl",
                        trace_id, f"worker/{pid}")
    cell_label = "/".join(str(part) for part in cell.key)
    outputs: List = []
    try:
        for k in range(rep_start, rep_stop):
            t0 = time.time()
            outputs.append(_run_one(cell, k))
            writer.span("kernel.run", t0, time.time(), parent_id=parent_id,
                        args={"cell": cell_label, "replication": k,
                              "seed": cell.seed})
    finally:
        writer.close()
    return outputs


def _rerun_serially(cell: CellSpec, unit: WorkUnit,
                    cause: BaseException) -> List:
    """Serial retry of a crashed shard, isolating the failing replication."""
    outputs = []
    for k in range(unit.rep_start, unit.rep_stop):
        try:
            outputs.append(_run_one(cell, k))
        except Exception as exc:
            raise CampaignExecutionError(
                f"cell {cell.key!r}: replication {k} "
                f"(seed={cell.seed}, spawn_key=({k},)) failed in a worker "
                f"({cause!r}) and again on serial retry"
            ) from exc
    return outputs


def _default_workers(pending_replications: int) -> int:
    """Same heuristic as ``run_replications``: serial below 8 runs."""
    if pending_replications < 8:
        return 1
    return min(os.cpu_count() or 1, pending_replications)


def run_campaign(
    cells: Sequence[CellSpec],
    store: Optional[ResultStore] = None,
    workers: Optional[int] = None,
    resume: bool = True,
    progress: Optional[CampaignProgress] = None,
    max_shard: Optional[int] = None,
) -> Dict[tuple, StoredResult]:
    """Execute a campaign; returns ``{cell.key: result}``.

    Simulated cells yield :class:`SimulationResult` aggregates;
    analytical cells (:class:`~repro.campaign.plan.AnalyticalCellSpec`)
    yield :class:`~repro.analysis.sweeps.AnalyticalResult` objects,
    evaluated in one vectorized closed-form pass with zero DES
    replications.

    Parameters
    ----------
    cells:
        Grid cells in presentation order, simulated and analytical
        freely mixed (duplicate configurations are rejected — see
        :class:`~repro.campaign.plan.CampaignPlan`).
    store:
        Result store for cache hits and persistence (``None`` = compute
        everything, persist nothing).
    workers:
        Shared-pool width; ``None`` = serial below 8 pending
        replications, else one process per core; 1 forces in-process
        execution.
    resume:
        When ``False``, ignore existing store entries (they are
        recomputed and overwritten).
    progress:
        Observer for metrics/trace/status (created internally if
        omitted; pass your own to read the counters afterwards).
    max_shard:
        Upper bound on replications per work unit.
    """
    plan = CampaignPlan(cells)
    ctx = current_trace()
    if progress is None:
        progress = CampaignProgress()
    if store is not None and progress.telemetry is None:
        # A campaign with a store streams live telemetry next to its
        # results; `pckpt top --store <dir>` tails exactly this file.
        progress.telemetry = CampaignTelemetry(
            store.root / TELEMETRY_FILENAME,
            trace_id=ctx.trace_id if ctx is not None else None,
        )

    # Active trace context + store -> span fragments for `obs stitch`.
    # `obs` ships to workers (picklable strings); the campaign span
    # itself is written at the end, parenting every kernel span.
    obs: Optional[Tuple[str, str, str]] = None
    obs_writer: Optional[SpanWriter] = None
    run_ctx = None
    t_campaign = time.time()
    if ctx is not None and store is not None:
        frag_dir = trace_fragment_dir(store.root, ctx.trace_id)
        run_ctx = ctx.child()
        obs_writer = SpanWriter(
            frag_dir / f"campaign-{os.getpid()}.jsonl",
            ctx.trace_id, f"campaign/{os.getpid()}",
        )
        obs = (ctx.trace_id, run_ctx.span_id, str(frag_dir))

    results: Dict[int, StoredResult] = {}
    pending: List[int] = []
    analytical: List[int] = []
    progress.campaign_begin(len(plan.cells), plan.total_replications,
                            plan.keys)
    for i, cell in enumerate(plan.cells):
        cached = (store.get(plan.keys[i])
                  if store is not None and resume else None)
        if cached is not None:
            results[i] = cached
            progress.cell_cached(cell, plan.keys[i])
        elif isinstance(cell, AnalyticalCellSpec):
            analytical.append(i)
        else:
            pending.append(i)

    # Analytical fast path: closed-form cells never reach the DES or the
    # pool — the whole batch is evaluated in one vectorized pass (per
    # model kind) and persisted like any other cell.
    if analytical:
        for i in analytical:
            progress.cell_started(plan.cells[i], i)
        for i, result in zip(
            analytical,
            evaluate_analytical_batch([plan.cells[i] for i in analytical]),
        ):
            cell = plan.cells[i]
            if store is not None:
                store.put(
                    plan.keys[i], result,
                    meta={
                        "cell": [str(part) for part in cell.key],
                        "analytical": cell.kind,
                        "replications": 0,
                    },
                )
            results[i] = result
            progress.cell_done(cell, i)

    pending_reps = sum(plan.cells[i].replications for i in pending)
    if workers is None:
        workers = _default_workers(pending_reps)
    units = plan.shards(pending, max(workers, 1), max_shard)
    progress.pool_sized(max(workers, 1), len(units))

    # Per-cell reassembly state: shard outputs by rep_start + a countdown.
    shard_outputs: Dict[int, Dict[int, List]] = {i: {} for i in pending}
    shards_left: Dict[int, int] = {i: 0 for i in pending}
    for unit in units:
        shards_left[unit.cell_index] += 1
    for i in pending:
        progress.cell_started(plan.cells[i], i)

    def finish_cell(i: int) -> None:
        cell = plan.cells[i]
        ordered = []
        for start in sorted(shard_outputs[i]):
            ordered.extend(shard_outputs[i][start])
        if isinstance(cell, SchedCellSpec):
            result = aggregate_sched(cell.policy, ordered)
            meta = {
                "cell": [str(part) for part in cell.key],
                "sched": cell.policy,
                "jobs": len(cell.workload),
                "seed": cell.seed,
                "replications": cell.replications,
            }
        else:
            result = _aggregate(cell.app, cell.model, ordered)
            meta = {
                "cell": [str(part) for part in cell.key],
                "app": cell.app.name,
                "model": cell.model.name,
                "seed": cell.seed,
                "replications": cell.replications,
            }
        if store is not None:
            store.put(plan.keys[i], result, meta=meta)
        results[i] = result
        del shard_outputs[i]
        progress.cell_done(cell, i)

    def complete(unit: WorkUnit, outputs: List, retried: bool) -> None:
        shard_outputs[unit.cell_index][unit.rep_start] = outputs
        shards_left[unit.cell_index] -= 1
        progress.shard_done(unit, retried=retried)
        if shards_left[unit.cell_index] == 0:
            finish_cell(unit.cell_index)

    if workers <= 1:
        for unit in units:
            cell = plan.cells[unit.cell_index]
            try:
                outputs = _run_shard(cell, unit.rep_start, unit.rep_stop,
                                     obs)
                retried = False
            except Exception as exc:
                progress.shard_crashed(unit, exc)
                outputs = _rerun_serially(cell, unit, exc)
                retried = True
            complete(unit, outputs, retried)
    elif units:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_shard, plan.cells[u.cell_index],
                            u.rep_start, u.rep_stop, obs): u
                for u in units
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    unit = futures[future]
                    cell = plan.cells[unit.cell_index]
                    try:
                        outputs = future.result()
                        retried = False
                    except Exception as exc:
                        progress.shard_crashed(unit, exc)
                        outputs = _rerun_serially(cell, unit, exc)
                        retried = True
                    complete(unit, outputs, retried)

    progress.campaign_end()
    if obs_writer is not None:
        obs_writer.span(
            "campaign.run", t_campaign, time.time(),
            span_id=run_ctx.span_id, parent_id=ctx.span_id,
            args={"cells": len(plan.cells),
                  "replications_total": plan.total_replications,
                  "workers": max(workers, 1), "shards": len(units)},
        )
        obs_writer.close()
    # Present results in plan order, like the serial engines always did.
    return {plan.cells[i].key: results[i] for i in range(len(plan.cells))}
