"""Shared-pool campaign execution with dynamic scheduling and caching.

:func:`run_campaign` is the engine under every sweep driver, and under
``run_replications`` whenever it runs on more than one worker: it takes
a flat list of cells, serves what it can from the result store, slices
the rest into replication shards, and runs **all** shards of **all**
cells on one shared :class:`~concurrent.futures.ProcessPoolExecutor` —
the program's only process pool for simulations; no per-cell pool
churn, no idle cores while a small cell finishes.  In process
(``workers=1``) it drains :func:`campaign_steps`, the same campaign as
a generator that yields after each replication; ``pckpt serve`` steps
that generator on its event loop instead.

Cells that differ only in their C/R model draw equal failure streams,
and cells that differ in their predictor too draw equal failure gaps and
nodes, so a shard may cross cell boundaries: it runs a range of
replications of several cells of one failure group
(:meth:`~repro.campaign.plan.CampaignPlan.shards`).  Each of its
replications draws the gaps and nodes once
(:class:`~repro.failures.injector.FailureLog`), and the predictions and
false alarms once per stream group
(:class:`~repro.failures.injector.SharedStream`).  A predictor-blind
configuration runs once per replication: its other cells of the group
take that run as an alias, with the count of predicted failures
recounted on their own stream (:func:`_alias`).  A cell alone in its
group draws its own stream, as ``run_replications(workers=1)`` does.

Determinism is identical to the serial path by construction:

* replication *i* of a cell always runs from the same
  ``SeedSequence.spawn`` child (workers reconstruct child *i* as
  ``SeedSequence(entropy=seed, spawn_key=(i,))``, exactly what
  ``SeedSequence(seed).spawn(n)[i]`` produces), a shared stream
  delivers each cell the events its own injector would, and an alias
  equals the run the cell would have made;
* per-cell outputs are reassembled in replication order before
  aggregation, and aggregation is the runner's own ``_aggregate`` — so a
  campaign result is **bit-identical** to the serial reference loop of
  ``run_replications(workers=1)`` for every worker count, and a cached
  result is bit-identical to a computed one (the store round-trips
  floats exactly).

Robustness: a shard that crashes in a worker is re-run serially in the
parent, cell by cell and replication by replication, so completed work
is never discarded; a failing predictor-blind run fails its shard, and
the retry reruns each of its aliases alone.  A cell whose replication
fails again leaves the campaign's later shards; every other cell still
finishes (and is stored), and then the campaign raises, naming the
failing cell, replication index, and seed.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import (Callable, Dict, Generator, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np
# Loaded here, before the pool forks: numpy imports numpy.random on first
# use, which no campaign parent makes, so each forked worker would import
# it (about 13 ms) after the fork.
import numpy.random  # noqa: F401

from ..experiments.runner import (SimulationResult, _aggregate, _run_once,
                                  shared_stream)
from ..failures.injector import FailureLog, SharedStream
from ..models.base import RunOutput
from ..obs.context import SpanWriter, current as current_trace, \
    current_sink, trace_fragment_dir
from ..obs.telemetry import TELEMETRY_FILENAME, CampaignTelemetry
from .plan import CampaignPlan, CellSpec, SchedCellSpec, WorkUnit
from .progress import CampaignProgress
from .store import ResultStore, StoredResult

__all__ = ["CampaignExecutionError", "campaign_steps", "run_campaign"]


class CampaignExecutionError(RuntimeError):
    """A replication failed even after the serial retry."""


def _spawn_child(seed: int, index: int) -> np.random.SeedSequence:
    """Child *index* of ``SeedSequence(seed)`` without spawning the rest."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _run_one(cell, k: int, stream: Optional[SharedStream] = None):
    """Replication *k* of one cell, dispatched by cell family.

    *stream* is replication *k*'s failure stream when the cell shares it
    with others of its stream group (:func:`_stream`).
    """
    if isinstance(cell, SchedCellSpec):
        from ..sched.engine import run_sched_once

        return run_sched_once(
            cell.workload, cell.policy, cell.platform, cell.weibull,
            cell.lead_model, cell.predictor, _spawn_child(cell.seed, k),
            drain_lanes=cell.drain_lanes,
            background_load=cell.background_load,
            collect_metrics=cell.collect_metrics,
        )
    args = (cell.app, cell.model, cell.platform, cell.weibull,
            cell.lead_model, cell.predictor, _spawn_child(cell.seed, k),
            cell.collect_metrics)
    return _run_once(*args) if stream is None else _run_once(*args, stream)


def _stream(cell: CellSpec, k: int,
            log: Optional[FailureLog] = None) -> SharedStream:
    """Replication *k*'s failure stream for every cell of *cell*'s stream
    group, reading its gaps and nodes from *log* when given."""
    return shared_stream(cell.app, cell.weibull, cell.lead_model,
                         cell.predictor, _spawn_child(cell.seed, k), log)


def _alias(output: RunOutput, stream: SharedStream) -> RunOutput:
    """A predictor-blind run, as a cell reading *stream* would make it.

    The run's failures are the cell's own, so only the count of them
    that were predicted can differ: it is recounted over the first
    ``ft.failures`` failures of *stream*.
    """
    ft = dataclasses.replace(
        output.ft, predicted=stream.predicted(output.ft.failures))
    return dataclasses.replace(output, ft=ft)


def _replication(cells: Sequence[CellSpec], k: int, streams: Sequence[int],
                 runs: Sequence[int]) -> Iterator[Tuple[object, int]]:
    """Replication *k* of a shard's *cells*, one cell per step.

    *streams* and *runs* lay the cells out as
    :class:`~repro.campaign.plan.WorkUnit` does; both are empty for a
    lone cell, which draws its own stream.  Yields each cell's output
    and the position of the cell whose run it is: its own, or the
    predictor-blind run it aliases.  The cells of a shared shard read
    one stream per stream group, and every stream reads the gaps and
    nodes the first one draws.
    """
    if not streams:
        yield _run_one(cells[0], k), 0
        return
    made: List[SharedStream] = []
    outputs: List = []
    log = FailureLog()
    for j, cell in enumerate(cells):
        first = streams[j]
        if first == j:
            stream = _stream(cell, k, log)
        else:
            stream = made[first]
        made.append(stream)
        source = runs[j]
        output = _run_one(cell, k, stream) if source == j else \
            _alias(outputs[source], stream)
        outputs.append(output)
        yield output, source


def _replications(cells: Sequence[CellSpec], rep_start: int, rep_stop: int,
                  streams: Sequence[int] = (), runs: Sequence[int] = (),
                  obs: Optional[Tuple[str, str, str]] = None,
                  sink: Optional[Callable[[bytes], object]] = None
                  ) -> Iterator:
    """Replications [rep_start, rep_stop) of a shard's *cells*, one output
    per step, replication-major; *streams* and *runs* as for
    :func:`_replication`.

    *obs* is ``None`` (the zero-overhead default) or a picklable
    ``(trace_id, parent_span_id, fragment_dir)`` triple: each cell
    replication is then wall-clock timed and appended as one
    ``kernel.run`` span to this process's own fragment file
    (``worker-<pid>.jsonl``), or to *sink* when the caller activated
    one; an alias's span times its recount and names the cell it
    aliases (``alias_of``).  Span ids come from :mod:`secrets`, so
    tracing consumes no simulation RNG and results stay bit-identical.
    """
    if obs is None:
        for k in range(rep_start, rep_stop):
            for output, _ in _replication(cells, k, streams, runs):
                yield output
        return
    trace_id, parent_id, frag_dir = obs
    pid = os.getpid()
    writer = SpanWriter(Path(frag_dir) / f"worker-{pid}.jsonl",
                        trace_id, f"worker/{pid}", sink=sink)
    labels = ["/".join(str(part) for part in cell.key) for cell in cells]
    try:
        for k in range(rep_start, rep_stop):
            t0 = time.time()
            for j, (output, source) in enumerate(
                    _replication(cells, k, streams, runs)):
                args = {"cell": labels[j], "replication": k,
                        "seed": cells[j].seed}
                if source != j:
                    args["alias_of"] = labels[source]
                writer.span("kernel.run", t0, time.time(),
                            parent_id=parent_id, args=args)
                yield output
                t0 = time.time()
    finally:
        writer.close()


def _run_shard(cell: CellSpec, rep_start: int, rep_stop: int,
               obs: Optional[Tuple[str, str, str]] = None,
               sharing: Sequence[CellSpec] = (), streams: Sequence[int] = (),
               runs: Sequence[int] = ()) -> List:
    """Pool worker: replications [rep_start, rep_stop) of one shard.

    The shard is *cell*, and the cells of its failure group *sharing*
    its failure gaps and nodes, laid out by *streams* and *runs*
    (:class:`~repro.campaign.plan.WorkUnit`).  Top-level for pickling.
    Ships the shard's ``CellSpec`` objects instead of a child seed per
    replication, so IPC cost is per-shard, not per-replication.  Outputs
    come as from :func:`_replications`; *obs* as there.
    """
    return list(_replications((cell, *sharing), rep_start, rep_stop,
                              streams, runs, obs))


def _by_cell(outputs: List, n_cells: int) -> List[List]:
    """Replication-major shard outputs, split into one list per cell."""
    return [outputs[j::n_cells] for j in range(n_cells)]


def _rerun_serially(cells: Sequence[CellSpec], unit: WorkUnit,
                    cause: BaseException) -> List:
    """Serial retry of a crashed shard, isolating the failing replication.

    Each cell runs alone, drawing its own stream, which delivers the
    same events as the shared one; an alias reruns its blind run.  Returns one entry per cell: its
    outputs, or the :class:`CampaignExecutionError` naming the
    replication that failed again.
    """
    per_cell: List = []
    for cell in cells:
        outputs: List = []
        try:
            for k in range(unit.rep_start, unit.rep_stop):
                outputs.append(_run_one(cell, k))
        except Exception as exc:
            error = CampaignExecutionError(
                f"cell {cell.key!r}: replication {k} "
                f"(seed={cell.seed}, spawn_key=({k},)) failed in a worker "
                f"({cause!r}) and again on serial retry")
            error.__cause__ = exc
            outputs = error
        per_cell.append(outputs)
    return per_cell


def _default_workers(pending_replications: int) -> int:
    """Pool width for a run count: serial below 8 runs, else one
    process per core (at most one per run).  ``run_replications`` sizes
    its runs with it too."""
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

    Simulated cells (:class:`~repro.campaign.plan.CellSpec`) yield
    :class:`SimulationResult` aggregates; batch-queue cells
    (:class:`~repro.campaign.plan.SchedCellSpec`) yield
    :class:`~repro.sched.engine.SchedResult` aggregates.

    Parameters
    ----------
    cells:
        Grid cells in presentation order, both families freely mixed
        (duplicate configurations are rejected — see
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
    steps = campaign_steps(cells, store, workers, resume, progress,
                           max_shard)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def campaign_steps(
    cells: Sequence[CellSpec],
    store: Optional[ResultStore] = None,
    workers: Optional[int] = None,
    resume: bool = True,
    progress: Optional[CampaignProgress] = None,
    max_shard: Optional[int] = None,
) -> Generator[None, None, Dict[tuple, StoredResult]]:
    """:func:`run_campaign` as a generator, one replication per step.

    In-process (``workers <= 1``) it yields after each executed
    replication of a cell, once the replication's shard and cells are
    recorded if it completed them, and returns ``{cell.key: result}``,
    so a caller can run other work between replications; ``pckpt
    serve`` steps a job's campaign this way on its event loop.  On a
    pool it yields nothing.  The trace context is read at the first
    step.  Arguments as for :func:`run_campaign`.
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

    # Active trace context + store -> span fragments for `obs stitch`,
    # or lines of the sink activated with the context (in this process
    # only).  `obs` ships to workers (picklable strings); the campaign
    # span itself is written at the end, parenting every kernel span.
    obs: Optional[Tuple[str, str, str]] = None
    obs_writer: Optional[SpanWriter] = None
    sink = current_sink()
    run_ctx = None
    t_campaign = time.time()
    if ctx is not None and store is not None:
        frag_dir = trace_fragment_dir(store.root, ctx.trace_id)
        run_ctx = ctx.child()
        obs_writer = SpanWriter(
            frag_dir / f"campaign-{os.getpid()}.jsonl",
            ctx.trace_id, f"campaign/{os.getpid()}", sink=sink,
        )
        obs = (ctx.trace_id, run_ctx.span_id, str(frag_dir))

    results: Dict[int, StoredResult] = {}
    pending: List[int] = []
    progress.campaign_begin(len(plan.cells), plan.total_replications,
                            plan.keys)
    for i, cell in enumerate(plan.cells):
        cached = (store.get(plan.keys[i])
                  if store is not None and resume else None)
        if cached is not None:
            results[i] = cached
            progress.cell_cached(cell)
        else:
            pending.append(i)

    pending_reps = sum(plan.cells[i].replications for i in pending)
    if workers is None:
        workers = _default_workers(pending_reps)
    units = plan.shards(pending, max(workers, 1), max_shard)
    progress.pool_sized(max(workers, 1), len(units))

    # Per-cell reassembly state: shard outputs by rep_start + a countdown.
    shard_outputs: Dict[int, Dict[int, List]] = {i: {} for i in pending}
    shards_left: Dict[int, int] = {i: 0 for i in pending}
    for unit in units:
        for i in unit.cell_indices:
            shards_left[i] += 1

    def finish_cell(i: int) -> None:
        cell = plan.cells[i]
        ordered = []
        for start in sorted(shard_outputs[i]):
            ordered.extend(shard_outputs[i][start])
        if isinstance(cell, SchedCellSpec):
            from ..sched.engine import aggregate_sched

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
        progress.cell_done(cell)

    # A cell whose replication failed again on serial retry leaves the
    # campaign's later shards; the other cells finish before it raises.
    failed: Dict[int, CampaignExecutionError] = {}

    def live(unit: WorkUnit) -> List[int]:
        return [i for i in unit.cell_indices if i not in failed]

    def complete(unit: WorkUnit, indices: Sequence[int], per_cell: List,
                 retried: bool) -> None:
        progress.shard_done(unit, retried=retried)
        for i, outputs in zip(indices, per_cell):
            if isinstance(outputs, CampaignExecutionError):
                failed.setdefault(i, outputs)
            if i in failed:
                continue
            shard_outputs[i][unit.rep_start] = outputs
            shards_left[i] -= 1
            if shards_left[i] == 0:
                finish_cell(i)

    def retry(unit: WorkUnit, cause: BaseException) -> None:
        progress.shard_crashed(unit, cause)
        indices = live(unit)
        complete(unit, indices, _rerun_serially(
            [plan.cells[i] for i in indices], unit, cause), retried=True)

    if workers <= 1:
        for unit in units:
            indices = live(unit)
            if not indices:
                continue
            # A cell that failed left the unit: lay out what is left.
            run = unit if len(indices) == len(unit.cell_indices) else \
                plan.unit(indices, unit.rep_start, unit.rep_stop)
            steps = len(indices) * (unit.rep_stop - unit.rep_start)
            outputs: List = []
            try:
                for output in _replications(
                        [plan.cells[i] for i in indices], run.rep_start,
                        run.rep_stop, run.streams, run.runs, obs, sink):
                    outputs.append(output)
                    if len(outputs) < steps:
                        yield
            except Exception as exc:
                retry(unit, exc)
            else:
                complete(unit, indices, _by_cell(outputs, len(indices)),
                         retried=False)
            # The shard's last step also records it (and its cells).
            yield
    elif units:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_shard, plan.cells[u.cell_index],
                            u.rep_start, u.rep_stop, obs,
                            [plan.cells[i] for i in u.sharing], u.streams,
                            u.runs): u
                for u in units
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    unit = futures[future]
                    try:
                        outputs = future.result()
                    except Exception as exc:
                        retry(unit, exc)
                    else:
                        complete(unit, unit.cell_indices,
                                 _by_cell(outputs, len(unit.cell_indices)),
                                 retried=False)
    if failed:
        raise next(iter(failed.values()))

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
