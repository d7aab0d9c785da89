"""Schedule Gantt/occupancy exports: *see* a batch-queue run.

The PR-9 scheduler layer reports aggregate statistics (makespan,
utilization, wait percentiles), but a schedule is fundamentally a
picture: which jobs sat on which nodes when, where the backfill holes
were, where failures struck and drains ran.  This module renders one
traced replication of a workload × policy cell two ways:

* a **schema-versioned JSON payload** (:data:`GANTT_FIELDS` /
  :data:`GANTT_ROW_FIELDS`, validated by ``tools/check_schemas.py
  --gantt``): one row per job with its placement intervals and
  drain/failure overlay times — machine-readable ground truth for
  plotting or regression checks;
* a **Chrome-trace file** (Perfetto-viewable): one pid per node band
  (a distinct half-open node-id range some placement used), each job a
  complete ``X`` span on every band it occupied, with ``sched.drain``
  and ``sched.failure`` instants overlaid at their simulation times.

Overlay times come from the engine's own :class:`~repro.des.monitor.Trace`
(kinds ``sched.drain`` / ``sched.failure``), so the picture and the
kernel agree by construction.  ``pckpt sched gantt`` is the CLI face.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, List, Optional, Sequence, Union

__all__ = [
    "GANTT_SCHEMA_VERSION",
    "GANTT_KIND",
    "GANTT_FIELDS",
    "GANTT_ROW_FIELDS",
    "build_gantt",
    "run_gantt",
    "gantt_to_chrome",
    "format_gantt",
]

#: Schema version stamped on every Gantt payload (bump on layout change).
GANTT_SCHEMA_VERSION: int = 1

#: Record discriminator for Gantt payloads.
GANTT_KIND: str = "pckpt-gantt"

#: Payload fields: ``{name: (type, nullable)}`` — the single source of
#: truth shared with ``tools/check_schemas.py`` and the docs.
GANTT_FIELDS: Dict[str, tuple] = {
    "kind": (str, False),
    "schema_version": (int, False),
    "policy": (str, False),
    "seed": (int, False),
    "jobs": (int, False),
    "total_nodes": (int, False),
    "makespan_seconds": (float, False),
    "utilization": (float, False),
    "starved": (list, False),
    "rows": (list, False),
}

#: Per-job row fields.  ``start_s``/``end_s`` are null for starved
#: (never-placed) jobs; ``intervals`` are the half-open ``[lo, hi)``
#: node-id ranges the placement assigned; ``drain_times`` /
#: ``failure_times`` are the overlay instants from the engine trace.
GANTT_ROW_FIELDS: Dict[str, tuple] = {
    "id": (int, False),
    "name": (str, False),
    "user": (str, False),
    "model": (str, False),
    "nodes": (int, False),
    "submit_s": (float, False),
    "start_s": (float, True),
    "end_s": (float, True),
    "intervals": (list, False),
    "checkpoints": (int, False),
    "drains": (int, False),
    "drain_times": (list, False),
    "failure_times": (list, False),
}


def build_gantt(output, policy: str, total_nodes: int, seed: int,
                trace=None) -> Dict[str, Any]:
    """Assemble the :data:`GANTT_FIELDS` payload for one replication.

    *output* is a :class:`~repro.sched.engine.SchedRunOutput`; *trace*
    (optional) is the :class:`~repro.des.monitor.Trace` the run emitted
    into — its ``sched.drain`` / ``sched.failure`` instants become the
    per-job overlay times (empty lists without a trace).
    """
    drain_times: Dict[str, List[float]] = {}
    failure_times: Dict[str, List[float]] = {}
    if trace is not None:
        for rec in trace.filter(kind="sched.drain"):
            drain_times.setdefault(str(rec.detail), []).append(rec.time)
        for rec in trace.filter(kind="sched.failure"):
            failure_times.setdefault(str(rec.detail), []).append(rec.time)
    rows: List[Dict[str, Any]] = []
    for rec in output.records:
        job = rec.job
        rows.append({
            "id": job.id,
            "name": job.name,
            "user": job.user,
            "model": job.model,
            "nodes": job.nodes,
            "submit_s": float(job.arrival),
            "start_s": None if rec.start is None else float(rec.start),
            "end_s": None if rec.end is None else float(rec.end),
            "intervals": [[int(lo), int(hi)] for lo, hi in rec.intervals],
            "checkpoints": int(rec.checkpoints),
            "drains": int(rec.drains),
            "drain_times": sorted(drain_times.get(job.name, [])),
            "failure_times": sorted(failure_times.get(job.name, [])),
        })
    return {
        "kind": GANTT_KIND,
        "schema_version": GANTT_SCHEMA_VERSION,
        "policy": policy,
        "seed": int(seed),
        "jobs": len(rows),
        "total_nodes": int(total_nodes),
        "makespan_seconds": float(output.makespan_seconds),
        "utilization": float(output.utilization),
        "starved": list(output.starved),
        "rows": rows,
    }


def run_gantt(policy: str = "easy", n_jobs: int = 16, seed: int = 0,
              hours_scale: float = 0.1,
              interarrival_seconds: float = 900.0) -> Dict[str, Any]:
    """Run one traced replication of the baseline workload and export it.

    Same workload construction as the committed scheduler baseline
    (:func:`repro.sched.bench.run_baseline`), one replication, with an
    engine :class:`~repro.des.monitor.Trace` attached for the
    drain/failure overlays.  Deterministic in (policy, n_jobs, seed).
    """
    import numpy as np

    from ..des.monitor import Trace
    from ..failures.leadtime import PAPER_LEAD_TIME_MODEL
    from ..failures.predictor import DEFAULT_PREDICTOR
    from ..failures.weibull import TITAN_WEIBULL
    from ..platform.system import SUMMIT
    from ..sched.bench import BASELINE_MODELS
    from ..sched.engine import SchedSimulation
    from ..sched.workload import poisson_workload

    workload = poisson_workload(
        (), BASELINE_MODELS, n_jobs, seed=seed,
        interarrival_seconds=interarrival_seconds,
        hours_scale=hours_scale,
    )
    trace = Trace(env=None)  # engine re-binds trace.env
    sim = SchedSimulation(
        workload, policy=policy, platform=SUMMIT, weibull=TITAN_WEIBULL,
        lead_model=PAPER_LEAD_TIME_MODEL, predictor=DEFAULT_PREDICTOR,
        seed_seq=np.random.SeedSequence(entropy=seed, spawn_key=(0,)),
        trace=trace,
    )
    output = sim.run()
    return build_gantt(output, policy, SUMMIT.total_nodes, seed,
                       trace=trace)


def gantt_to_chrome(payload: Dict[str, Any],
                    path_or_fp: Union[str, os.PathLike, IO[str]],
                    time_scale: float = 1e6) -> int:
    """Write a Gantt payload as a Chrome-trace file (Perfetto-viewable).

    One pid per node band — a distinct ``[lo, hi)`` interval some
    placement used, ordered by node id — with each job a complete
    ``X`` span on every band it occupied and its drain/failure overlay
    instants on the same bands.  Simulation seconds are scaled by
    *time_scale* into the format's microsecond timestamps.  Returns
    the number of trace events written (metadata included).
    """
    bands: List[tuple] = []
    for row in payload["rows"]:
        for lo, hi in row["intervals"]:
            if (lo, hi) not in bands:
                bands.append((lo, hi))
    bands.sort()
    pids = {band: i + 1 for i, band in enumerate(bands)}

    events: List[Dict[str, Any]] = []
    for band, pid in pids.items():
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"nodes [{band[0]}, {band[1]})"},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
            "args": {"sort_index": band[0]},
        })
    meta_count = len(events)
    for row in payload["rows"]:
        if row["start_s"] is None or row["end_s"] is None:
            continue
        args = {"user": row["user"], "model": row["model"],
                "nodes": row["nodes"], "checkpoints": row["checkpoints"],
                "drains": row["drains"], "wait_seconds":
                    row["start_s"] - row["submit_s"]}
        for lo, hi in row["intervals"]:
            pid = pids[(lo, hi)]
            events.append({
                "name": row["name"], "cat": "job", "ph": "X",
                "pid": pid, "tid": 1,
                "ts": row["start_s"] * time_scale,
                "dur": (row["end_s"] - row["start_s"]) * time_scale,
                "args": args,
            })
            for kind, times in (("sched.drain", row["drain_times"]),
                                ("sched.failure", row["failure_times"])):
                for t in times:
                    events.append({
                        "name": kind, "cat": "overlay", "ph": "i",
                        "s": "t", "pid": pid, "tid": 1,
                        "ts": t * time_scale,
                        "args": {"job": row["name"]},
                    })
    payload_out = {
        "displayTimeUnit": "ms",
        "otherData": {
            "policy": payload["policy"], "seed": payload["seed"],
            "total_nodes": payload["total_nodes"],
            "makespan_seconds": payload["makespan_seconds"],
        },
        "traceEvents": events,
    }
    if hasattr(path_or_fp, "write"):
        json.dump(payload_out, path_or_fp)  # type: ignore[arg-type]
    else:
        with open(os.fspath(path_or_fp), "w", encoding="utf-8") as fp:
            json.dump(payload_out, fp)
    return len(events)


def format_gantt(payload: Dict[str, Any], width: int = 60) -> str:
    """ASCII occupancy summary: one line per job, time left to right."""
    makespan = max(payload["makespan_seconds"], 1e-9)
    lines = [
        f"pckpt sched gantt: {payload['policy']} policy, "
        f"{payload['jobs']} jobs, {payload['total_nodes']} nodes, "
        f"makespan {payload['makespan_seconds']:.0f}s, "
        f"utilization {100.0 * payload['utilization']:.1f}%"
    ]
    for row in payload["rows"]:
        if row["start_s"] is None or row["end_s"] is None:
            lines.append(f"  {row['name']:<14} {'(starved)':>{width + 2}}")
            continue
        lo = int(round(row["start_s"] / makespan * width))
        hi = max(int(round(row["end_s"] / makespan * width)), lo + 1)
        bar = " " * lo + "#" * (hi - lo)
        marks = list(bar.ljust(width))
        for t in row["failure_times"]:
            pos = min(int(round(t / makespan * width)), width - 1)
            marks[pos] = "!"
        lines.append(
            f"  {row['name']:<14} |{''.join(marks)}| "
            f"{row['nodes']}n wait {row['start_s'] - row['submit_s']:.0f}s"
        )
    if payload["starved"]:
        lines.append(f"  starved: {', '.join(payload['starved'])}")
    return "\n".join(lines)
