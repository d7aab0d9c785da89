#!/usr/bin/env python3
"""Trace the p-ckpt two-phase protocol, span by span.

Reproduces: the protocol walk-through of Sec. VI / Fig 5 — prediction
notifications, lead-time-ordered vulnerable commits, pfs-commit
broadcasts, phase-2 landings, failures struck/avoided, and recoveries.

Constructs a deliberately hostile scenario — a large-footprint job on a
failure-prone machine — runs it under P1 with structured tracing
enabled, and then uses the full observability API:

* prints the record stream (spans rendered as ``>``/``<`` markers);
* filters it down to one protocol round with :meth:`~repro.des.Trace.filter`;
* reconciles completed-span totals against the run's own overhead
  accounting via :func:`repro.analysis.metrics.trace_summary`;
* exports a Perfetto-viewable Chrome trace and a JSONL dump.

Run:
    python examples/pckpt_protocol_trace.py [--export-prefix PATH]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.metrics import trace_summary
from repro.des import BEGIN, Trace
from repro.iomodel.bandwidth import GiB
from repro.failures import WeibullParams
from repro.models import CRSimulation, get_model
from repro.workloads import ApplicationSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--export-prefix", default=None, metavar="PATH",
        help="also write PATH.json (Chrome trace) and PATH.jsonl",
    )
    args = parser.parse_args()

    # A 256-node job with CHIMERA-like per-node footprint, 6 hours of
    # compute, on a machine failing every ~1.5 hours.
    app = ApplicationSpec(
        name="HOSTILE",
        nodes=256,
        checkpoint_bytes_total=256 * 284.0 * GiB,
        compute_hours=6.0,
    )
    weibull = WeibullParams("angry-machine", shape=0.7, scale_hours=1.1,
                            system_nodes=256)

    trace = Trace(env=None)  # adopted by the sim's env
    sim = CRSimulation(
        app,
        get_model("P1"),
        weibull=weibull,
        rng=np.random.default_rng(12),
        trace=trace,
    )
    out = sim.run()

    print("=== p-ckpt protocol trace (first 60 records) ===")
    print(trace.format(limit=60))
    print()

    # Zoom into the protocol itself: every p-ckpt record, via filter().
    pckpt_records = list(trace.filter(source="pckpt"))
    print(f"=== the pckpt source alone ({len(pckpt_records)} records) ===")
    for rec in pckpt_records[:12]:
        print(f"  [{rec.time:12.1f}s] {rec.ph} {rec.kind:<22s} {rec.detail!r}")
    print()

    print("=== protocol rounds (pckpt_protocol spans) ===")
    begins = list(trace.filter(kind="pckpt_protocol", ph=BEGIN))
    for rec in begins[:5]:
        print(f"  round at t={rec.time:.1f}s queue={rec.detail!r}")
    count, total = trace.span_totals.get("pckpt_protocol", (0, 0.0))
    print(f"  {count} rounds, {total:.1f} s blocked in total")
    print()

    print("=== span totals vs the engine's own accounting ===")
    summary = trace_summary(trace)
    for kind, stats in summary["spans"].items():
        print(f"  {kind:<20s} x{stats['count']:<5d} {stats['seconds']:12.1f} s")
    ov = summary["overhead"]
    print(f"  span-derived ckpt  : {ov['checkpoint']:12.1f} s "
          f"(engine: {out.overhead.checkpoint:.1f} s)")
    print(f"  span-derived recov : {ov['recovery']:12.1f} s "
          f"(engine: {out.overhead.recovery:.1f} s)")
    print(f"  span-derived recomp: {ov['recomputation']:12.1f} s "
          f"(engine: {out.overhead.recomputation:.1f} s)")
    print()

    print("=== run summary ===")
    print(f"makespan            : {out.makespan / 3600:.2f} h "
          f"(ideal {app.compute_hours:.1f} h)")
    print(f"failures            : {out.ft.failures} "
          f"({out.ft.predicted} predicted, {out.ft.false_alarms} false alarms)")
    print(f"mitigated by p-ckpt : {out.ft.mitigated_pckpt}")
    print(f"p-ckpt protocols run: {out.proactive_runs}")
    print(f"periodic checkpoints: {out.periodic_checkpoints}")
    print(f"overhead            : ckpt {out.overhead.checkpoint / 3600:.2f} h, "
          f"recomp {out.overhead.recomputation / 3600:.2f} h, "
          f"recovery {out.overhead.recovery / 3600:.2f} h")
    print(f"kernel              : {sim.env.events_processed} events, "
          f"heap high-water {sim.env.queue_high_water}")
    print()
    print("Event kinds seen:", ", ".join(trace.kinds()))

    if args.export_prefix:
        n = trace.to_chrome_trace(args.export_prefix + ".json")
        print(f"[wrote {n} Chrome trace events to {args.export_prefix}.json "
              f"— open in https://ui.perfetto.dev]")
        n = trace.to_jsonl(args.export_prefix + ".jsonl")
        print(f"[wrote {n} JSONL records to {args.export_prefix}.jsonl]")


if __name__ == "__main__":
    main()
