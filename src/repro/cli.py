"""Command-line interface: ``pckpt``.

Subcommands
-----------
``pckpt run [APP MODEL] --spec FILE``
    Run an experiment: a declarative spec (``docs/EXPERIMENT_SPEC.md``),
    simulated or batch-queue, through the campaign scheduler (one
    shared process pool, ``--jobs N`` wide; an optional
    content-addressed result store, ``--store``, reused by ``--resume``,
    the default).  ``APP MODEL`` flags are translated into the same spec
    form (``--dump-spec`` prints that translation as canonical JSON and
    exits); with them, ``--metrics`` prints the merged metrics registry
    and ``--trace PATH`` exports replication 0 as a Chrome/Perfetto
    trace (see ``docs/OBSERVABILITY.md``).  Every cell prints as one
    table row.  Store keys are identical to the equivalent kwargs/sweep
    invocation.
``pckpt experiment ID``
    Regenerate one paper artifact (fig2a, fig2b, fig2c, fig4, fig6a,
    fig6b, fig6-sys8, fig6c, fig7, fig8, table2, table4, obs9).
``pckpt campaign status|clear``
    Summarize or empty an existing result store (``--store``).  See
    ``docs/CAMPAIGN.md``.
``pckpt sched run|gantt``
    The reference batch-queue workload (``repro.sched``): a job stream
    placed on the machine under FCFS, EASY backfill or fair share, every
    job running its own C/R model against shared burst-buffer/PFS
    lanes.  ``sched run`` runs it (``--policy``, ``--njobs``,
    ``--quick``); ``sched gantt`` exports one traced replication as a
    schedule Gantt chart (``--json``, ``--chrome``).  A spec with a
    ``sched`` block runs through ``pckpt run --spec``.  See
    ``docs/SCHEDULER.md``.
``pckpt validate``
    Differential fuzzing of the DES kernel: random scenarios executed on
    the inlined fast-path loop and the ``step()`` reference,
    cross-checked event for event plus invariant oracles,
    whole-simulation C/R differentials, and batch-queue scheduling
    oracles; failing cases are shrunk to minimal reproducers (see
    ``docs/TESTING.md``).
``pckpt timeline [APP MODEL | --input TRACE.jsonl]``
    Causal failure→action chains: every checkpoint action traced back to
    the failure/false alarm that caused it (``--jsonl`` to export).
``pckpt top --store PATH``
    Live dashboard tailing a running campaign's telemetry feed
    (``--once`` for a single snapshot, ``--openmetrics`` for a scrape).
    On a service-managed store the store-level feed does not exist;
    ``top`` shows the newest job telemetry event in the service journal,
    ``<store>/service/journal/`` (pick one job with ``--job ID``).
    While tailing, ``--timeout SECONDS`` gives up with a friendly
    message if no telemetry ever appears.
``pckpt obs stitch|slo``
    Cross-layer observability queries over a result store: ``stitch``
    reassembles every process's span fragments, job events and
    telemetry lines for one trace id (``--trace-id``, ``--job``, or
    the most recent) into a single Chrome trace; ``slo`` grades
    per-tenant latency/error/cache objectives over the persisted job
    records (``--window``, ``--latency-p99``, ``--error-rate``).
    See ``docs/OBSERVABILITY.md``.
``pckpt serve --store DIR --jobs N --port P``
    Run the multi-tenant campaign service (``repro.service``): accepts
    spec submissions over HTTP, dedupes against the shared store,
    schedules tenants fair-share onto one worker pool.  See
    ``docs/SERVICE.md``.
``pckpt submit --spec FILE [--wait | --watch]``
    Submit a spec document to a running service; ``--wait`` follows the
    job's event stream to completion, ``--watch`` streams the job's
    NDJSON events live,
    ``--trace-id`` propagates a caller trace context via the
    ``X-Pckpt-Trace`` header.
``pckpt jobs`` / ``pckpt watch JOB_ID`` / ``pckpt shutdown``
    List a service's jobs, follow one job's event stream, or ask the
    service to drain gracefully.
``pckpt list``
    Show the workload catalogue and model zoo.

Examples
--------
::

    pckpt run --spec examples/specs/quickstart.json
    pckpt run XGC P2 --dump-spec > my-experiment.json
    pckpt --replications 100 run POP P2 --metrics --trace pop.json
    pckpt experiment table2 --replications 50
    pckpt experiment fig6a
    pckpt run --spec examples/specs/fig6a-model-comparison.json --jobs 8
    pckpt campaign status --store .pckpt-store --json
    pckpt sched run --quick
    pckpt run --spec examples/specs/sched-backfill.json --store .pckpt-store
    pckpt top --store .pckpt-store
    pckpt serve --store .pckpt-store --jobs 4 --port 8787
    pckpt submit --spec examples/specs/quickstart.json --wait
    pckpt jobs --json
    pckpt shutdown
    pckpt timeline XGC P2 --limit 10
    pckpt validate --seed 0 --cases 200
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .experiments import BENCH_SCALE, ExperimentScale
from .experiments.report import format_kv
from .failures.weibull import (
    FAILURE_DISTRIBUTIONS,
    LANL_SYSTEM8_WEIBULL,
    LANL_SYSTEM18_WEIBULL,
    TITAN_WEIBULL,
)
from .models.registry import PAPER_MODELS, get_model
from .sched.jobs import POLICY_NAMES as _SCHED_POLICIES
from .workloads.applications import APPLICATION_ORDER, APPLICATIONS

#: The default scale of ``sched run``/``gantt`` and ``validate``: seed 0
#: (and three ``sched run`` replications) unless ``--seed`` and
#: ``--replications`` are given, before or after the command.
_SEED0_SCALE = ExperimentScale(replications=3, seed=0)

__all__ = ["main", "build_parser"]


def _scale(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        replications=args.replications, seed=args.seed, workers=args.workers
    )


def _traced_replication(app_name: str, model: str, distribution: str,
                        seed: int):
    """Replication 0 of an APP MODEL cell, re-run traced; returns its trace.

    Uses the same ``SeedSequence.spawn`` child the Monte-Carlo run uses
    for its first replication, so the traced run is one of the runs the
    cell's aggregate already contains.
    """
    import numpy as np

    from .des import Trace
    from .models.base import CRSimulation

    child = np.random.SeedSequence(seed).spawn(1)[0]
    trace = Trace(env=None)  # adopted by the simulation's environment
    CRSimulation(
        APPLICATIONS[app_name.upper()],
        get_model(model),
        weibull=FAILURE_DISTRIBUTIONS[distribution],
        rng=np.random.default_rng(child),
        trace=trace,
    ).run()
    return trace


def _write_trace(args: argparse.Namespace) -> None:
    """Export replication 0 of ``pckpt run APP MODEL`` and its span totals."""
    from .analysis.metrics import trace_summary

    trace = _traced_replication(args.app, args.model, args.distribution,
                                args.seed)
    if args.trace.endswith(".jsonl"):
        n = trace.to_jsonl(args.trace)
        kind = "JSONL"
    else:
        n = trace.to_chrome_trace(args.trace)
        kind = "Chrome trace (open in https://ui.perfetto.dev)"
    print(f"[wrote {n} {kind} events to {args.trace}]")
    summary = trace_summary(trace)
    print("trace span totals (replication 0):")
    for name, stats in summary["spans"].items():
        print(f"  {name:<24s} x{stats['count']:<6d} {stats['seconds']:14.3f} s")
    ov = summary["overhead"]
    print(
        f"  span-derived overhead: checkpoint={ov['checkpoint']:.3f}s "
        f"recovery={ov['recovery']:.3f}s "
        f"recomputation={ov['recomputation']:.3f}s"
    )


def _print_results(results, title: str) -> None:
    """Print a ``run_spec`` result: one table row per cell.

    Simulated cells, keyed ``(model, column)``, show the overhead split,
    pooled failures and mitigations and the initial OCI; the cells of a
    spec with a ``sched`` block (``SchedResult``) show the schedule.
    Each cell that collected metrics then prints its merged registry.
    """
    from .experiments.report import format_table

    if any(hasattr(r, "policy") for r in results.values()):
        headers = ["policy", "jobs", "makespan_h", "utilization",
                   "wait_mean_s", "wait_p95_s", "starved", "ft_ratio"]
        rows = [
            [r.policy, r.jobs, r.makespan_seconds / 3600.0, r.utilization,
             r.wait_mean_seconds, r.wait_p95_seconds, r.starved, r.ft_ratio]
            for r in results.values()
        ]
    else:
        headers = ["model", "column", "total_overhead_h", "checkpoint_h",
                   "recomputation_h", "recovery_h", "makespan_h", "ft_ratio",
                   "failures", "by_lm", "by_pckpt", "by_safeguard", "oci_s"]
        rows = [
            [model, col, r.total_overhead_hours,
             r.overhead.checkpoint_reported / 3600.0,
             r.overhead.recomputation / 3600.0,
             r.overhead.recovery / 3600.0, r.makespan_seconds / 3600.0,
             r.ft_ratio, r.ft.failures, r.ft.mitigated_lm,
             r.ft.mitigated_pckpt, r.ft.mitigated_safeguard, r.oci_initial]
            for (model, col), r in results.items()
        ]
    print(format_table(headers, rows, title=title))
    for (model, col), r in results.items():
        if getattr(r, "metrics", None) is not None:
            print()
            print(f"metrics of {model} {col} "
                  f"(merged over {r.replications} replications):")
            print(r.metrics.format())


def _load_cli_spec(args: argparse.Namespace):
    """Resolve the ``pckpt run`` invocation into a validated spec.

    ``--spec FILE`` loads the document; otherwise the positional
    ``APP MODEL`` plus the global flags (and ``--metrics``) are
    translated into the exact same spec form — both roads lead through
    one loader, so validation, canonicalization and store keys cannot
    diverge between them.

    Returns the spec, or an exit code (int) on user error.
    """
    import dataclasses

    from . import spec as espec

    if args.spec:
        if args.app or args.model:
            print("error: give APP MODEL or --spec FILE, not both",
                  file=sys.stderr)
            return 2
        if args.metrics or args.trace:
            print("error: --metrics and --trace go with APP MODEL, not "
                  "--spec FILE (a spec sets collect_metrics itself)",
                  file=sys.stderr)
            return 2
        if getattr(args, "scale_flags_given", False):
            print("note: --replications/--seed are ignored with --spec; "
                  "the spec document governs (edit the spec or use --quick)",
                  file=sys.stderr)
        try:
            sp = espec.load_spec(args.spec)
        except FileNotFoundError:
            print(f"error: no such spec file: {args.spec}", file=sys.stderr)
            return 2
        except espec.SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        if not (args.app and args.model):
            print("error: give APP MODEL or --spec FILE", file=sys.stderr)
            return 2
        try:
            sp = espec.spec_from_dict({
                "schema_version": espec.SPEC_SCHEMA_VERSION,
                "name": f"{args.app.upper()}-{args.model}",
                "apps": [args.app.upper()],
                "models": [args.model],
                "include_base": False,
                "failures": args.distribution,
                "replications": args.replications,
                "seed": args.seed,
                "collect_metrics": args.metrics,
            })
        except espec.SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.quick:
        # Smoke scale for CI: cut the Monte-Carlo width, nothing else.
        sp = dataclasses.replace(sp, replications=min(sp.replications, 2))
    return sp


def _cmd_run(args: argparse.Namespace) -> int:
    """Run an experiment: a spec file, or APP MODEL translated into one."""
    from . import spec as espec
    from .campaign import CampaignProgress, ResultStore, StoreSchemaError

    sp = _load_cli_spec(args)
    if isinstance(sp, int):
        return sp
    if args.dump_spec:
        sys.stdout.write(espec.canonical_spec_json(sp))
        return 0
    if args.trace:
        # Fail before the (potentially long) run, not after it.
        trace_dir = os.path.dirname(os.path.abspath(args.trace))
        if not os.path.isdir(trace_dir):
            print(f"error: --trace directory does not exist: {trace_dir}",
                  file=sys.stderr)
            return 2
    try:
        store = ResultStore(args.store) if args.store else None
    except StoreSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    progress = CampaignProgress(stream=sys.stderr)
    workers = args.jobs if args.jobs is not None else args.workers
    results = espec.run_spec(sp, store=store, workers=workers,
                             progress=progress, resume=args.resume)
    _print_results(results,
                   title=f"spec {sp.name or os.path.basename(args.spec)}")
    print()
    print(f"spec hash: {espec.spec_hash(sp)}")
    if args.trace:
        print()
        _write_trace(args)
    return 0


#: Everything `pckpt experiment all` regenerates, in paper order.
ALL_EXPERIMENTS = (
    "fig2a", "fig2b", "fig2c", "fig4", "table2", "fig6a", "fig6b",
    "fig6-sys8", "table4", "fig7", "fig8", "fig6c", "obs9",
)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (fig2a, fig2b, fig2c, fig6, fig6c, fig8,
                              ftratio, leadvar, obs9)

    scale = _scale(args)
    exp = args.id.lower()
    if exp == "all":
        for sub in ALL_EXPERIMENTS:
            print(f"\n=== {sub} ===")
            code = _cmd_experiment(
                argparse.Namespace(
                    id=sub,
                    replications=args.replications,
                    seed=args.seed,
                    workers=args.workers,
                    json=None,
                    csv=None,
                )
            )
            if code != 0:  # pragma: no cover - defensive
                return code
        return 0

    results = []
    if exp == "fig2a":
        r = fig2a.run(seed=scale.seed)
        results.append(r)
        print(fig2a.render(r))
    elif exp == "fig2b":
        r = fig2b.run(seed=scale.seed)
        results.append(r)
        print(fig2b.render(r))
    elif exp == "fig2c":
        r = fig2c.run(seed=scale.seed)
        results.append(r)
        print(fig2c.render(r))
    elif exp == "fig4":
        for app in ("CHIMERA", "XGC", "POP"):
            r = leadvar.run(app, ("M1", "M2"), scale=scale)
            results.append(r)
            print(leadvar.render(r))
            print()
    elif exp == "fig7":
        for app in ("CHIMERA", "XGC", "POP"):
            r = leadvar.run(app, ("P1", "P2"), scale=scale)
            results.append(r)
            print(leadvar.render(r))
            print()
    elif exp == "table2":
        r = ftratio.run(("M1", "M2"), scale=scale)
        results.append(r)
        print(ftratio.render(r, title="Table II — FT ratio under M1 and M2"))
    elif exp == "table4":
        r = ftratio.run(("P1", "P2"), scale=scale)
        results.append(r)
        print(ftratio.render(r, title="Table IV — FT ratio under P1 and P2"))
    elif exp == "fig6a":
        r = fig6.run(TITAN_WEIBULL, scale=scale)
        results.append(r)
        print(fig6.render(r))
    elif exp == "fig6b":
        r = fig6.run(LANL_SYSTEM18_WEIBULL, scale=scale)
        results.append(r)
        print(fig6.render(r))
    elif exp in ("fig6-sys8", "obs7"):
        r = fig6.run(LANL_SYSTEM8_WEIBULL, scale=scale)
        results.append(r)
        print(fig6.render(r))
    elif exp == "fig6c":
        r = fig6c.run(scale=scale)
        results.append(r)
        print(fig6c.render(r))
    elif exp == "fig8":
        r = fig8.run(scale=scale)
        results.append(r)
        print(fig8.render(r))
    elif exp == "obs9":
        r = obs9.run(scale=scale)
        results.append(r)
        print(obs9.render(r))
    else:
        print(f"unknown experiment {exp!r}", file=sys.stderr)
        return 2

    if getattr(args, "json", None) or getattr(args, "csv", None):
        from .experiments import export

        rows = [rec for r in results for rec in export.records(r)]
        if args.json:
            export.write_json(args.json, rows)
            print(f"[wrote {len(rows)} records to {args.json}]")
        if args.csv:
            export.write_csv(args.csv, rows)
            print(f"[wrote {len(rows)} records to {args.csv}]")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Summarize or empty an existing result store (``status|clear``)."""
    from .campaign import ResultStore, StoreSchemaError
    from .obs.telemetry import latest_snapshot

    # Check before opening: ResultStore() creates a missing store, so a
    # mistyped path would otherwise become a new, empty one.
    if not ResultStore.exists(args.store):
        print(f"error: no result store at {args.store}", file=sys.stderr)
        return 2
    if args.action == "clear":
        # wipe, not clear: must also empty a store written by an older
        # schema version, which ResultStore() refuses to open.
        removed = ResultStore.wipe(args.store)
        print(f"[removed {removed} cached cells from {args.store}]")
        return 0

    try:
        store = ResultStore(args.store)
    except StoreSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        # The machine-readable shape shared with the service layer:
        # GET /v1/status embeds exactly this as its "store" block.
        from .campaign import status_payload

        print(json.dumps(status_payload(store), indent=2, sort_keys=True))
        return 0
    print(format_kv(store.stats(), title=f"campaign store {store.root}"))
    snapshot = latest_snapshot(str(store.telemetry_path()))
    if snapshot is not None:
        eta = snapshot.get("eta_seconds")
        print()
        print(format_kv(
            {
                "state": snapshot.get("state"),
                "cells done": (
                    f"{snapshot.get('cells_done')}/"
                    f"{snapshot.get('cells_total')}"
                ),
                "replications executed": snapshot.get(
                    "replications_executed"
                ),
                "cache hit rate": snapshot.get("cache_hit_rate"),
                "worker utilization": snapshot.get("worker_utilization"),
                "workers": snapshot.get("workers"),
                "elapsed (s)": snapshot.get("elapsed_seconds"),
                "eta (s)": "unknown" if eta is None else eta,
            },
            title="latest telemetry (pckpt top follows it live)",
        ))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Causal failure→action timelines (``repro.obs.timeline``)."""
    from .obs import extract_timelines, format_timelines, timelines_to_jsonl

    if args.input:
        from .des.monitor import load_jsonl

        try:
            records = load_jsonl(args.input)
        except FileNotFoundError:
            print(f"error: no such trace file: {args.input}", file=sys.stderr)
            return 2
        except (KeyError, TypeError, ValueError):
            print(f"error: {args.input} is not a JSONL trace; --input takes "
                  "the .jsonl export of `pckpt run APP MODEL --trace "
                  "X.jsonl`, not the Chrome trace JSON", file=sys.stderr)
            return 2
        chains = extract_timelines(records)
        source = args.input
    else:
        chains = extract_timelines(_traced_replication(
            args.app, args.model, args.distribution, args.seed))
        source = f"{args.app.upper()} under {args.model} (seed {args.seed})"

    struck = sum(1 for c in chains if c.struck)
    print(f"causal timelines — {source}")
    print(f"{len(chains)} chains ({struck} struck, "
          f"{len(chains) - struck} avoided/expired)")
    print(format_timelines(chains, limit=args.limit))
    if args.jsonl:
        n = timelines_to_jsonl(chains, args.jsonl)
        print(f"[wrote {n} timeline chains to {args.jsonl}]")
    return 0


def _latest_telemetry(store: str, job: str = None) -> tuple:
    """The newest telemetry snapshot for ``pckpt top``, and its source.

    A locally-run campaign streams to ``<store>/telemetry.jsonl``.  A
    service-managed store has no store-level feed: each job's snapshots
    are the ``data`` of its ``telemetry`` events in the service journal,
    and the newest one is shown — of job *job* (``--job ID``) if given.
    Returns ``(snapshot or None, path)``.
    """
    from .obs.journal import journal_dir, read_journal
    from .obs.telemetry import TELEMETRY_FILENAME, latest_snapshot

    direct = os.path.join(store, TELEMETRY_FILENAME)
    if not job and os.path.exists(direct):
        return latest_snapshot(direct), direct
    snapshot = None
    for record in read_journal(store):
        if record.get("event") == "telemetry" and \
                record.get("kind") == "pckpt-job-event" and \
                (not job or record.get("job_id") == job):
            snapshot = record.get("data")
    if snapshot is None and not job:
        return None, direct
    return snapshot, str(journal_dir(store))


def _cmd_top(args: argparse.Namespace) -> int:
    """Live campaign dashboard tailing a store's telemetry feed."""
    import time

    from .obs.telemetry import format_top, render_openmetrics

    if args.openmetrics:
        snapshot, path = _latest_telemetry(args.store, args.job)
        if snapshot is None:
            print(f"error: no telemetry at {path}", file=sys.stderr)
            return 2
        sys.stdout.write(render_openmetrics(snapshot))
        return 0
    if args.once:
        print(format_top(*_latest_telemetry(args.store, args.job)))
        return 0
    deadline = None
    if args.timeout is not None:
        deadline = time.monotonic() + args.timeout
    try:
        while True:
            snapshot, path = _latest_telemetry(args.store, args.job)
            if (snapshot is None and deadline is not None
                    and time.monotonic() >= deadline):
                print(f"pckpt top: no telemetry at {path} "
                      f"after {args.timeout:g}s (is a campaign running?)",
                      file=sys.stderr)
                return 2
            if sys.stdout.isatty():  # pragma: no cover - interactive only
                sys.stdout.write("\x1b[2J\x1b[H")
            print(format_top(snapshot, path))
            if snapshot is not None and snapshot.get("state") == "done":
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Cross-layer observability queries (``pckpt obs stitch|slo``)."""
    if args.action == "stitch":
        from .obs.stitch import (collect_trace, list_traces,
                                 resolve_job_trace, stitch_chrome)

        trace_id = args.trace_id
        if trace_id is None and args.job:
            trace_id = resolve_job_trace(args.store, args.job)
            if trace_id is None:
                print(f"error: no trace id recorded for job {args.job}",
                      file=sys.stderr)
                return 2
        if trace_id is None:
            traces = list_traces(args.store)
            if not traces:
                print(f"error: no trace fragments under "
                      f"{os.path.join(args.store, 'obs', 'trace')}",
                      file=sys.stderr)
                return 2
            trace_id = traces[-1]
            print(f"[stitching most recent trace {trace_id}]",
                  file=sys.stderr)
        collection = collect_trace(args.store, trace_id)
        if not collection["spans"] and not collection["events"]:
            print(f"error: trace {trace_id} has no spans or events "
                  f"under {args.store}", file=sys.stderr)
            return 2
        out = args.out or f"trace-{trace_id}.json"
        n = stitch_chrome(collection, out)
        print(f"[stitched {len(collection['spans'])} spans, "
              f"{len(collection['events'])} job events, "
              f"{len(collection['telemetry'])} telemetry lines "
              f"into {n} trace events at {out}]")
        return 0

    # action == "slo"
    from .obs.slo import (SLOObjectives, compute_slo, format_slo,
                          load_job_records, render_slo_metrics)

    records = load_job_records(args.store)
    objectives = SLOObjectives(
        latency_p99_seconds=args.latency_p99,
        error_rate=args.error_rate,
    )
    rows = compute_slo(records, window_seconds=args.window,
                       objectives=objectives)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if args.openmetrics:
        for line in render_slo_metrics(rows):
            print(line)
        print("# EOF")
        return 0
    print(format_slo(rows))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import resolve_backends, run_validation

    try:
        backends = resolve_backends(args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_validation(
        args.seed,
        args.cases,
        backends,
        cr_cases=args.cr_cases,
        sched_cases=args.sched_cases,
        corpus_dir=Path(args.corpus) if args.corpus else None,
        shrink=not args.no_shrink,
        progress=lambda msg: print(f"[validate] {msg}", file=sys.stderr),
    )
    print(
        format_kv(
            {
                "backends": ", ".join(report.backends),
                "scenario cases": report.scenario_cases,
                "C/R differential cases": report.cr_cases,
                "sched oracle cases": report.sched_cases,
                "failures": len(report.failures),
            },
            title=f"pckpt validate (seed {report.seed})",
        )
    )
    for failure in report.failures:
        print()
        print(f"FAILURE [{failure.kind}] case {failure.case_index}:")
        for violation in failure.violations[:8]:
            print(f"  - {violation}")
        if len(failure.violations) > 8:
            print(f"  ... and {len(failure.violations) - 8} more")
        if failure.shrunk is not None:
            shrunk = failure.shrunk
            rendered = (shrunk.to_json() if hasattr(shrunk, "to_json")
                        else json.dumps(shrunk.to_dict(), indent=2))
            print("  minimal reproducer:")
            for line in rendered.splitlines():
                print(f"    {line}")
        if failure.corpus_path is not None:
            print(f"  saved to {failure.corpus_path}")
    if report.ok:
        print("\nno divergences, no invariant violations")
    return 0 if report.ok else 1


def _cmd_sched(args: argparse.Namespace) -> int:
    """The reference batch-queue workload (``pckpt sched run|gantt``)."""
    n_jobs = 8 if args.quick else args.njobs
    if args.action == "gantt":
        from .obs.gantt import format_gantt, gantt_to_chrome, run_gantt

        payload = run_gantt(policy=args.policy, n_jobs=n_jobs,
                            seed=args.seed)
        if args.chrome:
            n = gantt_to_chrome(payload, args.chrome)
            print(f"[wrote {n} gantt trace events to {args.chrome}]",
                  file=sys.stderr)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(format_gantt(payload))
        return 0

    # action == "run"
    from .sched import bench as sched_bench

    result = sched_bench.run_baseline(
        policy=args.policy, n_jobs=n_jobs, seed=args.seed,
        replications=1 if args.quick else args.replications,
    )
    payload = sched_bench.result_payload(result, seed=args.seed,
                                         quick=args.quick)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(sched_bench.format_sched_payload(payload))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("Applications (Table I):")
    for name in APPLICATION_ORDER:
        app = APPLICATIONS[name]
        print(
            f"  {name:8s} nodes={app.nodes:5d} "
            f"ckpt={app.checkpoint_bytes_total / 2**30:12.1f} GiB "
            f"compute={app.compute_hours:5.0f} h"
        )
    print("Models:")
    for name, cfg in PAPER_MODELS.items():
        caps = [
            cap
            for cap, on in (
                ("prediction", cfg.use_prediction),
                ("safeguard", cfg.supports_safeguard),
                ("live-migration", cfg.supports_lm),
                ("p-ckpt", cfg.supports_pckpt),
                ("sigma-OCI", cfg.use_sigma_oci),
            )
            if on
        ]
        print(f"  {name:3s} {', '.join(caps) if caps else 'periodic only'}")
    print("Variants: M2-<alpha>/P2-<alpha> (LM transfer factor), P2-fn, "
          "<model>-sync, <model>-online, <model>-nbr")
    print("Failure distributions:", ", ".join(FAILURE_DISTRIBUTIONS))
    return 0


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(args.host, args.port, token=args.token)


def _service_errors(fn):
    """Run *fn*, mapping service/network failures to exit codes."""
    from .service import ServiceBusy, ServiceError, SpecRejected

    try:
        return fn()
    except SpecRejected as exc:
        print(f"error: spec rejected with {len(exc.problems)} problem(s):",
              file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except ServiceBusy as exc:
        print(f"error: {exc} — retry after {exc.retry_after:g}s "
              "(or pass --retries N)", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, ConnectionResetError, OSError) as exc:
        print(f"error: cannot reach service: {exc} "
              "(is `pckpt serve` running?)", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service (``repro.service``) until shut down."""
    from .obs.slo import SLOObjectives
    from .service import load_tokens, serve

    tokens = None
    if args.tokens:
        try:
            tokens = load_tokens(args.tokens)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: bad tokens file: {exc}", file=sys.stderr)
            return 2

    def _ready(service) -> None:
        mode = f"closed ({len(tokens)} tokens)" if tokens else "open"
        print(
            f"pckpt serve: http://{service.host}:{service.port} "
            f"store={args.store} jobs={args.jobs} "
            f"queue-limit={args.queue_limit} auth={mode}",
            file=sys.stderr, flush=True,
        )

    serve(args.store, host=args.host, port=args.port, jobs=args.jobs,
          queue_limit=args.queue_limit, tokens=tokens,
          retry_after=args.retry_after, ready=_ready,
          slo=SLOObjectives(latency_p99_seconds=args.slo_latency_p99,
                            error_rate=args.slo_error_rate),
          slo_window=args.slo_window)
    print("pckpt serve: drained and stopped", file=sys.stderr)
    return 0


def _job_line(record) -> str:
    executed = record["replications_executed"]
    hit = record["cache_hit_rate"]
    return (
        f"{record['id']:<22s} {record['tenant']:<12s} "
        f"{record['state']:<8s} {record['cells']:>5d} "
        f"{record['replications']:>6d} "
        f"{'-' if executed is None else executed:>8} "
        f"{'-' if hit is None else format(hit, '.0%'):>5}"
    )


def _jobs_header() -> str:
    return (f"{'job':<22s} {'tenant':<12s} {'state':<8s} {'cells':>5s} "
            f"{'reps':>6s} {'executed':>8s} {'hit':>5s}")


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a spec document to a running service."""
    import dataclasses

    from . import spec as espec

    # Same loader as `pckpt run --spec`: validation, canonicalization
    # and the resulting spec hash cannot diverge between the two paths.
    try:
        sp = espec.load_spec(args.spec)
    except FileNotFoundError:
        print(f"error: no such spec file: {args.spec}", file=sys.stderr)
        return 2
    except espec.SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        sp = dataclasses.replace(sp, replications=min(sp.replications, 2))
    document = espec.spec_to_dict(sp)
    client = _service_client(args)

    def _go() -> int:
        envelope = client.submit(document, retries=args.retries,
                                 trace=args.trace_id)
        record = envelope["job"]
        if not (args.wait or args.watch):
            if args.json:
                print(json.dumps(envelope, indent=2, sort_keys=True))
            else:
                how = "coalesced onto" if envelope["deduped"] else "queued as"
                print(f"{how} job {record['id']} "
                      f"({record['state']}, {record['cells']} cells, "
                      f"hash {record['spec_hash'][:12]})")
            return 0
        if args.watch:
            final_state = None
            for event in client.events(record["id"]):
                print(json.dumps(event, sort_keys=True), flush=True)
                if event["event"] in ("done", "failed"):
                    final_state = event["event"]
            return 0 if final_state == "done" else 1
        final = client.wait(record["id"], timeout=args.timeout)
        if args.json:
            print(json.dumps(final, indent=2, sort_keys=True))
        else:
            print(_jobs_header())
            print(_job_line(final))
            if final["state"] == "failed":
                print(f"error: {final['error']}", file=sys.stderr)
        return 0 if final["state"] == "done" else 1

    return _service_errors(_go)


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List every job the service's store holds, oldest first."""
    client = _service_client(args)

    def _go() -> int:
        records = client.jobs()
        if args.json:
            print(json.dumps({"jobs": records}, indent=2, sort_keys=True))
            return 0
        if not records:
            print("no jobs")
            return 0
        print(_jobs_header())
        for record in records:
            print(_job_line(record))
        return 0

    return _service_errors(_go)


def _cmd_watch(args: argparse.Namespace) -> int:
    """Stream one job's NDJSON events until it reaches a terminal state."""
    client = _service_client(args)

    def _go() -> int:
        final_state = None
        for event in client.events(args.job_id):
            print(json.dumps(event, sort_keys=True), flush=True)
            if event["event"] in ("done", "failed"):
                final_state = event["event"]
        return 0 if final_state == "done" else 1

    return _service_errors(_go)


def _cmd_shutdown(args: argparse.Namespace) -> int:
    """Ask a running service to drain and stop."""
    client = _service_client(args)

    def _go() -> int:
        client.shutdown()
        print("service draining (running jobs finish; queued jobs persist)")
        return 0

    return _service_errors(_go)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="pckpt",
        description="P-ckpt reproduction: coordinated prioritized checkpointing",
    )
    # None = "not given": spec-driven commands warn when the flag is
    # passed explicitly (the spec document governs); main() fills in
    # the BENCH_SCALE defaults for everything else.
    parser.add_argument("--replications", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run an experiment: a spec file (docs/EXPERIMENT_SPEC.md) "
             "or APP MODEL, through the campaign scheduler",
    )
    p_run.add_argument("app", nargs="?", default=None,
                       help="application name (alternative to --spec)")
    p_run.add_argument("model", nargs="?", default=None,
                       help="model name (alternative to --spec)")
    p_run.add_argument("--spec", metavar="FILE", default=None,
                       help="experiment spec JSON (see examples/specs/)")
    p_run.add_argument(
        "--distribution",
        choices=sorted(FAILURE_DISTRIBUTIONS),
        default=TITAN_WEIBULL.name,
        help="failure distribution for the APP MODEL form",
    )
    p_run.add_argument(
        "--metrics",
        action="store_true",
        help="APP MODEL form: collect per-layer metrics and print the "
             "merged registry",
    )
    p_run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "APP MODEL form: re-run replication 0 traced and export it: "
            "Chrome trace-event JSON (Perfetto-viewable), or JSONL when "
            "PATH ends in .jsonl"
        ),
    )
    p_run.add_argument("--store", metavar="PATH", default=None,
                       help="content-addressed result store directory")
    p_run.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached cells from --store (--no-resume recomputes)",
    )
    p_run.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="shared process-pool width (overrides --workers)")
    p_run.add_argument(
        "--quick", action="store_true",
        help="smoke scale: cap replications at 2 (CI)",
    )
    p_run.add_argument(
        "--dump-spec", action="store_true",
        help="print the canonical spec JSON and exit without running",
    )
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument(
        "id",
        help=(
            "fig2a|fig2b|fig2c|fig4|fig6a|fig6b|fig6-sys8|fig6c|fig7|fig8|"
            "table2|table4|obs9"
        ),
    )
    p_exp.add_argument("--json", metavar="FILE", default=None,
                       help="also write raw records as JSON")
    p_exp.add_argument("--csv", metavar="FILE", default=None,
                       help="also write raw records as CSV")
    p_exp.set_defaults(func=_cmd_experiment)

    p_camp = sub.add_parser(
        "campaign",
        help="summarize or empty a content-addressed result store",
    )
    camp_sub = p_camp.add_subparsers(dest="action", required=True)

    c_status = camp_sub.add_parser("status", help="summarize a result store")
    c_status.add_argument("--store", metavar="PATH", required=True)
    c_status.add_argument(
        "--json", action="store_true",
        help="print the machine-readable status payload (the same shape "
             "the service embeds in GET /v1/status)",
    )
    c_status.set_defaults(func=_cmd_campaign)

    c_clear = camp_sub.add_parser("clear", help="empty a result store")
    c_clear.add_argument("--store", metavar="PATH", required=True)
    c_clear.set_defaults(func=_cmd_campaign)

    p_sched = sub.add_parser(
        "sched",
        help="run a batch-queue workload under a placement policy",
    )
    sched_sub = p_sched.add_subparsers(dest="action", required=True)

    s_run = sched_sub.add_parser(
        "run", help="schedule the reference baseline workload"
    )
    s_run.add_argument("--policy", choices=sorted(_SCHED_POLICIES),
                       default="easy",
                       help="placement policy (default easy)")
    s_run.add_argument("--njobs", type=int, default=16, metavar="N",
                       help="baseline workload size (default 16)")
    # SUPPRESS: an absent flag leaves the global one in place (main()
    # then fills in the command's own default scale).
    s_run.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="root seed (default 0)")
    s_run.add_argument("--replications", type=int,
                       default=argparse.SUPPRESS, metavar="N",
                       help="replications (default 3)")
    s_run.add_argument("--quick", action="store_true",
                       help="8 jobs, one replication (CI smoke)")
    s_run.add_argument("--json", action="store_true",
                       help="print the schema-versioned payload as JSON")
    s_run.set_defaults(func=_cmd_sched, scale=_SEED0_SCALE)

    s_gantt = sched_sub.add_parser(
        "gantt",
        help="export one traced replication as a schedule Gantt chart",
    )
    s_gantt.add_argument("--policy", choices=sorted(_SCHED_POLICIES),
                         default="easy",
                         help="placement policy (default easy)")
    s_gantt.add_argument("--njobs", type=int, default=16, metavar="N",
                         help="baseline workload size (default 16)")
    s_gantt.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="root seed (default 0)")
    s_gantt.add_argument("--quick", action="store_true",
                         help="8 jobs (CI smoke)")
    s_gantt.add_argument("--chrome", metavar="FILE", default=None,
                         help="also write a Chrome/Perfetto trace "
                              "(one pid per node band)")
    s_gantt.add_argument("--json", action="store_true",
                         help="print the schema-versioned Gantt payload")
    s_gantt.set_defaults(func=_cmd_sched, scale=_SEED0_SCALE)

    p_tl = sub.add_parser(
        "timeline",
        help="causal failure→action chains stitched from provenance ids",
    )
    p_tl.add_argument("app", nargs="?", default="XGC",
                      help="application name (ignored with --input)")
    p_tl.add_argument("model", nargs="?", default="P2",
                      help="model name (ignored with --input)")
    p_tl.add_argument(
        "--distribution",
        choices=sorted(FAILURE_DISTRIBUTIONS),
        default=TITAN_WEIBULL.name,
    )
    p_tl.add_argument(
        "--input", metavar="PATH", default=None,
        help="read a JSONL trace (from `pckpt run APP MODEL --trace "
             "X.jsonl`) instead of running a fresh traced replication",
    )
    p_tl.add_argument("--limit", type=int, default=None, metavar="N",
                      help="show at most N chains")
    p_tl.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="export the chains as schema-versioned JSONL",
    )
    p_tl.set_defaults(func=_cmd_timeline)

    p_top = sub.add_parser(
        "top",
        help="live dashboard tailing a campaign store's telemetry feed",
    )
    p_top.add_argument("--store", metavar="PATH", required=True)
    p_top.add_argument(
        "--job", metavar="ID", default=None,
        help="on a service-managed store: show this job's telemetry "
             "(default: the newest job telemetry in the service journal)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print the latest snapshot and exit (no tailing)",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll period while tailing (default 1s)",
    )
    p_top.add_argument(
        "--openmetrics", action="store_true",
        help="print the latest snapshot as an OpenMetrics exposition",
    )
    p_top.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="while tailing: give up if no telemetry appears within "
             "this long (default: poll forever)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_obs = sub.add_parser(
        "obs",
        help="cross-layer observability: stitch traces, grade SLOs",
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)

    o_stitch = obs_sub.add_parser(
        "stitch",
        help="reassemble one trace id's multi-process fragments into "
             "a single Chrome trace",
    )
    o_stitch.add_argument("--store", metavar="PATH", required=True,
                          help="the service/campaign result store")
    o_stitch.add_argument("--trace-id", metavar="ID", default=None,
                          help="trace id to stitch (default: resolve "
                               "via --job, else the most recent)")
    o_stitch.add_argument("--job", metavar="ID", default=None,
                          help="resolve the trace id from this service "
                               "job's persisted record")
    o_stitch.add_argument("--out", metavar="FILE", default=None,
                          help="output path (default trace-<id>.json)")
    o_stitch.set_defaults(func=_cmd_obs)

    o_slo = obs_sub.add_parser(
        "slo",
        help="per-tenant SLO report over a store's persisted job records",
    )
    o_slo.add_argument("--store", metavar="PATH", required=True,
                       help="the service result store")
    o_slo.add_argument("--window", type=float, default=3600.0,
                       metavar="SECONDS",
                       help="rolling window (default 3600)")
    o_slo.add_argument("--latency-p99", type=float, default=None,
                       metavar="SECONDS",
                       help="latency objective: p99 job latency target")
    o_slo.add_argument("--error-rate", type=float, default=None,
                       metavar="RATE",
                       help="error objective: failed/terminal target "
                            "(e.g. 0.01)")
    o_slo.add_argument("--json", action="store_true",
                       help="print the schema-versioned SLO rows")
    o_slo.add_argument("--openmetrics", action="store_true",
                       help="print the labeled series as an OpenMetrics "
                            "exposition")
    o_slo.set_defaults(func=_cmd_obs)

    p_val = sub.add_parser(
        "validate",
        help="differential fuzzing: fast-path kernel vs step reference, "
             "plus invariant oracles",
    )
    p_val.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="campaign seed; case i uses scenario seed+i (default 0)",
    )
    p_val.add_argument(
        "--cases", type=int, default=200,
        help="number of fuzzed DES scenarios (default 200)",
    )
    p_val.add_argument(
        "--backend", nargs="+", default=["all"],
        choices=["all", "fast", "step"],
        help="backends to cross-check (default: all)",
    )
    p_val.add_argument(
        "--cr-cases", type=int, default=None, metavar="N",
        help="full C/R differential simulations (default cases//10, min 2)",
    )
    p_val.add_argument(
        "--sched-cases", type=int, default=None, metavar="N",
        help="fuzzed scheduler workloads (default cases//10, min 2)",
    )
    p_val.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="save shrunk reproducers here (e.g. tests/corpus)",
    )
    p_val.add_argument(
        "--no-shrink", action="store_true",
        help="report failing cases without minimizing them",
    )
    p_val.set_defaults(func=_cmd_validate, scale=_SEED0_SCALE)

    # -- service layer (repro.service; see docs/SERVICE.md) ------------------
    def _add_client_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1",
                       help="service host (default 127.0.0.1)")
        p.add_argument("--port", type=int, default=8787,
                       help="service port (default 8787)")
        p.add_argument("--token", default=None,
                       help="bearer token (in open mode the token names "
                            "the tenant)")

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant campaign service over a shared store",
    )
    p_serve.add_argument("--store", metavar="DIR", required=True,
                         help="shared content-addressed result store")
    p_serve.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="jobs executing concurrently (default 2)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787, metavar="P",
                         help="listen port (default 8787; 0 = ephemeral)")
    p_serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                         help="max jobs waiting before 429 (default 64)")
    p_serve.add_argument("--retry-after", type=float, default=2.0,
                         metavar="SECONDS",
                         help="Retry-After hint on 429 responses")
    p_serve.add_argument("--tokens", metavar="FILE", default=None,
                         help="closed-mode auth: JSON mapping token -> "
                              "tenant (or {'tenant':..., 'weight': N})")
    p_serve.add_argument("--slo-latency-p99", type=float, default=None,
                         metavar="SECONDS",
                         help="per-tenant SLO: p99 job latency target "
                              "(burn rates on /metrics)")
    p_serve.add_argument("--slo-error-rate", type=float, default=None,
                         metavar="RATE",
                         help="per-tenant SLO: error-rate target")
    p_serve.add_argument("--slo-window", type=float, default=3600.0,
                         metavar="SECONDS",
                         help="SLO rolling window (default 3600)")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit an experiment spec to a running service"
    )
    p_submit.add_argument("--spec", metavar="FILE", required=True,
                          help="experiment spec JSON (same loader as "
                               "`pckpt run --spec`)")
    _add_client_flags(p_submit)
    p_submit.add_argument("--quick", action="store_true",
                          help="smoke scale: cap replications at 2 (CI)")
    p_submit.add_argument("--retries", type=int, default=0, metavar="N",
                          help="back off and resubmit on 429 up to N times")
    p_submit.add_argument("--trace-id", metavar="TRACE[-SPAN]",
                          default=None,
                          help="propagate a trace context via the "
                               "X-Pckpt-Trace header (lowercase hex; "
                               "see docs/OBSERVABILITY.md)")
    p_submit.add_argument("--wait", action="store_true",
                          help="wait until the job finishes")
    p_submit.add_argument("--watch", action="store_true",
                          help="stream the job's NDJSON events to stdout")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="--wait limit (default 600)")
    p_submit.add_argument("--json", action="store_true",
                          help="print raw JSON records instead of tables")
    p_submit.set_defaults(func=_cmd_submit)

    p_jobs = sub.add_parser("jobs", help="list a running service's jobs")
    _add_client_flags(p_jobs)
    p_jobs.add_argument("--json", action="store_true",
                        help="print the raw job records")
    p_jobs.set_defaults(func=_cmd_jobs)

    p_watch = sub.add_parser(
        "watch", help="stream one service job's NDJSON events"
    )
    p_watch.add_argument("job_id", help="job id (from submit/jobs)")
    _add_client_flags(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_shut = sub.add_parser(
        "shutdown", help="gracefully drain and stop a running service"
    )
    _add_client_flags(p_shut)
    p_shut.set_defaults(func=_cmd_shutdown)

    p_list = sub.add_parser("list", help="show workloads and models")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    args.scale_flags_given = (args.replications is not None
                              or args.seed is not None)
    scale = getattr(args, "scale", BENCH_SCALE)
    if args.replications is None:
        args.replications = scale.replications
    if args.seed is None:
        args.seed = scale.seed
    try:
        status = args.func(args)
        # A reader that closed the pipe shows here, not in the
        # interpreter's flush at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # `pckpt ... | head`: the reader has what it wanted.  Point
        # stdout at devnull so the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        if exc.name != "scipy":  # only the optional extra is the user's to fix
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
