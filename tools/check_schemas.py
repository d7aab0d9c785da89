#!/usr/bin/env python3
"""One schema check: the package's declared record tables against docs and artifacts.

The package declares every versioned record once: a ``*_SCHEMA_VERSION``
constant, a record ``kind``, and a ``{name: (type, nullable)}`` field
table such as ``SNAPSHOT_FIELDS`` or ``EVENT_FIELDS``.  This tool
imports those declarations (it puts ``src/`` on ``sys.path``, so it runs
from any directory with the package's runtime dependencies installed)
and checks three things against them:

* **docs** — each page in :data:`DOCS` states its version constants as a
  backticked ``NAME = N`` and backticks every declared name: fields,
  states, policies, record kinds, sweep axes, and every trace kind the
  source emits (emit sites are scanned, since they are code, not
  tables).  A ``NAME = N`` anywhere under ``docs/`` must be the code's.
* **committed artifacts** — every ``examples/specs/*.json`` loads
  through ``repro.spec.load_spec``, and every
  ``benchmarks/sched/SCHED_*.json`` passes ``validate_sched_payload``
  under its ``SCHED_<git_sha>.json`` name.
* **artifacts named on the command line** — telemetry JSONL
  (``--telemetry``), span fragments (``--spans``), SLO rows
  (``--slo``), Gantt payloads (``--gantt``), stitched Chrome traces
  (``--stitched``, with ``--trace-id`` the id every root and kernel span
  must carry), service event streams (``--events``), campaign stores
  (``--store``), sched payloads (``--sched``) and spec documents
  (``--spec``).

Every record is checked by the package's own validators
(``repro.obs.records.check_record``, ``load_spec``,
``validate_sched_payload``), so no validator exists twice.  Exits 1
listing every problem.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.campaign import store  # noqa: E402
from repro.obs import context, gantt, slo, telemetry, timeline  # noqa: E402
from repro.obs.journal import Journal, journal_dir  # noqa: E402
from repro.obs.records import check_record  # noqa: E402
from repro.sched import jobs as sched_jobs  # noqa: E402
from repro.sched.bench import sched_filename, validate_sched_payload  # noqa: E402
from repro.service import jobs as service_jobs  # noqa: E402
from repro.spec import schema as spec_schema  # noqa: E402
from repro.spec.loader import SpecError, load_spec  # noqa: E402

SRC = ROOT / "src" / "repro"
DOCS_DIR = ROOT / "docs"
EXAMPLE_SPECS = ROOT / "examples" / "specs"
SCHED_BASELINES = ROOT / "benchmarks" / "sched"

#: Every schema-version constant the package declares.
VERSIONS = {
    "SCHEMA_VERSION": store.SCHEMA_VERSION,
    "SPEC_SCHEMA_VERSION": spec_schema.SPEC_SCHEMA_VERSION,
    "SCHED_SCHEMA_VERSION": sched_jobs.SCHED_SCHEMA_VERSION,
    "SERVICE_SCHEMA_VERSION": service_jobs.SERVICE_SCHEMA_VERSION,
    "OBS_SCHEMA_VERSION": telemetry.OBS_SCHEMA_VERSION,
    "SPAN_SCHEMA_VERSION": context.SPAN_SCHEMA_VERSION,
    "SLO_SCHEMA_VERSION": slo.SLO_SCHEMA_VERSION,
    "GANTT_SCHEMA_VERSION": gantt.GANTT_SCHEMA_VERSION,
    "TIMELINE_SCHEMA_VERSION": timeline.TIMELINE_SCHEMA_VERSION,
}

#: Spec field tables; their entries are ``(type tag, required)``, since a
#: spec field may be absent, and ``load_spec`` is what checks them.
SPEC_TABLES = ("SPEC_FIELDS", "SWEEP_FIELDS", "PREDICTOR_FIELDS",
               "PLATFORM_FIELDS", "FAILURES_FIELDS", "SEQUENCE_FIELDS",
               "SCHED_FIELDS", "SCHED_JOB_FIELDS")

#: Emit sites: ``emit("source", "kind")`` / ``span_begin`` / ``span``.
EMIT_CALL = re.compile(
    r"\b(?:emit|span_begin|span)\(\s*"
    r"['\"][\w/-]+['\"]\s*,\s*['\"]([\w.-]+)['\"]"
)
#: ``SpanWriter`` emits: ``writer.span("name", t0, ...)`` and
#: ``.instant("name", t, ...)``; the lookahead skips ``Trace.span``.
SPAN_NAME = re.compile(r"\.(?:span|instant)\(\s*['\"]([\w.-]+)['\"]\s*,\s*(?!['\"])")


def emitted_kinds() -> Set[str]:
    """Every kind the source emits at a call site."""
    kinds: Set[str] = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for pattern in (EMIT_CALL, SPAN_NAME):
            kinds.update(pattern.findall(text))
    return kinds


#: Scanned once; :func:`check_docs` fails if the scan stops matching.
EMITTED = emitted_kinds()


#: doc page -> (version constants it states, {what: names it backticks}).
DOCS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Iterable[str]]]] = {
    "CAMPAIGN.md": (("SCHEMA_VERSION",), {}),
    "EXPERIMENT_SPEC.md": (("SPEC_SCHEMA_VERSION",), {
        **{f"{t} field": getattr(spec_schema, t) for t in SPEC_TABLES},
        "sweep axis": spec_schema.SWEEP_AXES,
    }),
    "OBSERVABILITY.md": (
        ("OBS_SCHEMA_VERSION", "SPAN_SCHEMA_VERSION", "SLO_SCHEMA_VERSION",
         "GANTT_SCHEMA_VERSION", "TIMELINE_SCHEMA_VERSION"),
        {
            "telemetry field": telemetry.SNAPSHOT_FIELDS,
            "span field": context.SPAN_FIELDS,
            "SLO field": slo.SLO_FIELDS,
            "Gantt field": gantt.GANTT_FIELDS,
            "Gantt row field": gantt.GANTT_ROW_FIELDS,
            "trace kind": sorted(set(timeline.TIMELINE_CHAIN_KINDS) | EMITTED),
        },
    ),
    "SCHEDULER.md": (("SCHED_SCHEMA_VERSION", "GANTT_SCHEMA_VERSION"), {
        "result field": sched_jobs.RESULT_FIELDS,
        "per-job field": sched_jobs.JOB_FIELDS,
        "policy": sched_jobs.POLICY_NAMES,
        "record kind": (sched_jobs.SCHED_BASELINE_KIND,),
    }),
    "SERVICE.md": (("SERVICE_SCHEMA_VERSION",), {
        "job field": service_jobs.JOB_FIELDS,
        "event field": service_jobs.EVENT_FIELDS,
        "cells field": service_jobs.JOB_CELLS_FIELDS,
        "entry field": service_jobs.JOB_ENTRY_FIELDS,
        "job state": service_jobs.JOB_STATES,
        "event kind": service_jobs.EVENT_KINDS,
        "record kind": (service_jobs.JOB_KIND, service_jobs.JOB_EVENT_KIND,
                        service_jobs.JOB_RESULT_KIND,
                        service_jobs.JOB_CELLS_KIND,
                        service_jobs.JOB_ENTRY_KIND,
                        service_jobs.SERVICE_STATUS_KIND),
    }),
}


def check_docs() -> List[str]:
    """Each page states its versions and backticks its declared names."""
    problems = []
    if not EMITTED:
        problems.append(f"found no emit/span call sites under {SRC} "
                        f"(trace-kind scan broken?)")
    for path in sorted(DOCS_DIR.glob("*.md")):
        text = path.read_text(encoding="utf-8")
        for name, stated in re.findall(r"`([A-Z0-9_]*SCHEMA_VERSION) = "
                                       r"(\d+)`", text):
            if name not in VERSIONS:
                problems.append(f"{path.name} states {name} = {stated}, "
                                f"code declares no {name}")
            elif int(stated) != VERSIONS[name]:
                problems.append(f"{path.name} states {name} = {stated}, "
                                f"code declares {VERSIONS[name]}")
    for page, (versions, groups) in DOCS.items():
        text = (DOCS_DIR / page).read_text(encoding="utf-8")
        for name in versions:
            if f"`{name} = " not in text:
                problems.append(f"{page} never states `{name} = "
                                f"{VERSIONS[name]}`")
        backticked = set(re.findall(r"`([^`\s]+)`", text))
        for what, names in groups.items():
            for name in sorted(set(names) - backticked):
                problems.append(f"{page} does not document the {what} "
                                f"`{name}`")
    doc = spec_schema.ExperimentSpec.__doc__ or ""
    for name in sorted(spec_schema.SPEC_FIELDS):
        if not re.search(rf"\b{re.escape(name)}\b", doc):
            problems.append(f"ExperimentSpec docstring does not mention "
                            f"the field {name!r}")
    return problems


Records = List[Tuple[str, object]]


def load(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


def check_jsonl(path: Path, fields: Dict[str, tuple], kind: str,
                version: int, torn_tail_ok: bool = False
                ) -> Tuple[Records, List[str]]:
    """Every line of one JSONL file against one table.

    Returns ``[(where, record)]`` too.  With *torn_tail_ok* an
    undecodable final line is an interrupted append, not a problem.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    records, problems = [], []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i < len(lines) or not torn_tail_ok:
                problems.append(f"{path}:{i}: invalid JSON")
            continue
        records.append((f"{path}:{i}", record))
        problems.extend(check_record(record, fields, f"{path}:{i}", kind,
                                     version))
    if not records:
        problems.append(f"{path}: holds no records")
    return records, problems


def seq_problems(records: Records, stream: Callable[[dict], object]) -> List[str]:
    """``seq`` must strictly increase within each ``stream(record)``."""
    last: Dict[object, int] = {}
    problems = []
    for where, record in records:
        if isinstance(record, dict) and isinstance(record.get("seq"), int):
            key, seq = stream(record), record["seq"]
            if seq <= last.get(key, -1):
                problems.append(f"{where}: seq {seq} not increasing "
                                f"(last {last[key]})")
            last[key] = seq
    return problems


def check_telemetry(path: Path) -> List[str]:
    records, problems = check_jsonl(path, telemetry.SNAPSHOT_FIELDS,
                                    telemetry.TELEMETRY_KIND,
                                    telemetry.OBS_SCHEMA_VERSION,
                                    torn_tail_ok=True)
    return problems + seq_problems(records, lambda r: None)


def check_events(path: Path) -> List[str]:
    records, problems = check_jsonl(path, service_jobs.EVENT_FIELDS,
                                    service_jobs.JOB_EVENT_KIND,
                                    service_jobs.SERVICE_SCHEMA_VERSION)
    for where, event in records:
        if not isinstance(event, dict):
            continue
        if event.get("event") not in service_jobs.EVENT_KINDS:
            problems.append(f"{where}: unknown event {event.get('event')!r}")
        if event.get("state") not in service_jobs.JOB_STATES:
            problems.append(f"{where}: unknown state {event.get('state')!r}")
    return problems + seq_problems(records, lambda r: r.get("job_id"))


def check_spans(path: Path) -> List[str]:
    records, problems = check_jsonl(path, context.SPAN_FIELDS,
                                    context.SPAN_KIND,
                                    context.SPAN_SCHEMA_VERSION,
                                    torn_tail_ok=True)
    trace_ids = {r["trace_id"] for _, r in records
                 if isinstance(r, dict) and isinstance(r.get("trace_id"), str)}
    if len(trace_ids) > 1:
        problems.append(f"{path}: fragment mixes trace ids {sorted(trace_ids)}")
    return problems


def check_slo(path: Path) -> List[str]:
    rows = load(path)
    if not isinstance(rows, list) or not rows:
        return [f"{path}: expected a non-empty JSON array of SLO rows"]
    problems = []
    for i, row in enumerate(rows):
        problems.extend(check_record(row, slo.SLO_FIELDS, f"{path}[{i}]",
                                     slo.SLO_KIND, slo.SLO_SCHEMA_VERSION))
    return problems


def check_gantt(path: Path) -> List[str]:
    payload = load(path)
    problems = check_record(payload, gantt.GANTT_FIELDS, str(path),
                            gantt.GANTT_KIND, gantt.GANTT_SCHEMA_VERSION)
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if isinstance(rows, list):
        if not rows:
            problems.append(f"{path}: payload holds no rows")
        for i, row in enumerate(rows):
            problems.extend(check_record(row, gantt.GANTT_ROW_FIELDS,
                                         f"{path}.rows[{i}]"))
    return problems


def check_stitched(path: Path, trace_id: Optional[str]) -> List[str]:
    """A root ``request`` span and a ``kernel.run`` span, on one trace id."""
    payload = load(path)
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list) or not events:
        return [f"{path}: no traceEvents array"]
    events = [e for e in events if isinstance(e, dict)]
    requests = [e for e in events
                if e.get("name") == "request" and e.get("ph") == "X"]
    kernels = [e for e in events if e.get("name") == "kernel.run"]
    problems = []
    if not requests:
        problems.append(f"{path}: no complete 'request' root span")
    if not kernels:
        problems.append(f"{path}: no 'kernel.run' worker span "
                        f"(campaign propagation broken)")
    if trace_id is not None:
        for e in requests + kernels:
            args = e.get("args")
            got = args.get("trace_id") if isinstance(args, dict) else None
            if got != trace_id:
                problems.append(f"{path}: span {e.get('name')!r} carries "
                                f"trace_id {got!r}, expected {trace_id!r}")
    return problems


#: The service journal's record kinds and the table each line must match.
JOURNAL_TABLES = {
    service_jobs.JOB_KIND: (service_jobs.JOB_FIELDS,
                            service_jobs.SERVICE_SCHEMA_VERSION),
    service_jobs.JOB_EVENT_KIND: (service_jobs.EVENT_FIELDS,
                                  service_jobs.SERVICE_SCHEMA_VERSION),
    service_jobs.JOB_CELLS_KIND: (service_jobs.JOB_CELLS_FIELDS,
                                  service_jobs.SERVICE_SCHEMA_VERSION),
    service_jobs.JOB_ENTRY_KIND: (service_jobs.JOB_ENTRY_FIELDS,
                                  service_jobs.SERVICE_SCHEMA_VERSION),
    context.SPAN_KIND: (context.SPAN_FIELDS, context.SPAN_SCHEMA_VERSION),
}


def check_store(root: Path) -> List[str]:
    """``schema.json`` and every entry carry the code's version, each
    entry lives at the path its key derives, and the service journal's
    lines match their tables (:func:`check_journal`)."""
    version = store.SCHEMA_VERSION
    problems = []
    for path in [root / "schema.json", *sorted(root.glob("??/*.json"))]:
        record = load(path)
        record = record if isinstance(record, dict) else {}
        if record.get("schema_version") != version:
            problems.append(f"{path}: schema_version is "
                            f"{record.get('schema_version')!r}, code "
                            f"declares {version}")
        key = record.get("key", "")
        if path.name != "schema.json" and (
                path.stem != key or path.parent.name != key[:2]):
            problems.append(f"{path}: path does not match its key {key!r}")
    return problems + check_journal(root)


def check_journal(root: Path) -> List[str]:
    """Every journal line against its kind's table.

    Events must be known and, per job, ``seq`` must increase except where
    a 0 begins a new registration (a restarted serve re-enqueued the
    job).  Each result index must name entries the store holds.  A
    piece after the last newline is an interrupted append: it is printed
    as torn, not counted as a problem.
    """
    journal = Journal(journal_dir(root))
    problems = []
    seqs: Dict[object, int] = {}
    for offset, line in journal.lines():
        where = f"{journal.directory}@{offset}"
        try:
            record = json.loads(line)
        except ValueError:
            problems.append(f"{where}: invalid JSON")
            continue
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind not in JOURNAL_TABLES:
            problems.append(f"{where}: unknown record kind {kind!r}")
            continue
        fields, version = JOURNAL_TABLES[kind]
        problems.extend(check_record(record, fields, where, kind, version))
        if kind == service_jobs.JOB_EVENT_KIND:
            if record.get("event") not in service_jobs.EVENT_KINDS:
                problems.append(f"{where}: unknown event "
                                f"{record.get('event')!r}")
            seq, job = record.get("seq"), record.get("job_id")
            if isinstance(seq, int) and seq != 0 and seq <= seqs.get(job, -1):
                problems.append(f"{where}: seq {seq} not increasing "
                                f"(last {seqs[job]})")
            seqs[job] = seq
        elif kind == service_jobs.JOB_CELLS_KIND:
            cells = record.get("cells")
            for i, cell in enumerate(cells if isinstance(cells, list) else []):
                key = cell.get("store_key") if isinstance(cell, dict) else None
                if not (isinstance(cell, dict)
                        and isinstance(cell.get("key"), list)
                        and isinstance(key, str)):
                    problems.append(f"{where}: cells[{i}] is not "
                                    f"{{\"key\": [...], \"store_key\": str}}")
                elif not (root / key[:2] / f"{key}.json").is_file():
                    problems.append(f"{where}: cells[{i}] names {key!r}, "
                                    f"which the store does not hold")
    if journal.starts:
        last = journal.starts[-1]
        data = journal.segment_path(last).read_bytes()
        torn = len(data) - data.rfind(b"\n") - 1
        if torn:
            print(f"note: {journal.directory}@{last + len(data) - torn}: "
                  f"torn final line ({torn} bytes of an interrupted "
                  f"append)")
    return problems


def check_sched(path: Path) -> List[str]:
    payload = load(path)
    problems = [f"{path}: {p}" for p in validate_sched_payload(payload)]
    sha = payload.get("git_sha") if isinstance(payload, dict) else None
    if isinstance(sha, str) and path.name != sched_filename(sha):
        problems.append(f"{path}: file name does not match git_sha {sha!r} "
                        f"(expected {sched_filename(sha)})")
    return problems


def check_spec(path: Path) -> List[str]:
    try:
        load_spec(path)
    except SpecError as exc:
        return [f"{path}: {p}" for p in exc.problems]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check the package's declared record tables against "
                    "docs/, committed artifacts and the files named here.")
    files = {
        "--telemetry": "campaign telemetry JSONL (<store>/telemetry.jsonl)",
        "--spans": "span-fragment JSONL (<store>/obs/trace/<id>/*.jsonl)",
        "--slo": "SLO rows JSON (pckpt obs slo --json)",
        "--gantt": "Gantt payload JSON (pckpt sched gantt --json)",
        "--stitched": "stitched Chrome trace JSON (pckpt obs stitch)",
        "--events": "service job-event NDJSON (pckpt watch)",
        "--store": "campaign store directories",
        "--sched": "sched baseline payloads (SCHED_<sha>.json)",
        "--spec": "experiment spec documents",
    }
    for flag, what in files.items():
        parser.add_argument(flag, nargs="+", type=Path, default=[],
                            metavar="PATH", help=f"{what} to validate")
    parser.add_argument("--trace-id", default=None, metavar="ID",
                        help="with --stitched: the trace id the request "
                             "and kernel spans must carry")
    args = parser.parse_args(argv)

    specs = sorted(EXAMPLE_SPECS.glob("*.json"))
    baselines = sorted(SCHED_BASELINES.glob("SCHED_*.json"))
    problems = check_docs()
    if not specs:
        problems.append(f"{EXAMPLE_SPECS} holds no example specs")
    if not baselines:
        problems.append(f"{SCHED_BASELINES} holds no SCHED_*.json baseline")
    checks = [
        (specs + args.spec, check_spec),
        (baselines + args.sched, check_sched),
        (args.telemetry, check_telemetry),
        (args.spans, check_spans),
        (args.slo, check_slo),
        (args.gantt, check_gantt),
        (args.stitched, lambda p: check_stitched(p, args.trace_id)),
        (args.events, check_events),
        (args.store, check_store),
    ]
    checked = 0
    for paths, check in checks:
        for path in paths:
            try:
                problems.extend(check(path))
            except (OSError, ValueError) as exc:
                problems.append(f"{path}: unreadable ({exc})")
            checked += 1

    if problems:
        print("schema check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"schemas OK ({len(VERSIONS)} versions across {len(DOCS)} docs, "
          f"{checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
