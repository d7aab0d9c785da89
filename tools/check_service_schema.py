#!/usr/bin/env python3
"""Schema-sync check for the campaign service (``repro.service``).

Keeps every surface that speaks the service schema agreeing with the
single source of truth — the declarative tables in
``src/repro/service/jobs.py`` — all parsed from source so this runs
dependency-free in CI (no package import needed), following the
``check_obs_schema`` convention:

* the ``SERVICE_SCHEMA_VERSION``, record kinds, ``JOB_STATES`` /
  ``JOB_TRANSITIONS`` / ``EVENT_KINDS`` state machine, and the
  ``JOB_FIELDS`` / ``EVENT_FIELDS`` tables declared in the source;
* internal consistency of those tables (transitions only between
  declared states, terminal states final, one event kind per state);
* ``docs/SERVICE.md``: must state the schema version and mention every
  field, state, and event kind in backticks;
* any NDJSON event streams passed via ``--events`` (e.g. captured by
  the CI service smoke step): every line must be a declared-shape
  event record with strictly increasing per-job ``seq``.

Exits non-zero with a description of every mismatch.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
JOBS_PY = ROOT / "src" / "repro" / "service" / "jobs.py"
DOC = ROOT / "docs" / "SERVICE.md"

VERSION_DECL = re.compile(
    r"^SERVICE_SCHEMA_VERSION\s*[:=]\s*(?:int\s*=\s*)?(\d+)\s*$", re.MULTILINE
)
VERSION_DOC = re.compile(r"`SERVICE_SCHEMA_VERSION = (\d+)`")
KIND_DECLS = ("JOB_KIND", "JOB_EVENT_KIND", "JOB_RESULT_KIND",
              "SERVICE_STATUS_KIND")

#: Python type name -> JSON validator.  ``float`` accepts ints (JSON
#: has one number type); ``bool`` is never a valid numeric value.
_CHECKERS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "dict": lambda v: isinstance(v, dict),
}


def _top_level_assigns(tree: ast.Module) -> Dict[str, ast.expr]:
    out: Dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                out[node.target.id] = node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            out[node.targets[0].id] = node.value
    return out


def _field_table(name: str, node: ast.expr) -> Dict[str, Tuple[str, bool]]:
    if not isinstance(node, ast.Dict):
        raise SystemExit(f"{name} in {JOBS_PY} is not a dict literal")
    fields: Dict[str, Tuple[str, bool]] = {}
    for key, value in zip(node.keys, node.values):
        field = ast.literal_eval(key)
        type_node, nullable_node = value.elts
        if not isinstance(type_node, ast.Name):
            raise SystemExit(f"{name}[{field!r}] type is not a bare name")
        fields[field] = (type_node.id, ast.literal_eval(nullable_node))
    unknown = sorted(t for t, _ in fields.values() if t not in _CHECKERS)
    if unknown:
        raise SystemExit(f"{name} uses unvalidatable types: {unknown}")
    return fields


class Declared:
    """Everything ``jobs.py`` declares, parsed from source."""

    def __init__(self) -> None:
        text = JOBS_PY.read_text(encoding="utf-8")
        version = VERSION_DECL.search(text)
        if not version:
            raise SystemExit(
                f"no SERVICE_SCHEMA_VERSION declaration in {JOBS_PY}"
            )
        self.version = int(version.group(1))
        assigns = _top_level_assigns(ast.parse(text))
        self.kinds: Dict[str, str] = {}
        for name in KIND_DECLS:
            if name not in assigns:
                raise SystemExit(f"no {name} declaration in {JOBS_PY}")
            self.kinds[name] = ast.literal_eval(assigns[name])
        for name in ("JOB_STATES", "TERMINAL_STATES", "EVENT_KINDS",
                     "JOB_TRANSITIONS"):
            if name not in assigns:
                raise SystemExit(f"no {name} declaration in {JOBS_PY}")
        self.states = list(ast.literal_eval(assigns["JOB_STATES"]))
        self.terminal = list(ast.literal_eval(assigns["TERMINAL_STATES"]))
        self.transitions = dict(ast.literal_eval(assigns["JOB_TRANSITIONS"]))
        self.event_kinds = list(ast.literal_eval(assigns["EVENT_KINDS"]))
        self.job_fields = _field_table("JOB_FIELDS", assigns.get("JOB_FIELDS"))
        self.event_fields = _field_table(
            "EVENT_FIELDS", assigns.get("EVENT_FIELDS")
        )


def check_consistency(decl: Declared) -> List[str]:
    """The declared state machine must be internally coherent."""
    problems = []
    for state in decl.terminal:
        if state not in decl.states:
            problems.append(f"terminal state {state!r} not in JOB_STATES")
        if decl.transitions.get(state):
            problems.append(
                f"terminal state {state!r} has outgoing transitions"
            )
    for source, targets in decl.transitions.items():
        if source not in decl.states:
            problems.append(f"transition source {source!r} not in JOB_STATES")
        for target in targets:
            if target not in decl.states:
                problems.append(
                    f"transition {source!r} -> {target!r} leaves JOB_STATES"
                )
    for state in decl.states:
        if state not in decl.event_kinds:
            problems.append(
                f"state {state!r} has no entry event in EVENT_KINDS"
            )
    kinds = list(decl.kinds.values())
    if len(set(kinds)) != len(kinds):
        problems.append(f"record kinds collide: {kinds}")
    return problems


def check_docs(decl: Declared) -> List[str]:
    """The doc must state the version and mention every name."""
    if not DOC.exists():
        return [f"{DOC} is missing (the service schema must be documented)"]
    text = DOC.read_text(encoding="utf-8")
    problems = []
    documented = [int(v) for v in VERSION_DOC.findall(text)]
    if not documented:
        problems.append(
            f"{DOC} never states the service schema version (expected a "
            f"backticked 'SERVICE_SCHEMA_VERSION = {decl.version}')"
        )
    for doc_version in documented:
        if doc_version != decl.version:
            problems.append(
                f"{DOC} documents service schema version {doc_version}, "
                f"code declares {decl.version}"
            )
    backticked = set(re.findall(r"`([^`\s]+)`", text))
    for group, names in (
        ("job field", decl.job_fields),
        ("event field", decl.event_fields),
        ("job state", decl.states),
        ("event kind", decl.event_kinds),
        ("record kind", decl.kinds.values()),
    ):
        for name in sorted(set(names)):
            if name not in backticked:
                problems.append(f"{DOC} does not document the {group} `{name}`")
    return problems


def check_events_file(path: Path, decl: Declared) -> List[str]:
    """Every line of one NDJSON event stream must match the schema."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    problems = []
    last_seq: Dict[str, int] = {}
    events = 0
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"{path}:{i}: invalid JSON")
            continue
        events += 1
        if not isinstance(event, dict):
            problems.append(f"{path}:{i}: line is not an object")
            continue
        if event.get("kind") != decl.kinds["JOB_EVENT_KIND"]:
            problems.append(
                f"{path}:{i}: kind is {event.get('kind')!r}, not "
                f"{decl.kinds['JOB_EVENT_KIND']!r}"
            )
        if event.get("schema_version") != decl.version:
            problems.append(
                f"{path}:{i}: schema_version is "
                f"{event.get('schema_version')!r}, code declares "
                f"{decl.version}"
            )
        for name in sorted(set(event) - set(decl.event_fields)):
            problems.append(f"{path}:{i}: undeclared field {name!r}")
        for name, (type_name, nullable) in decl.event_fields.items():
            if name not in event:
                problems.append(f"{path}:{i}: missing field {name!r}")
                continue
            value = event[name]
            if value is None:
                if not nullable:
                    problems.append(
                        f"{path}:{i}: {name} is null but not nullable"
                    )
            elif not _CHECKERS[type_name](value):
                problems.append(
                    f"{path}:{i}: {name} must be {type_name}, got {value!r}"
                )
        if event.get("event") not in decl.event_kinds:
            problems.append(
                f"{path}:{i}: unknown event kind {event.get('event')!r}"
            )
        if event.get("state") not in decl.states:
            problems.append(
                f"{path}:{i}: unknown state {event.get('state')!r}"
            )
        job_id, seq = event.get("job_id"), event.get("seq")
        if isinstance(job_id, str) and isinstance(seq, int):
            if seq <= last_seq.get(job_id, -1):
                problems.append(
                    f"{path}:{i}: seq {seq} not increasing for {job_id} "
                    f"(last {last_seq[job_id]})"
                )
            last_seq[job_id] = seq
    if events == 0:
        problems.append(f"{path}: holds no event records")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", nargs="+", type=Path, default=[],
                        metavar="PATH",
                        help="NDJSON job-event streams to validate")
    args = parser.parse_args(argv)

    decl = Declared()
    problems = check_consistency(decl)
    problems.extend(check_docs(decl))
    for path in args.events:
        problems.extend(check_events_file(path, decl))

    if problems:
        print("service schema check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"service schema OK (version {decl.version}, "
        f"{len(decl.job_fields)} job fields, "
        f"{len(decl.event_fields)} event fields, "
        f"{len(args.events)} event stream(s) checked)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
